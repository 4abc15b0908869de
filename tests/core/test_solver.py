"""Tests of the sequential solver (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.ib import geometry
from repro.core.lbm.boundaries import BounceBackWall
from repro.core.lbm.fields import FluidGrid
from repro.core.solver import SequentialLBMIBSolver
from repro.errors import ConfigurationError, StabilityError


def _setup(shape=(12, 10, 8), perturb=True):
    grid = FluidGrid(shape, tau=0.8)
    structure = geometry.flat_sheet(
        shape, num_fibers=4, nodes_per_fiber=4, stretch_coefficient=0.03
    )
    if perturb:
        structure.sheets[0].positions[1, 1, 0] += 0.6
    return grid, structure


class TestStepping:
    def test_run_advances_time(self):
        grid, structure = _setup()
        solver = SequentialLBMIBSolver(grid, structure)
        solver.run(5)
        assert solver.time_step == 5

    def test_negative_steps_rejected(self):
        grid, structure = _setup()
        solver = SequentialLBMIBSolver(grid, structure)
        with pytest.raises(ValueError):
            solver.run(-1)

    def test_observer_called_each_step(self):
        grid, structure = _setup()
        solver = SequentialLBMIBSolver(grid, structure)
        seen = []
        solver.run(4, observer=lambda step, s: seen.append(step))
        assert seen == [1, 2, 3, 4]

    def test_mass_conserved_periodic(self):
        grid, structure = _setup()
        solver = SequentialLBMIBSolver(grid, structure)
        m0 = grid.total_mass()
        solver.run(10)
        assert grid.total_mass() == pytest.approx(m0, rel=1e-12)

    def test_momentum_conserved_periodic(self):
        """Internal elastic forces add no net momentum."""
        grid, structure = _setup()
        solver = SequentialLBMIBSolver(grid, structure)
        solver.run(10)
        np.testing.assert_allclose(grid.total_momentum(), 0.0, atol=1e-11)

    def test_perturbed_sheet_relaxes(self):
        grid, structure = _setup()
        sheet = structure.sheets[0]
        start = sheet.positions[1, 1, 0]
        SequentialLBMIBSolver(grid, structure).run(30)
        assert sheet.positions[1, 1, 0] < start

    def test_force_field_reset_after_step(self):
        grid, structure = _setup()
        SequentialLBMIBSolver(grid, structure).run(3)
        assert not grid.force.any()

    def test_fluid_only_run(self):
        grid = FluidGrid((8, 8, 8), tau=0.8)
        solver = SequentialLBMIBSolver(grid, None)
        solver.run(3)
        assert solver.time_step == 3


class TestStabilityAndErrors:
    def test_stability_check_raises_on_blowup(self):
        grid, structure = _setup()
        # absurd stiffness at huge displacement -> immediate blow-up
        structure.sheets[0].stretch_coefficient = 1e6
        structure.sheets[0].positions[1, 1, 0] += 2.0
        solver = SequentialLBMIBSolver(grid, structure, check_stability_every=1)
        with pytest.raises(StabilityError):
            solver.run(50)

    def test_duplicate_boundaries_rejected(self):
        grid, structure = _setup()
        with pytest.raises(ConfigurationError):
            SequentialLBMIBSolver(
                grid,
                structure,
                boundaries=[BounceBackWall(0, "low"), BounceBackWall(0, "low")],
            )


class TestExternalForce:
    def test_seeded_at_construction(self):
        grid = FluidGrid((6, 6, 6), tau=0.8)
        SequentialLBMIBSolver(grid, None, external_force=(1e-5, 0, 0))
        np.testing.assert_allclose(grid.force[0], 1e-5)

    def test_reseeded_after_each_step(self):
        grid = FluidGrid((6, 6, 6), tau=0.8)
        solver = SequentialLBMIBSolver(grid, None, external_force=(1e-5, 0, 0))
        solver.run(2)
        np.testing.assert_allclose(grid.force[0], 1e-5)
        np.testing.assert_allclose(grid.force[1:], 0.0)

    def test_body_force_accelerates_periodic_fluid(self):
        grid = FluidGrid((6, 6, 6), tau=0.8)
        solver = SequentialLBMIBSolver(grid, None, external_force=(1e-5, 0, 0))
        solver.run(10)
        # each step adds F per node of momentum; the velocity-shift
        # scheme lags the force by one step (the first collision uses the
        # initial shifted velocity, which carries no force yet)
        expected = 9 * 1e-5 * grid.num_nodes
        assert grid.total_momentum()[0] == pytest.approx(expected, rel=1e-10)


class TestDiagnostics:
    def test_snapshot_fields(self):
        grid, structure = _setup()
        solver = SequentialLBMIBSolver(grid, structure)
        solver.run(2)
        snap = solver.snapshot()
        assert snap["velocity"].shape == (3,) + grid.shape
        assert len(snap["fiber_positions"]) == 1
        # snapshot is a copy
        snap["velocity"][...] = 99
        assert not (grid.velocity == 99).any()

    def test_tracer_sees_all_nine_kernels(self):
        from repro.api import Simulation, SimulationConfig, StructureConfig
        from repro.core.kernels import KERNEL_NAMES
        from repro.observe import Telemetry

        sim = Simulation(
            SimulationConfig(
                fluid_shape=(12, 10, 8),
                structure=StructureConfig(num_fibers=4, nodes_per_fiber=4),
            )
        )
        telemetry = Telemetry()
        sim.attach_telemetry(telemetry)
        sim.run(1)
        assert set(telemetry.tracer.flat_profile().seconds) == set(KERNEL_NAMES)
