"""Physics invariant checkers: pass on sane states, catch violations."""

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.core.ib import geometry
from repro.core.lbm.fields import FluidGrid
from repro.errors import InvariantError
from repro.verify import (
    DistributionPositivity,
    FiberArcLength,
    FiniteFields,
    InvariantSuite,
    MassConservation,
    MomentumConsistency,
)
from repro.verify.oracle import seeded_initial_fluid

pytestmark = pytest.mark.verify


def _sane_fluid(seed=0, shape=(8, 6, 4)):
    grid = FluidGrid(shape, tau=0.8)
    rng = np.random.default_rng(seed)
    grid.initialize_equilibrium(
        density=1.0 + 0.01 * rng.standard_normal(grid.shape),
        velocity=0.01 * rng.standard_normal((3,) + grid.shape),
    )
    return grid


class TestFiniteFields:
    def test_passes_on_sane_state(self):
        FiniteFields().check(_sane_fluid(), None, step=1)

    def test_catches_nan_in_fluid(self):
        grid = _sane_fluid()
        grid.velocity[1, 2, 3, 0] = np.nan
        with pytest.raises(InvariantError) as exc:
            FiniteFields().check(grid, None, step=7)
        assert exc.value.invariant == "finite_fields"
        assert exc.value.field == "velocity"
        assert exc.value.step == 7

    def test_catches_inf_in_fiber_positions(self):
        grid = _sane_fluid()
        structure = geometry.flat_sheet((8, 6, 4), num_fibers=3, nodes_per_fiber=3)
        structure.sheets[0].positions[0, 0, 0] = np.inf
        with pytest.raises(InvariantError) as exc:
            FiniteFields().check(grid, structure, step=1)
        assert "sheet0" in exc.value.field


class TestMassConservation:
    def test_passes_when_mass_constant(self):
        grid = _sane_fluid()
        inv = MassConservation()
        inv.bind(grid, None)
        inv.check(grid, None, step=1)

    def test_catches_mass_drift(self):
        grid = _sane_fluid()
        inv = MassConservation()
        inv.bind(grid, None)
        grid.df[0] *= 1.001
        with pytest.raises(InvariantError) as exc:
            inv.check(grid, None, step=3)
        assert exc.value.invariant == "mass_conservation"
        assert exc.value.value > exc.value.limit

    def test_first_check_without_bind_establishes_baseline(self):
        grid = _sane_fluid()
        inv = MassConservation()
        inv.check(grid, None, step=1)  # no bind: adopts this state
        inv.check(grid, None, step=2)


class TestMomentumConsistency:
    def test_holds_over_sequential_run_with_structure_and_force(self):
        config = SimulationConfig(
            fluid_shape=(8, 8, 8),
            tau=0.7,
            structure=StructureConfig(
                kind="flat_sheet", num_fibers=4, nodes_per_fiber=4
            ),
            external_force=(1e-5, 0.0, 0.0),
        )
        suite = InvariantSuite.default(config)
        sim = Simulation(
            config,
            initial_fluid=seeded_initial_fluid(config, 42),
            invariants=suite,
        )
        sim.run(8)
        assert suite.checks_passed == 8

    def test_catches_unexplained_momentum(self):
        grid = _sane_fluid()
        inv = MomentumConsistency()
        inv.check(grid, None, step=1)  # warm-up records baseline
        grid.df[1] += 1e-4  # inject momentum with no matching force
        with pytest.raises(InvariantError) as exc:
            inv.check(grid, None, step=2)
        assert exc.value.invariant == "momentum_consistency"


class TestDistributionPositivity:
    def test_passes_on_equilibrium(self):
        DistributionPositivity().check(_sane_fluid(), None, step=1)

    def test_catches_negative_distribution(self):
        grid = _sane_fluid()
        grid.df[3, 1, 1, 1] = -0.5
        with pytest.raises(InvariantError) as exc:
            DistributionPositivity().check(grid, None, step=2)
        assert exc.value.value == pytest.approx(-0.5)


class TestFiberArcLength:
    def test_passes_on_rest_sheet(self):
        structure = geometry.flat_sheet((8, 6, 4), num_fibers=3, nodes_per_fiber=3)
        FiberArcLength().check(_sane_fluid(), structure, step=1)

    def test_catches_overstretched_fiber(self):
        structure = geometry.flat_sheet((8, 6, 4), num_fibers=3, nodes_per_fiber=3)
        structure.sheets[0].positions[0, -1] += 20.0
        with pytest.raises(InvariantError) as exc:
            FiberArcLength(max_ratio=4.0).check(_sane_fluid(), structure, step=5)
        assert exc.value.invariant == "fiber_arc_length"

    def test_no_structure_is_fine(self):
        FiberArcLength().check(_sane_fluid(), None, step=1)


class TestDefaultSuite:
    def test_gates_on_boundaries(self):
        from repro.config import BoundaryConfig

        periodic = SimulationConfig(fluid_shape=(8, 8, 8))
        names = [i.name for i in InvariantSuite.default(periodic).invariants]
        assert "momentum_consistency" in names
        assert "mass_conservation" in names

        walls = SimulationConfig(
            fluid_shape=(8, 8, 8),
            boundaries=(
                BoundaryConfig(kind="bounce_back", axis="x", side="low"),
                BoundaryConfig(kind="bounce_back", axis="x", side="high"),
            ),
        )
        names = [i.name for i in InvariantSuite.default(walls).invariants]
        assert "momentum_consistency" not in names
        assert "mass_conservation" in names

        outflow = SimulationConfig(
            fluid_shape=(8, 8, 8),
            boundaries=(BoundaryConfig(kind="outflow", axis="x", side="high"),),
        )
        names = [i.name for i in InvariantSuite.default(outflow).invariants]
        assert "mass_conservation" not in names

    def test_no_fiber_check_for_fluid_only(self):
        config = SimulationConfig(structure=StructureConfig(kind="none"))
        names = [i.name for i in InvariantSuite.default(config).invariants]
        assert "fiber_arc_length" not in names

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            InvariantSuite([], every=0)


class TestSuiteOnAllVariants:
    """The default suite passes per-step on every solver variant."""

    @pytest.mark.parametrize(
        "solver", ["sequential", "openmp", "cube", "async_cube", "distributed", "hybrid"]
    )
    def test_suite_passes(self, solver):
        config = SimulationConfig(
            fluid_shape=(8, 8, 8),
            tau=0.8,
            solver=solver,
            num_threads=2,
            cube_size=4,
            structure=StructureConfig(
                kind="flat_sheet", num_fibers=3, nodes_per_fiber=3
            ),
        )
        suite = InvariantSuite.default(config)
        with Simulation(
            config,
            initial_fluid=seeded_initial_fluid(config, 11),
            invariants=suite,
        ) as sim:
            sim.run(3)
            assert suite.checks_passed == 3
            assert sim.time_step == 3
