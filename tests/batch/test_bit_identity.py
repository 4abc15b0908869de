"""Every batch slot is bit-identical to its solo sequential run.

A batched slot runs the solo sweep and kernel-7 code (elementwise
ufuncs, the direction-axis reduction and the stacked matmul are all
bit-identical across the extra batch axis), so batching is a pure
throughput transformation: ``np.array_equal``, not a tolerance, is the
assertion here — the same standard the fused variant is held to.
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.batch import BatchedFluidGrid, BatchedLBMIBSolver
from repro.config import BoundaryConfig, SimulationConfig, StructureConfig
from repro.verify.oracle import seeded_initial_fluid

pytestmark = pytest.mark.verify

_FIELDS = ("df", "density", "velocity", "velocity_shifted", "force")


def _config(operator="bgk", structure_kind="flat_sheet", **overrides):
    structure = (
        StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3)
        if structure_kind == "flat_sheet"
        else StructureConfig(kind="none")
    )
    defaults = dict(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        collision_operator=operator,
        structure=structure,
        external_force=(1e-5, 0.0, 0.0),
        boundaries=(
            BoundaryConfig("bounce_back", "z", "high", wall_velocity=(0.02, 0.0, 0.0)),
            BoundaryConfig("bounce_back", "z", "low"),
            BoundaryConfig("outflow", "x", "high"),
        ),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _solo_run(config, fluid, structure, steps):
    with Simulation(
        config,
        initial_fluid=fluid.copy(),
        initial_structure=structure.copy() if structure is not None else None,
    ) as sim:
        sim.run(steps)
        state = {name: np.array(getattr(sim.fluid, name)) for name in _FIELDS}
        if sim.structure is not None:
            for si, sheet in enumerate(sim.structure.sheets):
                state[f"sheet{si}.positions"] = np.array(sheet.positions)
                state[f"sheet{si}.velocity"] = np.array(sheet.velocity)
    return state


@pytest.mark.parametrize("operator", ["bgk", "trt"])
def test_mixed_batch_matches_solo_sequential(operator):
    """A 3-slot batch — two FSI slots with different initial fluids and
    one fluid-only slot — under walls, outflow and a body force: every
    slot's final state equals its solo sequential run exactly."""
    config = _config(operator=operator)
    steps = 6
    structures = [config.build_structure(), None, config.build_structure()]
    fluids = [seeded_initial_fluid(config, seed) for seed in (11, 12, 13)]

    grid = BatchedFluidGrid(
        config.fluid_shape,
        3,
        tau=config.effective_tau,
        collision_operator=config.collision_operator,
    )
    solver = BatchedLBMIBSolver(
        grid,
        delta=config.build_delta(),
        boundaries=config.build_boundaries(),
        dt=config.dt,
        external_force=config.external_force,
    )
    for slot in range(3):
        solver.load_slot(
            slot,
            fluids[slot],
            structures[slot].copy() if structures[slot] is not None else None,
        )
    solver.run(steps)

    for slot in range(3):
        expected = _solo_run(config, fluids[slot], structures[slot], steps)
        view = grid.view(slot)
        for name in _FIELDS:
            assert np.array_equal(getattr(view, name), expected[name]), (
                f"slot {slot} field {name} differs from solo sequential"
            )
        structure = solver.structures[slot]
        if structure is not None:
            for si, sheet in enumerate(structure.sheets):
                assert np.array_equal(sheet.positions, expected[f"sheet{si}.positions"])
                assert np.array_equal(sheet.velocity, expected[f"sheet{si}.velocity"])


def test_result_independent_of_batch_composition():
    """The same simulation run in a batch of 1 and in a batch of 4
    (with three unrelated neighbours) produces bit-identical state —
    slots never interact."""
    config = _config(operator="bgk")
    fluid = seeded_initial_fluid(config, 21)
    steps = 5

    def run_in_batch(batch, slot):
        grid = BatchedFluidGrid(
            config.fluid_shape, batch, tau=config.effective_tau
        )
        solver = BatchedLBMIBSolver(
            grid,
            delta=config.build_delta(),
            boundaries=config.build_boundaries(),
            dt=config.dt,
            external_force=config.external_force,
        )
        for s in range(batch):
            solver.load_slot(
                s,
                fluid if s == slot else seeded_initial_fluid(config, 100 + s),
                config.build_structure(),
            )
        solver.run(steps)
        return grid.gather_slot(slot)

    alone = run_in_batch(1, 0)
    crowded = run_in_batch(4, 2)
    for name in _FIELDS:
        assert np.array_equal(getattr(alone, name), getattr(crowded, name)), name


def test_nan_in_one_slot_never_crosses_the_batch_axis():
    """Streaming is per-slot periodic: a diverged (all-NaN) slot leaves
    its neighbours' trajectories bit-identical."""
    config = _config(structure_kind="none")
    healthy = seeded_initial_fluid(config, 31)
    poisoned = seeded_initial_fluid(config, 32)
    poisoned.df[...] = np.nan
    steps = 4

    grid = BatchedFluidGrid(config.fluid_shape, 2, tau=config.effective_tau)
    solver = BatchedLBMIBSolver(
        grid,
        delta=config.build_delta(),
        boundaries=config.build_boundaries(),
        dt=config.dt,
        external_force=config.external_force,
    )
    solver.load_slot(0, healthy)
    solver.load_slot(1, poisoned)
    solver.run(steps)

    assert not grid.slot_finite(1)
    expected = _solo_run(config, healthy, None, steps)
    view = grid.view(0)
    for name in _FIELDS:
        assert np.array_equal(getattr(view, name), expected[name]), name
