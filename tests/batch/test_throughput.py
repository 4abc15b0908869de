"""Batching pays: a B=4 batched sweep beats looping four solo runs.

The batched grid turns each fluid kernel into one numpy call for all
slots, so on a dispatch-dominated small grid the batch must take less
wall time than the same four simulations stepped round-robin.  Both
sides are timed with the autotuner's interleaved min-of-R discipline,
not one contiguous block, so one transient stall cannot decide it.
"""

import pytest

from repro.api import Simulation
from repro.batch import BatchedFluidGrid, BatchedLBMIBSolver
from repro.config import SimulationConfig, StructureConfig
from repro.tuning.cube import interleaved_min_seconds
from repro.verify import seeded_initial_fluid

pytestmark = pytest.mark.slow

BATCH = 4
STEPS = 5


def test_b4_batched_sweep_beats_solo_loop():
    config = SimulationConfig(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        solver="fused",
        structure=StructureConfig(kind="none"),
    )
    fluids = [seeded_initial_fluid(config, seed) for seed in range(BATCH)]
    sims = [Simulation(config, initial_fluid=fluid.copy()) for fluid in fluids]
    grid = BatchedFluidGrid(config.fluid_shape, BATCH, tau=config.effective_tau)
    batched = BatchedLBMIBSolver(grid, boundaries=config.build_boundaries())
    for slot, fluid in enumerate(fluids):
        batched.load_slot(slot, fluid)

    def solo_loop():
        for _ in range(STEPS):
            for sim in sims:
                sim.run(1)

    try:
        solo_loop()  # warmup: arenas, shift tables
        batched.run(STEPS)
        (solo_s, batched_s), _ = interleaved_min_seconds(
            [solo_loop, lambda: batched.run(STEPS)], repeats=5
        )
    finally:
        for sim in sims:
            sim.close()
    assert batched_s < solo_s, (
        f"B={BATCH} batched {batched_s * 1e3:.2f} ms vs "
        f"solo loop {solo_s * 1e3:.2f} ms"
    )
