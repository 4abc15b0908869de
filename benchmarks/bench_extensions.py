"""Benchmarks: the paper's future-work extensions, measured.

The paper's conclusion names three extensions; all are implemented and
compared here against the barrier-based cube solver on the same input:

* dynamic task scheduling instead of global barriers
  (:class:`~repro.parallel.AsyncCubeLBMIBSolver`),
* distributed memory via message passing
  (:class:`~repro.distributed.DistributedLBMIBSolver`, with rank slabs
  in the global or the cube-centric layout),
* auto-tuning of the cube size (:mod:`repro.tuning`).
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, StructureConfig
from repro.core.ib import geometry
from repro.core.lbm.fields import FluidGrid
from repro.distributed import DistributedLBMIBSolver
from repro.io.csvout import write_csv
from repro.machine.spec import thog
from repro.parallel import AsyncCubeLBMIBSolver, CubeGrid, CubeLBMIBSolver
from repro.profiling.report import render_table
from repro.tuning import autotune_cube_size, suggest_cube_size

SHAPE = (16, 16, 16)


def _state():
    grid = FluidGrid(SHAPE, tau=0.8)
    structure = geometry.flat_sheet(
        SHAPE, num_fibers=8, nodes_per_fiber=8, stretch_coefficient=0.02
    )
    structure.sheets[0].positions[4, 4, 0] += 0.5
    return grid, structure


def test_async_vs_barrier_cube_solver(benchmark, emit, results_dir):
    """Barrier-based vs task-scheduled cube solver on identical input."""
    grid, structure = _state()
    cg = CubeGrid.from_fluid_grid(grid, cube_size=4)
    barrier_solver = CubeLBMIBSolver(cg, structure, num_threads=2)
    barrier_solver.run(1)

    grid2, structure2 = _state()
    cg2 = CubeGrid.from_fluid_grid(grid2, cube_size=4)
    async_solver = AsyncCubeLBMIBSolver(cg2, structure2, num_threads=2)
    async_solver.run(1)

    import time

    t0 = time.perf_counter()
    barrier_solver.run(3)
    barrier_time = time.perf_counter() - t0

    result = benchmark.pedantic(
        async_solver.run, args=(3,), rounds=1, iterations=1
    )
    crossings = sum(b.stats.crossings for b in async_solver.barriers.values())
    emit(
        "extension_async_schedule",
        render_table(
            ["Schedule", "Barrier crossings (4 steps)", "Note"],
            [
                ["3 global barriers / step", 3 * 4, "paper Algorithm 4"],
                ["dynamic task graph", crossings, "future-work prototype"],
            ],
            title="Extension: dynamic task scheduling removes the global barriers",
        )
        + f"\nbarrier-solver 3 steps: {barrier_time:.3f}s",
    )
    assert crossings == 0


def test_distributed_solver_step(benchmark, emit, results_dir):
    """Distributed ranks with halo exchange; reports traffic volume."""
    grid, structure = _state()
    solver = DistributedLBMIBSolver(grid, structure, num_ranks=2)
    solver.run(1)
    benchmark(solver.run, 1)
    steps = solver.time_step
    emit(
        "extension_distributed",
        render_table(
            ["Ranks", "Steps", "Messages", "Halo bytes"],
            [
                [
                    solver.num_ranks,
                    steps,
                    solver.comm.total_messages(),
                    solver.comm.total_bytes_sent(),
                ]
            ],
            title="Extension: distributed-memory halo exchange traffic",
        ),
    )
    write_csv(
        results_dir / "extension_distributed.csv",
        ["ranks", "steps", "messages", "bytes"],
        [[solver.num_ranks, steps, solver.comm.total_messages(), solver.comm.total_bytes_sent()]],
    )


def test_hybrid_distributed_cube_step(benchmark, emit, results_dir):
    """The cube layout inside every rank — the paper's exact future work."""
    grid, structure = _state()
    solver = DistributedLBMIBSolver(grid, structure, num_ranks=2, cube_size=4)
    solver.run(1)
    benchmark(solver.run, 1)
    emit(
        "extension_hybrid",
        render_table(
            ["Ranks", "Cube size", "Slab planes", "Messages", "Halo bytes"],
            [
                [
                    solver.num_ranks,
                    solver.cube_size,
                    "/".join(str(slab.size) for slab in solver.slabs),
                    solver.comm.total_messages(),
                    solver.comm.total_bytes_sent(),
                ]
            ],
            title="Extension: distributed ranks with cube-centric local layout",
        ),
    )


def test_cube_size_autotuning(benchmark, emit, results_dir):
    """Model suggestion + empirical sweep of the cube size."""
    config = SimulationConfig(
        fluid_shape=SHAPE,
        structure=StructureConfig(kind="flat_sheet", num_fibers=8, nodes_per_fiber=8),
        num_threads=2,
    )
    suggestion = suggest_cube_size(SHAPE, thog())
    result = benchmark.pedantic(
        autotune_cube_size,
        kwargs={"config": config, "candidates": [2, 4, 8], "steps": 2},
        rounds=1,
        iterations=1,
    )
    emit(
        "extension_autotune",
        render_table(
            ["Cube size k", "Seconds", "Best"],
            result.as_rows(),
            title=(
                "Extension: cube-size auto-tuning "
                f"(model suggests k={suggestion} for thog's L2)"
            ),
        ),
    )
    write_csv(
        results_dir / "extension_autotune.csv",
        ["cube_size", "seconds"],
        [[k, round(s, 4)] for k, s in sorted(result.seconds_by_size.items())],
    )
    assert result.best_cube_size in (2, 4, 8)
