#!/usr/bin/env python3
"""Tour of the future-work extensions the paper's conclusion proposes.

Runs the same small FSI problem through:

1. the barrier-based cube solver (paper Algorithm 4),
2. the dynamic-task-scheduled cube solver (no intra-step barriers),
3. the distributed-memory solver (rank slabs + halo messages), with
   each rank's slab in the global layout and then in the cube layout,

verifies all of them agree with the sequential program, then auto-tunes
the cube size and checkpoints/restores the run.

Run:  python examples/extensions_tour.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.config import SimulationConfig, StructureConfig
from repro.core.ib import geometry
from repro.core.lbm.fields import FluidGrid
from repro.core.solver import SequentialLBMIBSolver
from repro.distributed import DistributedLBMIBSolver
from repro.io import load_checkpoint, save_checkpoint
from repro.machine.spec import thog
from repro.parallel import AsyncCubeLBMIBSolver, CubeGrid, CubeLBMIBSolver
from repro.tuning import autotune_cube_size, suggest_cube_size

SHAPE = (16, 12, 12)
STEPS = 10


def make_state():
    grid = FluidGrid(SHAPE, tau=0.8)
    structure = geometry.flat_sheet(
        SHAPE, num_fibers=6, nodes_per_fiber=6, stretch_coefficient=0.03
    )
    structure.sheets[0].positions[3, 3, 0] += 0.8
    return grid, structure


def main() -> None:
    print("reference: sequential solver (paper Algorithm 1)")
    ref_grid, ref_structure = make_state()
    SequentialLBMIBSolver(ref_grid, ref_structure).run(STEPS)

    print("\n1. barrier-based cube solver (paper Algorithm 4)")
    grid, structure = make_state()
    cg = CubeGrid.from_fluid_grid(grid, cube_size=4)
    solver = CubeLBMIBSolver(cg, structure, num_threads=4)
    solver.run(STEPS)
    crossings = sum(b.stats.crossings for b in solver.barriers.values())
    assert ref_grid.state_allclose(cg.to_fluid_grid(), rtol=1e-10, atol=1e-12)
    print(f"   MATCH; {crossings} barrier crossings over {STEPS} steps")

    print("\n2. dynamic task scheduling (no intra-step barriers)")
    grid, structure = make_state()
    cg = CubeGrid.from_fluid_grid(grid, cube_size=4)
    async_solver = AsyncCubeLBMIBSolver(cg, structure, num_threads=4)
    async_solver.run(STEPS)
    assert ref_grid.state_allclose(cg.to_fluid_grid(), rtol=1e-10, atol=1e-12)
    print(
        f"   MATCH; 0 barrier crossings, {async_solver.tasks_executed} tasks executed"
    )

    print("\n3. distributed memory (rank slabs + halo exchange)")
    grid, structure = make_state()
    dist = DistributedLBMIBSolver(grid, structure, num_ranks=4)
    dist.run(STEPS)
    assert ref_grid.state_allclose(dist.gather_fluid(), rtol=1e-10, atol=1e-12)
    assert dist.structures_consistent()
    print(
        f"   MATCH; {dist.comm.total_messages()} messages, "
        f"{dist.comm.total_bytes_sent() / 1024:.0f} KiB of halo traffic"
    )

    print("\n4. hybrid: cube layout inside every distributed rank")
    grid, structure = make_state()
    hybrid = DistributedLBMIBSolver(grid, structure, num_ranks=2, cube_size=4)
    hybrid.run(STEPS)
    assert ref_grid.state_allclose(hybrid.gather_fluid(), rtol=1e-10, atol=1e-12)
    print(
        f"   MATCH; rank slabs of {[slab.size for slab in hybrid.slabs]} planes, "
        f"{hybrid.comm.total_messages()} halo messages"
    )

    print("\n5. cube-size auto-tuning")
    config = SimulationConfig(
        fluid_shape=SHAPE,
        structure=StructureConfig(kind="flat_sheet", num_fibers=6, nodes_per_fiber=6),
        num_threads=2,
    )
    print(f"   model suggests k={suggest_cube_size(SHAPE, thog())} for thog's L2 budget")
    result = autotune_cube_size(config, candidates=[2, 4], steps=2)
    for k, seconds in sorted(result.seconds_by_size.items()):
        marker = "  <== best" if k == result.best_cube_size else ""
        print(f"   k={k}: {seconds:.3f}s{marker}")

    print("\n6. checkpoint / restore")
    with tempfile.NamedTemporaryFile(suffix=".npz") as tmp:
        save_checkpoint(tmp.name, ref_grid, ref_structure, time_step=STEPS)
        restored_grid, restored_structure, step = load_checkpoint(tmp.name)
        a = SequentialLBMIBSolver(ref_grid, ref_structure)
        b = SequentialLBMIBSolver(restored_grid, restored_structure)
        a.run(5)
        b.run(5)
        assert ref_grid.state_allclose(restored_grid, rtol=0, atol=0)
        print(f"   restored at step {step}; continued runs are bit-for-bit identical")

    print("\nall extensions verified against the sequential program")


if __name__ == "__main__":
    main()
