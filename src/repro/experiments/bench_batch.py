"""Batched-execution benchmark: one vectorized batch vs a solo loop.

Not one of the paper's artifacts — this measures the library's own
``variant="batched"`` subsystem (:mod:`repro.batch`): B independent
simulations stacked along a leading batch axis so every fluid kernel is
one numpy call for the whole batch, plus the continuous-batching
scheduler on top.  Three measurements:

* **fluid-only throughput** for each batch size B: a batch of B
  small-grid simulations advanced together vs the baseline of looping
  B ``variant="fused"`` simulations round-robin — same initial states,
  same step count, and a final bit-equality check (``max_abs_delta``
  must be exactly 0.0: batching is a pure throughput transformation);
* **FSI throughput** at the largest B, where the per-slot IB coupling
  bounds the achievable speedup (Amdahl: only the fluid half batches);
* the **scheduler** end-to-end: ``2 * B`` submitted jobs through a
  ``max_batch=B`` :class:`~repro.batch.BatchScheduler`, exercising
  continuous slot refill at full occupancy.

``python -m repro.experiments batch`` prints the table;
``make bench-batch`` additionally writes ``BENCH_batch.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import Simulation
from repro.batch import BatchedFluidGrid, BatchedLBMIBSolver, BatchScheduler
from repro.config import SimulationConfig, StructureConfig
from repro.verify.oracle import _seeded_initial_fluid

__all__ = ["run_bench_batch", "render_bench_batch"]

#: Relaxation time of every benchmark config (the profiling workload's).
_TAU = 0.8


def _config(
    shape: tuple[int, int, int], fibers: int = 0, solver: str = "fused"
) -> SimulationConfig:
    """A small-grid benchmark config, fluid-only unless ``fibers`` > 0."""
    structure = (
        StructureConfig(
            kind="flat_sheet",
            num_fibers=fibers,
            nodes_per_fiber=fibers,
            stretch_coefficient=1.0e-2,
            bend_coefficient=1.0e-4,
        )
        if fibers
        else StructureConfig(kind="none")
    )
    return SimulationConfig(
        fluid_shape=shape, tau=_TAU, structure=structure, solver=solver
    )


def _measure_batch(
    config: SimulationConfig, batch: int, steps: int, warmup: int
) -> dict:
    """Time B solo fused runs (round-robin) vs one B-slot batched run.

    Both sides start from the same per-slot seeded initial states and
    advance ``warmup + steps`` steps; only the last ``steps`` are timed.
    The returned ``max_abs_delta`` is the largest element difference
    between any batched slot and its solo run at the end — exactly 0.0,
    because a batched slot runs the solo sweep code.
    """
    fluids = [_seeded_initial_fluid(config, seed) for seed in range(batch)]

    # --- baseline: loop B independent fused simulations ---
    sims = [
        Simulation(
            config,
            initial_fluid=fluids[slot].copy(),
            initial_structure=config.build_structure(),
        )
        for slot in range(batch)
    ]
    try:
        for sim in sims:
            sim.run(warmup)
        start = time.perf_counter()
        for _ in range(steps):
            for sim in sims:
                sim.run(1)
        solo_wall = time.perf_counter() - start
        solo_density = [sim.fluid.density.copy() for sim in sims]
    finally:
        for sim in sims:
            sim.close()

    # --- batched: one vectorized solver over B slots ---
    grid = BatchedFluidGrid(
        config.fluid_shape,
        batch,
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
    for slot in range(batch):
        solver.load_slot(slot, fluids[slot], config.build_structure())
    solver.run(warmup)
    start = time.perf_counter()
    solver.run(steps)
    batched_wall = time.perf_counter() - start

    max_delta = max(
        float(np.abs(grid.density[slot] - solo_density[slot]).max())
        for slot in range(batch)
    )
    sim_steps = batch * steps
    return {
        "solo_step_seconds": solo_wall / sim_steps,
        "batched_step_seconds": batched_wall / sim_steps,
        "speedup": solo_wall / batched_wall,
        "solo_sim_steps_per_second": sim_steps / solo_wall,
        "batched_sim_steps_per_second": sim_steps / batched_wall,
        "solo_sims_per_second": batch / solo_wall,
        "batched_sims_per_second": batch / batched_wall,
        "max_abs_delta": max_delta,
    }


def _measure_scheduler(
    config: SimulationConfig, batch: int, steps: int
) -> dict:
    """End-to-end continuous batching: 2B jobs through max_batch=B.

    Half the jobs start queued, so every completion triggers a slot
    refill — the batch runs at full occupancy until the queue drains.
    """
    scheduler = BatchScheduler(max_batch=batch, check_finite_every=0)
    jobs = 2 * batch
    for seed in range(jobs):
        scheduler.submit(
            config,
            num_steps=steps,
            initial_fluid=_seeded_initial_fluid(config, seed),
        )
    start = time.perf_counter()
    results = scheduler.run()
    wall = time.perf_counter() - start
    sim_steps = sum(r.steps_completed for r in results.values())
    completed = sum(1 for r in results.values() if r.status == "completed")
    return {
        "wall_seconds": wall,
        "sim_steps_per_second": sim_steps / wall,
        "sims_per_second": jobs / wall,
        "jobs": jobs,
        "completed": completed,
    }


def run_bench_batch(
    shape: tuple[int, int, int] = (8, 8, 8),
    steps: int = 20,
    warmup: int = 3,
    batch_sizes: tuple[int, ...] = (1, 4, 16),
    fsi_fibers: int = 4,
) -> dict:
    """The complete ``BENCH_batch.json`` record.

    The headline number is the fluid-only ``speedup`` at the largest
    batch size: aggregate simulation steps per second of one batched
    sweep vs looping the fused solver over the same B simulations.
    """
    fluid_config = _config(shape)
    fsi_config = _config(shape, fibers=fsi_fibers)
    b_max = max(batch_sizes)

    fluid_only = {
        f"b{b}": _measure_batch(fluid_config, b, steps, warmup)
        for b in batch_sizes
    }
    fsi = {f"b{b_max}": _measure_batch(fsi_config, b_max, steps, warmup)}
    scheduler = _measure_scheduler(fluid_config, b_max, steps)

    return {
        "workload": {
            "fluid_shape": list(shape),
            "steps": steps,
            "warmup": warmup,
            "batch_sizes": list(batch_sizes),
            "fsi_fibers": fsi_fibers,
            "scheduler_jobs": scheduler["jobs"],
        },
        "fluid_only": fluid_only,
        "fsi": fsi,
        "scheduler": scheduler,
        "headline_speedup": fluid_only[f"b{b_max}"]["speedup"],
    }


def render_bench_batch(result: dict) -> str:
    """Text table of a :func:`run_bench_batch` record."""
    wl = result["workload"]
    shape = "x".join(str(n) for n in wl["fluid_shape"])
    lines = [
        "Batched execution (variant='batched') vs looping the fused solver",
        f"  workload: fluid-only grid {shape}, {wl['steps']} timed steps "
        f"per simulation",
        "",
        f"  {'B':>3} {'solo ms/step':>13} {'batched ms/step':>16} "
        f"{'speedup':>8} {'sims/s':>8}",
    ]
    for b in wl["batch_sizes"]:
        rec = result["fluid_only"][f"b{b}"]
        lines.append(
            f"  {b:>3} {rec['solo_step_seconds'] * 1e3:>13.3f} "
            f"{rec['batched_step_seconds'] * 1e3:>16.3f} "
            f"{rec['speedup']:>7.2f}x {rec['batched_sims_per_second']:>8.2f}"
        )
    b_max = max(wl["batch_sizes"])
    fsi = result["fsi"][f"b{b_max}"]
    lines.append("")
    lines.append(
        f"  FSI (flat sheet, {wl['fsi_fibers']}x{wl['fsi_fibers']} nodes) "
        f"at B={b_max}: {fsi['speedup']:.2f}x "
        f"(per-slot IB coupling bounds the batchable fraction)"
    )
    sched = result["scheduler"]
    lines.append(
        f"  scheduler: {sched['jobs']} jobs through max_batch={b_max} with "
        f"continuous refill -> {sched['sim_steps_per_second']:.0f} "
        f"sim-steps/s, {sched['sims_per_second']:.2f} sims/s"
    )
    lines.append(
        f"  bit-equality: max |batched - solo| = "
        f"{result['fluid_only'][f'b{b_max}']['max_abs_delta']:.1e} "
        "(every slot matches its solo run exactly)"
    )
    lines.append(f"  headline speedup (B={b_max}): "
                 f"{result['headline_speedup']:.2f}x")
    return "\n".join(lines)
