"""Table-I workloads: one closed-loop client stepping one simulation.

The client's request is one ``Simulation.run(1)``, so on these
workloads a "job" is one step: ``job_latency_ms_*`` equals
``step_ms_*`` and ``jobs_per_s`` is steps per second.

The timed steps are cut into equal windows of about one second each,
and the step percentiles and rates are those of the best window
(min-of-R).  Interference from other processes on the host comes in
phases of several seconds and only ever slows steps down; on a shared
2-core host, the best window varied half as much between runs as the
whole run did (mlups 4-6% against 8-11%, p90 7% against 7-20%).
"""

from __future__ import annotations

import resource
import time
from dataclasses import replace

from spans import Recorder, count_calls
from stats import mean, percentile

#: Kernel span names per layer, as the solo solvers' tracer records them.
COLLIDE_STREAM = ("fused_collide_stream", "aa_even_collide_swap", "aa_odd_collide_stream")
IB_FORCES = (
    "compute_bending_force_in_fibers",
    "compute_stretching_force_in_fibers",
    "compute_elastic_force_in_fibers",
)
#: Stored values touched per node per step, counted from array sizes:
#: the collide-stream sweep reads and writes the 19 distributions and
#: reads the 3 shifted velocities; the velocity update reads the 19
#: distributions and 3 forces and writes density, velocity and shifted
#: velocity (7 values).
VALUES_PER_NODE_STEP = 2 * 19 + 3 + 19 + 3 + 7


def build(plan: dict):
    """The workload's simulation, at its seeded state, before warmup."""
    from repro.api import Simulation
    from repro.experiments.workloads import scaled_profiling_config
    from repro.verify import seeded_initial_fluid

    config = replace(
        scaled_profiling_config(scale=plan["scale"]),
        solver=plan["solver"],
        precision=plan["precision"],
    )
    return Simulation(config, initial_fluid=seeded_initial_fluid(config, plan["state_seed"]))


def setup(plan: dict):
    sim = build(plan)
    sim.run(plan["warmup"])
    return sim


def timed_steps(sim, steps: int, recorder: Recorder | None = None) -> tuple[list[float], float]:
    """Per-step wall seconds of ``steps`` closed-loop requests, and the total."""
    times = [0.0] * steps
    clock = time.perf_counter
    begin = clock()
    if recorder is None:
        for i in range(steps):
            start = clock()
            sim.run(1)
            times[i] = clock() - start
    else:
        for i in range(steps):
            start = clock()
            with recorder.span("sim.run"):
                sim.run(1)
            times[i] = clock() - start
    return times, clock() - begin


def end_to_end(plan: dict, sim, times: list[float]) -> dict:
    ms = [t * 1e3 for t in times]
    size = max(1, len(ms) // plan["windows"])
    windows = [ms[i : i + size] for i in range(0, len(ms) - size + 1, size)]
    p50 = min(percentile(w, 50) for w in windows)
    p90 = min(percentile(w, 90) for w in windows)
    steps_per_s = max(1e3 * len(w) / sum(w) for w in windows)
    return {
        "mlups": sim.fluid.num_nodes * steps_per_s / 1e6,
        "step_ms_p50": p50,
        "step_ms_p90": p90,
        "job_latency_ms_p50": p50,
        "job_latency_ms_p90": p90,
        "jobs_per_s": steps_per_s,
        "slo_attainment": sum(m <= plan["slo_ms"] for m in ms) / len(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def check(plan: dict, sim, inject_mismatch: bool) -> tuple[int, int, list[str]]:
    """Correctness outside the timed window: ``(attempted, failed, notes)``.

    The timed run's final state must be finite, and a 20-step
    differential from the workload's seeded state must match
    ``solver="sequential"`` at the same precision within the
    precision's state tolerance (exact agreement for float64 in
    practice).  ``inject_mismatch`` perturbs the reference's tau, which
    the differential must catch.
    """
    import numpy as np
    from repro.core.backend import state_tolerance
    from repro.verify import DifferentialOracle

    notes = []
    steps = plan["check_steps"]
    attempted, failed = plan["steps"], 0
    fluid = sim.fluid
    finite = all(
        np.isfinite(getattr(fluid, name)).all()
        for name in ("df", "density", "velocity", "velocity_shifted", "force")
    ) and all(np.isfinite(s.positions).all() for s in sim.structure.sheets)
    if not finite:
        failed += attempted
        notes.append("final timed state is not finite")
    config = sim.config
    rtol, atol = state_tolerance(config.precision)
    reference_b = replace(config, tau=config.tau * 1.01) if inject_mismatch else None
    oracle = DifferentialOracle(
        config,
        variant_a="sequential",
        variant_b=config.solver,
        rtol=rtol,
        atol=atol,
        state_seed=plan["state_seed"],
        config_b=reference_b,
    )
    divergence = oracle.run(steps)
    attempted += steps
    if divergence is not None:
        failed += steps
        notes.append(str(divergence))
    return attempted, failed, notes


def traced(plan: dict, sim, recorder: Recorder) -> dict:
    """Per-layer metrics of a traced pass over ``plan['steps']`` steps.

    Runs, in order: an untraced pass (the overhead baseline), the
    ``sys.setprofile`` call count of one step (one AA pair for the
    in-place lattice), then the traced pass with the solver's
    ``telemetry=`` hook attached.  ``core.lbm.bw_ratio`` is left to the
    caller, which probes the host after the pass.
    """
    from repro.observe import Telemetry

    steps = plan["steps"]
    _, untraced_wall = timed_steps(sim, steps)
    pair = 2 if plan["solver"] == "inplace" else 1
    if sim.time_step % pair:
        sim.run(1)
    c_calls, py_calls = count_calls(sim.run, pair)

    telemetry = Telemetry()
    sim.attach_telemetry(telemetry)
    _, traced_wall = timed_steps(sim, steps, recorder)
    recorder.adopt(telemetry.tracer.spans, "sim.run")

    by_name: dict[str, float] = {}
    for span in recorder.spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + span.ms
    step_ms = mean(s.ms for s in recorder.named("sim.run"))
    collide = sum(by_name.get(n, 0.0) for n in COLLIDE_STREAM) / steps
    update = by_name.get("update_fluid_velocity", 0.0) / steps
    forces = sum(by_name.get(n, 0.0) for n in IB_FORCES) / steps
    spread = by_name.get("spread_force_from_fibers_to_fluid", 0.0) / steps
    move = by_name.get("move_fibers", 0.0) / steps
    fluid = sim.fluid
    itemsize = fluid.df.dtype.itemsize
    computed_bytes = fluid.num_nodes * itemsize * VALUES_PER_NODE_STEP
    achieved_gbs = computed_bytes / ((collide + update) / 1e3) / 1e9
    return {
        "core.lbm.collide_stream_ms": collide,
        "core.lbm.update_velocity_ms": update,
        "core.lbm.computed_bytes_per_step": float(computed_bytes),
        "core.lbm.achieved_gbs": achieved_gbs,
        "core.ib.forces_ms": forces,
        "core.ib.spread_ms": spread,
        "core.ib.move_ms": move,
        "core.ib.share": (forces + spread + move) / step_ms,
        "core.step.c_calls": float(c_calls),
        "core.step.py_calls": float(py_calls),
        "trace.overhead_ratio": untraced_wall / traced_wall,
        "trace.spans": float(len(recorder.spans)),
    }


def lattice_bytes(plan: dict, sim) -> int:
    return sim.fluid.num_nodes * 19 * sim.fluid.df.dtype.itemsize * (
        1 if plan["solver"] == "inplace" else 2
    )
