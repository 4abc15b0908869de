"""Service workloads: seeded jobs through ``SimulationService``.

One process drives the load: the asyncio event loop submits jobs and
collects results while the service runs ``BatchScheduler.run`` on its
one executor thread.  A job's latency runs from when it was *due* (its
schedule time; t=0 for a burst) to its result; a rejected or failed job
misses the latency limit.  A "step" on these workloads is one batched
sweep (``BatchedLBMIBSolver.step``), timed by a wrapper the benchmark
rebinds over that public method for the length of the pass.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import resource
import shutil
import time
from dataclasses import dataclass, field, replace

from plan import MAX_BATCH, SERVICE_CHECK_EVERY, SHEET_NODES
from spans import Recorder, count_calls, rebound
from stats import OUT_DIR, mean, percentile

#: Batched kernel spans counted as IB work.
BATCH_IB = ("compute_fiber_forces", "spread_force_from_fibers_to_fluid", "move_fibers")
#: Sweep (0-based, within the traced pass) whose calls are counted.
CALL_SAMPLE_SWEEP = 5


def job_config(job: dict):
    from repro.config import SimulationConfig, StructureConfig

    n = job["shape"]
    structure = (
        StructureConfig(kind="flat_sheet", num_fibers=SHEET_NODES, nodes_per_fiber=SHEET_NODES)
        if job["sheet"]
        else StructureConfig(kind="none")
    )
    return SimulationConfig(fluid_shape=(n, n, n), structure=structure, solver="batched")


@dataclass
class Outcome:
    job: dict
    job_id: str | None = None
    status: str = "rejected"
    latency_s: float | None = None
    result: object = None
    queue_s: float | None = None
    hold_s: float | None = None


@dataclass
class Pass:
    """Everything one service pass measured."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    outcomes: list[Outcome] = field(default_factory=list)
    lags_s: list[float] = field(default_factory=list)
    submit_s: list[float] = field(default_factory=list)
    #: ``(seconds, occupied slots)`` per batched sweep.
    sweeps: list[tuple[float, int]] = field(default_factory=list)
    sweep_calls: int = 0
    checkpoint_s: list[float] = field(default_factory=list)
    checkpoint_bytes: list[int] = field(default_factory=list)
    journal_bytes: int = 0
    peak_rss_mb: float = 0.0


def run_pass(plan: dict, t0: float | None = None, recorder: Recorder | None = None,
             setup_only: bool = False) -> Pass:
    """Set up a fresh service, warm it, then drive ``plan`` through it."""
    workdir = OUT_DIR / f"work-{os.getpid()}-{time.monotonic_ns()}"
    try:
        return asyncio.run(_run_pass(plan, workdir, t0, recorder, setup_only))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


async def _run_pass(plan, workdir, t0, recorder, setup_only) -> Pass:
    from repro.observe import Telemetry
    from repro.service import SimulationService, TenantSpec
    from repro.service.journal import SERVICE_JOURNAL_NAME

    telemetry = Telemetry() if recorder is not None else None
    service = SimulationService(
        workdir,
        tenants=[TenantSpec(name, weight=weight) for name, weight in plan["tenants"]],
        max_batch=MAX_BATCH,
        checkpoint_every=plan["checkpoint_every"],
        telemetry=telemetry,
    )
    out = Pass()
    async with service:
        # One untimed warmup job per compatibility group.
        warm = [
            service.submit(job_config(job), job["steps"], tenant=plan["tenants"][0][0])
            for job in plan["warmup_jobs"]
        ]
        for job_id in warm:
            await service.result(job_id)
        if t0 is not None:
            out.setup_s = time.perf_counter() - t0
        if setup_only:
            return out
        if telemetry is not None:
            telemetry.tracer.clear()
        journal = workdir / SERVICE_JOURNAL_NAME
        journal_before = journal.stat().st_size
        with _instrumented(out, recorder):
            await _drive(service, plan, out, recorder)
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.journal_bytes = journal.stat().st_size - journal_before
    if recorder is not None:
        kernels = [s for s in telemetry.tracer.spans if s.cat == "kernel"]
        recorder.adopt(kernels, "batch.sweep")
    return out


@contextlib.contextmanager
def _instrumented(out: Pass, recorder: Recorder | None):
    """Rebind the sweep timer, and in a traced pass the wave and
    checkpoint wrappers, over the library's public callables."""
    import repro.batch.scheduler as scheduler_module
    from repro.batch import BatchedLBMIBSolver, BatchScheduler

    def timed_step(original):
        def step(solver):
            occupancy = solver.occupancy
            start = time.perf_counter()
            if recorder is None:
                original(solver)
            elif len(out.sweeps) == CALL_SAMPLE_SWEEP:
                with recorder.span("batch.sweep"):
                    out.sweep_calls, _ = count_calls(original, solver)
            else:
                with recorder.span("batch.sweep"):
                    original(solver)
            out.sweeps.append((time.perf_counter() - start, occupancy))

        return step

    def traced_run(original):
        def run(scheduler):
            with recorder.span("batch.wave"):
                return original(scheduler)

        return run

    def traced_save(original):
        def save(path, *args, **kwargs):
            start = time.perf_counter()
            with recorder.span("io.checkpoint"):
                original(path, *args, **kwargs)
            out.checkpoint_s.append(time.perf_counter() - start)
            out.checkpoint_bytes.append(os.path.getsize(path))

        return save

    with contextlib.ExitStack() as stack:
        stack.enter_context(rebound(BatchedLBMIBSolver, "step", timed_step))
        if recorder is not None:
            stack.enter_context(rebound(BatchScheduler, "run", traced_run))
            stack.enter_context(rebound(scheduler_module, "save_checkpoint", traced_save))
        yield


async def _drive(service, plan: dict, out: Pass, recorder: Recorder | None) -> None:
    """Submit every job at its due time, then wait for all results."""
    from repro.errors import AdmissionError

    clock = time.perf_counter
    start = clock()
    waiters = []
    for job in plan["jobs"]:
        outcome = Outcome(job)
        out.outcomes.append(outcome)
        due = start + job["due"]
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        job_sid = recorder.new_id() if recorder is not None else None
        sent = clock()
        out.lags_s.append(sent - due)
        try:
            outcome.job_id = service.submit(
                job_config(job), job["steps"], tenant=job["tenant"], state_seed=job["state_seed"]
            )
        except AdmissionError:
            continue
        finally:
            out.submit_s.append(clock() - sent)
        if recorder is not None:
            recorder.add("service.submit", sent, clock(), parent=job_sid, job=outcome.job_id)
        wait = _stream if recorder is not None else _result
        waiters.append(asyncio.create_task(wait(service, outcome, due, recorder, job_sid)))
    # Burst cancellations land before the loop yields, so they hit
    # jobs that are still queued.
    for outcome in out.outcomes:
        if outcome.job["cancel"] and outcome.job_id is not None:
            service.cancel(outcome.job_id)
    await asyncio.gather(*waiters)
    out.wall_s = clock() - start


async def _result(service, outcome: Outcome, due: float, _recorder, _sid) -> None:
    result = await service.result(outcome.job_id)
    outcome.latency_s = time.perf_counter() - due
    outcome.status, outcome.result = result.status, result


async def _stream(service, outcome: Outcome, due: float, recorder: Recorder, job_sid: int) -> None:
    """Traced client: consume the job's event stream, then poll it once."""
    job_id = outcome.job_id
    last_progress = None
    async for event in service.stream(job_id):
        now = time.perf_counter()
        recorder.add(f"stream.{event['type']}", now, now, parent=job_sid, job=job_id)
        if event["type"] == "progress":
            last_progress = now
            continue
        outcome.latency_s = now - due
        outcome.status, outcome.result = event["result"].status, event["result"]
        if last_progress is not None:
            outcome.hold_s = now - last_progress
    recorder.add("job", due, due + outcome.latency_s, sid=job_sid, job=job_id)
    with recorder.span("service.poll", job=job_id):
        outcome.queue_s = service.poll(job_id).queue_seconds


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _expected(outcome: Outcome) -> str:
    return "cancelled" if outcome.job["cancel"] else "completed"


def completed(p: Pass) -> list[Outcome]:
    return [o for o in p.outcomes if o.status == "completed" and not o.job["cancel"]]


def mlups(p: Pass) -> float:
    work = sum(o.job["shape"] ** 3 * o.job["steps"] for o in completed(p))
    return work / p.wall_s / 1e6


def end_to_end(plan: dict, p: Pass) -> dict:
    done = completed(p)
    latency_ms = [o.latency_s * 1e3 for o in done]
    sweep_ms = [s * 1e3 for s, _ in p.sweeps]
    served = [o for o in p.outcomes if not o.job["cancel"]]
    within = sum(1 for o in done if o.latency_s * 1e3 <= plan["slo_ms"])
    return {
        "mlups": mlups(p),
        "step_ms_p50": percentile(sweep_ms, 50),
        "step_ms_p90": percentile(sweep_ms, 90),
        "job_latency_ms_p50": percentile(latency_ms, 50),
        "job_latency_ms_p90": percentile(latency_ms, 90),
        "jobs_per_s": len(done) / p.wall_s,
        "slo_attainment": within / len(served) if served else 0.0,
        "peak_rss_mb": p.peak_rss_mb,
    }


def loadgen(p: Pass) -> dict:
    return {
        "loadgen.lag_ms_p90": percentile([lag * 1e3 for lag in p.lags_s], 90),
        "loadgen.offered": float(len(p.lags_s)),
    }


def per_layer(p: Pass, recorder: Recorder, untraced: Pass) -> dict:
    sweeps = len(p.sweeps)
    by_name: dict[str, float] = {}
    for span in recorder.spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + span.ms
    waves = recorder.named("batch.wave")
    done = completed(p)
    submitted = [o for o in p.outcomes if o.job_id is not None]
    return {
        "batch.occupancy_mean": mean(occ for _, occ in p.sweeps),
        "batch.occupancy_ratio": mean(occ for _, occ in p.sweeps) / MAX_BATCH,
        "batch.sweeps": float(sweeps),
        "batch.sweep_ms_p50": percentile([s * 1e3 for s, _ in p.sweeps], 50),
        "batch.waves": float(len(waves)),
        "batch.wave_ms_p50": percentile([w.ms for w in waves], 50),
        "batch.collide_stream_ms": by_name.get("batched_collide_stream", 0.0) / max(1, sweeps),
        "batch.ib_ms": sum(by_name.get(n, 0.0) for n in BATCH_IB) / max(1, sweeps),
        "batch.sweep.c_calls": float(p.sweep_calls),
        "service.submit_ms_p50": percentile([s * 1e3 for s in p.submit_s], 50),
        "service.submit_ms_p90": percentile([s * 1e3 for s in p.submit_s], 90),
        "service.queue_wait_ms_p50": percentile([o.queue_s * 1e3 for o in done], 50),
        "service.queue_wait_ms_p90": percentile([o.queue_s * 1e3 for o in done], 90),
        "service.result_hold_ms_p50": percentile(
            [o.hold_s * 1e3 for o in done if o.hold_s is not None], 50
        ),
        "service.rejected": float(len(p.outcomes) - len(submitted)),
        "service.journal_bytes_per_job": p.journal_bytes / max(1, len(submitted)),
        "io.checkpoint_ms_p50": percentile([s * 1e3 for s in p.checkpoint_s], 50)
        if p.checkpoint_s
        else 0.0,
        "io.checkpoints": float(len(p.checkpoint_s)),
        "io.checkpoint_mb": mean(p.checkpoint_bytes) / 2**20,
        "trace.overhead_ratio": mlups(p) / mlups(untraced),
        "trace.spans": float(len(recorder.spans)),
        **loadgen(untraced),
    }


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def check(p: Pass, inject_mismatch: bool) -> tuple[int, int, list[str]]:
    """``(attempted, failed, notes)`` over the pass and its solo re-runs.

    Every job must end as planned (completed, or cancelled when the
    plan cancels it); every ``SERVICE_CHECK_EVERY``-th completed job is
    re-run solo on the fused solver from its state seed and must match
    the served result exactly (``max_abs_delta == 0.0``).
    ``inject_mismatch`` perturbs the solo run's tau, which the check
    must catch.
    """
    import numpy as np
    from repro.api import Simulation
    from repro.verify import seeded_initial_fluid
    from repro.verify.golden import state_arrays

    notes = []
    attempted = len(p.outcomes)
    failed = 0
    for o in p.outcomes:
        if o.status != _expected(o):
            failed += 1
            notes.append(f"{o.job_id or 'rejected job'}: {o.status}, expected {_expected(o)}")
    for o in completed(p)[::SERVICE_CHECK_EVERY]:
        config = replace(job_config(o.job), solver="fused")
        if inject_mismatch:
            config = replace(config, tau=config.tau * 1.01)
        sim = Simulation(config, initial_fluid=seeded_initial_fluid(config, o.job["state_seed"]))
        sim.run(o.job["steps"])
        solo = state_arrays(sim.fluid, sim.structure)
        served = state_arrays(o.result.fluid, o.result.structure)
        delta = (
            max(float(np.max(np.abs(solo[k] - served[k]))) for k in solo)
            if solo.keys() == served.keys()
            else float("inf")
        )
        attempted += 1
        if delta != 0.0:
            failed += 1
            notes.append(f"{o.job_id}: max_abs_delta {delta:.3e} against its solo run")
    return attempted, failed, notes


def lattice_bytes(plan: dict) -> int:
    """Two-lattice footprint of a full batch of the largest group."""
    n = max(job["shape"] for job in plan["jobs"])
    return MAX_BATCH * 2 * 19 * n**3 * 8
