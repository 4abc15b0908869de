"""Resilience subsystem: fault injection, watchdogs, recovery.

The paper positions LBM-IB as a library for *long-running* FSI
simulations on manycore (and, per its future work, distributed-memory)
systems.  At that scale the dominant failure modes are not compiler
bugs but operational ones: a worker thread dies, a rank misses a
barrier, a run goes numerically unstable, a node crashes mid-checkpoint.
This package makes every one of those survivable — and, just as
important, *testable on one core*:

``faults``
    :class:`Fault` / :class:`FaultPlan` / :class:`FaultInjector` — a
    deterministic, seeded fault-injection framework that can corrupt
    fluid fields into NaN at a chosen step, kill a chosen worker
    thread/rank, drop or delay a communicator message, and truncate a
    checkpoint file.
``incident``
    :class:`IncidentLog` — the crash-safe job journal of solo and
    batched runs alike (``incidents.jsonl``).
``recovery``
    :class:`RetryPolicy` / :class:`FailureInfo` — the retry budget and
    terminal report shared by the runner and the batch scheduler.
``runner``
    :class:`ResilientRunner` — drives any solver variant with periodic
    atomic checkpoints; rolls back and retries with damped parameters
    on :class:`~repro.errors.StabilityError`, and falls back to the
    sequential solver when a parallel worker dies.
``chaos``
    :class:`ChaosHarness` / :class:`ChaosReport` — the deterministic
    chaos harness for the fault-tolerant batch scheduler: a fault-free
    golden run and a seeded faulted run (slot corruption, checkpoint
    truncation, scheduler kill + resume) compared bit-for-bit
    (``make test-chaos``).

The watchdog layer itself (deadlines on
:meth:`~repro.parallel.barrier.InstrumentedBarrier.wait`,
:meth:`~repro.parallel.executor.WorkerPool.dispatch`,
:func:`~repro.parallel.executor.run_spmd`, and
:class:`~repro.distributed.comm.RankComm`) lives with those primitives;
the typed errors are in :mod:`repro.errors`.
"""

from repro.resilience.chaos import (
    ChaosHarness,
    ChaosReport,
    JobVerdict,
    service_plan,
    standard_plan,
)
from repro.resilience.faults import Fault, FaultInjector, FaultPlan
from repro.resilience.incident import Incident, IncidentLog, json_safe
from repro.resilience.recovery import FailureInfo, RetryPolicy
from repro.resilience.runner import ResilientRunner

__all__ = [
    "ChaosHarness",
    "ChaosReport",
    "FailureInfo",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "Incident",
    "IncidentLog",
    "JobVerdict",
    "ResilientRunner",
    "RetryPolicy",
    "json_safe",
    "service_plan",
    "standard_plan",
]
