"""Continuous-batching scheduler for many independent simulations.

The ROADMAP's serving-style north star applied to simulation traffic:
callers :meth:`~BatchScheduler.submit` any number of
:class:`~repro.config.SimulationConfig` runs; the scheduler groups
*compatible* configs (same grid shape, lattice parameters, boundary
set, time step — everything the batched kernels share across the batch
axis) into batches of up to ``max_batch`` slots, advances each batch
with the vectorized :class:`~repro.batch.solver.BatchedLBMIBSolver`,
and practices **continuous admission**: the moment a slot's simulation
completes (or diverges) it is retired and the slot refilled from the
queue, exactly like continuous batching in inference serving — the
batch never drains to run at partial occupancy while work is waiting.

Determinism: each slot's trajectory is bit-identical to its solo
sequential run (a slot runs the solo sweep code and slots never
interact), so results are independent of batch composition, admission
order and ``max_batch`` — a property pinned by the scheduler test
suite.

Fault tolerance (all opt-in, zero overhead when off):

* **Per-slot isolation** — an attached
  :class:`~repro.batch.guard.SlotGuard` health-checks every slot after
  every batched step and ejects violators without perturbing sibling
  slots (their trajectories stay bit-identical, pinned by the chaos
  harness).
* **Retry lifecycle** — with a :class:`BatchRetryPolicy`, a failed job
  re-enters the queue with damped tau and a bounded attempt budget;
  repeat offenders are quarantined.  A job out of budget is retired
  with a structured :class:`FailureInfo` (root-cause chain, failing
  step, incident-log pointer) on its :class:`BatchResult`.
* **Checkpoint-backed resume** — with a ``workdir``, the scheduler
  journals a queue manifest plus periodic atomic per-job checkpoints
  (tmp + rename + SHA-256, rotated to ``keep_checkpoints``); a killed
  scheduler process restarts via :meth:`BatchScheduler.resume` and
  completes every in-flight job losslessly, falling back past any
  corrupted or truncated checkpoint it finds.

Serving hooks (the :mod:`repro.service` layer builds on these):

* **Cancellation** — :meth:`BatchScheduler.cancel` is a public,
  thread-safe cancel path.  A queued job is retired immediately with
  status ``"cancelled"``; a *running* job is parked benignly at the
  next step boundary by the same slot-parking mechanics the
  :class:`~repro.batch.guard.SlotGuard` ejection path uses
  (:meth:`~repro.batch.solver.BatchedLBMIBSolver.clear_slot` writes
  only the victim's sub-arrays), so sibling slots stay bit-identical.
* **Cooperative yield point** — an optional ``step_hook`` receives one
  :class:`SchedulerTick` after every batched sweep (occupancy, per-job
  progress, the sweep's wall time).  It runs between steps, exactly
  where cancellation requests are drained, so a long-lived service can
  observe progress and apply control without touching solver state.
* **Continuous admission** — an optional ``refill_source`` callable is
  consulted whenever a slot frees and the scheduler's own queue is
  empty: ``refill_source(compat_key)`` may return a
  :class:`JobRequest` compatible with the running group, which is
  admitted into the freed slot without draining the batch — iteration-
  level admission across scheduler waves, not just within one.

Telemetry (optional :class:`~repro.observe.Telemetry`): per-group spans
(``batch.group``), gauges ``batch.occupancy`` / ``batch.capacity``, and
counters ``batch.steps`` (batched kernel sweeps), ``batch.sim_steps``
(per-simulation steps advanced), ``batch.sims_completed``,
``batch.sims_diverged``, ``batch.sims_cancelled``, ``batch.refills`` —
plus the fault-tolerance counters ``batch.retries``,
``batch.ejections``, ``batch.quarantined``, ``batch.jobs_failed``,
``batch.checkpoints`` and ``batch.resumes``.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from repro.batch.fields import BatchedFluidGrid, adopt_state
from repro.batch.guard import SlotGuard
from repro.batch.solver import BatchedLBMIBSolver
from repro.config import SimulationConfig
from repro.core.ib.fiber import ImmersedStructure
from repro.core.lbm.fields import FluidGrid
from repro.errors import CheckpointError, ConfigurationError
from repro.io.checkpoint import (
    load_checkpoint,
    rotate_checkpoints,
    save_checkpoint,
)
from repro.resilience.incident import IncidentLog

__all__ = [
    "BatchJob",
    "BatchResult",
    "BatchRetryPolicy",
    "BatchScheduler",
    "FailureInfo",
    "JobRequest",
    "SchedulerTick",
    "TERMINAL_STATUSES",
    "compatibility_key",
]

#: Job statuses that end a job's lifecycle (a result exists for each).
TERMINAL_STATUSES = frozenset({"completed", "failed", "diverged", "cancelled"})

#: Queue-manifest file name inside a scheduler ``workdir``.
MANIFEST_NAME = "manifest.json"
#: Crash-safe incident-journal file name inside a scheduler ``workdir``.
INCIDENTS_NAME = "incidents.jsonl"

_MANIFEST_VERSION = 1


def compatibility_key(config: SimulationConfig) -> tuple:
    """Grouping key: everything the batched kernels share batch-wide.

    Two configs may share a batch iff they agree on the fluid grid
    shape, the lattice relaxation (effective tau and collision
    operator), the delta kernel, the time step, the external body force
    and the full ordered boundary set.  The immersed structure is *not*
    part of the key — the IB half is applied per slot.
    """
    return (
        tuple(config.fluid_shape),
        float(config.effective_tau),
        config.collision_operator,
        config.delta_kind,
        float(config.dt),
        config.external_force,
        tuple(
            (bc.kind, bc.resolved_axis(), bc.side, tuple(bc.wall_velocity))
            for bc in config.boundaries
        ),
    )


def _error_chain(error: BaseException | None) -> tuple[str, ...]:
    """The ``__cause__``/``__context__`` chain as human-readable strings."""
    chain: list[str] = []
    seen: set[int] = set()
    while error is not None and id(error) not in seen:
        seen.add(id(error))
        chain.append(f"{type(error).__name__}: {error}")
        error = error.__cause__ or error.__context__
    return tuple(chain)


@dataclass(frozen=True)
class FailureInfo:
    """Structured root-cause report attached to a terminal failure.

    Everything an operator needs to triage a dead job without re-running
    it: what blew up (``error_type`` / ``message`` / ``invariant``),
    where (``failing_step`` / ``slot``), how hard the scheduler tried
    (``attempt`` / ``quarantined``), the full exception ``chain`` and a
    pointer to the crash-safe ``incident_log`` journal that holds the
    step-by-step forensics.
    """

    job_id: str
    error_type: str
    message: str
    invariant: str
    failing_step: int
    slot: int
    attempt: int
    quarantined: bool = False
    chain: tuple[str, ...] = ()
    incident_log: str | None = None

    @property
    def root_cause(self) -> str:
        """The innermost link of the exception chain."""
        return self.chain[-1] if self.chain else f"{self.error_type}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-safe form (manifest persistence, operator tooling)."""
        return {
            "job_id": self.job_id,
            "error_type": self.error_type,
            "message": self.message,
            "invariant": self.invariant,
            "failing_step": self.failing_step,
            "slot": self.slot,
            "attempt": self.attempt,
            "quarantined": self.quarantined,
            "chain": list(self.chain),
            "incident_log": self.incident_log,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureInfo":
        """Inverse of :meth:`to_dict` (used by :meth:`BatchScheduler.resume`)."""
        return cls(
            job_id=str(data["job_id"]),
            error_type=str(data["error_type"]),
            message=str(data.get("message", "")),
            invariant=str(data.get("invariant", "unknown")),
            failing_step=int(data.get("failing_step", -1)),
            slot=int(data.get("slot", -1)),
            attempt=int(data.get("attempt", 1)),
            quarantined=bool(data.get("quarantined", False)),
            chain=tuple(data.get("chain", ())),
            incident_log=data.get("incident_log"),
        )


@dataclass(frozen=True)
class BatchRetryPolicy:
    """Per-job retry budget for the batched scheduler.

    Parameters
    ----------
    max_attempts:
        Total attempts a job may consume (1 = no retries).
    tau_damping:
        Multiplier applied to the effective relaxation time on every
        retry — the standard stabilisation move (higher tau = higher
        viscosity).  ``1.0`` retries with unchanged physics, which is
        what the chaos harness uses so retried jobs stay bit-identical
        to their fault-free run.  Note a damped retry lands in a
        *different* compatibility group (tau is part of the key), which
        the scheduler's retry-wave loop handles transparently.
    """

    max_attempts: int = 3
    tau_damping: float = 1.2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.tau_damping < 1.0:
            raise ConfigurationError(
                "tau_damping must be >= 1 (damping raises viscosity), "
                f"got {self.tau_damping}"
            )

    def damped(self, config: SimulationConfig) -> SimulationConfig:
        """``config`` with the retry damping applied (same contract as
        :class:`~repro.resilience.runner.ResilientRunner`)."""
        if self.tau_damping == 1.0:
            return config
        return replace(
            config, tau=config.effective_tau * self.tau_damping, viscosity=None
        )


@dataclass(eq=False)
class BatchJob:
    """One submitted simulation awaiting (or undergoing) batched execution.

    ``attempt`` / ``start_step`` / ``initial_structure`` carry the
    retry-and-resume lifecycle: a retried or resumed job re-enters the
    queue as a fresh :class:`BatchJob` whose initial state is the
    restart checkpoint and whose ``start_step`` offsets all step
    accounting.
    """

    job_id: str
    config: SimulationConfig
    num_steps: int
    order: int
    initial_fluid: FluidGrid | None = None
    initial_structure: ImmersedStructure | None = None
    attempt: int = 1
    start_step: int = 0


@dataclass(frozen=True)
class JobRequest:
    """One submission a ``refill_source`` may hand the scheduler.

    The continuous-admission form of :meth:`BatchScheduler.submit`'s
    argument list: when a slot frees mid-group and the scheduler's own
    queue is dry, it asks its ``refill_source`` for the next request
    whose config matches the running group's :func:`compatibility_key`.
    """

    config: SimulationConfig
    num_steps: int
    job_id: str | None = None
    initial_fluid: FluidGrid | None = None
    initial_structure: ImmersedStructure | None = None


@dataclass(frozen=True)
class SchedulerTick:
    """One cooperative yield point: the state after one batched sweep.

    Handed to the scheduler's ``step_hook`` after every
    :meth:`~repro.batch.solver.BatchedLBMIBSolver.step`, *after*
    ejections, cancellations, completions and refills for that sweep
    have been applied — so ``jobs`` names exactly the simulations that
    will advance on the next sweep.

    Attributes
    ----------
    group_index:
        Ordinal of the compatibility group being run.
    batch_step:
        The batched solver's global sweep counter.
    occupancy / capacity:
        Active slots after refill vs. the batch width.
    step_seconds:
        Wall time of the sweep just executed.
    jobs:
        ``(job_id, absolute_steps_completed)`` per occupied slot.
    """

    group_index: int
    batch_step: int
    occupancy: int
    capacity: int
    step_seconds: float
    jobs: tuple[tuple[str, int], ...] = ()


@dataclass(eq=False)
class BatchResult:
    """Per-simulation outcome returned by :meth:`BatchScheduler.run`.

    Attributes
    ----------
    status:
        ``"completed"`` (ran its full ``num_steps``), ``"diverged"``
        (non-finite state detected by the divergence probe; retired
        early), ``"failed"`` (ejected by the slot guard with no retry
        budget left) or ``"cancelled"`` (retired by
        :meth:`BatchScheduler.cancel` before finishing).
    steps_completed:
        Absolute time steps actually advanced (including steps from
        earlier attempts / the pre-resume process).
    fluid / structure:
        Final state, gathered into the solo layout (deep copies — the
        slot is refilled immediately after).  For a terminal failure
        this is the evacuated post-mortem state at detection.
    slot:
        Batch slot the simulation ran in (``-1`` for a result restored
        by :meth:`BatchScheduler.resume`).
    attempts:
        Attempts consumed (1 = first try succeeded).
    failure:
        Structured :class:`FailureInfo` root-cause report; ``None`` for
        completed jobs.
    """

    job_id: str
    status: str
    steps_completed: int
    fluid: FluidGrid
    structure: ImmersedStructure | None
    slot: int = -1
    attempts: int = 1
    failure: FailureInfo | None = None

    @property
    def ok(self) -> bool:
        """True when the job ran its full step budget."""
        return self.status == "completed"


class BatchScheduler:
    """Group, batch and continuously run submitted simulations.

    Parameters
    ----------
    max_batch:
        Slot count ceiling per batch (the batch axis length).
    check_finite_every:
        Divergence-probe period in steps (``0`` disables the probe;
        diverged slots then run to their step budget producing NaNs,
        exactly as a solo run would).
    telemetry:
        Optional :class:`~repro.observe.Telemetry` receiving the
        scheduler's spans and metrics.
    retry_policy:
        Optional :class:`BatchRetryPolicy`.  ``None`` (default)
        preserves the classic behaviour: the first failure is terminal.
    guard:
        ``True`` to health-check every slot each step with a default
        :class:`~repro.batch.guard.SlotGuard`, or a pre-configured
        guard instance; ``False`` disables per-slot invariant
        sentinels (the cheap finite probe still runs).
    quarantine_after:
        Strikes (failures of the same job) after which retries stop
        regardless of remaining attempt budget.
    workdir:
        Directory for the queue manifest, per-job checkpoints and the
        crash-safe incident journal.  ``None`` disables persistence.
    checkpoint_every:
        Absolute-step period of per-job checkpoints (``0`` = only
        submit-time initial-state checkpoints; requires ``workdir``).
    keep_checkpoints:
        Per-job checkpoint-window size (older files are deleted).
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` wired
        into the batched step (``corrupt_field`` / ``kill_worker`` with
        ``tid`` interpreted as the batch *slot*) and into every
        checkpoint write (``truncate_checkpoint``).
    incident_log:
        Optional pre-built :class:`~repro.resilience.incident.IncidentLog`;
        by default a crash-safe JSONL journal is created inside
        ``workdir`` (in-memory only without one).
    step_hook:
        Optional callable receiving one :class:`SchedulerTick` after
        every batched sweep — the cooperative yield point a service
        layer uses for progress streaming and SLO metrics.
    refill_source:
        Optional ``refill_source(compat_key) -> JobRequest | None``
        consulted when a slot frees and the group queue is empty; a
        returned request must belong to the running compatibility
        group (continuous admission across submission waves).
    """

    def __init__(
        self,
        max_batch: int = 16,
        check_finite_every: int = 1,
        telemetry=None,
        retry_policy: BatchRetryPolicy | None = None,
        guard: "bool | SlotGuard" = False,
        quarantine_after: int = 3,
        workdir: str | os.PathLike | None = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 2,
        fault_injector=None,
        incident_log: IncidentLog | None = None,
        step_hook=None,
        refill_source=None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be positive, got {max_batch}")
        if check_finite_every < 0:
            raise ConfigurationError(
                f"check_finite_every must be >= 0, got {check_finite_every}"
            )
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if keep_checkpoints < 1:
            raise ConfigurationError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}"
            )
        if quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        if checkpoint_every and workdir is None:
            raise ConfigurationError(
                "checkpoint_every requires a workdir to write checkpoints into"
            )
        self.max_batch = max_batch
        self.check_finite_every = check_finite_every
        self.telemetry = telemetry
        self.retry_policy = retry_policy
        self.quarantine_after = quarantine_after
        self.workdir = os.fspath(workdir) if workdir is not None else None
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        self.fault_injector = fault_injector
        if incident_log is not None:
            self.incidents = incident_log
        elif self.workdir is not None:
            os.makedirs(self.workdir, exist_ok=True)
            self.incidents = IncidentLog(
                jsonl_path=os.path.join(self.workdir, INCIDENTS_NAME)
            )
        else:
            self.incidents = IncidentLog()
        if self.workdir is not None:
            os.makedirs(self.workdir, exist_ok=True)
        if fault_injector is not None and fault_injector.incident_log is None:
            fault_injector.incident_log = self.incidents
        if isinstance(guard, SlotGuard):
            self._guard: SlotGuard | None = guard
        elif guard:
            self._guard = SlotGuard(
                quarantine_after=quarantine_after,
                incident_log=self.incidents,
                metrics=self._metrics(),
            )
        else:
            self._guard = None
        self.step_hook = step_hook
        self.refill_source = refill_source
        self._jobs: list[BatchJob] = []
        self._counter = 0
        #: Cancellation requests awaiting the next yield point, guarded
        #: by ``_cancel_lock`` (cancel() may be called from any thread).
        self._cancel_lock = threading.Lock()
        self._cancel_requests: set[str] = set()
        #: Lifecycle state per ever-seen job id ("queued" / "running" /
        #: a terminal status) — the cheap, in-memory poll surface.
        self._status: dict[str, str] = {}
        #: True while run() is executing (cancel() switches behaviour).
        self._running = False
        #: Compatibility key of the group currently executing.
        self._group_key: tuple | None = None
        #: Probe-path strike counts per job id (guard keeps its own).
        self._strikes: dict[str, int] = {}
        #: Per-job checkpoint trail (oldest first), mirroring the manifest.
        self._ckpts: dict[str, list[tuple[str, int]]] = {}
        #: Persisted queue state, one entry per ever-submitted job id.
        self._manifest: dict[str, dict] = {}
        #: Results reconstructed by :meth:`resume`, merged into the next run.
        self._restored: dict[str, BatchResult] = {}

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        config: SimulationConfig,
        num_steps: int,
        job_id: str | None = None,
        initial_fluid: FluidGrid | None = None,
        initial_structure: ImmersedStructure | None = None,
    ) -> str:
        """Queue one simulation; returns its job id (FIFO per group)."""
        if num_steps < 1:
            raise ConfigurationError(
                f"num_steps must be positive, got {num_steps}"
            )
        if initial_fluid is not None and tuple(initial_fluid.shape) != tuple(
            config.fluid_shape
        ):
            raise ConfigurationError(
                f"initial fluid shape {initial_fluid.shape} does not match "
                f"configured shape {config.fluid_shape}"
            )
        if job_id is None:
            job_id = f"sim{self._counter}"
        elif (
            any(job.job_id == job_id for job in self._jobs)
            or job_id in self._manifest
            or job_id in self._restored
        ):
            raise ConfigurationError(f"duplicate job id {job_id!r}")
        job = BatchJob(
            job_id=job_id,
            config=config,
            num_steps=int(num_steps),
            order=self._counter,
            initial_fluid=initial_fluid,
            initial_structure=initial_structure,
        )
        self._jobs.append(job)
        self._counter += 1
        self._status[job_id] = "queued"
        if self._persist:
            entry = {
                "job_id": job_id,
                "order": job.order,
                "num_steps": job.num_steps,
                "attempt": 1,
                "status": "pending",
                "config": config.to_dict(),
                "steps_completed": 0,
                "checkpoints": [],
                "init_checkpoint": None,
                "failure": None,
            }
            if initial_fluid is not None or initial_structure is not None:
                path = os.path.join(
                    self.workdir, f"ckpt-{_safe_id(job_id)}-init.npz"
                )
                fluid = initial_fluid
                if fluid is None:
                    fluid = FluidGrid(
                        config.fluid_shape,
                        tau=config.effective_tau,
                        collision_operator=config.collision_operator,
                    )
                # Submit-time write, not a runtime checkpoint: the
                # fault injector's truncate hook is deliberately not
                # consulted (there is no earlier state to fall back to).
                save_checkpoint(path, fluid, initial_structure, time_step=0)
                entry["init_checkpoint"] = path
            self._manifest[job_id] = entry
            self._save_manifest()
        return job_id

    def pending_groups(self) -> dict[tuple, list[str]]:
        """Submitted job ids per compatibility group, in admission order."""
        groups: dict[tuple, list[str]] = {}
        for job in self._jobs:
            groups.setdefault(compatibility_key(job.config), []).append(job.job_id)
        return groups

    def job_status(self, job_id: str) -> str | None:
        """Lifecycle state of a job id (``None`` if never submitted).

        One of ``"queued"``, ``"running"`` or a terminal status from
        :data:`TERMINAL_STATUSES`.
        """
        return self._status.get(job_id)

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Request cancellation of a queued or running job.

        Thread-safe.  A job still waiting in the submission queue (and
        not inside an active :meth:`run`) is retired immediately with
        status ``"cancelled"`` — its result is merged into the next
        :meth:`run` return.  A job currently running in a batch slot is
        parked benignly at the next step boundary: the same
        slot-parking mechanics the guard-ejection path uses, writing
        only the victim slot's sub-arrays, so every sibling slot's
        trajectory stays bit-identical.  Returns ``False`` when the job
        is unknown or already terminal (nothing to cancel).
        """
        with self._cancel_lock:
            status = self._status.get(job_id)
            if status is None or status in TERMINAL_STATUSES:
                return False
            if not self._running:
                queued = next(
                    (job for job in self._jobs if job.job_id == job_id), None
                )
                if queued is not None:
                    self._jobs.remove(queued)
                    self._restored[job_id] = self._cancelled_result(queued)
                    return True
            self._cancel_requests.add(job_id)
        return True

    def _cancel_requested(self, job_id: str) -> bool:
        """Consume a pending cancellation request for ``job_id``."""
        with self._cancel_lock:
            if job_id in self._cancel_requests:
                self._cancel_requests.discard(job_id)
                return True
            return False

    def _cancelled_result(self, job: BatchJob) -> BatchResult:
        """Terminal ``"cancelled"`` result for a job that never ran
        (or whose current attempt never started); bookkeeping included."""
        fluid = job.initial_fluid
        if fluid is None:
            fluid = FluidGrid(
                job.config.fluid_shape,
                tau=job.config.effective_tau,
                collision_operator=job.config.collision_operator,
            )
        result = BatchResult(
            job_id=job.job_id,
            status="cancelled",
            steps_completed=job.start_step,
            fluid=fluid,
            structure=job.initial_structure,
            slot=-1,
            attempts=job.attempt,
        )
        self._status[job.job_id] = "cancelled"
        self._record(
            "job_cancelled", step=job.start_step, job=job.job_id, queued=True
        )
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("batch.sims_cancelled").inc()
        if self._persist:
            entry = self._manifest.get(job.job_id)
            if entry is not None:
                entry["status"] = "cancelled"
                entry["steps_completed"] = job.start_step
                self._save_manifest()
        return result

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, workdir: str | os.PathLike, **kwargs) -> "BatchScheduler":
        """Rebuild a scheduler from a (possibly killed) run's ``workdir``.

        Reads the persisted queue manifest, reconstructs every job that
        already reached a terminal state from its final checkpoint, and
        re-queues every pending/running job from its newest *loadable*
        checkpoint — corrupted or truncated files are journaled
        (``checkpoint_corrupt``) and skipped, falling back to older
        checkpoints, the submit-time initial state, and finally a fresh
        configured state.  The next :meth:`run` then completes every
        in-flight job and returns the union of restored and re-run
        results.

        ``kwargs`` are forwarded to the constructor (retry policy,
        guard, telemetry, fault injector, cadence knobs...).
        """
        workdir = os.fspath(workdir)
        manifest_path = os.path.join(workdir, MANIFEST_NAME)
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"cannot read scheduler manifest {manifest_path}: {exc}"
            ) from exc
        scheduler = cls(workdir=workdir, **kwargs)
        scheduler._counter = int(manifest.get("counter", 0))
        entries = sorted(
            manifest.get("jobs", {}).values(), key=lambda e: int(e["order"])
        )
        restored = requeued = 0
        for entry in entries:
            job_id = str(entry["job_id"])
            scheduler._manifest[job_id] = entry
            scheduler._ckpts[job_id] = [
                (str(p), int(s)) for p, s in entry.get("checkpoints", [])
            ]
            config = SimulationConfig.from_dict(entry["config"])
            num_steps = int(entry["num_steps"])
            attempt = int(entry.get("attempt", 1))
            status = str(entry.get("status", "pending"))
            state = scheduler._restore_entry(entry, job_id)
            fluid, structure, step = state if state is not None else (None, None, 0)
            if status == "completed" and fluid is not None and step >= num_steps:
                scheduler._restored[job_id] = BatchResult(
                    job_id=job_id,
                    status="completed",
                    steps_completed=step,
                    fluid=fluid,
                    structure=structure,
                    slot=-1,
                    attempts=attempt,
                )
                scheduler._status[job_id] = "completed"
                restored += 1
                continue
            if status in ("failed", "diverged", "cancelled"):
                failure = (
                    FailureInfo.from_dict(entry["failure"])
                    if entry.get("failure")
                    else None
                )
                if fluid is None:
                    fluid = FluidGrid(
                        config.fluid_shape,
                        tau=config.effective_tau,
                        collision_operator=config.collision_operator,
                    )
                scheduler._restored[job_id] = BatchResult(
                    job_id=job_id,
                    status=status,
                    steps_completed=int(entry.get("steps_completed", step)),
                    fluid=fluid,
                    structure=structure,
                    slot=-1,
                    attempts=attempt,
                    failure=failure,
                )
                scheduler._status[job_id] = status
                restored += 1
                continue
            # pending / running (the process died mid-flight), or a
            # "completed" entry whose final checkpoint no longer loads:
            # re-queue from the newest restorable state.
            entry["status"] = "pending"
            scheduler._status[job_id] = "queued"
            scheduler._jobs.append(
                BatchJob(
                    job_id=job_id,
                    config=config,
                    num_steps=num_steps,
                    order=int(entry["order"]),
                    initial_fluid=fluid,
                    initial_structure=structure,
                    attempt=attempt,
                    start_step=step,
                )
            )
            requeued += 1
        scheduler._record(
            "scheduler_resumed",
            restored=restored,
            requeued=requeued,
            workdir=workdir,
        )
        metrics = scheduler._metrics()
        if metrics is not None:
            metrics.counter("batch.resumes").inc()
        scheduler._save_manifest()
        return scheduler

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> dict[str, BatchResult]:
        """Run every submitted simulation; returns results by job id.

        Jobs are grouped by :func:`compatibility_key` (incompatible
        configs never share a batch) and each group runs as one batch
        of up to ``max_batch`` slots with continuous slot refill.
        Failed jobs granted a retry re-enter the queue as a new wave
        (a damped-tau retry belongs to a different compatibility
        group); the loop runs until every job reaches a terminal
        state.  The queue is drained on return — a scheduler can be
        reused for a new wave of submissions afterwards.  Results
        reconstructed by :meth:`resume` are merged in.
        """
        results: dict[str, BatchResult] = dict(self._restored)
        self._restored = {}
        jobs, self._jobs = self._jobs, []
        group_counter = 0
        self._running = True
        try:
            while jobs:
                groups: dict[tuple, list[BatchJob]] = {}
                for job in jobs:
                    groups.setdefault(compatibility_key(job.config), []).append(
                        job
                    )
                retries: list[BatchJob] = []
                for group in groups.values():
                    self._run_group(group_counter, group, results, retries)
                    group_counter += 1
                jobs = retries
        finally:
            self._running = False
            self._group_key = None
            # Requests targeting jobs that reached a terminal state (or
            # were never admitted) are stale; drop them so they cannot
            # cancel a future job reusing the id.
            with self._cancel_lock:
                self._cancel_requests -= set(results)
        return results

    @property
    def has_pending(self) -> bool:
        """True when a :meth:`run` would do work (queued jobs or
        results restored by :meth:`resume` awaiting collection)."""
        return bool(self._jobs) or bool(self._restored)

    # ------------------------------------------------------------------
    # online tuning
    # ------------------------------------------------------------------
    def apply_tuning(
        self,
        max_batch: int | None = None,
        scatter_method: str | None = None,
    ) -> dict:
        """Apply re-tuned knobs to a (possibly running) scheduler.

        Thread-safe, and deliberately restricted to the two knobs that
        cannot change any job's trajectory:

        * ``max_batch`` — results are composition-independent (pinned
          by the scheduler suite), so resizing is benign.  The value is
          read at the start of each group (``_run_group``), so a change
          lands at the next compatible batch wave, never mid-wave.
        * ``scatter_method`` — both kernel-4 implementations are
          bit-identical (they accumulate contributions in the same
          order), so switching takes effect immediately, even for
          in-flight slots.

        Returns the knobs actually applied; journals ``tuning_applied``.
        Invalid values raise :class:`~repro.errors.ConfigurationError`
        without applying anything.
        """
        if max_batch is not None and max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be positive, got {max_batch}"
            )
        applied: dict = {}
        if scatter_method is not None:
            from repro.core.ib.spreading import set_scatter_method

            set_scatter_method(scatter_method)  # validates the name
            applied["scatter_method"] = scatter_method
        if max_batch is not None:
            self.max_batch = int(max_batch)
            applied["max_batch"] = self.max_batch
        if applied:
            self._record("tuning_applied", **applied)
        return applied

    # ------------------------------------------------------------------
    @property
    def _persist(self) -> bool:
        return self.workdir is not None

    def _metrics(self):
        return self.telemetry.metrics if self.telemetry is not None else None

    def _record(self, kind: str, step: int = -1, **detail) -> None:
        self.incidents.record(kind, step=step, **detail)

    def _run_group(
        self,
        group_index: int,
        jobs: list[BatchJob],
        results: dict[str, BatchResult],
        retries: list[BatchJob],
    ) -> None:
        start = time.perf_counter()
        config = jobs[0].config
        self._group_key = compatibility_key(config)
        batch = min(self.max_batch, len(jobs))
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
            tracer=self.telemetry.tracer if self.telemetry is not None else None,
            guard=self._guard,
        )
        metrics = self._metrics()
        if metrics is not None:
            metrics.gauge("batch.capacity").set(batch)

        queue: deque[BatchJob] = deque(jobs)
        slots: list[BatchJob | None] = [None] * batch
        if self.fault_injector is not None:
            injector = self.fault_injector

            def fault_hook(
                _tid: int, _step: int, _solver=solver, _slots=slots
            ) -> None:
                # Batched convention: a fault's ``tid`` names the batch
                # *slot* and its ``step`` is the job-local absolute step
                # about to execute, so a plan targets one simulation
                # deterministically regardless of batch composition.
                for slot, job in enumerate(_slots):
                    if job is not None:
                        injector.on_step(
                            slot,
                            job.start_step + _solver.slot_steps[slot],
                            _solver.grid.view(slot),
                        )

            solver.fault_hook = fault_hook
        for slot in range(batch):
            job = self._next_job(queue, results)
            if job is None:
                break
            self._admit(solver, slots, slot, job)

        while any(job is not None for job in slots):
            sweep_start = time.perf_counter()
            solver.step()
            sweep_seconds = time.perf_counter() - sweep_start
            if metrics is not None:
                metrics.counter("batch.steps").inc()
                metrics.counter("batch.sim_steps").inc(solver.occupancy)
            handled: set[int] = set()
            if self._guard is not None:
                for ejection in self._guard.take_ejections():
                    job = slots[ejection.slot]
                    if job is None:
                        continue
                    handled.add(ejection.slot)
                    self._dispose_failure(
                        solver,
                        slots,
                        ejection.slot,
                        results,
                        retries,
                        queue,
                        error_type=type(ejection.error).__name__,
                        message=str(ejection.error),
                        invariant=ejection.invariant,
                        failing_step=job.start_step + ejection.job_step,
                        state=(ejection.fluid, ejection.structure),
                        quarantined=ejection.quarantined,
                        chain=_error_chain(ejection.error),
                        ejected=True,
                    )
            # Cooperative cancellation drain: requested slots are
            # retired at the step boundary by the same benign slot
            # parking the guard-ejection path uses (only the victim's
            # sub-arrays are written; siblings stay bit-identical).
            for slot, job in enumerate(slots):
                if job is None or slot in handled:
                    continue
                if self._cancel_requested(job.job_id):
                    handled.add(slot)
                    self._retire(
                        solver,
                        slots,
                        slot,
                        results,
                        "cancelled",
                        steps=job.start_step + solver.slot_steps[slot],
                    )
                    self._refill(solver, slots, slot, queue, results)
            probe = (
                self.check_finite_every
                and solver.time_step % self.check_finite_every == 0
            )
            for slot, job in enumerate(slots):
                if job is None or slot in handled:
                    continue
                step_abs = job.start_step + solver.slot_steps[slot]
                if probe and not solver.slot_finite(slot):
                    strikes = self._strikes[job.job_id] = (
                        self._strikes.get(job.job_id, 0) + 1
                    )
                    self._record(
                        "slot_diverged",
                        step=step_abs,
                        job=job.job_id,
                        slot=slot,
                        strikes=strikes,
                    )
                    message = "non-finite fields detected by the divergence probe"
                    self._dispose_failure(
                        solver,
                        slots,
                        slot,
                        results,
                        retries,
                        queue,
                        error_type="StabilityError",
                        message=message,
                        invariant="finite_probe",
                        failing_step=step_abs,
                        state=None,
                        quarantined=strikes >= self.quarantine_after,
                        chain=(f"StabilityError: {message}",),
                        ejected=False,
                    )
                elif step_abs >= job.num_steps:
                    self._retire(
                        solver, slots, slot, results, "completed", steps=step_abs
                    )
                    self._refill(solver, slots, slot, queue, results)
                elif (
                    self._persist
                    and self.checkpoint_every
                    and step_abs % self.checkpoint_every == 0
                ):
                    fluid = solver.grid.gather_slot(slot)
                    self._write_checkpoint(
                        job.job_id, fluid, solver.structures[slot], step_abs
                    )
            if metrics is not None:
                metrics.gauge("batch.occupancy").set(solver.occupancy)
            if self.step_hook is not None:
                self.step_hook(
                    SchedulerTick(
                        group_index=group_index,
                        batch_step=solver.time_step,
                        occupancy=solver.occupancy,
                        capacity=batch,
                        step_seconds=sweep_seconds,
                        jobs=tuple(
                            (job.job_id, job.start_step + solver.slot_steps[s])
                            for s, job in enumerate(slots)
                            if job is not None
                        ),
                    )
                )

        if self.telemetry is not None:
            elapsed = time.perf_counter() - start
            self.telemetry.tracer.record(
                f"batch.group{group_index}", 0, start, elapsed, cat="batch"
            )

    # ------------------------------------------------------------------
    # failure lifecycle
    # ------------------------------------------------------------------
    def _dispose_failure(
        self,
        solver: BatchedLBMIBSolver,
        slots: list[BatchJob | None],
        slot: int,
        results: dict[str, BatchResult],
        retries: list[BatchJob],
        queue: deque,
        *,
        error_type: str,
        message: str,
        invariant: str,
        failing_step: int,
        state: tuple[FluidGrid, ImmersedStructure | None] | None,
        quarantined: bool,
        chain: tuple[str, ...],
        ejected: bool,
    ) -> None:
        """Route one slot failure: retry, quarantine, or terminal result."""
        job = slots[slot]
        assert job is not None
        metrics = self._metrics()
        if quarantined:
            self._record(
                "job_quarantined",
                step=failing_step,
                job=job.job_id,
                attempt=job.attempt,
                error=message,
            )
            # Guard ejections already counted their quarantine trip.
            if not ejected and metrics is not None:
                metrics.counter("batch.quarantined").inc()
        policy = self.retry_policy
        if policy is not None and job.attempt < policy.max_attempts and not quarantined:
            fluid, structure, start = self._restart_state(job)
            retry = BatchJob(
                job_id=job.job_id,
                config=policy.damped(job.config),
                num_steps=job.num_steps,
                order=job.order,
                initial_fluid=fluid,
                initial_structure=structure,
                attempt=job.attempt + 1,
                start_step=start,
            )
            retries.append(retry)
            self._status[job.job_id] = "queued"
            self._record(
                "job_retry",
                step=failing_step,
                job=job.job_id,
                attempt=retry.attempt,
                from_step=start,
                tau=retry.config.effective_tau,
                error=message,
            )
            if metrics is not None:
                metrics.counter("batch.retries").inc()
            if self._persist:
                entry = self._manifest[job.job_id]
                entry["status"] = "pending"
                entry["attempt"] = retry.attempt
                entry["config"] = retry.config.to_dict()
                self._save_manifest()
            slots[slot] = None
            if solver.active[slot]:  # guard ejections already parked the slot
                solver.clear_slot(slot)
            self._refill(solver, slots, slot, queue, results)
            return
        failure = FailureInfo(
            job_id=job.job_id,
            error_type=error_type,
            message=message,
            invariant=invariant,
            failing_step=failing_step,
            slot=slot,
            attempt=job.attempt,
            quarantined=quarantined,
            chain=chain,
            incident_log=self.incidents.jsonl_path,
        )
        status = "failed" if ejected else "diverged"
        self._retire(
            solver,
            slots,
            slot,
            results,
            status,
            steps=failing_step,
            state=state,
            failure=failure,
        )
        self._refill(solver, slots, slot, queue, results)

    def _restart_state(
        self, job: BatchJob
    ) -> tuple[FluidGrid | None, ImmersedStructure | None, int]:
        """Best restorable ``(fluid, structure, start_step)`` for a retry.

        Preference order: newest loadable on-disk checkpoint (corrupt
        ones are journaled and skipped), the submit-time initial-state
        checkpoint, the in-memory state this attempt started from, and
        finally a fresh configured state at step 0.
        """
        if self._persist:
            entry = self._manifest.get(job.job_id)
            if entry is not None:
                state = self._restore_entry(entry, job.job_id)
                if state is not None:
                    return state
        return job.initial_fluid, job.initial_structure, job.start_step

    def _restore_entry(
        self, entry: dict, job_id: str
    ) -> tuple[FluidGrid, ImmersedStructure | None, int] | None:
        """Newest loadable checkpoint state for a manifest entry."""
        for path, _step in reversed(list(self._ckpts.get(job_id, []))):
            state = self._load_checkpoint(path, job_id)
            if state is not None:
                return state
        init = entry.get("init_checkpoint")
        if init:
            state = self._load_checkpoint(init, job_id, drop=False)
            if state is not None:
                return state[0], state[1], 0
        return None

    def _load_checkpoint(
        self, path: str, job_id: str, drop: bool = True
    ) -> tuple[FluidGrid, ImmersedStructure | None, int] | None:
        """Load one checkpoint, journaling and dropping it when unusable."""
        try:
            fluid, structure, step = load_checkpoint(path)
        except CheckpointError as exc:
            self._record(
                "checkpoint_corrupt", job=job_id, path=path, error=str(exc)
            )
            if drop:
                self._drop_checkpoint(job_id, path)
            return None
        if not (
            np.isfinite(fluid.density).all() and np.isfinite(fluid.df).all()
        ):
            # Written before the divergence was detected (coarse probe
            # cadence): restarting from it would fail instantly.
            self._record(
                "checkpoint_unstable", step=step, job=job_id, path=path
            )
            if drop:
                self._drop_checkpoint(job_id, path)
            return None
        return fluid, structure, int(step)

    def _drop_checkpoint(self, job_id: str, path: str) -> None:
        trail = [e for e in self._ckpts.get(job_id, []) if e[0] != path]
        self._ckpts[job_id] = trail
        try:
            os.unlink(path)
        except OSError:
            pass
        entry = self._manifest.get(job_id)
        if entry is not None:
            entry["checkpoints"] = [[p, s] for p, s in trail]
            self._save_manifest()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _write_checkpoint(
        self,
        job_id: str,
        fluid: FluidGrid,
        structure: ImmersedStructure | None,
        step: int,
    ) -> None:
        path = os.path.join(
            self.workdir, f"ckpt-{_safe_id(job_id)}-{step:08d}.npz"
        )
        save_checkpoint(path, fluid, structure, time_step=step)
        if self.fault_injector is not None:
            self.fault_injector.after_checkpoint(path, step)
        trail = [e for e in self._ckpts.get(job_id, []) if e[1] != step]
        trail.append((path, step))
        self._ckpts[job_id] = trail = rotate_checkpoints(
            trail, self.keep_checkpoints
        )
        entry = self._manifest[job_id]
        entry["checkpoints"] = [[p, s] for p, s in trail]
        entry["steps_completed"] = step
        self._save_manifest()
        self._record("checkpoint_saved", step=step, job=job_id, path=path)
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("batch.checkpoints").inc()

    def _save_manifest(self) -> None:
        if not self._persist:
            return
        final = os.path.join(self.workdir, MANIFEST_NAME)
        tmp = final + ".tmp"
        payload = {
            "version": _MANIFEST_VERSION,
            "counter": self._counter,
            "jobs": self._manifest,
        }
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)

    # ------------------------------------------------------------------
    # slot plumbing
    # ------------------------------------------------------------------
    def _admit(
        self,
        solver: BatchedLBMIBSolver,
        slots: list[BatchJob | None],
        slot: int,
        job: BatchJob,
    ) -> None:
        config = job.config
        if job.initial_fluid is not None:
            fluid = adopt_state(
                job.initial_fluid, config.effective_tau, config.collision_operator
            )
        else:
            fluid = FluidGrid(
                config.fluid_shape,
                tau=config.effective_tau,
                collision_operator=config.collision_operator,
            )
        if job.initial_structure is not None:
            # The slot mutates its structure in place; keep the job's
            # restart state pristine for a possible further retry.
            structure = job.initial_structure.copy()
        else:
            structure = config.build_structure()
        solver.load_slot(slot, fluid, structure, job_id=job.job_id)
        slots[slot] = job
        self._status[job.job_id] = "running"
        if self._persist:
            entry = self._manifest.get(job.job_id)
            if entry is not None:
                entry["status"] = "running"
                self._save_manifest()

    def _retire(
        self,
        solver: BatchedLBMIBSolver,
        slots: list[BatchJob | None],
        slot: int,
        results: dict[str, BatchResult],
        status: str,
        steps: int | None = None,
        state: tuple[FluidGrid, ImmersedStructure | None] | None = None,
        failure: FailureInfo | None = None,
    ) -> None:
        job = slots[slot]
        assert job is not None
        if steps is None:
            steps = job.start_step + solver.slot_steps[slot]
        if state is not None:
            fluid, structure = state
        else:
            fluid = solver.grid.gather_slot(slot)
            structure = solver.structures[slot]
        results[job.job_id] = BatchResult(
            job_id=job.job_id,
            status=status,
            steps_completed=steps,
            fluid=fluid,
            structure=structure,
            slot=slot,
            attempts=job.attempt,
            failure=failure,
        )
        slots[slot] = None
        if solver.active[slot]:  # guard ejections already parked the slot
            solver.clear_slot(slot)
        self._status[job.job_id] = status
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter(
                {
                    "completed": "batch.sims_completed",
                    "cancelled": "batch.sims_cancelled",
                }.get(status, "batch.sims_diverged")
            ).inc()
            if failure is not None:
                metrics.counter("batch.jobs_failed").inc()
        if status == "completed":
            self._strikes.pop(job.job_id, None)
            if self._guard is not None:
                self._guard.forgive(job.job_id)
            self._record(
                "job_completed", step=steps, job=job.job_id, attempt=job.attempt
            )
        elif status == "cancelled":
            self._strikes.pop(job.job_id, None)
            if self._guard is not None:
                self._guard.forgive(job.job_id)
            self._record(
                "job_cancelled",
                step=steps,
                job=job.job_id,
                attempt=job.attempt,
                queued=False,
            )
        else:
            self._record(
                "job_failed",
                step=steps,
                job=job.job_id,
                status=status,
                attempt=job.attempt,
                error=None if failure is None else failure.message,
            )
        if self._persist:
            if status == "completed":
                # Final-state checkpoint: resume() rebuilds the result
                # from it without re-running the job.
                self._write_checkpoint(job.job_id, fluid, structure, steps)
            entry = self._manifest.get(job.job_id)
            if entry is not None:
                entry["status"] = status
                entry["steps_completed"] = steps
                entry["attempt"] = job.attempt
                entry["failure"] = None if failure is None else failure.to_dict()
                self._save_manifest()

    def _next_job(
        self, queue: deque, results: dict[str, BatchResult]
    ) -> BatchJob | None:
        """Next admissible job for the running group.

        Pops the group queue first (entries with a pending cancellation
        are retired as ``"cancelled"`` instead of admitted), then asks
        the ``refill_source`` — continuous admission — until it returns
        an admissible request or runs dry.
        """
        while queue:
            job = queue.popleft()
            if self._cancel_requested(job.job_id):
                results[job.job_id] = self._cancelled_result(job)
                continue
            return job
        if self.refill_source is None or self._group_key is None:
            return None
        while True:
            request = self.refill_source(self._group_key)
            if request is None:
                return None
            job_id = self.submit(
                request.config,
                request.num_steps,
                job_id=request.job_id,
                initial_fluid=request.initial_fluid,
                initial_structure=request.initial_structure,
            )
            job = next(j for j in self._jobs if j.job_id == job_id)
            if compatibility_key(job.config) != self._group_key:
                # A mismatched refill must not corrupt the running batch
                # with incompatible physics — and aborting mid-batch
                # would lose the wave's sibling results.  Leave the job
                # in self._jobs: it runs as its own group in a later
                # wave (the submit above already persisted it).
                self._record(
                    "refill_incompatible",
                    job=job_id,
                    group=repr(self._group_key),
                )
                continue
            self._jobs.remove(job)
            if self._cancel_requested(job_id):
                results[job_id] = self._cancelled_result(job)
                continue
            return job

    def _refill(
        self,
        solver: BatchedLBMIBSolver,
        slots: list[BatchJob | None],
        slot: int,
        queue: deque,
        results: dict[str, BatchResult],
    ) -> None:
        job = self._next_job(queue, results)
        if job is None:
            return
        self._admit(solver, slots, slot, job)
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("batch.refills").inc()


def _safe_id(job_id: str) -> str:
    """Filesystem-safe form of a job id for checkpoint file names."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", job_id)
