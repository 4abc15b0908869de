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
* **Retry lifecycle** — with a
  :class:`~repro.resilience.recovery.RetryPolicy`, a failed job
  re-enters the queue with damped tau and a bounded attempt budget;
  repeat offenders are quarantined.  A job out of budget is retired
  with a structured :class:`FailureInfo` (root-cause chain, failing
  step, incident-log pointer) on its :class:`BatchResult`.
* **Checkpoint-backed resume** — with a ``workdir``, the scheduler
  writes periodic atomic per-job checkpoints (tmp + rename + SHA-256)
  into one :class:`~repro.io.checkpoint.CheckpointTrail` per job,
  rotated to ``keep_checkpoints``, and appends every lifecycle event —
  submit (``job_dispatched``), ``checkpoint_saved``, ``job_retry``,
  ``cancel_requested`` and the terminal ``job_completed`` /
  ``job_failed`` / ``job_cancelled`` — to one fsync'd JSONL journal,
  its only durable record of a job.  A killed scheduler process
  restarts via :meth:`BatchScheduler.resume`, one fold over that
  journal (:func:`replay_journal`), and completes every in-flight job
  losslessly, falling back past any corrupted or truncated checkpoint.

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

import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.batch.fields import BatchedFluidGrid, adopt_state
from repro.batch.guard import SlotGuard
from repro.batch.solver import BatchedLBMIBSolver
from repro.config import SimulationConfig
from repro.core.ib.fiber import ImmersedStructure
from repro.core.lbm.fields import FluidGrid
from repro.errors import CheckpointError, ConfigurationError
from repro.io.checkpoint import (
    DEFAULT_KEEP_CHECKPOINTS,
    CheckpointTrail,
    checkpoint_window,
    save_checkpoint,
)
from repro.resilience.incident import INCIDENTS_NAME, IncidentLog
from repro.resilience.recovery import FailureInfo, RetryPolicy, error_chain

__all__ = [
    "BatchJob",
    "BatchResult",
    "BatchScheduler",
    "FailureInfo",
    "JobRequest",
    "JournaledJob",
    "SchedulerTick",
    "TERMINAL_STATUSES",
    "compatibility_key",
    "replay_journal",
]

#: Job statuses that end a job's lifecycle (a result exists for each).
TERMINAL_STATUSES = frozenset({"completed", "failed", "diverged", "cancelled"})


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


@dataclass
class JournaledJob:
    """One job's durable state, folded from the journal by :func:`replay_journal`.

    ``accepted`` is the service's ``job_accepted`` record (tenant, state
    seed, ...) when a :class:`~repro.service.SimulationService` shares
    the journal.  The other fields come from the scheduler's records;
    ``order`` stays ``None`` until the job was submitted to it.
    ``status`` is ``"queued"`` or the last terminal status recorded;
    ``steps`` is the terminal record's step (``None`` when unknown).
    Checkpoints are named relative to the scheduler ``workdir``, so a
    workdir can be moved before it is resumed.
    """

    job_id: str
    accepted: dict | None = None
    order: int | None = None
    config: dict | None = None
    num_steps: int = 0
    init_checkpoint: str | None = None
    attempt: int = 1
    checkpoints: list[tuple[str, int]] = field(default_factory=list)
    status: str = "queued"
    steps: int | None = None
    failure: dict | None = None
    cancel_requested: bool = False


def replay_journal(
    path: str | os.PathLike, keep_checkpoints: int = DEFAULT_KEEP_CHECKPOINTS
) -> dict[str, JournaledJob]:
    """Fold a (possibly torn-tailed) job journal into per-job state.

    One pass in record order, the newest record winning.  The
    checkpoint trail applies the same ``keep_checkpoints`` window as
    the live rotation and drops files journaled corrupt, so resume
    never probes a file that rotation already deleted.  Jobs come back
    in first-record order.
    """
    jobs: dict[str, JournaledJob] = {}
    for event in IncidentLog.load(path).events:
        detail = event.detail
        job_id = detail.get("job")
        if event.kind == "job_accepted":
            jobs[job_id] = JournaledJob(job_id, accepted=dict(detail))
            continue
        if event.kind == "job_dispatched" and "config" in detail:
            job = jobs.setdefault(job_id, JournaledJob(job_id))
            job.order = int(detail["order"])
            job.config = detail["config"]
            job.num_steps = int(detail["num_steps"])
            job.init_checkpoint = detail.get("init_checkpoint")
            continue
        job = jobs.get(job_id)
        if job is None:
            continue
        if event.kind == "job_retry":
            job.attempt = int(detail["attempt"])
            job.config = detail["config"]
        elif event.kind == "checkpoint_saved":
            job.checkpoints, _ = checkpoint_window(
                job.checkpoints, str(detail["path"]), event.step, keep_checkpoints
            )
        elif event.kind in ("checkpoint_corrupt", "checkpoint_unstable"):
            name = os.path.basename(detail["path"])
            job.checkpoints = [e for e in job.checkpoints if e[0] != name]
        elif event.kind == "cancel_requested":
            job.cancel_requested = True
        elif event.kind in ("job_completed", "job_failed", "job_cancelled"):
            job.status = {"job_completed": "completed", "job_cancelled": "cancelled"}.get(
                event.kind, str(detail.get("status", "failed"))
            )
            job.steps = event.step if event.step >= 0 else None
            job.attempt = int(detail.get("attempt", job.attempt))
            job.failure = detail.get("failure")
    return jobs


def _rest_fluid(config: SimulationConfig) -> FluidGrid:
    """A fresh fluid at the configured rest state."""
    return FluidGrid(
        config.fluid_shape,
        tau=config.effective_tau,
        collision_operator=config.collision_operator,
    )


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
        Optional :class:`~repro.resilience.recovery.RetryPolicy`.  ``None`` (default)
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
        Directory for per-job checkpoints and, unless ``incident_log``
        is given, the crash-safe job journal ``incidents.jsonl``.
        ``None`` disables persistence.
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
        Optional pre-built :class:`~repro.resilience.incident.IncidentLog`
        to journal into; :meth:`resume` folds its JSONL file, so a
        service passes its own journal and both layers append to one
        file.  By default a crash-safe JSONL journal is created inside
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
        retry_policy: RetryPolicy | None = None,
        guard: "bool | SlotGuard" = False,
        quarantine_after: int = 3,
        workdir: str | os.PathLike | None = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = DEFAULT_KEEP_CHECKPOINTS,
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
        #: One checkpoint trail per job ever submitted to a persisting
        #: scheduler.
        self._trails: dict[str, CheckpointTrail] = {}
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
            or job_id in self._trails
            or job_id in self._restored
        ):
            raise ConfigurationError(f"duplicate job id {job_id!r}")
        init_checkpoint = None
        if self._persist:
            self._trails[job_id] = self._trail(job_id)
            if initial_fluid is not None or initial_structure is not None:
                init_checkpoint = f"ckpt-{_safe_id(job_id)}-init.npz"
                # Submit-time write, not a runtime checkpoint: the
                # fault injector's truncate hook is deliberately not
                # consulted (there is no earlier state to fall back to).
                save_checkpoint(
                    os.path.join(self.workdir, init_checkpoint),
                    _rest_fluid(config) if initial_fluid is None else initial_fluid,
                    initial_structure,
                    time_step=0,
                )
        # Journal before the job becomes visible: a kill after this line
        # never loses it, and resume() rebuilds it from this record.
        self._record(
            "job_dispatched",
            job=job_id,
            order=self._counter,
            config=config.to_dict(),
            num_steps=int(num_steps),
            init_checkpoint=init_checkpoint,
        )
        self._jobs.append(
            BatchJob(
                job_id=job_id,
                config=config,
                num_steps=int(num_steps),
                order=self._counter,
                initial_fluid=initial_fluid,
                initial_structure=initial_structure,
            )
        )
        self._counter += 1
        self._status[job_id] = "queued"
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
            if job_id not in self._cancel_requests:
                self._cancel_requests.add(job_id)
                # Durable acknowledgement: resume() retires the job as
                # cancelled even if this process dies before the next
                # step boundary drains the request.
                self._record("cancel_requested", job=job_id)
        return True

    def _cancel_requested(self, job_id: str) -> bool:
        """Consume a pending cancellation request for ``job_id``."""
        with self._cancel_lock:
            if job_id in self._cancel_requests:
                self._cancel_requests.discard(job_id)
                return True
            return False

    def _claim_completion(self, job_id: str) -> str:
        """Terminal status of a job that ran all its steps, claimed under
        ``_cancel_lock`` so an acknowledged cancel wins and a later one
        is refused."""
        with self._cancel_lock:
            if job_id in self._cancel_requests:
                self._cancel_requests.discard(job_id)
                return "cancelled"
            self._status[job_id] = "completed"
            return "completed"

    def _cancelled_result(self, job: BatchJob) -> BatchResult:
        """Terminal ``"cancelled"`` result for a job that never ran
        (or whose current attempt never started); bookkeeping included."""
        fluid = job.initial_fluid
        if fluid is None:
            fluid = _rest_fluid(job.config)
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
            "job_cancelled",
            step=job.start_step,
            job=job.job_id,
            attempt=job.attempt,
            queued=True,
        )
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("batch.sims_cancelled").inc()
        return result

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        workdir: str | os.PathLike,
        jobs: dict[str, JournaledJob] | None = None,
        **kwargs,
    ) -> "BatchScheduler":
        """Rebuild a scheduler from a (possibly killed) run's ``workdir``.

        One fold over the job journal (:func:`replay_journal`; pass
        ``jobs`` when the caller already folded it).  Per submitted job:

        * ``completed`` — rebuilt from its final checkpoint; if that no
          longer loads, re-run from the newest loadable state;
        * ``failed`` / ``diverged`` / ``cancelled`` — restored as
          recorded, not re-run;
        * anything else — re-queued from its newest *loadable*
          checkpoint (corrupt or truncated files are journaled
          ``checkpoint_corrupt`` and skipped), then the submit-time
          initial state.  A lost initial state is rebuilt from the
          journaled ``state_seed``; without one the job is retired
          ``failed`` rather than silently restarted from rest.  An
          acknowledged cancel is honoured immediately.

        The next :meth:`run` completes every in-flight job and returns
        the union of restored and re-run results.  ``kwargs`` are
        forwarded to the constructor (retry policy, guard, telemetry,
        fault injector, ``incident_log``, cadence knobs...).
        """
        workdir = os.fspath(workdir)
        if jobs is None:
            log = kwargs.get("incident_log")
            path = (
                os.path.join(workdir, INCIDENTS_NAME) if log is None else log.jsonl_path
            )
            if not (path and os.path.exists(path)):
                raise CheckpointError(f"no scheduler journal to resume from: {path}")
            keep = kwargs.get("keep_checkpoints", DEFAULT_KEEP_CHECKPOINTS)
            jobs = replay_journal(path, keep)
        scheduler = cls(workdir=workdir, **kwargs)
        submitted = sorted(
            (job for job in jobs.values() if job.order is not None),
            key=lambda job: job.order,
        )
        if not submitted and os.path.exists(os.path.join(workdir, "manifest.json")):
            raise CheckpointError(
                f"{workdir} predates the journal format: it has a "
                "manifest.json but its journal holds no submit records"
            )
        for entry in submitted:
            scheduler._restore(entry)
        scheduler._record(
            "scheduler_resumed",
            restored=len(scheduler._restored),
            requeued=len(scheduler._jobs),
            workdir=workdir,
        )
        metrics = scheduler._metrics()
        if metrics is not None:
            metrics.counter("batch.resumes").inc()
        return scheduler

    def _restore(self, entry: JournaledJob) -> None:
        """Re-queue or restore one journaled job (see :meth:`resume`)."""
        job_id = entry.job_id
        config = SimulationConfig.from_dict(entry.config)
        self._counter = max(self._counter, entry.order + 1)
        trail = self._trails[job_id] = self._trail(job_id, entry.checkpoints)
        state = trail.restore(entry.init_checkpoint)
        status, steps, failure = entry.status, entry.steps, None
        if entry.failure:
            failure = FailureInfo.from_dict(entry.failure)
        if status in ("queued", "completed"):
            if state is not None and state[2] >= entry.num_steps:
                if status != "completed":
                    # Killed between the final checkpoint and its record.
                    self._record(
                        "job_completed",
                        step=state[2],
                        job=job_id,
                        attempt=entry.attempt,
                    )
                status, steps = "completed", state[2]
            else:
                status = "queued"
        if status == "queued" and state is None and entry.init_checkpoint:
            seed = (entry.accepted or {}).get("state_seed")
            if seed is not None:
                from repro.verify.oracle import seeded_initial_fluid

                accepted = SimulationConfig.from_dict(entry.accepted["config"])
                state = (seeded_initial_fluid(accepted, seed), None, 0)
            else:
                path = os.path.join(self.workdir, entry.init_checkpoint)
                message = (
                    f"initial-state checkpoint {path} does not load and "
                    "the journal holds no state_seed to rebuild it"
                )
                status, steps = "failed", 0
                failure = FailureInfo(
                    job_id=job_id,
                    error_type="CheckpointError",
                    message=message,
                    invariant="init_checkpoint",
                    failing_step=0,
                    slot=-1,
                    attempt=entry.attempt,
                    chain=(f"CheckpointError: {message}",),
                    incident_log=self.incidents.jsonl_path,
                )
                self._record(
                    "job_failed",
                    step=0,
                    job=job_id,
                    status=status,
                    attempt=entry.attempt,
                    failure=failure.to_dict(),
                )
        fluid, structure, step = state if state is not None else (None, None, 0)
        job = BatchJob(
            job_id=job_id,
            config=config,
            num_steps=entry.num_steps,
            order=entry.order,
            initial_fluid=fluid,
            initial_structure=structure,
            attempt=entry.attempt,
            start_step=step,
        )
        if status != "queued":
            self._restored[job_id] = BatchResult(
                job_id=job_id,
                status=status,
                steps_completed=step if steps is None else steps,
                fluid=_rest_fluid(config) if fluid is None else fluid,
                structure=structure,
                attempts=entry.attempt,
                failure=failure,
            )
            self._status[job_id] = status
        elif entry.cancel_requested:
            self._restored[job_id] = self._cancelled_result(job)
        else:
            self._jobs.append(job)
            self._status[job_id] = "queued"

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
                        chain=error_chain(ejection.error),
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
                    status = self._claim_completion(job.job_id)
                    self._retire(solver, slots, slot, results, status, steps=step_abs)
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
            # Restart from the newest loadable checkpoint (corrupt ones
            # are journaled and skipped), else from this attempt's start.
            trail = self._trails.get(job.job_id)
            fluid, structure, start = (trail and trail.restore()) or (
                job.initial_fluid,
                job.initial_structure,
                job.start_step,
            )
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
                config=retry.config.to_dict(),
                error=message,
            )
            if metrics is not None:
                metrics.counter("batch.retries").inc()
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

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _trail(self, job_id: str, entries=()) -> CheckpointTrail:
        return CheckpointTrail(
            self.workdir,
            self._record,
            job_id,
            stem=f"ckpt-{_safe_id(job_id)}-",
            keep=self.keep_checkpoints,
            fault_injector=self.fault_injector,
            entries=entries,
        )

    def _write_checkpoint(
        self,
        job_id: str,
        fluid: FluidGrid,
        structure: ImmersedStructure | None,
        step: int,
    ) -> None:
        trail = self._trails[job_id]
        save_checkpoint(trail.path(step), fluid, structure, time_step=step)
        trail.saved(step)
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("batch.checkpoints").inc()

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
            fluid = _rest_fluid(config)
        if job.initial_structure is not None:
            # The slot mutates its structure in place; keep the job's
            # restart state pristine for a possible further retry.
            structure = job.initial_structure.copy()
        else:
            structure = config.build_structure()
        solver.load_slot(slot, fluid, structure, job_id=job.job_id)
        slots[slot] = job
        self._status[job.job_id] = "running"

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
        if status in ("completed", "cancelled"):
            self._strikes.pop(job.job_id, None)
            if self._guard is not None:
                self._guard.forgive(job.job_id)
        if status == "completed":
            if self._persist:
                # Final-state checkpoint, journaled before the terminal
                # record: resume() rebuilds the result from it.
                self._write_checkpoint(job.job_id, fluid, structure, steps)
            self._record(
                "job_completed", step=steps, job=job.job_id, attempt=job.attempt
            )
        elif status == "cancelled":
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
                failure=None if failure is None else failure.to_dict(),
            )

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
