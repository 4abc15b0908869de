"""The asyncio simulation service over the continuous-batching scheduler.

:class:`SimulationService` turns the synchronous
:class:`~repro.batch.scheduler.BatchScheduler` into a long-lived,
multi-tenant job service:

* **submit/poll/cancel/stream/result** — jobs enter weighted-fair
  per-tenant queues (:mod:`repro.service.queues`) and are served in
  fair order; progress streams off the scheduler's cooperative tick
  hook; results are awaited as coroutines.
* **backpressure + admission control** — a bounded per-tenant queue
  depth rejects with a retry-after hint, and a memory budget sized by
  :meth:`~repro.config.SimulationConfig.estimated_state_bytes`
  (:mod:`repro.service.admission`) bounds total resident state.
* **durability** — every accepted job is journaled before it is
  enqueued, and the scheduler appends its own lifecycle records to the
  same file (:mod:`repro.service.journal`); a hard kill at any instant
  is recovered by :meth:`SimulationService.resume`, which folds that
  one journal once, re-enqueues never-dispatched jobs and hands the
  rest to :meth:`BatchScheduler.resume`.

Threading model: the asyncio event loop owns the service API; one
executor thread at a time runs ``BatchScheduler.run``.  The scheduler
calls back into the service from that thread through ``step_hook``
(progress + SLO metrics) and ``refill_source`` (continuous fair-order
admission), both of which only touch thread-safe structures; all
mutation of job records happens under ``_state_lock``.
"""

from __future__ import annotations

import asyncio
import os
import time

import threading

from repro.batch.scheduler import (
    BatchResult,
    BatchScheduler,
    JobRequest,
    JournaledJob,
    SchedulerTick,
)
from repro.config import SimulationConfig
from repro.core.lbm.fields import FluidGrid
from repro.errors import AdmissionError, ConfigurationError, ServiceError, WorkerKilledError
from repro.service.admission import MemoryBudget
from repro.service.jobs import JobRecord, JobSnapshot
from repro.service.journal import ServiceJournal
from repro.service.queues import PendingJob, TenantSpec, WeightedFairQueues

__all__ = ["SimulationService", "DEFAULT_MEMORY_BUDGET"]

#: Default admission budget: resident state across queued + running jobs.
DEFAULT_MEMORY_BUDGET = 1 << 30

#: Subdirectory of the service workdir holding the scheduler's checkpoints.
BATCH_SUBDIR = "batch"


class SimulationService:
    """Async façade over :class:`BatchScheduler` — see the module docs.

    Parameters
    ----------
    workdir:
        Durability root: the one job journal (``service.jsonl``, shared
        with the batch scheduler) lives at its top level and the
        scheduler's checkpoints under ``batch/``.
    tenants:
        Tenant specs; defaults to a single ``default`` tenant.
    max_batch:
        Batch width handed to the scheduler.
    memory_budget_bytes:
        Admission budget over estimated resident state.
    checkpoint_every:
        Scheduler checkpoint cadence in steps (enables mid-flight
        recovery finer than the submit-time state).
    resume_on_kill:
        ``True`` (default) transparently rebuilds the scheduler via
        :meth:`BatchScheduler.resume` when a run is killed mid-batch;
        ``False`` stops the service instead, leaving recovery to a
        fresh :meth:`SimulationService.resume` (the cross-process
        restart path the chaos suite exercises).
    telemetry / fault_injector / retry_policy / guard:
        Forwarded to the scheduler.
    retuner:
        Optional :class:`~repro.tuning.online.OnlineRetuner`: the
        service feeds it every scheduler tick (after its own SLO
        bookkeeping) and keeps it bound to the live scheduler across
        rebuilds/resumes, so step-time drift beyond the tuned
        expectation triggers a journaled online re-tune whose knobs
        land through :meth:`BatchScheduler.apply_tuning`.
    """

    def __init__(
        self,
        workdir: str | os.PathLike,
        tenants: "list[TenantSpec] | None" = None,
        max_batch: int = 8,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        checkpoint_every: int = 0,
        resume_on_kill: bool = True,
        telemetry=None,
        fault_injector=None,
        retry_policy=None,
        guard: bool = False,
        retuner=None,
    ) -> None:
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        self.telemetry = telemetry
        self.resume_on_kill = resume_on_kill
        self.max_batch = max_batch
        self.checkpoint_every = checkpoint_every
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.guard = guard
        self.retuner = retuner
        self._queues = WeightedFairQueues(tenants or [TenantSpec("default")])
        self._budget = MemoryBudget(memory_budget_bytes)
        self._journal = ServiceJournal(self.workdir)
        self._state_lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}
        self._terminal_events: dict[str, list[asyncio.Event]] = {}
        self._counter = 0
        self._scheduler = self._build_scheduler()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._stopping = False
        self._fatal: BaseException | None = None

    # ------------------------------------------------------------------
    # scheduler wiring
    # ------------------------------------------------------------------
    @property
    def batch_workdir(self) -> str:
        """The batch scheduler's checkpoint directory."""
        return os.path.join(self.workdir, BATCH_SUBDIR)

    def _batch_kwargs(self) -> dict:
        return dict(
            max_batch=self.max_batch,
            telemetry=self.telemetry,
            checkpoint_every=self.checkpoint_every,
            fault_injector=self.fault_injector,
            retry_policy=self.retry_policy,
            guard=self.guard,
            step_hook=self._on_tick,
            refill_source=self._refill_source,
            incident_log=self._journal.log,
        )

    def _build_scheduler(
        self, resume: bool = False, jobs: dict[str, JournaledJob] | None = None
    ) -> BatchScheduler:
        """A fresh scheduler, or with ``resume`` one rebuilt from the
        journal (``jobs`` = an already folded journal)."""
        if resume:
            scheduler = BatchScheduler.resume(
                self.batch_workdir, jobs=jobs, **self._batch_kwargs()
            )
        else:
            scheduler = BatchScheduler(
                workdir=self.batch_workdir, **self._batch_kwargs()
            )
        if self.retuner is not None:
            # Re-bound on every rebuild (resume_on_kill resumes fresh
            # schedulers) so re-tuned knobs always reach the live one.
            self.retuner.bind(scheduler)
        return scheduler

    def _metrics(self):
        return self.telemetry.metrics if self.telemetry is not None else None

    # ------------------------------------------------------------------
    # submission API (event-loop thread)
    # ------------------------------------------------------------------
    def submit(
        self,
        config: SimulationConfig,
        num_steps: int,
        tenant: str = "default",
        job_id: str | None = None,
        state_seed: int | None = None,
    ) -> str:
        """Accept one job: admission-check, journal, enqueue; returns its id.

        Raises :class:`~repro.errors.QueueFullError` at the tenant's
        depth cap and :class:`~repro.errors.MemoryBudgetError` when the
        estimated state does not fit the remaining budget — both carry
        ``retry_after_seconds`` when resubmission can succeed.  Initial
        state is specified by ``state_seed`` (``None`` = configured
        rest state) so the journal can rebuild it bit-identically on
        recovery; raw arrays are deliberately not accepted here.
        """
        if self._fatal is not None:
            raise ServiceError(f"service stopped: {self._fatal!r}") from self._fatal
        try:
            spec = self._queues.tenant(tenant)
        except KeyError:
            raise AdmissionError(f"unknown tenant {tenant!r}") from None
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be positive, got {num_steps}")
        if job_id is None:
            while True:
                job_id = f"job-{self._counter:04d}"
                self._counter += 1
                if job_id not in self._records:
                    break
        elif job_id in self._records:
            raise ConfigurationError(f"duplicate job id {job_id!r}")
        state_bytes = config.estimated_state_bytes()
        metrics = self._metrics()
        try:
            self._budget.reserve(job_id, state_bytes)
            try:
                # Claim the queue slot *before* the journal write: a job
                # must never be durably recorded as accepted and then
                # rejected at the depth cap (resume would resurrect it).
                self._queues.reserve_slot(tenant)
            except Exception:
                self._budget.release(job_id)
                raise
            try:
                self._enqueue(
                    job_id, tenant, config, num_steps, state_seed, state_bytes,
                    journal=True, reserved=True,
                )
            except Exception:
                self._queues.release_slot(tenant)
                self._budget.release(job_id)
                raise
        except AdmissionError:
            if metrics is not None:
                metrics.counter("service.rejected").inc()
            raise
        if metrics is not None:
            metrics.counter("service.accepted").inc()
            metrics.gauge("service.queue_depth").set(self._queues.depth())
        self._kick()
        return job_id

    def _enqueue(
        self,
        job_id: str,
        tenant: str,
        config: SimulationConfig,
        num_steps: int,
        state_seed: int | None,
        state_bytes: int,
        journal: bool,
        reserved: bool = False,
    ) -> None:
        """Journal (optionally) and enqueue one accepted job."""
        record = JobRecord(
            job_id=job_id,
            tenant=tenant,
            config=config,
            num_steps=int(num_steps),
            state_bytes=state_bytes,
            state_seed=state_seed,
            submitted_at=time.monotonic(),
        )
        pending = PendingJob(
            job_id=job_id,
            tenant=tenant,
            request=JobRequest(
                config=config,
                num_steps=int(num_steps),
                job_id=job_id,
                initial_fluid=self._initial_fluid(config, state_seed),
            ),
            state_bytes=state_bytes,
            state_seed=state_seed,
            enqueued_at=record.submitted_at,
        )
        if journal:
            # Durability rule: journal *before* the job becomes visible
            # anywhere — a kill after this line never loses the job.
            # The queue slot was reserved before this write, so the
            # push below cannot be rejected at the depth cap.
            self._journal.job_accepted(
                job_id, tenant, config.to_dict(), num_steps, state_seed, state_bytes
            )
        self._queues.push(pending, reserved=reserved)
        with self._state_lock:
            self._records[job_id] = record

    @staticmethod
    def _initial_fluid(
        config: SimulationConfig, state_seed: int | None
    ) -> FluidGrid | None:
        if state_seed is None:
            return None
        from repro.verify.oracle import seeded_initial_fluid

        return seeded_initial_fluid(config, state_seed)

    # ------------------------------------------------------------------
    # lifecycle queries
    # ------------------------------------------------------------------
    def poll(self, job_id: str) -> JobSnapshot:
        """Current state of a job (raises KeyError for unknown ids)."""
        with self._state_lock:
            return self._records[job_id].snapshot()

    def jobs(self) -> list[JobSnapshot]:
        """Snapshots of every ever-accepted job, submission order."""
        with self._state_lock:
            return [record.snapshot() for record in self._records.values()]

    async def result(self, job_id: str) -> BatchResult:
        """Wait until the job is terminal; returns its :class:`BatchResult`."""
        with self._state_lock:
            record = self._records[job_id]
            # A record restored terminal by resume() may still await its
            # BatchResult from the scheduler's next run — keep waiting.
            if record.terminal and record.result is not None:
                return record.result
            event = asyncio.Event()
            self._terminal_events.setdefault(job_id, []).append(event)
        while not event.is_set():
            if self._fatal is not None:
                raise ServiceError(
                    f"service stopped before job {job_id!r} finished: {self._fatal!r}"
                ) from self._fatal
            try:
                await asyncio.wait_for(event.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                continue
        with self._state_lock:
            return self._records[job_id].result

    async def stream(self, job_id: str):
        """Async generator of progress events ending with the result.

        Yields dicts: ``{"type": "progress", ...}`` per scheduler sweep
        the job participated in, then one ``{"type": "result", ...}``
        carrying the terminal :class:`JobSnapshot` and
        :class:`BatchResult`.
        """
        queue: asyncio.Queue = asyncio.Queue()
        finished = None
        with self._state_lock:
            record = self._records[job_id]
            # A record restored terminal by resume() may still await its
            # BatchResult from the scheduler's next run — subscribe and
            # let _finish deliver it rather than yielding result=None.
            if record.terminal and record.result is not None:
                finished = {
                    "type": "result",
                    "job_id": job_id,
                    "snapshot": record.snapshot(),
                    "result": record.result,
                }
            else:
                record.subscribers.append(queue)
        if finished is not None:
            yield finished
            return
        try:
            while True:
                event = await queue.get()
                yield event
                if event.get("type") == "result":
                    return
        finally:
            with self._state_lock:
                if queue in record.subscribers:
                    record.subscribers.remove(queue)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; False when already terminal.

        Cancel-while-queued retires the job immediately (status
        ``"cancelled"``, budget released, journaled); cancel-while-
        running parks the batch slot benignly at the next step boundary
        through :meth:`BatchScheduler.cancel` — sibling slots stay
        bit-identical.
        """
        with self._state_lock:
            record = self._records.get(job_id)
            if record is None or record.terminal:
                return False
        pending = self._queues.remove(job_id)
        metrics = self._metrics()
        if pending is not None:
            self._journal.job_cancelled(job_id, queued=True)
            result = self._never_dispatched_cancel(
                job_id, record.config, pending.request.initial_fluid
            )
            if metrics is not None:
                metrics.counter("service.cancelled").inc()
                metrics.gauge("service.queue_depth").set(self._queues.depth())
            self._finish(record, result)
            return True
        # Already dispatched: delegate to the scheduler's thread-safe
        # cancel, which journals the acknowledgement; the terminal
        # result flows back through _absorb.
        accepted = self._scheduler.cancel(job_id)
        if not accepted:
            # Handoff race: _refill_source (executor thread) may have
            # popped the job from the queues while the scheduler has not
            # registered its submit yet.  Retry briefly while the record
            # is still live instead of refusing to cancel a live job.
            deadline = time.monotonic() + 0.25
            while not accepted and time.monotonic() < deadline:
                with self._state_lock:
                    live = self._records.get(job_id)
                    if live is None or live.terminal:
                        return False
                time.sleep(0.002)
                accepted = self._scheduler.cancel(job_id)
        if accepted and metrics is not None:
            metrics.counter("service.cancelled").inc()
        return accepted

    # ------------------------------------------------------------------
    # run loop (event-loop thread + one executor thread)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the drive loop (idempotent)."""
        if self._task is not None and not self._task.done():
            return
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopping = False
        self._task = self._loop.create_task(self._run_loop())

    async def stop(self, drain: bool = True) -> None:
        """Stop the drive loop; with ``drain`` finish queued work first."""
        if self._task is None:
            return
        if drain:
            try:
                await self.drain()
            except ServiceError:
                pass  # the fatal cause is preserved on self._fatal
        self._stopping = True
        self._kick()
        try:
            await self._task
        finally:
            self._task = None

    async def __aenter__(self) -> "SimulationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop(drain=exc_info == (None, None, None))
        self._journal.close()

    async def drain(self) -> None:
        """Wait until every accepted job is terminal with its result."""
        while self._fatal is None:
            with self._state_lock:
                if all(
                    record.terminal and record.result is not None
                    for record in self._records.values()
                ):
                    return
            await asyncio.sleep(0.01)
        raise ServiceError(f"service stopped while draining: {self._fatal!r}")

    def _kick(self) -> None:
        if self._wake is not None and self._loop is not None:
            try:
                running = asyncio.get_running_loop()
            except RuntimeError:
                running = None
            if running is self._loop:
                self._wake.set()
            else:
                self._loop.call_soon_threadsafe(self._wake.set)

    def _has_work(self) -> bool:
        return self._queues.depth() > 0 or self._scheduler.has_pending

    async def _run_loop(self) -> None:
        while not self._stopping:
            if not self._has_work():
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.05)
                except asyncio.TimeoutError:
                    pass
                continue
            try:
                await self._drive_once()
            except WorkerKilledError as exc:
                # resume_on_kill=False: the service halts; recovery is a
                # fresh SimulationService.resume on the same workdir.
                self._fatal = exc
                return
            except Exception as exc:  # pragma: no cover - defensive
                self._fatal = exc
                return

    async def _drive_once(self) -> None:
        """Seed the scheduler in fair order and run one batch wave."""
        seeded = self._queues.pop_next()
        if seeded is not None:
            self._dispatch(seeded)
        elif not self._scheduler.has_pending:
            return
        metrics = self._metrics()
        while True:
            tracer = self.telemetry.tracer if self.telemetry is not None else None
            start = time.perf_counter()
            try:
                results = await self._loop.run_in_executor(
                    None, self._scheduler.run
                )
            except WorkerKilledError:
                if not self.resume_on_kill:
                    raise
                if metrics is not None:
                    metrics.counter("service.kills_survived").inc()
                self._scheduler = self._build_scheduler(resume=True)
                continue
            finally:
                if tracer is not None:
                    tracer.record(
                        "service.drive",
                        tid=0,
                        start=start,
                        duration=time.perf_counter() - start,
                        cat="service",
                    )
            break
        self._absorb(results)

    def _dispatch(self, pending: PendingJob) -> None:
        """Hand one queued job to the scheduler (event-loop thread); its
        submit record is the durable dispatch."""
        self._scheduler.submit(
            pending.request.config,
            pending.request.num_steps,
            job_id=pending.job_id,
            initial_fluid=pending.request.initial_fluid,
            initial_structure=pending.request.initial_structure,
        )
        self._mark_dispatched(pending.job_id)

    def _refill_source(self, compat_key: tuple) -> JobRequest | None:
        """Scheduler callback (executor thread): next fair-order job
        of the running compatibility group, already bookkept.  The
        scheduler submits (and journals) the returned request itself."""
        pending = self._queues.pop_next(compat_key)
        if pending is None:
            return None
        self._mark_dispatched(pending.job_id)
        return pending.request

    def _mark_dispatched(self, job_id: str) -> None:
        """Queue-latency bookkeeping for a job leaving the fair queues."""
        now = time.monotonic()
        queue_seconds = None
        with self._state_lock:
            record = self._records.get(job_id)
            if record is not None:
                record.dispatched_at = now
                queue_seconds = now - record.submitted_at
        metrics = self._metrics()
        if metrics is not None:
            if queue_seconds is not None:
                metrics.histogram("service.queue_latency_seconds").observe(
                    queue_seconds
                )
            metrics.gauge("service.queue_depth").set(self._queues.depth())

    def _on_tick(self, tick: SchedulerTick) -> None:
        """Scheduler step hook (executor thread): progress + SLO metrics."""
        events: list[tuple[list, dict]] = []
        with self._state_lock:
            for job_id, steps in tick.jobs:
                record = self._records.get(job_id)
                if record is None or record.terminal:
                    continue
                record.steps_completed = steps
                if record.status == "queued":
                    record.status = "running"
                if record.subscribers:
                    events.append(
                        (
                            list(record.subscribers),
                            {
                                "type": "progress",
                                "job_id": job_id,
                                "steps_completed": steps,
                                "num_steps": record.num_steps,
                                "batch_step": tick.batch_step,
                            },
                        )
                    )
        metrics = self._metrics()
        if metrics is not None:
            metrics.quantiles("service.step_seconds").observe(tick.step_seconds)
            metrics.gauge("service.slot_occupancy").set(tick.occupancy)
            metrics.gauge("service.slot_capacity").set(tick.capacity)
        if self.retuner is not None:
            # Online re-tuning: the drift watchdog sees the same tick
            # stream the SLO quantiles do; a confirmed drift applies
            # bit-identity-safe knobs via the scheduler's apply_tuning.
            self.retuner.observe(tick)
        if events and self._loop is not None:
            for subscribers, payload in events:
                for queue in subscribers:
                    self._loop.call_soon_threadsafe(queue.put_nowait, payload)

    def _absorb(self, results: dict[str, BatchResult]) -> None:
        """Fold one run's results into the records (event-loop thread)."""
        for job_id, result in results.items():
            with self._state_lock:
                record = self._records.get(job_id)
                # A record restored terminal by resume() still needs its
                # BatchResult attached the first time it flows through.
                already = record is None or (
                    record.terminal and record.result is not None
                )
            if already:
                continue
            self._finish(record, result)

    def _finish(self, record: JobRecord, result: BatchResult) -> None:
        """Mark one job terminal: budget, metrics, waiters."""
        with self._state_lock:
            record.status = result.status
            record.steps_completed = result.steps_completed
            record.result = result
            record.finished_at = time.monotonic()
            subscribers = list(record.subscribers)
            waiters = self._terminal_events.pop(record.job_id, [])
            snapshot = record.snapshot()
        self._budget.release(record.job_id)
        metrics = self._metrics()
        if metrics is not None:
            counter = {
                "completed": "service.completed",
                "cancelled": "service.cancelled_total",
            }.get(result.status, "service.failed")
            metrics.counter(counter).inc()
        payload = {
            "type": "result",
            "job_id": record.job_id,
            "snapshot": snapshot,
            "result": result,
        }
        for event in waiters:
            event.set()
        for queue in subscribers:
            queue.put_nowait(payload)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, workdir: str | os.PathLike, **kwargs) -> "SimulationService":
        """Rebuild a service from a killed instance's ``workdir``.

        Folds the one job journal once (:meth:`ServiceJournal.replay`).
        Jobs the dead service had dispatched are rebuilt from that fold
        by :meth:`BatchScheduler.resume` (newest loadable checkpoint);
        jobs accepted but never dispatched are re-enqueued from their
        journaled config + state seed.  Tenants default to those in
        ``kwargs``; tenants found only in the journal are auto-
        registered at weight 1 so no accepted job is orphaned.
        """
        jobs = ServiceJournal.replay(workdir)
        accepted = [job for job in jobs.values() if job.accepted is not None]
        tenants = {spec.name: spec for spec in kwargs.pop("tenants", None) or []}
        for job in accepted:
            tenant = str(job.accepted["tenant"])
            tenants.setdefault(tenant, TenantSpec(tenant))
        if not tenants:
            tenants["default"] = TenantSpec("default")
        service = cls(workdir, tenants=list(tenants.values()), **kwargs)
        service._scheduler = service._build_scheduler(resume=True, jobs=jobs)
        for job in accepted:
            config = SimulationConfig.from_dict(job.accepted["config"])
            num_steps = int(job.accepted["num_steps"])
            tenant = str(job.accepted["tenant"])
            state_seed = job.accepted.get("state_seed")
            state_bytes = int(job.accepted.get("state_bytes", 0))
            if job.order is None and job.status == "queued":
                # Accepted but never dispatched: re-enqueue from the journal.
                service._budget.reserve(job.job_id, state_bytes)
                service._enqueue(
                    job.job_id, tenant, config, num_steps, state_seed,
                    state_bytes, journal=False,
                )
                continue
            record = JobRecord(
                job_id=job.job_id,
                tenant=tenant,
                config=config,
                num_steps=num_steps,
                state_bytes=state_bytes,
                state_seed=state_seed,
                status=job.status,
                steps_completed=job.steps or 0,
                submitted_at=time.monotonic(),
            )
            if job.order is None:
                # Cancelled before dispatch: no scheduler result follows.
                record.result = service._never_dispatched_cancel(
                    job.job_id, config, cls._initial_fluid(config, state_seed)
                )
            else:
                # The scheduler owns it: terminal results surface on the
                # next run(); in-flight jobs are already requeued there.
                record.dispatched_at = record.submitted_at
                if not record.terminal:
                    try:
                        service._budget.reserve(job.job_id, state_bytes)
                    except AdmissionError:
                        pass  # already resident in scheduler state
            with service._state_lock:
                service._records[job.job_id] = record
        service._counter = len(accepted)
        metrics = service._metrics()
        if metrics is not None:
            metrics.counter("service.resumes").inc()
        return service

    @staticmethod
    def _never_dispatched_cancel(
        job_id: str, config: SimulationConfig, fluid: FluidGrid | None
    ) -> BatchResult:
        """The result of a job cancelled before it reached the scheduler:
        its initial fluid (``None`` = the configured rest state)."""
        if fluid is None:
            fluid = FluidGrid(
                config.fluid_shape,
                tau=config.effective_tau,
                collision_operator=config.collision_operator,
            )
        return BatchResult(
            job_id=job_id, status="cancelled", steps_completed=0, fluid=fluid,
            structure=None,
        )
