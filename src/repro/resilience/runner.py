"""Checkpoint-based recovery driver for any solver variant.

:class:`ResilientRunner` wraps the :class:`~repro.api.Simulation`
facade with the recovery loop a long-running production deployment
needs:

* **Periodic atomic checkpoints** — every ``checkpoint_every`` steps
  the gathered state is validated and written atomically into a
  :class:`~repro.io.checkpoint.CheckpointTrail`, whose rotating window
  of recent checkpoints means one corrupted file never strands the run.
* **Stability rollback** — a :class:`~repro.errors.StabilityError`
  (NaN/Inf fields, lattice-Mach violation) or
  :class:`~repro.errors.InvariantError` rolls the run back to the
  newest loadable checkpoint and retries with damped ``tau`` under a
  :class:`~repro.resilience.recovery.RetryPolicy`.
* **Worker-death fallback** — a :class:`~repro.errors.WorkerError`,
  :class:`~repro.errors.BarrierTimeoutError`, or
  :class:`~repro.errors.CommTimeoutError` from a parallel solver
  rebuilds the run from the last checkpoint on the sequential solver:
  slower, but alive.  The fallback is not charged to the retry budget.
* **One job journal** — ``incidents.jsonl`` records the run as one job
  (:data:`JOB_ID`) in the batch scheduler's record kinds, a retry's
  config naming the damped or the sequential solver, so
  :func:`~repro.batch.scheduler.replay_journal` folds a runner workdir.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from repro.api import Simulation, SimulationConfig
from repro.errors import (
    BarrierTimeoutError,
    CommTimeoutError,
    ConfigurationError,
    InvariantError,
    LBMIBError,
    StabilityError,
    WorkerError,
)
from repro.io.checkpoint import DEFAULT_KEEP_CHECKPOINTS, CheckpointTrail
from repro.resilience.faults import FaultInjector
from repro.resilience.incident import INCIDENTS_NAME, IncidentLog
from repro.resilience.recovery import FailureInfo, RetryPolicy, error_chain

__all__ = ["JOB_ID", "ResilientRunner", "RetryPolicy", "WATCHDOG_TIMEOUT"]

#: Job id naming the runner's one job in its journal.
JOB_ID = "run"
#: Barrier/communicator deadline (s) installed into a config that sets none.
WATCHDOG_TIMEOUT = 30.0

_WORKER_DEATH = (WorkerError, BarrierTimeoutError, CommTimeoutError)


def _root_cause(exc: BaseException) -> BaseException:
    """Unwrap :class:`WorkerError` layers to the originating exception."""
    while isinstance(exc, WorkerError):
        exc = exc.original
    return exc


class ResilientRunner:
    """Drive a simulation to completion through faults.

    Parameters
    ----------
    config:
        The run description; any solver variant.  Without a
        ``barrier_timeout`` it gets :data:`WATCHDOG_TIMEOUT`.
    workdir:
        Directory for checkpoints and the job journal (created if
        missing).
    policy:
        Retry budget and damping; defaults to ``RetryPolicy()``.
    fault_injector:
        Optional injector (tests wire planned faults through it; it is
        also attached to the incident log so injections are journaled).
    invariants:
        Optional :class:`~repro.verify.invariants.InvariantSuite`
        attached to every simulation this runner builds — including the
        rebuilt ones after a rollback or fallback, whose conserved-
        quantity baselines are rebound to the restored state.  A
        violated invariant (:class:`~repro.errors.InvariantError`) is
        treated like a stability failure: roll back to the last good
        checkpoint and retry with damped parameters.
    telemetry:
        Optional :class:`~repro.observe.Telemetry` attached to every
        simulation this runner builds; each record kind additionally
        bumps a ``resilience.<kind>`` counter in its metrics registry,
        mirroring the journal as queryable metrics.
    checkpoint_every:
        Steps between checkpoints (also the granularity of stability
        validation — a fault is detected at most this many steps after
        injection).
    keep_checkpoints:
        Rotating window of on-disk checkpoints to retain.
    """

    def __init__(
        self,
        config: SimulationConfig,
        workdir: str | os.PathLike,
        policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        invariants=None,
        telemetry=None,
        checkpoint_every: int = 10,
        keep_checkpoints: int = DEFAULT_KEEP_CHECKPOINTS,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.policy = policy or RetryPolicy()
        if config.barrier_timeout is None:
            config = replace(config, barrier_timeout=WATCHDOG_TIMEOUT)
        self.config = config
        self.checkpoint_every = checkpoint_every
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        # Crash-safe journal: every record is an appended, fsync'd JSON
        # line, so a killed worker leaves a readable tail on disk.
        self.incidents = IncidentLog(
            jsonl_path=os.path.join(self.workdir, INCIDENTS_NAME)
        )
        self.fault_injector = fault_injector
        self.invariants = invariants
        self.telemetry = telemetry
        if fault_injector is not None and fault_injector.incident_log is None:
            fault_injector.incident_log = self.incidents
        self.trail = CheckpointTrail(
            self.workdir,
            self._record,
            JOB_ID,
            keep=keep_checkpoints,
            fault_injector=fault_injector,
        )

    def _record(self, kind: str, **fields) -> None:
        """Journal one record and mirror it as a resilience counter."""
        self.incidents.record(kind, **fields)
        if self.telemetry is not None:
            self.telemetry.metrics.counter(f"resilience.{kind}").inc()

    def _build(self, config: SimulationConfig, state=None) -> Simulation:
        """A simulation under ``config``, from ``state`` or from scratch,
        with telemetry and the invariant suite (rebound to this state)."""
        names = ("initial_fluid", "initial_structure", "initial_step")
        restored = dict(zip(names, state or ()))
        sim = Simulation(config, fault_injector=self.fault_injector, **restored)
        if self.telemetry is not None:
            sim.attach_telemetry(self.telemetry)
        if self.invariants is not None:
            sim.attach_invariants(self.invariants)
        return sim

    def _validate(self, sim: Simulation) -> None:
        sim.fluid.validate_stable()  # gathered copy for cube/distributed layouts
        structure = sim.structure
        if structure is not None:
            for sheet in structure.sheets:
                if not np.isfinite(sheet.positions).all():
                    raise StabilityError(
                        "fiber positions contain non-finite values; the "
                        "structure solver has become unstable"
                    )

    def _fail(
        self, exc: BaseException, cause: BaseException, step: int, attempt: int
    ) -> None:
        """Journal ``job_failed`` for an error about to be re-raised."""
        failure = FailureInfo(
            job_id=JOB_ID,
            error_type=type(cause).__name__,
            message=str(cause),
            invariant=getattr(cause, "invariant", ""),
            failing_step=step,
            slot=-1,
            attempt=attempt,
            chain=error_chain(exc),
            incident_log=self.incidents.jsonl_path,
        )
        self._record(
            "job_failed",
            step=step,
            job=JOB_ID,
            status="failed",
            attempt=attempt,
            failure=failure.to_dict(),
        )

    def run(self, num_steps: int) -> Simulation:
        """Advance ``num_steps`` steps, surviving planned-for failures.

        Returns the (possibly rebuilt) simulation at the target step.
        Re-raises the final :class:`~repro.errors.StabilityError` once
        the retry budget is exhausted, worker failures only when already
        on the sequential solver (nothing left to fall back to), and any
        other error at once — each after journaling ``job_failed``.
        """
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        config = self.config
        sim = self._build(config)
        self._record(
            "job_dispatched",
            job=JOB_ID,
            order=0,
            config=config.to_dict(),
            num_steps=int(num_steps),
            init_checkpoint=None,
        )
        attempt = 1
        failures = 0  # stability failures: what the retry budget counts
        while sim.time_step < num_steps:
            chunk = min(self.checkpoint_every, num_steps - sim.time_step)
            failed_step = sim.time_step
            try:
                sim.run(chunk)
                self._validate(sim)
            except LBMIBError as exc:
                cause = _root_cause(exc)
                retry = None
                if isinstance(cause, (StabilityError, InvariantError)):
                    failures += 1
                    if failures < self.policy.max_attempts:
                        retry = self.policy.damped(config)
                elif isinstance(exc, _WORKER_DEATH):
                    if config.solver != "sequential":
                        retry = replace(config, solver="sequential", num_threads=1)
                if retry is None:
                    self._fail(exc, cause, failed_step, attempt)
                    raise
                config = retry
                attempt += 1
                sim.close()
                sim = self._build(config, self.trail.restore())
                self._record(
                    "job_retry",
                    step=failed_step,
                    job=JOB_ID,
                    attempt=attempt,
                    from_step=sim.time_step,
                    tau=config.effective_tau,
                    config=config.to_dict(),
                    error=str(cause),
                )
                continue
            sim.checkpoint(self.trail.path(sim.time_step))
            self.trail.saved(sim.time_step)
        self._record(
            "job_completed", step=sim.time_step, job=JOB_ID, attempt=attempt
        )
        return sim
