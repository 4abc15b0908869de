"""Deterministic chaos harness for the fault-tolerant batch scheduler.

The acceptance bar for fault-tolerant batching is not "the scheduler
usually survives" but a sharp, checkable invariant:

* every submitted job reaches a **terminal state** (completed, failed,
  or diverged — never lost, never stuck);
* every job that completes produces a final state **bit-identical** to
  the same job's fault-free run (``max_abs_delta == 0.0`` against the
  golden state, SHA-256 digest equality) — in particular, a healthy
  slot is never perturbed by a sibling slot's corruption, ejection, or
  mid-run scheduler death.

:class:`ChaosHarness` pins that invariant end to end: it runs a job set
once fault-free to capture golden digests, then replays the identical
submission under a seeded :class:`~repro.resilience.faults.FaultPlan` —
slot corruption (``corrupt_field`` with ``tid`` = batch slot),
checkpoint truncation (``truncate_checkpoint`` through the scheduler's
``after_checkpoint`` hook) and simulated scheduler death
(``kill_worker``, survived via :meth:`BatchScheduler.resume` on the
same workdir with the same injector, so once-faults never re-fire).
Everything is seeded and step-addressed, so a chaos failure replays
exactly — run ``make test-chaos``.

The chaos retry policy uses ``tau_damping=1.0``: damping would change
the retried job's physics and (correctly) break bit-identity, which is
a *stability* remedy, not a fault-recovery one.  Retries restart from
the newest clean checkpoint of the same trajectory, so a completed
retry is bit-identical by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.errors import WorkerKilledError
from repro.resilience.faults import Fault, FaultInjector, FaultPlan
from repro.resilience.incident import INCIDENTS_NAME, IncidentLog
from repro.resilience.recovery import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.scheduler import BatchResult, BatchScheduler

# NOTE: repro.batch imports repro.resilience.incident at module level,
# so the batch scheduler (and the digest helpers that pull in the api
# facade) are imported lazily here to keep the package import acyclic.

__all__ = [
    "ChaosHarness",
    "ChaosReport",
    "JobVerdict",
    "service_plan",
    "standard_plan",
]


def standard_plan(
    num_steps: int, checkpoint_every: int = 2, seed: int = 20150715
) -> FaultPlan:
    """The canonical chaos plan: corruption + truncation + worker kill.

    Deterministic given ``(num_steps, checkpoint_every, seed)``: one
    distribution-field corruption in slot 1 mid-run, one checkpoint
    truncation as soon as checkpoints exist, and one scheduler death in
    slot 0 at two-thirds of the run.
    """
    mid = max(1, num_steps // 2)
    late = max(mid + 1, (2 * num_steps) // 3)
    return FaultPlan.of(
        [
            Fault(kind="corrupt_field", step=mid, tid=1, fluid_field="df"),
            Fault(
                kind="truncate_checkpoint",
                step=max(1, checkpoint_every),
                nbytes=512,
            ),
            Fault(kind="kill_worker", step=late, tid=0),
        ],
        seed=seed,
    )


def service_plan(num_steps: int, seed: int = 20150715) -> FaultPlan:
    """The service kill/restart chaos plan: scheduler death only.

    The :class:`~repro.service.SimulationService` restart scenario needs
    a plan without state corruption — the invariant under test is that a
    *process kill* mid-batch loses no accepted job and perturbs no
    trajectory, so the single fault is one ``kill_worker`` at roughly
    half the run.  Deterministic given ``(num_steps, seed)``; the fired
    set rides across resumes, so the kill fires exactly once.
    """
    return FaultPlan.of(
        [Fault(kind="kill_worker", step=max(1, num_steps // 2), tid=0)],
        seed=seed,
    )


@dataclass(frozen=True)
class JobVerdict:
    """Chaos outcome of one job, faulted run vs. fault-free golden."""

    job_id: str
    status: str
    attempts: int
    steps_completed: int
    #: SHA-256 of the faulted run's final state.
    digest: str
    #: SHA-256 of the fault-free run's final state.
    golden_digest: str
    #: Largest absolute elementwise difference across all state arrays
    #: (``0.0`` = bit-identical trajectories).
    max_abs_delta: float

    @property
    def bit_identical(self) -> bool:
        return self.digest == self.golden_digest and self.max_abs_delta == 0.0


@dataclass
class ChaosReport:
    """Everything a chaos run asserts on (and CI archives on failure)."""

    verdicts: dict[str, JobVerdict]
    kills_survived: int
    resumes: int
    incident_counts: dict[str, int]
    workdir: str

    @property
    def all_terminal(self) -> bool:
        """Every submitted job produced a result."""
        return all(
            v.status in ("completed", "failed", "diverged")
            for v in self.verdicts.values()
        )

    @property
    def all_completed(self) -> bool:
        return all(v.status == "completed" for v in self.verdicts.values())

    @property
    def bit_identical(self) -> bool:
        """Every completed job matches its golden digest exactly."""
        return all(
            v.bit_identical
            for v in self.verdicts.values()
            if v.status == "completed"
        )

    def mismatches(self) -> list[str]:
        """Human-readable invariant violations (empty = chaos survived)."""
        problems: list[str] = []
        for job_id, v in sorted(self.verdicts.items()):
            if v.status != "completed":
                problems.append(
                    f"{job_id}: terminal status {v.status!r} after "
                    f"{v.attempts} attempt(s), {v.steps_completed} steps"
                )
            elif not v.bit_identical:
                problems.append(
                    f"{job_id}: completed but drifted from golden "
                    f"(max |delta| = {v.max_abs_delta:.3e}, digest "
                    f"{v.digest[:12]}... vs {v.golden_digest[:12]}...)"
                )
        return problems

    def summary(self) -> dict:
        """JSON-safe one-glance summary (logged by the chaos CI job)."""
        return {
            "jobs": {
                job_id: {
                    "status": v.status,
                    "attempts": v.attempts,
                    "steps_completed": v.steps_completed,
                    "bit_identical": v.bit_identical,
                    "max_abs_delta": v.max_abs_delta,
                }
                for job_id, v in sorted(self.verdicts.items())
            },
            "kills_survived": self.kills_survived,
            "resumes": self.resumes,
            "incidents": self.incident_counts,
            "workdir": self.workdir,
            "all_terminal": self.all_terminal,
            "bit_identical": self.bit_identical,
        }


class ChaosHarness:
    """Golden-vs-faulted differential driver for the batch scheduler.

    Parameters
    ----------
    jobs:
        ``(config, num_steps)`` submissions, replayed identically in
        the golden and the faulted run (job ids ``chaos0``, ``chaos1``,
        ... in submission order — slot assignment is FIFO, so fault
        ``tid``/slot targeting is deterministic).
    workdir:
        Scratch directory for the faulted scheduler's checkpoints and
        its job journal, which resume replays (must be empty or fresh).
    max_batch / check_finite_every / checkpoint_every / keep_checkpoints
    / max_attempts / quarantine_after / guard:
        Forwarded to the faulted :class:`BatchScheduler` (the golden
        run uses the same batching knobs with no faults and no
        persistence, so both runs batch identically).
    max_resumes:
        Safety bound on kill-resume cycles (a plan with N
        ``kill_worker`` faults needs at most N resumes).
    """

    def __init__(
        self,
        jobs: Sequence[tuple[SimulationConfig, int]],
        workdir: str | os.PathLike,
        *,
        max_batch: int = 4,
        check_finite_every: int = 1,
        checkpoint_every: int = 2,
        keep_checkpoints: int = 3,
        max_attempts: int = 3,
        quarantine_after: int = 3,
        guard: bool = True,
        max_resumes: int = 8,
    ) -> None:
        if not jobs:
            raise ValueError("chaos harness needs at least one job")
        self.jobs = [(config, int(steps)) for config, steps in jobs]
        self.workdir = os.fspath(workdir)
        self.max_batch = max_batch
        self.check_finite_every = check_finite_every
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        self.max_attempts = max_attempts
        self.quarantine_after = quarantine_after
        self.guard = guard
        self.max_resumes = max_resumes

    # ------------------------------------------------------------------
    def _batch_kwargs(self) -> dict:
        return dict(
            max_batch=self.max_batch,
            check_finite_every=self.check_finite_every,
            guard=self.guard,
            quarantine_after=self.quarantine_after,
        )

    def _submit_all(self, scheduler: BatchScheduler) -> None:
        for index, (config, steps) in enumerate(self.jobs):
            scheduler.submit(config, steps, job_id=f"chaos{index}")

    def golden_run(self) -> "dict[str, BatchResult]":
        """The fault-free reference: same jobs, same batching, no faults."""
        from repro.batch.scheduler import BatchScheduler

        scheduler = BatchScheduler(**self._batch_kwargs())
        self._submit_all(scheduler)
        return scheduler.run()

    def chaos_run(
        self, plan: FaultPlan
    ) -> "tuple[dict[str, BatchResult], int, BatchScheduler]":
        """The faulted run, surviving scheduler kills via resume.

        Returns ``(results, kills_survived, final scheduler)``.  The
        same :class:`FaultInjector` instance rides across every resume,
        so its fired-set is preserved and once-faults never replay.
        """
        from repro.batch.scheduler import BatchScheduler

        injector = FaultInjector(plan)
        kwargs = dict(
            self._batch_kwargs(),
            retry_policy=RetryPolicy(max_attempts=self.max_attempts, tau_damping=1.0),
            checkpoint_every=self.checkpoint_every,
            keep_checkpoints=self.keep_checkpoints,
        )
        scheduler = BatchScheduler(
            workdir=self.workdir, fault_injector=injector, **kwargs
        )
        self._submit_all(scheduler)
        kills = 0
        while True:
            try:
                results = scheduler.run()
                break
            except WorkerKilledError:
                kills += 1
                if kills > self.max_resumes:
                    raise
                scheduler = BatchScheduler.resume(
                    self.workdir, fault_injector=injector, **kwargs
                )
        return results, kills, scheduler

    def run(self, plan: FaultPlan | None = None) -> ChaosReport:
        """Golden run, faulted run, differential verdict."""
        from repro.verify.golden import fields_digest

        if plan is None:
            plan = standard_plan(
                max(steps for _, steps in self.jobs), self.checkpoint_every
            )
        golden = self.golden_run()
        results, kills, scheduler = self.chaos_run(plan)
        verdicts: dict[str, JobVerdict] = {}
        for job_id, gold in golden.items():
            result = results.get(job_id)
            if result is None:
                verdicts[job_id] = JobVerdict(
                    job_id=job_id,
                    status="lost",
                    attempts=0,
                    steps_completed=0,
                    digest="",
                    golden_digest=fields_digest(gold.fluid, gold.structure),
                    max_abs_delta=float("inf"),
                )
                continue
            verdicts[job_id] = JobVerdict(
                job_id=job_id,
                status=result.status,
                attempts=result.attempts,
                steps_completed=result.steps_completed,
                digest=fields_digest(result.fluid, result.structure),
                golden_digest=fields_digest(gold.fluid, gold.structure),
                max_abs_delta=_max_abs_delta(result, gold),
            )
        # The crash-safe on-disk journal spans every pre-kill scheduler
        # incarnation; the final scheduler's in-memory log does not.
        journal = os.path.join(self.workdir, INCIDENTS_NAME)
        if os.path.exists(journal):
            incident_counts = IncidentLog.load(journal).counts()
        else:
            incident_counts = scheduler.incidents.counts()
        return ChaosReport(
            verdicts=verdicts,
            kills_survived=kills,
            resumes=incident_counts.get("scheduler_resumed", 0),
            incident_counts=incident_counts,
            workdir=self.workdir,
        )


def _max_abs_delta(result: "BatchResult", golden: "BatchResult") -> float:
    """Largest elementwise |difference| between two results' states."""
    from repro.verify.golden import state_arrays

    ours = state_arrays(result.fluid, result.structure)
    theirs = state_arrays(golden.fluid, golden.structure)
    if sorted(ours) != sorted(theirs):
        return float("inf")
    delta = 0.0
    for key, arr in ours.items():
        other = theirs[key]
        if arr.shape != other.shape:
            return float("inf")
        delta = max(delta, float(np.max(np.abs(arr - other), initial=0.0)))
    return delta
