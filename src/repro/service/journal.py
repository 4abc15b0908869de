"""Crash-safe job journal: the one durable record of every job.

The service's durability rule is *journal before admit*: a job is
appended to ``service.jsonl`` (fsync'd JSONL via
:class:`~repro.resilience.incident.IncidentLog`) before it enters the
fair queues.  The service hands the same log to its
:class:`~repro.batch.scheduler.BatchScheduler`, so the scheduler's own
records — the submit record ``job_dispatched`` (config, order,
initial-state checkpoint), ``checkpoint_saved``, ``job_retry``,
``cancel_requested`` and the terminal ``job_completed`` /
``job_failed`` / ``job_cancelled`` — land in the same file, and
:meth:`ServiceJournal.replay` folds it once into per-job state.  A kill
at any instant leaves every accepted job either

* submitted to the scheduler — its records rebuild it through
  :meth:`~repro.batch.scheduler.BatchScheduler.resume`, or
* accepted only — the service re-enqueues it from the journaled
  config + state seed on
  :meth:`~repro.service.service.SimulationService.resume`.

Raw initial-state arrays are deliberately not journaled; submissions
carry an optional ``state_seed`` and the journal stores the seed, so
recovery rebuilds bit-identical initial fluids through
:func:`repro.verify.oracle.seeded_initial_fluid`.
"""

from __future__ import annotations

import os

from repro.batch.scheduler import JournaledJob, replay_journal
from repro.resilience.incident import IncidentLog

__all__ = ["ServiceJournal", "SERVICE_JOURNAL_NAME"]

#: Journal file name inside the service workdir.
SERVICE_JOURNAL_NAME = "service.jsonl"


class ServiceJournal:
    """The service's side of the shared append-only job journal."""

    def __init__(self, workdir: str | os.PathLike) -> None:
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        self.path = os.path.join(self.workdir, SERVICE_JOURNAL_NAME)
        #: The underlying log, shared with the service's batch scheduler.
        self.log = IncidentLog(jsonl_path=self.path)

    def job_accepted(
        self,
        job_id: str,
        tenant: str,
        config_dict: dict,
        num_steps: int,
        state_seed: int | None,
        state_bytes: int,
    ) -> None:
        """Durably record an accepted job *before* it is enqueued."""
        self.log.record(
            "job_accepted",
            job=job_id,
            tenant=tenant,
            config=config_dict,
            num_steps=int(num_steps),
            state_seed=state_seed,
            state_bytes=int(state_bytes),
        )

    def job_cancelled(self, job_id: str, queued: bool) -> None:
        """A cancellation retired the job (``queued`` = before dispatch)."""
        self.log.record("job_cancelled", job=job_id, queued=bool(queued))

    def close(self) -> None:
        """Release the underlying journal file handle."""
        self.log.close()

    @classmethod
    def replay(cls, workdir: str | os.PathLike) -> dict[str, JournaledJob]:
        """Fold a (possibly torn-tailed) journal into per-job state,
        in acceptance order (empty when no journal exists)."""
        path = os.path.join(os.fspath(workdir), SERVICE_JOURNAL_NAME)
        if not os.path.exists(path):
            return {}
        return replay_journal(path)
