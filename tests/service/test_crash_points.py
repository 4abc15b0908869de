"""Crash-point enumeration: recovery holds after a kill at *every* point.

The soak injects one mid-run kill; this test kills the service at every
journal append instead.  A seeded service run (30 jobs on a tiny
fluid-only grid, periodic checkpoints, cancels of queued and of running
jobs) snapshots its workdir after each append to the job journal: the
journal bytes, plus hard links to the checkpoint files (a checkpoint
never changes once renamed into place, so a link freezes it).

Every snapshot — and a torn-tail variant of it whose last record is cut
mid-line, a kill during the append — is restored into a fresh workdir,
resumed with :meth:`SimulationService.resume` and run to completion
(two worker processes share the crash points).  After
each recovery:

* every accepted job ends in exactly one terminal status (one terminal
  record in the journal, matching its result);
* an acknowledged cancel never completes;
* completed results are bit-identical to solo runs (``fields_digest``);
* every re-queued job restarts at the step of its newest checkpoint
  recorded before the crash (0 = its journaled initial state).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil

import pytest

from repro.api import Simulation
from repro.batch.scheduler import TERMINAL_STATUSES
from repro.config import SimulationConfig, StructureConfig
from repro.resilience.incident import IncidentLog
from repro.service import SimulationService
from repro.service.journal import SERVICE_JOURNAL_NAME
from repro.verify.golden import fields_digest
from repro.verify.oracle import seeded_initial_fluid

pytestmark = [pytest.mark.slow, pytest.mark.chaos]

CFG = SimulationConfig(
    fluid_shape=(4, 4, 4), structure=StructureConfig(kind="none"), solver="batched"
)
NUM_JOBS = 30
SERVICE_KWARGS = dict(max_batch=4, checkpoint_every=3)
#: Jobs submitted before the service starts; the rest arrive one per sweep.
FIRST_WAVE = 8
#: Jobs cancelled while still in the service's fair queue.
QUEUED_CANCELS = (5, 17)
#: Jobs cancelled from the step hook right after their first checkpoint.
RUNNING_CANCELS = (2, 11, 23)
TERMINAL_KINDS = {"job_completed", "job_failed", "job_cancelled"}
#: Worker processes sharing the crash points (each owns a workdir).
WORKERS = 2


def _steps(index: int) -> int:
    return 6 if index in RUNNING_CANCELS else 2 + index % 3


def _solo_digest(seed: int, steps: int) -> str:
    sim = Simulation(CFG, initial_fluid=seeded_initial_fluid(CFG, seed))
    sim.run(steps)
    return fields_digest(sim.fluid, sim.structure)


def _link_checkpoints(src: str, dst: str) -> None:
    os.makedirs(dst, exist_ok=True)
    if os.path.isdir(src):
        for name in os.listdir(src):
            if name.endswith(".npz"):
                os.link(os.path.join(src, name), os.path.join(dst, name))


def _original_run(workdir: str, snapdir: str) -> tuple[list[str], list]:
    """The seeded run; returns job ids and one (journal, files) per append."""
    snapshots: list[tuple[bytes, str]] = []
    service = SimulationService(workdir, **SERVICE_KWARGS)
    journal = service._journal
    batch = service.batch_workdir

    def snapshot() -> None:
        files = os.path.join(snapdir, f"{len(snapshots):04d}")
        _link_checkpoints(batch, files)
        with open(journal.path, "rb") as fh:
            snapshots.append((fh.read(), files))

    record = journal.log.record

    def recording(*args, **kwargs):
        event = record(*args, **kwargs)
        snapshot()
        return event

    snapshot()  # boundary 0: the empty journal
    journal.log.record = recording
    ids: list[str] = []

    def submit_next() -> None:
        index = len(ids)
        ids.append(service.submit(CFG, _steps(index), state_seed=index))
        if index in QUEUED_CANCELS:
            assert service.cancel(ids[index])

    for _ in range(FIRST_WAVE):
        submit_next()
    hook = service._scheduler.step_hook

    def driving_hook(tick) -> None:
        # Arrivals trickle in one per sweep, so a crash at any point
        # strands a realistic mix of queued, running and finished jobs.
        hook(tick)
        if len(ids) < NUM_JOBS:
            submit_next()
        for job_id, steps in tick.jobs:
            if steps == 3 and ids.index(job_id) in RUNNING_CANCELS:
                assert service.cancel(job_id)

    service._scheduler.step_hook = driving_hook

    async def main():
        async with service:
            while len(ids) < NUM_JOBS:
                await asyncio.sleep(0.01)
            return {job_id: await service.result(job_id) for job_id in ids}

    results = asyncio.run(main())
    statuses = [results[job_id].status for job_id in ids]
    assert all(statuses[i] == "cancelled" for i in QUEUED_CANCELS + RUNNING_CANCELS)
    kinds = [event.kind for event in IncidentLog.load(journal.path).events]
    assert kinds.count("cancel_requested") == len(RUNNING_CANCELS)
    assert len(snapshots) == len(kinds) + 1
    return ids, snapshots


def _recover(journal: bytes, files: str, service_dir: str):
    """Restore a crash snapshot into ``service_dir``, resume it and run
    it to completion; returns the records before the crash, the restart
    steps, the results and the final journal."""
    shutil.rmtree(service_dir, ignore_errors=True)
    os.makedirs(service_dir)
    path = os.path.join(service_dir, SERVICE_JOURNAL_NAME)
    with open(path, "wb") as fh:
        fh.write(journal)
    prefix = IncidentLog.load(path).events
    _link_checkpoints(files, os.path.join(service_dir, "batch"))
    revived = SimulationService.resume(service_dir, **SERVICE_KWARGS)
    starts = {job.job_id: job.start_step for job in revived._scheduler._jobs}

    async def main():
        async with revived:
            return {
                snap.job_id: await revived.result(snap.job_id)
                for snap in revived.jobs()
            }

    results = asyncio.run(main())
    final = IncidentLog.load(path).events
    return prefix, starts, results, final


def _check(label, prefix, starts, results, final, ids, solo) -> None:
    """The four crash-recovery invariants for one crash point."""
    accepted = {e.detail["job"] for e in prefix if e.kind == "job_accepted"}
    assert set(results) == accepted, label
    # The resumed process's records survive a torn tail before them.
    assert [e.kind for e in final].count("scheduler_resumed") == 1, label
    terminal: dict[str, list[str]] = {}
    for event in final:
        if event.kind in TERMINAL_KINDS:
            terminal.setdefault(event.detail["job"], []).append(event.kind)
    for job_id, result in results.items():
        # Exactly one terminal status per accepted job.
        assert result.status in TERMINAL_STATUSES, (label, job_id)
        assert len(terminal.get(job_id, ())) == 1, (label, job_id, terminal.get(job_id))
        expected_kind = {"completed": "job_completed", "cancelled": "job_cancelled"}
        assert terminal[job_id][0] == expected_kind.get(result.status, "job_failed")
    # An acknowledged cancel never completes.
    acked = {
        e.detail["job"]
        for e in prefix
        if e.kind in ("cancel_requested", "job_cancelled")
    }
    for job_id in acked:
        assert results[job_id].status == "cancelled", (label, job_id)
    # Completed results are bit-identical to solo runs.
    for job_id, result in results.items():
        if result.status == "completed":
            index = ids.index(job_id)
            assert result.steps_completed == _steps(index), (label, job_id)
            assert fields_digest(result.fluid, result.structure) == solo[index], (
                label,
                job_id,
            )
        else:
            assert result.status == "cancelled", (label, job_id, result.status)
    # Re-queued jobs restart at their newest checkpoint before the crash.
    newest: dict[str, int] = {}
    for event in prefix:
        if event.kind == "checkpoint_saved":
            newest[event.detail["job"]] = event.step
    for job_id, start in starts.items():
        assert start == newest.get(job_id, 0), (label, job_id)


def _recover_all(cases, workdir, ids, solo) -> int:
    """Recover and check each ``(label, journal, files)`` crash point."""
    for label, journal, files in cases:
        prefix, starts, results, final = _recover(journal, files, workdir)
        _check(label, prefix, starts, results, final, ids, solo)
    return len(cases)


def test_recovery_at_every_crash_point(tmp_path):
    ids, snapshots = _original_run(
        str(tmp_path / "original"), str(tmp_path / "snapshots")
    )
    solo = [_solo_digest(index, _steps(index)) for index in range(NUM_JOBS)]
    cases = []
    for boundary, (journal, files) in enumerate(snapshots):
        cases.append((f"boundary {boundary}", journal, files))
        lines = journal.splitlines(keepends=True)
        if lines:
            # Killed mid-append: the last record is only half written.
            torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
            cases.append((f"torn tail at boundary {boundary}", torn, files))
    # The journal names checkpoints relative to the workdir, so each
    # worker process recovers its share of crash points in its own.
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        checked = pool.starmap(
            _recover_all,
            [
                (cases[w::WORKERS], str(tmp_path / f"worker{w}"), ids, solo)
                for w in range(WORKERS)
            ],
        )
    assert sum(checked) == 2 * len(snapshots) - 1
