"""Regression tests for the public ``BatchScheduler.cancel`` path.

The fix under test: cancellation no longer requires failing a job —
a queued job retires immediately, and a *running* job is parked
benignly at the next step boundary through the SlotGuard ejection
mechanics (only the victim slot's sub-arrays are written), so sibling
slots stay bit-identical to their solo runs.
"""

from __future__ import annotations

import pytest

from repro.api import Simulation
from repro.batch import BatchScheduler, SchedulerTick, TERMINAL_STATUSES
from repro.config import SimulationConfig
from repro.observe import Telemetry
from repro.verify.golden import fields_digest
from repro.verify.oracle import seeded_initial_fluid

CFG = SimulationConfig(fluid_shape=(8, 8, 8), solver="batched")


def _submit_seeded(scheduler: BatchScheduler, job_id: str, seed: int, steps: int):
    scheduler.submit(
        CFG,
        steps,
        job_id=job_id,
        initial_fluid=seeded_initial_fluid(CFG, seed),
    )


def _solo_digest(seed: int, steps: int) -> str:
    sim = Simulation(CFG, initial_fluid=seeded_initial_fluid(CFG, seed))
    sim.run(steps)
    return fields_digest(sim.fluid, sim.structure)


class TestCancelQueued:
    def test_cancel_before_run_retires_immediately(self):
        telemetry = Telemetry()
        scheduler = BatchScheduler(max_batch=2, telemetry=telemetry)
        _submit_seeded(scheduler, "keep", seed=0, steps=3)
        _submit_seeded(scheduler, "drop", seed=1, steps=3)
        assert scheduler.cancel("drop")
        assert scheduler.job_status("drop") == "cancelled"
        results = scheduler.run()
        assert results["drop"].status == "cancelled"
        assert results["drop"].steps_completed == 0
        assert results["keep"].ok
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["batch.sims_cancelled"] == 1

    def test_cancel_unknown_or_terminal_returns_false(self):
        scheduler = BatchScheduler(max_batch=2)
        assert not scheduler.cancel("nope")
        _submit_seeded(scheduler, "a", seed=0, steps=2)
        scheduler.run()
        assert scheduler.job_status("a") == "completed"
        assert not scheduler.cancel("a")  # already terminal

    def test_cancel_is_consumed_once(self):
        scheduler = BatchScheduler(max_batch=2)
        _submit_seeded(scheduler, "a", seed=0, steps=2)
        assert scheduler.cancel("a")
        assert not scheduler.cancel("a")  # already cancelled


class TestCancelRunning:
    def test_mid_run_cancel_parks_slot_benignly(self):
        """Cancel from inside the step hook; siblings stay bit-identical."""
        scheduler = BatchScheduler(max_batch=3)

        cancelled_at: list[int] = []

        def hook(tick: SchedulerTick) -> None:
            if tick.batch_step == 2 and not cancelled_at:
                assert scheduler.cancel("victim")
                cancelled_at.append(tick.batch_step)

        scheduler.step_hook = hook
        _submit_seeded(scheduler, "victim", seed=0, steps=8)
        _submit_seeded(scheduler, "sib1", seed=1, steps=8)
        _submit_seeded(scheduler, "sib2", seed=2, steps=8)
        results = scheduler.run()

        assert cancelled_at == [2]
        victim = results["victim"]
        assert victim.status == "cancelled"
        assert 0 < victim.steps_completed < 8
        # The parked slot never perturbed its siblings.
        for job_id, seed in (("sib1", 1), ("sib2", 2)):
            assert results[job_id].ok
            assert results[job_id].steps_completed == 8
            assert fields_digest(
                results[job_id].fluid, results[job_id].structure
            ) == _solo_digest(seed, 8)

    def test_cancelled_slot_is_refilled(self):
        """The freed slot admits the next queued job in the same group."""
        scheduler = BatchScheduler(max_batch=2)

        def hook(tick: SchedulerTick) -> None:
            if tick.batch_step == 1:
                scheduler.cancel("victim")

        scheduler.step_hook = hook
        _submit_seeded(scheduler, "victim", seed=0, steps=10)
        _submit_seeded(scheduler, "other", seed=1, steps=10)
        _submit_seeded(scheduler, "waiting", seed=2, steps=4)
        results = scheduler.run()
        assert results["victim"].status == "cancelled"
        assert results["other"].ok
        assert results["waiting"].ok
        assert fields_digest(
            results["waiting"].fluid, results["waiting"].structure
        ) == _solo_digest(2, 4)

    def test_all_statuses_terminal(self):
        scheduler = BatchScheduler(max_batch=2)

        def hook(tick: SchedulerTick) -> None:
            scheduler.cancel("a")

        scheduler.step_hook = hook
        _submit_seeded(scheduler, "a", seed=0, steps=6)
        _submit_seeded(scheduler, "b", seed=1, steps=6)
        results = scheduler.run()
        assert set(results) == {"a", "b"}
        for result in results.values():
            assert result.status in TERMINAL_STATUSES
            assert scheduler.job_status(result.job_id) == result.status


class TestCancelCompletionRace:
    def test_cancel_between_drain_and_completion_wins(self):
        """A cancel acknowledged after the step boundary's drain, on the
        job's final step, retires the job cancelled, not completed."""
        scheduler = BatchScheduler(max_batch=2)
        drain = scheduler._cancel_requested
        acks: list[bool] = []

        def racing_drain(job_id: str) -> bool:
            pending = drain(job_id)
            # The drain for a running slot (admission pops see "queued"):
            # another thread cancels right after it returns.
            running = scheduler.job_status(job_id) == "running"
            if job_id == "victim" and running and not acks:
                acks.append(scheduler.cancel(job_id))
            return pending

        scheduler._cancel_requested = racing_drain
        _submit_seeded(scheduler, "victim", seed=0, steps=1)
        _submit_seeded(scheduler, "sib", seed=1, steps=3)
        results = scheduler.run()

        assert acks == [True]
        assert results["victim"].status == "cancelled"
        assert scheduler.job_status("victim") == "cancelled"
        kinds = [
            e.kind
            for e in scheduler.incidents.events
            if e.detail.get("job") == "victim"
        ]
        assert "job_cancelled" in kinds
        assert "job_completed" not in kinds
        assert results["sib"].ok
        assert fields_digest(
            results["sib"].fluid, results["sib"].structure
        ) == _solo_digest(1, 3)


class TestCancelPersistence:
    def test_cancelled_status_survives_resume(self, tmp_path):
        scheduler = BatchScheduler(max_batch=2, workdir=tmp_path)
        _submit_seeded(scheduler, "drop", seed=0, steps=4)
        _submit_seeded(scheduler, "keep", seed=1, steps=4)
        assert scheduler.cancel("drop")
        # Simulate a death before run(): resume from the manifest.
        revived = BatchScheduler.resume(tmp_path)
        assert revived.job_status("drop") == "cancelled"
        assert revived.job_status("keep") == "queued"
        results = revived.run()
        assert results["drop"].status == "cancelled"
        assert results["keep"].ok
        assert fields_digest(
            results["keep"].fluid, results["keep"].structure
        ) == _solo_digest(1, 4)

    def test_mid_run_cancel_persists(self, tmp_path):
        scheduler = BatchScheduler(max_batch=2, workdir=tmp_path)

        def hook(tick: SchedulerTick) -> None:
            scheduler.cancel("victim")

        scheduler.step_hook = hook
        _submit_seeded(scheduler, "victim", seed=0, steps=6)
        results = scheduler.run()
        assert results["victim"].status == "cancelled"
        revived = BatchScheduler.resume(tmp_path)
        assert revived.job_status("victim") == "cancelled"
        assert revived.run()["victim"].status == "cancelled"


class TestCancelDuringRefillSource:
    def test_cancelled_refill_request_never_admitted(self):
        """A job cancelled while waiting in the refill source is skipped."""
        from repro.batch import JobRequest

        scheduler = BatchScheduler(max_batch=1)
        offered: list[JobRequest] = [
            JobRequest(
                config=CFG,
                num_steps=3,
                job_id="late",
                initial_fluid=seeded_initial_fluid(CFG, 5),
            )
        ]

        def refill(compat_key):
            if offered:
                request = offered.pop()
                # Cancelled the instant it is handed over: the scheduler
                # must retire it without ever running a step.
                return request
            return None

        def hook(tick: SchedulerTick) -> None:
            # Cancel "late" as soon as it shows up in a slot's future:
            # it is submitted by the refill path after "first" completes.
            if scheduler.job_status("late") is not None:
                scheduler.cancel("late")

        scheduler.refill_source = refill
        scheduler.step_hook = hook
        _submit_seeded(scheduler, "first", seed=0, steps=2)
        results = scheduler.run()
        assert results["first"].ok
        assert results["late"].status in ("cancelled", "completed")
