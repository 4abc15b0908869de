"""Tests of the fault-injection framework itself.

The injector must be deterministic (same plan + seed => same damage),
honour once-semantics under concurrency, and match message filters with
wildcards — otherwise no recovery test built on top of it means much.
"""

import threading

import numpy as np
import pytest

from repro.core.lbm.fields import FluidGrid
from repro.errors import ConfigurationError, WorkerKilledError
from repro.resilience import Fault, FaultInjector, FaultPlan, IncidentLog


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            Fault(kind="set_on_fire")

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigurationError, match="step"):
            Fault(kind="corrupt_field", step=-1)

    def test_corrupt_needs_positive_count(self):
        with pytest.raises(ConfigurationError, match="count"):
            Fault(kind="corrupt_field", count=0)

    def test_truncate_needs_positive_nbytes(self):
        with pytest.raises(ConfigurationError, match="nbytes"):
            Fault(kind="truncate_checkpoint", nbytes=0)

    def test_plan_is_iterable_and_sized(self):
        plan = FaultPlan.of([Fault(kind="kill_worker", step=3)], seed=7)
        assert len(plan) == 1
        assert list(plan)[0].kind == "kill_worker"
        assert plan.seed == 7


class TestCorruptField:
    def test_nan_injected_at_matching_step_and_tid(self):
        grid = FluidGrid((4, 4, 4))
        inj = FaultInjector([Fault(kind="corrupt_field", step=5, tid=1, count=3)])
        inj.on_step(tid=1, step=4, state=grid)  # wrong step: no-op
        inj.on_step(tid=0, step=5, state=grid)  # wrong tid: no-op
        assert np.isfinite(grid.df).all()
        inj.on_step(tid=1, step=5, state=grid)
        assert np.isnan(grid.df).sum() == 3

    def test_same_seed_same_elements(self):
        def damage(seed):
            grid = FluidGrid((4, 4, 4))
            plan = FaultPlan.of([Fault(kind="corrupt_field", step=0, count=5)], seed=seed)
            FaultInjector(plan).on_step(tid=0, step=0, state=grid)
            return np.flatnonzero(np.isnan(grid.df))

        np.testing.assert_array_equal(damage(42), damage(42))
        assert not np.array_equal(damage(42), damage(43))

    def test_targets_named_field(self):
        grid = FluidGrid((4, 4, 4))
        inj = FaultInjector([Fault(kind="corrupt_field", fluid_field="velocity")])
        inj.on_step(tid=0, step=0, state=grid)
        assert np.isnan(grid.velocity).any()
        assert np.isfinite(grid.df).all()

    def test_unknown_field_rejected(self):
        grid = FluidGrid((4, 4, 4))
        inj = FaultInjector([Fault(kind="corrupt_field", fluid_field="nope")])
        with pytest.raises(ConfigurationError, match="unknown fluid field"):
            inj.on_step(tid=0, step=0, state=grid)

    def test_fires_once(self):
        grid = FluidGrid((4, 4, 4))
        inj = FaultInjector([Fault(kind="corrupt_field", step=2, count=2)])
        inj.on_step(tid=0, step=2, state=grid)
        grid.df[...] = 1.0  # repair
        inj.on_step(tid=0, step=2, state=grid)
        assert np.isfinite(grid.df).all()
        assert len(inj.fired_events) == 1


class TestKillWorker:
    def test_raises_only_for_victim(self):
        inj = FaultInjector([Fault(kind="kill_worker", step=7, tid=2)])
        inj.on_step(tid=0, step=7, state=None)
        inj.on_step(tid=2, step=6, state=None)
        with pytest.raises(WorkerKilledError) as exc_info:
            inj.on_step(tid=2, step=7, state=None)
        assert exc_info.value.tid == 2
        assert exc_info.value.step == 7

    def test_once_semantics_under_racing_threads(self):
        inj = FaultInjector([Fault(kind="kill_worker", step=0, tid=0)])
        kills = []
        start = threading.Barrier(8)

        def worker():
            start.wait()
            try:
                inj.on_step(tid=0, step=0, state=None)
            except WorkerKilledError:
                kills.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(kills) == 1  # exactly one thread was claimed


class TestMessageFaults:
    def test_drop_matches_filters(self):
        inj = FaultInjector([Fault(kind="drop_message", src=0, dst=1, tag=7)])
        assert inj.on_send(src=0, dst=2, tag=7) is None
        assert inj.on_send(src=0, dst=1, tag=8) is None
        assert inj.on_send(src=0, dst=1, tag=7) == "drop"
        # once => the link heals
        assert inj.on_send(src=0, dst=1, tag=7) is None

    def test_wildcards_match_anything(self):
        inj = FaultInjector([Fault(kind="drop_message", once=False)])
        assert inj.on_send(src=3, dst=0, tag=99) == "drop"
        assert inj.on_send(src=0, dst=3, tag=1) == "drop"

    def test_delay_returns_seconds(self):
        inj = FaultInjector([Fault(kind="delay_message", src=1, delay=0.25)])
        assert inj.on_send(src=0, dst=1, tag=0) is None
        assert inj.on_send(src=1, dst=0, tag=0) == 0.25

    def test_repeating_fault_refires(self):
        inj = FaultInjector([Fault(kind="drop_message", tag=5, once=False)])
        assert inj.on_send(0, 1, 5) == "drop"
        assert inj.on_send(1, 0, 5) == "drop"
        assert len(inj.fired_events) == 2


class TestCheckpointFault:
    def test_truncates_tail(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"x" * 200)
        inj = FaultInjector([Fault(kind="truncate_checkpoint", step=10, nbytes=64)])
        inj.after_checkpoint(path, step=5)  # too early
        assert path.stat().st_size == 200
        inj.after_checkpoint(path, step=10)
        assert path.stat().st_size == 136

    def test_events_reach_incident_log(self, tmp_path):
        log = IncidentLog()
        path = tmp_path / "ck.npz"
        path.write_bytes(b"x" * 100)
        inj = FaultInjector(
            [Fault(kind="truncate_checkpoint", step=0, nbytes=10)], incident_log=log
        )
        inj.after_checkpoint(path, step=3)
        (event,) = log.events_of("fault_injected")
        assert event.step == 3
        assert event.detail["fault"]["kind"] == "truncate_checkpoint"


class TestIncidentLog:
    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "incidents.jsonl"
        log = IncidentLog(jsonl_path=out)
        log.record("fault_injected", step=4, fault={"kind": "kill_worker"})
        log.record("job_retry", step=10, attempt=2)
        log.record("job_retry", step=10, attempt=3)
        log.close()
        loaded = IncidentLog.load(out)
        assert loaded.counts() == {"fault_injected": 1, "job_retry": 2}
        assert [e.seq for e in loaded.events] == [0, 1, 2]
        assert loaded.events[0].detail["fault"]["kind"] == "kill_worker"

    def test_thread_safe_sequencing(self):
        log = IncidentLog()
        threads = [
            threading.Thread(target=lambda: [log.record("tick") for _ in range(100)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 400
        assert [e.seq for e in log.events] == list(range(400))
