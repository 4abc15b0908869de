"""Scheduler fault tolerance: retries, quarantine, checkpoints, resume."""

import os

import numpy as np
import pytest

from repro.batch import BatchScheduler, RetryPolicy
from repro.config import SimulationConfig, StructureConfig
from repro.errors import CheckpointError, ConfigurationError, WorkerKilledError
from repro.observe import Telemetry
from repro.resilience.faults import Fault, FaultInjector, FaultPlan
from repro.verify.golden import fields_digest

pytestmark = pytest.mark.faults


def _config(**overrides):
    defaults = dict(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        structure=StructureConfig(kind="none"),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _fsi_config(**overrides):
    return _config(
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3),
        **overrides,
    )


def _golden_digests(configs, num_steps):
    scheduler = BatchScheduler(max_batch=4)
    for index, config in enumerate(configs):
        scheduler.submit(config, num_steps, job_id=f"j{index}")
    results = scheduler.run()
    assert all(r.status == "completed" for r in results.values())
    return {k: fields_digest(r.fluid, r.structure) for k, r in results.items()}


def _corrupt_fault(step, slot=0, **overrides):
    spec = dict(kind="corrupt_field", step=step, tid=slot, fluid_field="df")
    spec.update(overrides)
    return Fault(**spec)


class TestRetryLifecycle:
    def test_retry_completes_bit_identical_to_golden(self, tmp_path):
        golden = _golden_digests([_config()], 6)
        telemetry = Telemetry()
        scheduler = BatchScheduler(
            max_batch=1,
            telemetry=telemetry,
            retry_policy=RetryPolicy(max_attempts=3, tau_damping=1.0),
            guard=True,
            workdir=tmp_path,
            checkpoint_every=2,
        )
        scheduler.fault_injector = FaultInjector([_corrupt_fault(step=3)])
        scheduler.submit(_config(), 6, job_id="j0")
        (result,) = scheduler.run().values()
        assert result.status == "completed"
        assert result.attempts == 2
        assert result.failure is None
        assert fields_digest(result.fluid, result.structure) == golden["j0"]
        assert scheduler.incidents.count("slot_ejected") == 1
        assert scheduler.incidents.count("job_retry") == 1
        assert telemetry.metrics.counter("batch.retries").value == 1

    def test_damped_retry_runs_in_new_group_and_completes(self):
        scheduler = BatchScheduler(
            max_batch=2,
            retry_policy=RetryPolicy(max_attempts=3, tau_damping=1.25),
            guard=True,
            fault_injector=FaultInjector([_corrupt_fault(step=2)]),
        )
        scheduler.submit(_config(), 5, job_id="j0")
        scheduler.submit(_config(), 5, job_id="j1")
        results = scheduler.run()
        assert results["j0"].status == "completed"
        assert results["j0"].attempts == 2
        assert results["j1"].status == "completed"
        (retry,) = scheduler.incidents.events_of("job_retry")
        assert retry.detail["tau"] == pytest.approx(0.8 * 1.25)

    def test_exhausted_retries_produce_structured_failure(self, tmp_path):
        scheduler = BatchScheduler(
            max_batch=1,
            retry_policy=RetryPolicy(max_attempts=2, tau_damping=1.0),
            guard=True,
            workdir=tmp_path,
            checkpoint_every=2,
            # once=False: the fault re-fires when the retry replays the
            # same trajectory through the same step.
            fault_injector=FaultInjector([_corrupt_fault(step=3, once=False)]),
        )
        scheduler.submit(_config(), 6, job_id="j0")
        (result,) = scheduler.run().values()
        assert result.status == "failed"
        assert result.attempts == 2
        failure = result.failure
        assert failure is not None
        assert failure.error_type == "InvariantError"
        assert failure.invariant == "finite_fields"
        assert failure.failing_step == 4
        assert failure.slot == 0
        assert failure.attempt == 2
        assert failure.chain and "InvariantError" in failure.chain[0]
        assert failure.incident_log == os.path.join(tmp_path, "incidents.jsonl")
        assert "InvariantError" in failure.root_cause
        # The post-mortem state is the evacuated corrupted slot.
        assert not np.isfinite(result.fluid.df).all()

    def test_quarantine_stops_retries_before_budget(self):
        telemetry = Telemetry()
        scheduler = BatchScheduler(
            max_batch=1,
            telemetry=telemetry,
            retry_policy=RetryPolicy(max_attempts=5, tau_damping=1.0),
            guard=True,
            quarantine_after=2,
            fault_injector=FaultInjector([_corrupt_fault(step=2, once=False)]),
        )
        scheduler.submit(_config(), 6, job_id="j0")
        (result,) = scheduler.run().values()
        assert result.status == "failed"
        assert result.attempts == 2  # quarantined, not budget-exhausted
        assert result.failure.quarantined is True
        assert scheduler.incidents.count("job_quarantined") == 1
        assert telemetry.metrics.counter("batch.quarantined").value == 1

    def test_probe_divergence_without_policy_stays_terminal(self):
        scheduler = BatchScheduler(
            max_batch=1,
            fault_injector=FaultInjector([_corrupt_fault(step=2)]),
        )
        scheduler.submit(_config(), 6, job_id="j0")
        (result,) = scheduler.run().values()
        assert result.status == "diverged"
        assert result.attempts == 1
        assert result.failure is not None
        assert result.failure.invariant == "finite_probe"

    def test_invalid_policy_and_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(tau_damping=0.9)
        with pytest.raises(ConfigurationError):
            BatchScheduler(checkpoint_every=2)  # needs a workdir
        with pytest.raises(ConfigurationError):
            BatchScheduler(keep_checkpoints=0)
        with pytest.raises(ConfigurationError):
            BatchScheduler(quarantine_after=0)


class TestCheckpointPersistence:
    def test_checkpoint_gc_bounds_files_on_disk(self, tmp_path):
        scheduler = BatchScheduler(
            max_batch=1, workdir=tmp_path, checkpoint_every=1, keep_checkpoints=2
        )
        scheduler.submit(_config(), 8, job_id="j0")
        scheduler.run()
        trail = sorted(
            p for p in os.listdir(tmp_path) if p.startswith("ckpt-j0-")
        )
        assert trail == ["ckpt-j0-00000007.npz", "ckpt-j0-00000008.npz"]

    def test_truncated_checkpoint_falls_back_to_older_one(self, tmp_path):
        golden = _golden_digests([_config()], 8)
        scheduler = BatchScheduler(
            max_batch=1,
            retry_policy=RetryPolicy(max_attempts=3, tau_damping=1.0),
            guard=True,
            workdir=tmp_path,
            checkpoint_every=2,
            keep_checkpoints=4,
            fault_injector=FaultInjector(
                [
                    # Newest checkpoint before the blow-up is torn...
                    Fault(kind="truncate_checkpoint", step=4, nbytes=2048),
                    # ...and the blow-up forces a restart that must
                    # fall back past it to the step-2 checkpoint.
                    _corrupt_fault(step=5),
                ]
            ),
        )
        scheduler.submit(_config(), 8, job_id="j0")
        (result,) = scheduler.run().values()
        assert result.status == "completed"
        assert result.attempts == 2
        assert fields_digest(result.fluid, result.structure) == golden["j0"]
        assert scheduler.incidents.count("checkpoint_corrupt") >= 1
        (retry,) = scheduler.incidents.events_of("job_retry")
        assert retry.detail["from_step"] == 2

    def test_kill_and_resume_completes_every_job_losslessly(self, tmp_path):
        configs = [_config(), _fsi_config(), _config()]
        golden = _golden_digests(configs, 8)
        injector = FaultInjector([Fault(kind="kill_worker", step=5, tid=0)])
        kwargs = dict(
            max_batch=2,
            retry_policy=RetryPolicy(max_attempts=3, tau_damping=1.0),
            guard=True,
            checkpoint_every=2,
        )
        scheduler = BatchScheduler(
            workdir=tmp_path, fault_injector=injector, **kwargs
        )
        for index, config in enumerate(configs):
            scheduler.submit(config, 8, job_id=f"j{index}")
        with pytest.raises(WorkerKilledError):
            scheduler.run()
        resumed = BatchScheduler.resume(
            tmp_path, fault_injector=injector, **kwargs
        )
        results = resumed.run()
        assert sorted(results) == ["j0", "j1", "j2"]
        for job_id, result in results.items():
            assert result.status == "completed"
            assert result.steps_completed == 8
            assert fields_digest(result.fluid, result.structure) == golden[job_id]
        assert resumed.incidents.count("scheduler_resumed") == 1

    def test_completed_results_restore_without_rerunning(self, tmp_path):
        golden = _golden_digests([_config(), _fsi_config()], 6)
        scheduler = BatchScheduler(
            max_batch=2, workdir=tmp_path, checkpoint_every=2
        )
        scheduler.submit(_config(), 6, job_id="j0")
        scheduler.submit(_fsi_config(), 6, job_id="j1")
        scheduler.run()
        resumed = BatchScheduler.resume(tmp_path)
        results = resumed.run()
        for job_id in ("j0", "j1"):
            result = results[job_id]
            assert result.status == "completed"
            assert result.slot == -1  # restored, not re-executed
            assert fields_digest(result.fluid, result.structure) == golden[job_id]

    @pytest.mark.parametrize("tamper", ["truncate", "stale_checksum", "delete"])
    def test_resume_falls_back_past_damaged_checkpoint(self, tmp_path, tamper):
        golden = _golden_digests([_config()], 8)
        kwargs = dict(max_batch=1, checkpoint_every=2)
        scheduler = BatchScheduler(
            workdir=tmp_path,
            fault_injector=FaultInjector(
                [Fault(kind="kill_worker", step=4, tid=0)]
            ),
            **kwargs,
        )
        scheduler.submit(_config(), 8, job_id="j0")
        with pytest.raises(WorkerKilledError):
            scheduler.run()

        from repro.resilience.incident import IncidentLog

        journal = IncidentLog.load(os.path.join(tmp_path, "incidents.jsonl"))
        assert not journal.events_of("job_completed")  # still running
        newest = journal.events_of("checkpoint_saved")[-1]
        newest_path = os.path.join(tmp_path, newest.detail["path"])
        newest_step = newest.step
        assert newest_step == 4
        if tamper == "truncate":
            size = os.path.getsize(newest_path)
            with open(newest_path, "r+b") as fh:
                fh.truncate(size // 2)
        elif tamper == "stale_checksum":
            data = dict(np.load(newest_path))
            data["density"] = np.asarray(data["density"]) + 1e-3
            with open(newest_path, "wb") as fh:
                np.savez_compressed(fh, **data)
        else:
            os.unlink(newest_path)

        resumed = BatchScheduler.resume(tmp_path, **kwargs)
        assert resumed.incidents.count("checkpoint_corrupt") == 1
        (result,) = resumed.run().values()
        assert result.status == "completed"
        assert result.steps_completed == 8
        assert fields_digest(result.fluid, result.structure) == golden["j0"]

    def test_resume_requeues_job_with_no_checkpoints_from_scratch(self, tmp_path):
        golden = _golden_digests([_config()], 4)
        scheduler = BatchScheduler(
            workdir=tmp_path,
            max_batch=1,
            fault_injector=FaultInjector(
                [Fault(kind="kill_worker", step=1, tid=0)]
            ),
        )
        scheduler.submit(_config(), 4, job_id="j0")
        with pytest.raises(WorkerKilledError):
            scheduler.run()
        resumed = BatchScheduler.resume(tmp_path, max_batch=1)
        (result,) = resumed.run().values()
        assert result.status == "completed"
        assert fields_digest(result.fluid, result.structure) == golden["j0"]

    def test_resume_without_journal_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            BatchScheduler.resume(tmp_path / "nowhere")

    def test_resume_refuses_pre_journal_workdir(self, tmp_path):
        """A workdir written before the journal format (queue state in a
        manifest.json, no submit records) must not resume to zero jobs."""
        (tmp_path / "manifest.json").write_text('{"version": 1, "jobs": {}}\n')
        (tmp_path / "incidents.jsonl").write_text(
            '{"seq": 0, "kind": "checkpoint_saved", "step": 2, '
            '"wall_time": 0.0, "detail": {"job": "j0", "path": "x.npz"}}\n'
        )
        with pytest.raises(CheckpointError, match="predates the journal format"):
            BatchScheduler.resume(tmp_path)

    def test_incident_journal_is_crash_safe_jsonl(self, tmp_path):
        from repro.resilience.incident import IncidentLog

        scheduler = BatchScheduler(
            workdir=tmp_path,
            max_batch=1,
            fault_injector=FaultInjector(
                [Fault(kind="kill_worker", step=2, tid=0)]
            ),
        )
        scheduler.submit(_config(), 4, job_id="j0")
        with pytest.raises(WorkerKilledError):
            scheduler.run()
        # The journal survives the "crash" readable line by line, even
        # with a torn tail appended.
        journal = os.path.join(tmp_path, "incidents.jsonl")
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "torn')
        loaded = IncidentLog.load(journal)
        assert loaded.count("fault_injected") == 1
        assert "torn" not in loaded.counts()
