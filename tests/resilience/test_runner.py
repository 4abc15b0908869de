"""End-to-end recovery tests: the ResilientRunner acceptance scenarios.

Each test injects a planned fault and requires the run to *complete* at
the target step with the right incident trail — rollback + damped
retry for instability, sequential fallback for worker death, older
checkpoint for a corrupted file.
"""

import os

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig
from repro.config import StructureConfig
from repro.errors import StabilityError
from repro.resilience import Fault, FaultInjector, FaultPlan, ResilientRunner, RetryPolicy
from repro.resilience.incident import IncidentLog
from repro.resilience.runner import WATCHDOG_TIMEOUT

#: Small, fast problem used by every scenario.
_STRUCTURE = StructureConfig(num_fibers=5, nodes_per_fiber=5)


def _config(**overrides):
    base = dict(fluid_shape=(8, 8, 8), structure=_STRUCTURE, solver="sequential")
    base.update(overrides)
    return SimulationConfig(**base)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(checkpoint_every=0),
            dict(max_attempts=0),
            dict(tau_damping=0.9),
            dict(max_attempts=-1),
            dict(tau_damping=0.0),
            dict(keep_checkpoints=0),
            dict(tau_damping=float("nan")),
        ],
    )
    def test_rejects_bad_knobs(self, bad, tmp_path):
        policy = {k: bad.pop(k) for k in ("max_attempts", "tau_damping") if k in bad}
        with pytest.raises(ValueError):
            ResilientRunner(_config(), tmp_path, policy=RetryPolicy(**policy), **bad)

    def test_watchdog_timeout_installed_into_config(self, tmp_path):
        runner = ResilientRunner(_config(), tmp_path)
        assert runner.config.barrier_timeout == WATCHDOG_TIMEOUT

    def test_explicit_config_timeout_wins(self, tmp_path):
        runner = ResilientRunner(_config(barrier_timeout=2.0), tmp_path)
        assert runner.config.barrier_timeout == 2.0


class TestStabilityRollback:
    """Acceptance: seeded NaN blow-up -> rollback, damped retry, finish."""

    @pytest.mark.faults
    def test_nan_injection_recovers_with_one_rollback(self, tmp_path):
        plan = FaultPlan.of(
            [Fault(kind="corrupt_field", step=12, tid=0, count=8)], seed=1
        )
        runner = ResilientRunner(
            _config(),
            tmp_path,
            policy=RetryPolicy(max_attempts=4),
            fault_injector=FaultInjector(plan),
            checkpoint_every=10,
        )
        sim = runner.run(25)

        assert sim.time_step == 25
        sim.fluid.validate_stable()  # the final state is healthy
        log = runner.incidents
        assert log.count("fault_injected") == 1
        assert log.count("job_retry") == 1  # exactly one
        assert log.count("job_completed") == 1
        # the retry raised tau (higher viscosity damps the blow-up)
        (retry,) = log.events_of("job_retry")
        assert retry.detail["tau"] > _config().effective_tau
        # rolled back to the step-10 checkpoint, not to scratch
        assert retry.detail["from_step"] == 10
        sim.close()

    @pytest.mark.faults
    def test_rollback_budget_exhaustion_reraises(self, tmp_path):
        # once=False: the blow-up re-fires on every replay, so damping
        # can never save the run and the budget must bound the retries.
        plan = FaultPlan.of(
            [Fault(kind="corrupt_field", step=2, tid=0, once=False)], seed=2
        )
        runner = ResilientRunner(
            _config(),
            tmp_path,
            policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(plan),
            checkpoint_every=5,
        )
        with pytest.raises(StabilityError):
            runner.run(10)
        log = runner.incidents
        # initial failure + 1 retry: one retried, the second terminal
        assert log.count("job_retry") == 1
        assert log.count("job_failed") == 1
        assert log.count("job_completed") == 0


class TestWorkerDeathFallback:
    """Acceptance: a killed cube-solver worker -> sequential fallback."""

    @pytest.mark.faults
    def test_cube_worker_kill_completes_sequentially(self, tmp_path):
        plan = FaultPlan.of([Fault(kind="kill_worker", step=7, tid=1)])
        runner = ResilientRunner(
            _config(solver="cube", num_threads=2, cube_size=4, barrier_timeout=15.0),
            tmp_path,
            fault_injector=FaultInjector(plan),
            checkpoint_every=5,
        )
        sim = runner.run(15)

        assert sim.time_step == 15
        assert sim.config.solver == "sequential"  # rebuilt on the fallback
        log = runner.incidents
        # one retry, the fallback; no stability rollback
        (retry,) = log.events_of("job_retry")
        assert retry.detail["config"]["solver"] == "sequential"
        # resumed from the step-5 checkpoint, not from scratch
        assert retry.detail["from_step"] == 5
        sim.fluid.validate_stable()
        sim.close()

    @pytest.mark.faults
    def test_openmp_worker_kill_falls_back(self, tmp_path):
        plan = FaultPlan.of([Fault(kind="kill_worker", step=3, tid=1)])
        runner = ResilientRunner(
            _config(solver="openmp", num_threads=2, barrier_timeout=15.0),
            tmp_path,
            fault_injector=FaultInjector(plan),
            checkpoint_every=5,
        )
        sim = runner.run(10)
        assert sim.time_step == 10
        (retry,) = runner.incidents.events_of("job_retry")
        assert retry.detail["config"]["solver"] == "sequential"
        sim.close()


class TestCheckpointCorruption:
    """Acceptance: a truncated checkpoint is skipped for an older one."""

    @pytest.mark.faults
    def test_truncated_checkpoint_falls_back_to_older(self, tmp_path):
        plan = FaultPlan.of(
            [
                # chop the tail off the step-10 checkpoint...
                Fault(kind="truncate_checkpoint", step=10, nbytes=4096),
                # ...then blow up so the runner has to restore
                Fault(kind="corrupt_field", step=12, tid=0),
            ],
            seed=3,
        )
        runner = ResilientRunner(
            _config(),
            tmp_path,
            fault_injector=FaultInjector(plan),
            checkpoint_every=5,
            keep_checkpoints=3,
        )
        sim = runner.run(15)

        assert sim.time_step == 15
        log = runner.incidents
        assert log.count("checkpoint_corrupt") == 1
        (corrupt,) = log.events_of("checkpoint_corrupt")
        assert corrupt.step == 10  # the attacked file was rejected
        (retry,) = log.events_of("job_retry")
        assert retry.detail["from_step"] == 5  # the older checkpoint won
        sim.close()


class TestIncidentPersistence:
    @pytest.mark.faults
    def test_incident_journal_written_to_workdir(self, tmp_path):
        plan = FaultPlan.of([Fault(kind="corrupt_field", step=3, tid=0)])
        runner = ResilientRunner(
            _config(),
            tmp_path,
            fault_injector=FaultInjector(plan),
            checkpoint_every=5,
        )
        runner.run(10).close()

        journal = IncidentLog.load(tmp_path / "incidents.jsonl")
        kinds = [e.kind for e in journal.events]
        assert kinds[0] == "job_dispatched"
        assert kinds[-1] == "job_completed"
        assert "fault_injected" in kinds
        assert "job_retry" in kinds
        assert journal.counts()["job_retry"] == 1

    def test_checkpoint_rotation_bounds_disk(self, tmp_path):
        runner = ResilientRunner(
            _config(), tmp_path, checkpoint_every=2, keep_checkpoints=2
        )
        runner.run(10).close()
        ckpts = sorted(p for p in os.listdir(tmp_path) if p.startswith("ckpt-"))
        assert ckpts == ["ckpt-00000008.npz", "ckpt-00000010.npz"]


#: Every record kind a runner may write: the batch scheduler's job
#: lifecycle kinds, plus the fault injector's own.
_SHARED_KINDS = {
    "job_dispatched",
    "checkpoint_saved",
    "checkpoint_corrupt",
    "checkpoint_unstable",
    "job_retry",
    "job_completed",
    "job_failed",
    "fault_injected",
}

#: (config overrides, faults, runner kwargs, steps, expected fold) per
#: scenario; the fold is (status, attempt, trail, failure fields).
_SCENARIOS = {
    "rollback_recovered": (
        {},
        [Fault(kind="corrupt_field", step=12, tid=0, count=8)],
        dict(checkpoint_every=10),
        25,
        ("completed", 2, [("ckpt-00000020.npz", 20), ("ckpt-00000025.npz", 25)],
         None),
    ),
    "budget_exhausted": (
        {},
        [Fault(kind="corrupt_field", step=2, tid=0, once=False)],
        dict(checkpoint_every=5, policy=RetryPolicy(max_attempts=2)),
        10,
        ("failed", 2, [],
         {"error_type": "StabilityError", "failing_step": 0, "attempt": 2}),
    ),
    "cube_worker_killed": (
        dict(solver="cube", num_threads=2, cube_size=4, barrier_timeout=15.0),
        [Fault(kind="kill_worker", step=7, tid=1)],
        dict(checkpoint_every=5),
        15,
        ("completed", 2, [("ckpt-00000010.npz", 10), ("ckpt-00000015.npz", 15)],
         None),
    ),
    "truncated_checkpoint_skipped": (
        {},
        [
            Fault(kind="truncate_checkpoint", step=10, nbytes=4096),
            Fault(kind="corrupt_field", step=12, tid=0),
        ],
        dict(checkpoint_every=5, keep_checkpoints=3),
        15,
        (
            "completed",
            2,
            [
                ("ckpt-00000005.npz", 5),
                ("ckpt-00000010.npz", 10),
                ("ckpt-00000015.npz", 15),
            ],
            None,
        ),
    ),
}


class TestJobJournal:
    """A runner workdir is one job in the batch scheduler's journal format."""

    @pytest.mark.faults
    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_replay_folds_runner_workdir(self, tmp_path, scenario):
        from repro.batch.scheduler import replay_journal

        overrides, faults, kwargs, steps, expected = _SCENARIOS[scenario]
        runner = ResilientRunner(
            _config(**overrides),
            tmp_path,
            fault_injector=FaultInjector(FaultPlan.of(faults, seed=1)),
            **kwargs,
        )
        try:
            runner.run(steps).close()
        except StabilityError:
            assert expected[0] == "failed"

        status, attempt, trail, failure = expected
        jobs = replay_journal(tmp_path / "incidents.jsonl", runner.trail.keep)
        assert list(jobs) == ["run"]
        (job,) = jobs.values()
        assert (job.status, job.attempt, job.checkpoints) == (status, attempt, trail)
        assert job.num_steps == steps and job.order == 0
        if failure is None:
            assert job.failure is None
        else:
            assert {k: job.failure[k] for k in failure} == failure
        if scenario == "cube_worker_killed":
            assert job.config["solver"] == "sequential"
        assert set(runner.incidents.counts()) <= _SHARED_KINDS
        for name in os.listdir(tmp_path):
            assert name == "incidents.jsonl" or (
                name.startswith("ckpt-") and name.endswith(".npz")
            )


class TestCrossVariantRestore:
    """A checkpoint written by one solver variant restores into another."""

    @pytest.mark.faults
    def test_cube_checkpoint_restores_into_sequential(self, tmp_path):
        cube_cfg = _config(solver="cube", num_threads=2, cube_size=4)
        path = tmp_path / "cross.npz"
        with Simulation(cube_cfg) as sim:
            sim.run(4)
            snapshot = sim.fluid  # gathered global layout
            positions = sim.structure.sheets[0].positions.copy()
            sim.checkpoint(path)

        restored = Simulation.from_checkpoint(path, _config())
        assert restored.time_step == 4
        assert restored.fluid.state_allclose(snapshot, rtol=0, atol=0)
        np.testing.assert_array_equal(
            restored.structure.sheets[0].positions, positions
        )
        restored.run(3)  # continues without error on the other variant
        assert restored.time_step == 7
        restored.fluid.validate_stable()
        restored.close()

    def test_restore_under_damped_config_uses_new_tau(self, tmp_path):
        path = tmp_path / "ck.npz"
        with Simulation(_config()) as sim:
            sim.run(2)
            sim.checkpoint(path)
        damped = _config(tau=1.1)
        restored = Simulation.from_checkpoint(path, damped)
        assert restored.fluid.tau == pytest.approx(1.1)
        restored.close()
