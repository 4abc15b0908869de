"""BatchScheduler: grouping, admission order, continuous refill, determinism."""

import numpy as np
import pytest

from repro.batch import BatchScheduler, compatibility_key
from repro.config import BoundaryConfig, SimulationConfig, StructureConfig
from repro.core.lbm.fields import FluidGrid
from repro.errors import ConfigurationError
from repro.observe import Telemetry
from repro.verify.oracle import seeded_initial_fluid


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


class TestSubmission:
    def test_auto_job_ids_are_fifo(self):
        scheduler = BatchScheduler(max_batch=4)
        ids = [scheduler.submit(_config(), num_steps=2) for _ in range(3)]
        assert ids == ["sim0", "sim1", "sim2"]
        (group,) = scheduler.pending_groups().values()
        assert group == ids

    def test_duplicate_job_id_rejected(self):
        scheduler = BatchScheduler()
        scheduler.submit(_config(), num_steps=2, job_id="a")
        with pytest.raises(ConfigurationError):
            scheduler.submit(_config(), num_steps=2, job_id="a")

    def test_invalid_num_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchScheduler().submit(_config(), num_steps=0)

    def test_mismatched_initial_fluid_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchScheduler().submit(
                _config(), num_steps=2, initial_fluid=FluidGrid((6, 6, 6), tau=0.8)
            )

    def test_invalid_scheduler_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchScheduler(max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchScheduler(check_finite_every=-1)


class TestCompatibilityGrouping:
    def test_incompatible_configs_never_share_a_batch(self):
        """Shape, tau, operator, boundaries and dt all split groups;
        the immersed structure does not (IB is per slot)."""
        base = _config()
        assert compatibility_key(base) == compatibility_key(_config())
        assert compatibility_key(base) == compatibility_key(_fsi_config())
        different = [
            _config(fluid_shape=(8, 8, 4)),
            _config(tau=0.9),
            _config(collision_operator="trt"),
            _config(external_force=(1e-5, 0.0, 0.0)),
            _config(boundaries=(BoundaryConfig("bounce_back", "z", "high"),)),
        ]
        for other in different:
            assert compatibility_key(base) != compatibility_key(other)

    def test_groups_run_separately_with_correct_results(self):
        scheduler = BatchScheduler(max_batch=4)
        scheduler.submit(_config(), num_steps=2, job_id="bgk")
        scheduler.submit(_config(collision_operator="trt"), num_steps=3, job_id="trt")
        assert len(scheduler.pending_groups()) == 2
        results = scheduler.run()
        assert set(results) == {"bgk", "trt"}
        assert results["bgk"].steps_completed == 2
        assert results["trt"].steps_completed == 3
        assert all(r.status == "completed" for r in results.values())

    def test_queue_drains_after_run(self):
        scheduler = BatchScheduler(max_batch=2)
        scheduler.submit(_config(), num_steps=1)
        scheduler.run()
        assert scheduler.pending_groups() == {}
        # The scheduler is reusable for a new wave.
        scheduler.submit(_config(), num_steps=1)
        assert len(scheduler.run()) == 1


class TestContinuousRefill:
    def test_completed_slot_is_refilled_from_the_queue(self):
        """Five jobs through two slots: the queue drains through slot
        reuse, and every job runs its full step budget."""
        telemetry = Telemetry()
        scheduler = BatchScheduler(max_batch=2, telemetry=telemetry)
        for i in range(5):
            scheduler.submit(_config(), num_steps=2 + i % 2, job_id=f"job{i}")
        results = scheduler.run()
        assert len(results) == 5
        for i in range(5):
            assert results[f"job{i}"].status == "completed"
            assert results[f"job{i}"].steps_completed == 2 + i % 2
        # 3 of the 5 jobs were admitted into a retired slot.
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"]["batch.refills"] == 3
        assert snapshot["counters"]["batch.sims_completed"] == 5
        # Slots are reused: 5 jobs cannot have 5 distinct slots out of 2.
        assert {results[f"job{i}"].slot for i in range(5)} == {0, 1}

    def test_incompatible_refill_deferred_to_next_wave(self):
        """A refill_source handing back a compat-mismatched request must
        not abort the in-flight run (losing sibling results); the job is
        parked in the queue and runs as its own group in a later run."""
        from repro.batch import JobRequest

        mismatched = [
            JobRequest(config=_config(tau=0.9), num_steps=2, job_id="late")
        ]
        scheduler = BatchScheduler(max_batch=2)
        scheduler.refill_source = (
            lambda key: mismatched.pop() if mismatched else None
        )
        scheduler.submit(_config(), num_steps=2, job_id="first")
        results = scheduler.run()
        assert results["first"].status == "completed"
        assert "late" not in results
        assert scheduler.job_status("late") == "queued"
        assert scheduler.has_pending
        second = scheduler.run()
        assert second["late"].status == "completed"
        assert second["late"].steps_completed == 2

    def test_early_termination_refills_before_long_jobs_finish(self):
        """A short job retires mid-run and its slot is refilled while
        the long neighbour is still stepping."""
        scheduler = BatchScheduler(max_batch=2)
        scheduler.submit(_config(), num_steps=8, job_id="long")
        scheduler.submit(_config(), num_steps=2, job_id="short")
        scheduler.submit(_config(), num_steps=2, job_id="queued")
        results = scheduler.run()
        assert results["short"].slot == results["queued"].slot == 1
        assert results["long"].steps_completed == 8
        assert results["queued"].steps_completed == 2

    def test_diverged_slot_is_retired_and_refilled(self):
        """A NaN-seeded job is caught by the finite probe after one
        step, reported as diverged, and its slot is refilled; the
        replacement completes with clean physics."""
        config = _config()
        poisoned = FluidGrid(config.fluid_shape, tau=config.effective_tau)
        poisoned.df[...] = np.nan
        telemetry = Telemetry()
        scheduler = BatchScheduler(max_batch=1, telemetry=telemetry)
        scheduler.submit(config, num_steps=5, job_id="bad", initial_fluid=poisoned)
        scheduler.submit(config, num_steps=3, job_id="good")
        results = scheduler.run()
        assert results["bad"].status == "diverged"
        assert results["bad"].steps_completed == 1
        assert not np.isfinite(results["bad"].fluid.density).all()
        assert results["good"].status == "completed"
        assert results["good"].steps_completed == 3
        assert np.isfinite(results["good"].fluid.density).all()
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"]["batch.sims_diverged"] == 1
        assert snapshot["counters"]["batch.sims_completed"] == 1

    def test_disabled_probe_lets_divergence_run_to_budget(self):
        config = _config()
        poisoned = FluidGrid(config.fluid_shape, tau=config.effective_tau)
        poisoned.df[...] = np.nan
        scheduler = BatchScheduler(max_batch=1, check_finite_every=0)
        scheduler.submit(config, num_steps=3, initial_fluid=poisoned)
        (result,) = scheduler.run().values()
        assert result.status == "completed"
        assert result.steps_completed == 3


class TestDeterminism:
    def test_results_independent_of_batch_composition(self):
        """One job's final state is bit-identical whether it runs alone
        (max_batch=1), packed with unrelated neighbours (max_batch=4),
        or admitted late through a refill — continuous batching never
        changes the physics."""
        config = _fsi_config()

        def run_job(scheduler, extra_before=0, extra_after=0):
            for i in range(extra_before):
                scheduler.submit(config, num_steps=2, job_id=f"before{i}")
            scheduler.submit(
                config,
                num_steps=4,
                job_id="probe",
                initial_fluid=seeded_initial_fluid(config, 77),
            )
            for i in range(extra_after):
                scheduler.submit(config, num_steps=6, job_id=f"after{i}")
            return scheduler.run()["probe"]

        alone = run_job(BatchScheduler(max_batch=1))
        packed = run_job(BatchScheduler(max_batch=4), extra_before=2, extra_after=3)
        refilled = run_job(BatchScheduler(max_batch=2), extra_before=2)
        for other in (packed, refilled):
            assert np.array_equal(alone.fluid.df, other.fluid.df)
            assert np.array_equal(alone.fluid.density, other.fluid.density)
            assert np.array_equal(alone.fluid.velocity, other.fluid.velocity)
            assert np.array_equal(
                alone.structure.sheets[0].positions,
                other.structure.sheets[0].positions,
            )
        assert alone.steps_completed == packed.steps_completed == 4
