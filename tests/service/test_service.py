"""Service lifecycle tests: submit/poll/stream/result, metrics, recovery.

The bit-identity acceptance bar rides along: a job completed through
the service (batched, continuously refilled, possibly killed and
resumed) must produce exactly the final state of the same config's
solo sequential run — digest equality and ``max_abs_delta == 0.0``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.observe import Telemetry
from repro.resilience import FaultInjector, service_plan
from repro.service import SimulationService, TenantSpec
from repro.verify.golden import fields_digest, state_arrays
from repro.verify.oracle import seeded_initial_fluid

pytestmark = pytest.mark.service

CFG = SimulationConfig(fluid_shape=(8, 8, 8), solver="batched")
IB_CFG = SimulationConfig(
    fluid_shape=(8, 8, 8),
    solver="batched",
    structure=StructureConfig(kind="flat_sheet", num_fibers=4, nodes_per_fiber=4),
)


def _solo_digest(config: SimulationConfig, seed: int, steps: int) -> str:
    sim = Simulation(config, initial_fluid=seeded_initial_fluid(config, seed))
    sim.run(steps)
    return fields_digest(sim.fluid, sim.structure)


def _max_abs_delta(result, config: SimulationConfig, seed: int, steps: int) -> float:
    sim = Simulation(config, initial_fluid=seeded_initial_fluid(config, seed))
    sim.run(steps)
    ours = state_arrays(result.fluid, result.structure)
    theirs = state_arrays(sim.fluid, sim.structure)
    assert sorted(ours) == sorted(theirs)
    return max(
        float(np.max(np.abs(ours[key] - theirs[key]), initial=0.0)) for key in ours
    )


class TestLifecycle:
    def test_submit_poll_result_roundtrip(self, tmp_path):
        async def main():
            async with SimulationService(tmp_path, max_batch=4) as service:
                job_id = service.submit(CFG, 4, state_seed=7)
                assert service.poll(job_id).status in ("queued", "running")
                result = await service.result(job_id)
                assert result.ok
                snapshot = service.poll(job_id)
                assert snapshot.status == "completed"
                assert snapshot.terminal
                assert snapshot.steps_completed == 4
                assert snapshot.progress == 1.0

        asyncio.run(main())

    def test_results_bit_identical_to_solo_runs(self, tmp_path):
        async def main():
            async with SimulationService(tmp_path, max_batch=3) as service:
                ids = {
                    service.submit(IB_CFG, 4, state_seed=seed): seed
                    for seed in range(5)
                }
                return {
                    seed: await service.result(job_id)
                    for job_id, seed in ids.items()
                }

        results = asyncio.run(main())
        for seed, result in results.items():
            assert result.ok
            assert fields_digest(result.fluid, result.structure) == _solo_digest(
                IB_CFG, seed, 4
            )
            assert _max_abs_delta(result, IB_CFG, seed, 4) == 0.0

    def test_stream_yields_progress_then_result(self, tmp_path):
        async def main():
            async with SimulationService(tmp_path) as service:
                job_id = service.submit(CFG, 5, state_seed=1)
                events = []
                async for event in service.stream(job_id):
                    events.append(event)
                return job_id, events

        job_id, events = asyncio.run(main())
        assert events[-1]["type"] == "result"
        assert events[-1]["result"].ok
        progress = [e for e in events if e["type"] == "progress"]
        assert progress, "expected at least one progress event"
        steps = [e["steps_completed"] for e in progress]
        assert steps == sorted(steps)
        assert all(e["job_id"] == job_id for e in events)

    def test_stream_on_finished_job_yields_result_immediately(self, tmp_path):
        async def main():
            async with SimulationService(tmp_path) as service:
                job_id = service.submit(CFG, 2, state_seed=0)
                await service.result(job_id)
                events = [event async for event in service.stream(job_id)]
                assert len(events) == 1
                assert events[0]["type"] == "result"

        asyncio.run(main())

    def test_mixed_compatibility_groups_all_complete(self, tmp_path):
        other = SimulationConfig(fluid_shape=(6, 6, 6), solver="batched")

        async def main():
            async with SimulationService(tmp_path, max_batch=4) as service:
                a = [service.submit(CFG, 3, state_seed=i) for i in range(3)]
                b = [service.submit(other, 3, state_seed=i) for i in range(3)]
                for job_id in a + b:
                    assert (await service.result(job_id)).ok

        asyncio.run(main())


class TestSLOMetrics:
    def test_metrics_populated_through_observe(self, tmp_path):
        telemetry = Telemetry()

        async def main():
            async with SimulationService(
                tmp_path, max_batch=2, telemetry=telemetry
            ) as service:
                ids = [service.submit(CFG, 3, state_seed=i) for i in range(3)]
                for job_id in ids:
                    assert (await service.result(job_id)).ok

        asyncio.run(main())
        snap = telemetry.metrics.snapshot()
        assert snap["counters"]["service.accepted"] == 3
        assert snap["counters"]["service.completed"] == 3
        latency = snap["histograms"]["service.queue_latency_seconds"]
        assert latency["count"] == 3
        assert latency["min"] >= 0.0
        steps = snap["quantiles"]["service.step_seconds"]
        assert steps["count"] >= 9  # 3 jobs x 3 steps, batched
        assert steps["p99"] is not None and steps["p99"] > 0.0
        assert steps["p50"] <= steps["p99"]
        assert "service.slot_occupancy" in snap["gauges"]
        assert snap["gauges"]["service.slot_capacity"] >= 1.0
        # The drive loop is spanned through the tracer.
        assert any(s.name == "service.drive" for s in telemetry.tracer.spans)

    def test_rejections_counted(self, tmp_path):
        telemetry = Telemetry()
        service = SimulationService(
            tmp_path,
            telemetry=telemetry,
            tenants=[TenantSpec("t", max_depth=1)],
        )
        service.submit(CFG, 2, tenant="t")
        from repro.errors import QueueFullError

        with pytest.raises(QueueFullError):
            service.submit(CFG, 2, tenant="t")
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["service.accepted"] == 1
        assert counters["service.rejected"] == 1


class TestRecovery:
    def test_in_process_kill_resume_is_transparent(self, tmp_path):
        telemetry = Telemetry()
        injector = FaultInjector(service_plan(num_steps=8))

        async def main():
            async with SimulationService(
                tmp_path,
                max_batch=3,
                telemetry=telemetry,
                fault_injector=injector,
                checkpoint_every=2,
                resume_on_kill=True,
            ) as service:
                ids = {
                    service.submit(CFG, 8, state_seed=seed): seed
                    for seed in range(4)
                }
                return {
                    seed: await service.result(job_id)
                    for job_id, seed in ids.items()
                }

        results = asyncio.run(main())
        for seed, result in results.items():
            assert result.ok
            assert fields_digest(result.fluid, result.structure) == _solo_digest(
                CFG, seed, 8
            )
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["service.kills_survived"] == 1

    def test_cross_instance_resume_recovers_undispatched_jobs(self, tmp_path):
        """Jobs journaled but never dispatched survive a service death."""
        service = SimulationService(tmp_path)
        ids = [service.submit(CFG, 3, state_seed=seed) for seed in range(3)]
        # The service dies without ever starting its drive loop; the
        # journal alone must reconstruct the accepted jobs.
        service._journal.close()

        async def main():
            revived = SimulationService.resume(tmp_path)
            assert sorted(r.job_id for r in revived.jobs()) == sorted(ids)
            async with revived:
                return [await revived.result(job_id) for job_id in ids]

        results = asyncio.run(main())
        for seed, result in zip(range(3), results):
            assert result.ok
            assert fields_digest(result.fluid, result.structure) == _solo_digest(
                CFG, seed, 3
            )

    def test_resume_preserves_terminal_statuses(self, tmp_path):
        async def main():
            async with SimulationService(tmp_path) as service:
                done = service.submit(CFG, 2, state_seed=0)
                gone = service.submit(CFG, 2, state_seed=1)
                service.cancel(gone)
                await service.result(done)
                await service.result(gone)
            return done, gone

        done, gone = asyncio.run(main())
        revived = SimulationService.resume(tmp_path)
        assert revived.poll(done).status == "completed"
        assert revived.poll(gone).status == "cancelled"

    def test_resume_reissues_unpersisted_cancel(self, tmp_path):
        """Regression: a kill after cancel() journals the acknowledgement
        but before the scheduler persists "cancelled" must not let the
        job run to completion after resume."""
        service = SimulationService(tmp_path)
        job_id = service.submit(CFG, 4, state_seed=0)
        # Hand the job to the scheduler without running it, then journal
        # the cancel acknowledgement without the scheduler seeing it —
        # exactly the state an ill-timed kill inside cancel() leaves.
        service._dispatch(service._queues.pop_next())
        service._journal.job_cancelled(job_id, queued=False)
        service._journal.close()

        async def main():
            revived = SimulationService.resume(tmp_path)
            async with revived:
                return await revived.result(job_id)

        result = asyncio.run(main())
        assert result.status == "cancelled"

    def test_restored_terminal_results_preserve_steps_and_seeded_state(
        self, tmp_path
    ):
        """Regression: with every checkpoint lost, resume() must keep the
        journaled terminal status and step count, stream() must never
        yield ``result=None``, and the rebuilt result must be the real
        one — re-run from the journaled state seed, bit-identical to a
        solo run — not a rest state with steps=0."""
        import shutil

        async def main():
            async with SimulationService(tmp_path) as service:
                job_id = service.submit(CFG, 3, state_seed=5)
                await service.result(job_id)
            return job_id

        job_id = asyncio.run(main())
        # The checkpoints are lost; only the journal survives to
        # reconstruct the terminal record.
        shutil.rmtree(tmp_path / "batch")
        revived = SimulationService.resume(tmp_path)
        snapshot = revived.poll(job_id)
        assert snapshot.status == "completed"
        assert snapshot.steps_completed == 3

        async def stream_one():
            async with revived:
                events = []
                async for event in revived.stream(job_id):
                    events.append(event)
                return events, await revived.result(job_id)

        events, result = asyncio.run(stream_one())
        assert events[-1]["type"] == "result"
        assert all(e["result"] is not None for e in events if e["type"] == "result")
        assert result is not None
        assert result.status == "completed"
        assert result.steps_completed == 3
        assert fields_digest(result.fluid, result.structure) == _solo_digest(
            CFG, 5, 3
        )

    def test_lost_init_checkpoint_rebuilds_from_seed_or_fails(self, tmp_path):
        """Regression: a job whose initial-state checkpoint no longer
        loads must not silently restart from rest.  With a journaled
        state seed it is rebuilt bit-identically; without one it fails
        with a FailureInfo naming the checkpoint."""
        from repro.batch import BatchScheduler

        # Seeded: a service job is dispatched, then the process dies.
        service = SimulationService(tmp_path / "svc")
        seeded = service.submit(CFG, 3, state_seed=4)
        service._dispatch(service._queues.pop_next())
        service._journal.close()
        init = tmp_path / "svc" / "batch" / f"ckpt-{seeded}-init.npz"
        init.write_bytes(init.read_bytes()[:100])

        async def main():
            revived = SimulationService.resume(tmp_path / "svc")
            async with revived:
                return await revived.result(seeded)

        result = asyncio.run(main())
        assert result.status == "completed"
        assert fields_digest(result.fluid, result.structure) == _solo_digest(
            CFG, 4, 3
        )

        # Unseeded: a scheduler job submitted with a raw initial state.
        scheduler = BatchScheduler(workdir=tmp_path / "sched")
        scheduler.submit(
            CFG, 3, job_id="raw", initial_fluid=seeded_initial_fluid(CFG, 4)
        )
        init = tmp_path / "sched" / "ckpt-raw-init.npz"
        init.write_bytes(init.read_bytes()[:100])
        revived = BatchScheduler.resume(tmp_path / "sched")
        assert revived.job_status("raw") == "failed"
        (failed,) = revived.run().values()
        assert failed.status == "failed"
        assert failed.failure.invariant == "init_checkpoint"
        assert str(init) in failed.failure.message

    def test_cancel_wins_refill_handoff_race(self, tmp_path):
        """Regression: cancel() arriving between _refill_source's pop
        and the scheduler registering the submit must cancel the live
        job, not return False."""
        import threading
        import time

        service = SimulationService(tmp_path)
        job_id = service.submit(CFG, 4, state_seed=0)
        pending = service._queues.pop_next()  # the refill pop
        assert pending.job_id == job_id
        # Refills only happen inside scheduler.run(); mimic that window
        # so cancel() takes the deferred-request path, as it would live.
        service._scheduler._running = True

        def late_submit():
            time.sleep(0.05)
            service._scheduler.submit(
                pending.request.config,
                pending.request.num_steps,
                job_id=pending.job_id,
                initial_fluid=pending.request.initial_fluid,
            )

        thread = threading.Thread(target=late_submit)
        thread.start()
        try:
            assert service.cancel(job_id)
        finally:
            thread.join()
            service._scheduler._running = False
        # The deferred request retires the job before it runs a step.
        results = service._scheduler.run()
        assert results[job_id].status == "cancelled"
        assert results[job_id].steps_completed == 0
        service._journal.close()
