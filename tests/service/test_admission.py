"""Backpressure and admission-control unit tests for the service.

Covers the satellite checklist: memory-budget rejection (retryable vs
permanent), retry-after honoring, queue-depth caps, and the
cancel-while-queued vs cancel-while-running paths.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import SimulationConfig
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    MemoryBudgetError,
    QueueFullError,
)
from repro.service import (
    MemoryBudget,
    SimulationService,
    TenantSpec,
    WeightedFairQueues,
)
from repro.service.queues import PendingJob
from repro.batch.scheduler import JobRequest

pytestmark = pytest.mark.service

CFG = SimulationConfig(fluid_shape=(8, 8, 8), solver="batched")


def _pending(job_id: str, tenant: str = "t") -> PendingJob:
    return PendingJob(
        job_id=job_id,
        tenant=tenant,
        request=JobRequest(config=CFG, num_steps=1),
        state_bytes=0,
    )


# ----------------------------------------------------------------------
# memory budget
# ----------------------------------------------------------------------
class TestMemoryBudget:
    def test_reserve_then_release_roundtrip(self):
        budget = MemoryBudget(1000)
        budget.reserve("a", 600)
        assert budget.reserved_bytes == 600
        assert budget.available_bytes == 400
        assert budget.release("a") == 600
        assert budget.available_bytes == 1000

    def test_overcommit_rejected_as_retryable(self):
        budget = MemoryBudget(1000, retry_after_seconds=2.5)
        budget.reserve("a", 700)
        with pytest.raises(MemoryBudgetError) as err:
            budget.reserve("b", 500)
        assert err.value.retryable
        assert err.value.retry_after_seconds == 2.5
        assert err.value.available_bytes == 300
        # Releasing frees headroom; the retry then succeeds.
        budget.release("a")
        budget.reserve("b", 500)

    def test_job_larger_than_budget_is_permanent(self):
        budget = MemoryBudget(1000)
        with pytest.raises(MemoryBudgetError) as err:
            budget.reserve("huge", 2000)
        assert not err.value.retryable
        assert err.value.retry_after_seconds is None

    def test_double_reservation_rejected(self):
        budget = MemoryBudget(1000)
        budget.reserve("a", 10)
        with pytest.raises(ConfigurationError):
            budget.reserve("a", 10)


# ----------------------------------------------------------------------
# queue depth caps
# ----------------------------------------------------------------------
class TestQueueDepthCap:
    def test_push_past_depth_cap_rejects_with_retry_after(self):
        queues = WeightedFairQueues(
            [TenantSpec("t", max_depth=2, retry_after_seconds=0.25)]
        )
        queues.push(_pending("a"))
        queues.push(_pending("b"))
        with pytest.raises(QueueFullError) as err:
            queues.push(_pending("c"))
        assert err.value.retryable
        assert err.value.retry_after_seconds == 0.25
        assert err.value.tenant == "t"
        assert err.value.depth == 2

    def test_caps_are_per_tenant(self):
        queues = WeightedFairQueues(
            [TenantSpec("small", max_depth=1), TenantSpec("big", max_depth=8)]
        )
        queues.push(_pending("a", "small"))
        with pytest.raises(QueueFullError):
            queues.push(_pending("b", "small"))
        # The other tenant is unaffected.
        queues.push(_pending("c", "big"))

    def test_pop_frees_depth_for_the_retry(self):
        queues = WeightedFairQueues([TenantSpec("t", max_depth=1)])
        queues.push(_pending("a"))
        with pytest.raises(QueueFullError):
            queues.push(_pending("b"))
        assert queues.pop_next().job_id == "a"
        queues.push(_pending("b"))  # retry-after honored: now admitted

    def test_reserved_slot_counts_toward_cap(self):
        queues = WeightedFairQueues([TenantSpec("t", max_depth=2)])
        queues.reserve_slot("t")
        queues.push(_pending("a"))
        # One real job + one reservation fill the depth-2 cap.
        with pytest.raises(QueueFullError) as err:
            queues.reserve_slot("t")
        assert err.value.depth == 2
        with pytest.raises(QueueFullError):
            queues.push(_pending("b"))
        # A reserved push consumes the claimed slot instead of the cap.
        queues.push(_pending("c"), reserved=True)
        assert queues.depth("t") == 2

    def test_released_slot_restores_capacity(self):
        queues = WeightedFairQueues([TenantSpec("t", max_depth=1)])
        queues.reserve_slot("t")
        with pytest.raises(QueueFullError):
            queues.push(_pending("a"))
        queues.release_slot("t")
        queues.push(_pending("a"))
        assert queues.depth("t") == 1


# ----------------------------------------------------------------------
# service-level admission
# ----------------------------------------------------------------------
class TestServiceAdmission:
    def test_memory_budget_rejection_and_retry_after(self, tmp_path):
        state_bytes = CFG.estimated_state_bytes()
        service = SimulationService(
            tmp_path, memory_budget_bytes=state_bytes + state_bytes // 2
        )
        service.submit(CFG, 2, state_seed=0)
        with pytest.raises(MemoryBudgetError) as err:
            service.submit(CFG, 2, state_seed=1)
        assert err.value.retryable
        assert err.value.retry_after_seconds is not None

    def test_oversized_job_permanently_rejected(self, tmp_path):
        service = SimulationService(tmp_path, memory_budget_bytes=1024)
        with pytest.raises(MemoryBudgetError) as err:
            service.submit(CFG, 2)
        assert not err.value.retryable

    def test_queue_full_surfaces_from_submit(self, tmp_path):
        service = SimulationService(
            tmp_path,
            tenants=[TenantSpec("t", max_depth=2, retry_after_seconds=0.5)],
        )
        service.submit(CFG, 2, tenant="t")
        service.submit(CFG, 2, tenant="t")
        with pytest.raises(QueueFullError) as err:
            service.submit(CFG, 2, tenant="t")
        assert err.value.retry_after_seconds == 0.5
        # The rejected submission reserved no budget.
        assert service._budget.reserved_bytes == 2 * CFG.estimated_state_bytes()

    def test_queue_full_rejection_is_not_journaled(self, tmp_path):
        """Regression: a queue-full rejection must not leave a durable
        job_accepted record — resume() would resurrect and execute a job
        the client was told to retry (phantom/duplicate execution)."""
        from repro.service.journal import ServiceJournal

        service = SimulationService(
            tmp_path, tenants=[TenantSpec("t", max_depth=1)]
        )
        kept = service.submit(CFG, 2, tenant="t", state_seed=0)
        with pytest.raises(QueueFullError):
            service.submit(CFG, 2, tenant="t", state_seed=1)
        replay = ServiceJournal.replay(tmp_path)
        assert list(replay) == [kept]
        # The failed reservation was returned: draining the queue makes
        # room for the retry, exactly as the retry-after hint promises.
        assert service._queues.pop_next().job_id == kept
        retried = service.submit(CFG, 2, tenant="t", state_seed=1)
        service._journal.close()
        revived = SimulationService.resume(tmp_path)
        assert sorted(r.job_id for r in revived.jobs()) == sorted([kept, retried])
        revived._journal.close()

    def test_unknown_tenant_rejected(self, tmp_path):
        service = SimulationService(tmp_path, tenants=[TenantSpec("a")])
        with pytest.raises(AdmissionError):
            service.submit(CFG, 2, tenant="nope")

    def test_rejection_after_drain_admits_again(self, tmp_path):
        state_bytes = CFG.estimated_state_bytes()

        async def main():
            async with SimulationService(
                tmp_path, memory_budget_bytes=state_bytes + state_bytes // 2
            ) as service:
                first = service.submit(CFG, 2, state_seed=0)
                with pytest.raises(MemoryBudgetError):
                    service.submit(CFG, 2, state_seed=1)
                assert (await service.result(first)).ok
                # Terminal jobs release their reservation: retry succeeds.
                second = service.submit(CFG, 2, state_seed=1)
                assert (await service.result(second)).ok

        asyncio.run(main())


# ----------------------------------------------------------------------
# cancellation paths
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_while_queued_before_loop_starts(self, tmp_path):
        service = SimulationService(tmp_path)
        job_id = service.submit(CFG, 4, state_seed=0)
        assert service.cancel(job_id)
        snapshot = service.poll(job_id)
        assert snapshot.status == "cancelled"
        assert service._budget.reserved_bytes == 0
        # Idempotent: a second cancel is a no-op.
        assert not service.cancel(job_id)

    def test_cancel_while_running_parks_the_slot(self, tmp_path):
        async def main():
            async with SimulationService(tmp_path, max_batch=2) as service:
                job_id = service.submit(CFG, 400, state_seed=0)
                sibling = service.submit(CFG, 4, state_seed=1)
                # Wait until the long job is actually running.
                while service.poll(job_id).status != "running":
                    await asyncio.sleep(0.005)
                assert service.cancel(job_id)
                result = await service.result(job_id)
                assert result.status == "cancelled"
                assert result.steps_completed < 400
                # The sibling keeps running to completion.
                assert (await service.result(sibling)).ok

        asyncio.run(main())

    def test_cancel_unknown_job_is_false(self, tmp_path):
        service = SimulationService(tmp_path)
        assert not service.cancel("never-submitted")

    def test_cancelled_while_queued_never_dispatches(self, tmp_path):
        from repro.resilience.incident import IncidentLog

        async def main():
            service = SimulationService(tmp_path, max_batch=1)
            keep = service.submit(CFG, 2, state_seed=0)
            drop = service.submit(CFG, 2, state_seed=1)
            assert service.cancel(drop)
            async with service:
                assert (await service.result(keep)).ok
                assert (await service.result(drop)).status == "cancelled"
            events = IncidentLog.load(service._journal.path).events
            dispatched = {
                e.detail["job"] for e in events if e.kind == "job_dispatched"
            }
            assert keep in dispatched
            assert drop not in dispatched

        asyncio.run(main())
