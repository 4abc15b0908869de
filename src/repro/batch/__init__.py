"""Batched multi-simulation execution (``variant="batched"``).

Stacks B independent same-shaped simulations along a leading batch
axis and advances them with one numpy call per kernel operation,
amortizing dispatch overhead across the batch — plus a continuous-
batching scheduler that keeps batches full from a submission queue.

* :class:`~repro.batch.fields.BatchedFluidGrid` — batched fluid state
  with live per-slot :class:`~repro.core.lbm.fields.FluidGrid` views;
* :class:`~repro.batch.solver.BatchedLBMIBSolver` — the step pipeline
  on a batched grid (fluid half batched, IB half per slot) plus slot
  management;
* :class:`~repro.batch.guard.SlotGuard` — per-slot health sentinels
  that eject a failing slot without perturbing its siblings;
* :class:`~repro.batch.scheduler.BatchScheduler` — compatibility
  grouping, FIFO admission, slot refill on completion/divergence,
  retry/quarantine lifecycle and checkpoint-backed resume.
"""

from repro.batch.fields import BatchedFluidGrid, BatchSlotView, adopt_state
from repro.batch.guard import SlotEjection, SlotGuard
from repro.batch.scheduler import (
    TERMINAL_STATUSES,
    BatchJob,
    BatchResult,
    BatchScheduler,
    FailureInfo,
    JobRequest,
    RetryPolicy,
    SchedulerTick,
    compatibility_key,
)
from repro.batch.solver import BatchedLBMIBSolver

__all__ = [
    "BatchedFluidGrid",
    "BatchSlotView",
    "BatchedLBMIBSolver",
    "BatchJob",
    "BatchResult",
    "BatchScheduler",
    "FailureInfo",
    "JobRequest",
    "RetryPolicy",
    "SchedulerTick",
    "SlotEjection",
    "SlotGuard",
    "TERMINAL_STATUSES",
    "adopt_state",
    "compatibility_key",
]
