"""Batched LBM-IB solver: B simulations per kernel call, per-sim IB.

:class:`BatchedLBMIBSolver` is the memory-aware step pipeline
(:class:`~repro.core.pipeline.PipelineLBMIBSolver`) on a
:class:`~repro.batch.fields.BatchedFluidGrid`: the fluid half advances
every slot in one numpy call per operation and the IB half runs per slot
(each slot owns its own immersed structure — fiber counts and positions
differ between simulations, so there is nothing to batch).  The sweeps
index the direction axis as ``df[..., i, :, :, :]``, so each slot runs
exactly the solo fused code and its trajectory is bit-identical to
running that simulation alone; slots never exchange information
(streaming is per-slot periodic, so even a NaN cannot cross the batch
axis).

This class adds the slot management of continuous batching: per-slot
step counters and an ``active`` mask, so the scheduler can retire a
finished or diverged slot and refill it mid-run (:meth:`load_slot` /
:meth:`clear_slot`), plus the optional per-slot
:class:`~repro.batch.guard.SlotGuard` inspection after every step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.guard import SlotGuard
    from repro.observe.tracer import Tracer

from repro.batch.fields import BatchedFluidGrid
from repro.constants import DT
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.lbm.boundaries import Boundary
from repro.core.lbm.fields import FluidGrid
from repro.core.pipeline import PipelineLBMIBSolver
from repro.core.solver import FIBER_FORCE_KERNELS

__all__ = ["BatchedLBMIBSolver"]


class BatchedLBMIBSolver(PipelineLBMIBSolver):
    """Run B independent LBM-IB simulations through batched kernels.

    Parameters
    ----------
    grid:
        The batched fluid state (``grid.batch`` slots).
    structures:
        Per-slot immersed structure (``None`` for fluid-only slots);
        padded with ``None`` when shorter than the batch.
    delta / boundaries / dt / external_force:
        Shared physics, identical for every slot (the scheduler only
        groups compatible configs into one batch).
    tracer / fault_hook:
        Same observability/fault surface as the solo solvers; the fault
        hook is called once per batched step with thread id 0.
    guard:
        Optional :class:`~repro.batch.guard.SlotGuard`.  When attached,
        every :meth:`load_slot` binds fresh per-slot health checkers,
        every :meth:`clear_slot` releases them, and the end of every
        :meth:`step` runs the guard's inspection — a failing slot is
        ejected from the shared arrays without perturbing its siblings
        (see :mod:`repro.batch.guard`).
    """

    collide_stream_span = "batched_collide_stream"

    def __init__(
        self,
        grid: BatchedFluidGrid,
        structures: Sequence[ImmersedStructure | None] = (),
        delta: DeltaKernel | None = None,
        boundaries: Sequence[Boundary] = (),
        dt: float = DT,
        external_force: tuple[float, float, float] | None = None,
        fault_hook: Callable[[int, int], None] | None = None,
        tracer: "Tracer | None" = None,
        guard: "SlotGuard | None" = None,
    ) -> None:
        super().__init__(
            grid,
            None,
            delta=delta if delta is not None else default_delta(),
            boundaries=list(boundaries),
            dt=dt,
            external_force=external_force,
            fault_hook=fault_hook,
            tracer=tracer,
        )
        self.guard = guard
        b = grid.batch
        self.structures = list(structures)
        if len(self.structures) > b:
            raise ValueError(
                f"{len(self.structures)} structures for a batch of {b} slots"
            )
        self.structures += [None] * (b - len(self.structures))
        #: Per-slot completed-step counters (continuous batching: slots
        #: admitted mid-run start counting from their admission).
        self.slot_steps = [0] * b
        #: Slots currently carrying a live simulation.
        self.active = [True] * b

    @property
    def grid(self) -> BatchedFluidGrid:
        """The batched fluid state (the pipeline's ``fluid``)."""
        return self.fluid

    # ------------------------------------------------------------------
    # slot management (continuous batching)
    # ------------------------------------------------------------------
    def load_slot(
        self,
        slot: int,
        fluid: FluidGrid,
        structure: ImmersedStructure | None = None,
        job_id: str | None = None,
    ) -> None:
        """Admit a simulation into ``slot`` (initial fill or refill).

        Copies the fluid state in, adopts ``structure`` (mutated in
        place as the slot advances), resets the slot's step counter and
        marks it active.  The external body force is re-seeded exactly
        as the solo solvers do at construction, so a freshly admitted
        slot's first step matches its solo run's first step.  With a
        :class:`~repro.batch.guard.SlotGuard` attached, fresh per-slot
        health checkers are bound to the newly admitted state
        (``job_id`` ties repeat offences together across retries).
        """
        self.grid.load_slot(slot, fluid)
        if self._ext is not None:
            self.grid.force[slot][...] = self._ext
        self.structures[slot] = structure
        self.slot_steps[slot] = 0
        self.active[slot] = True
        if self.guard is not None:
            self.guard.bind_slot(self, slot, job_id=job_id)

    def clear_slot(self, slot: int) -> None:
        """Retire ``slot``: drop its structure, park it at equilibrium.

        The parked state keeps the batched sweep numerically benign (a
        diverged slot's NaNs would otherwise churn through every
        subsequent step's arithmetic of that slot).
        """
        self.structures[slot] = None
        self.active[slot] = False
        self.slot_steps[slot] = 0
        self.grid.reset_slot(slot)
        if self.guard is not None:
            self.guard.release_slot(slot)

    def slot_finite(self, slot: int) -> bool:
        """Divergence probe for the scheduler (see ``BatchedFluidGrid``)."""
        return self.grid.slot_finite(slot)

    @property
    def occupancy(self) -> int:
        """Number of slots currently carrying a live simulation."""
        return sum(self.active)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _fiber_forces(self) -> None:
        """Kernels 1-3 for every slot, as one span."""

        def forces() -> None:
            for structure, _, _ in self._ib_slots():
                for _, kernel in FIBER_FORCE_KERNELS:
                    kernel(structure)

        self._timed("compute_fiber_forces", forces)

    def step(self) -> None:
        """Advance every active slot by one time step."""
        super().step()
        for slot in range(self.grid.batch):
            if self.active[slot]:
                self.slot_steps[slot] += 1
        if self.guard is not None:
            self._timed("slot_guard", lambda: self.guard.inspect(self))

    def snapshot(self) -> dict:
        """Diagnostic snapshot of slot 0 (solo-solver interface parity)."""
        structure = self.structures[0]
        return {
            "velocity": self.grid.velocity[0].copy(),
            "density": self.grid.density[0].copy(),
            "force": self.grid.force[0].copy(),
            "fiber_positions": (
                [s.positions.copy() for s in structure.sheets]
                if structure is not None
                else []
            ),
        }
