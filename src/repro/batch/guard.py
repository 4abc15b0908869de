"""Per-slot health sentinels for batched execution.

A batch couples B unrelated simulations to one set of shared arrays —
which makes *containment* the first robustness property: one slot's NaN
blow-up, injected fault, or invariant violation must never perturb a
sibling slot or take down the whole batched sweep.  The sweep already
guarantees slots cannot exchange information (streaming is per-slot
periodic), so the remaining risk is operational: a sick slot
silently burning steps, or its garbage state reaching results.

:class:`SlotGuard` closes that gap.  Attached to a
:class:`~repro.batch.solver.BatchedLBMIBSolver`, it runs a set of
physics checkers (reusing the :mod:`repro.verify.invariants` NaN /
mass / positivity / arc-length sentinels, one stateful instance set per
slot) against every active slot after each batched step.  On a
violation the slot is **ejected**: its complete state is copied out of
the shared batch arrays (for diagnostics and the structured failure
report), the slot is parked at the quiescent equilibrium — an
operation that writes only that slot's sub-arrays, so every sibling
slot stays bit-identical — and the ejection is queued for the
scheduler to translate into a retry, a quarantine, or a terminal
:class:`~repro.batch.scheduler.FailureInfo`.

The guard also counts strikes per job id: a job that keeps getting
ejected (``quarantine_after`` times) is reported as a repeat offender
so the scheduler stops wasting retry budget on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.solver import BatchedLBMIBSolver

from repro.core.ib.fiber import ImmersedStructure
from repro.core.lbm.fields import FluidGrid
from repro.errors import ConfigurationError, InvariantError

__all__ = ["SlotEjection", "SlotGuard"]


@dataclass(eq=False)
class SlotEjection:
    """One slot ejection: the failure plus the evacuated state.

    Attributes
    ----------
    slot:
        Batch slot that failed.
    job_step:
        The slot's *local* completed-step count at detection (the
        scheduler adds the job's resume offset to get the absolute
        step).
    batch_step:
        The batched solver's global step counter at detection.
    invariant:
        Name of the violated invariant (``finite_fields``, ...).
    error:
        The full :class:`~repro.errors.InvariantError`.
    fluid / structure:
        Deep copies of the slot's state at detection, taken *before*
        the slot was parked — the post-mortem evidence attached to a
        terminal result.
    strikes:
        Consecutive ejection count for the occupying job (1 = first
        offence).
    quarantined:
        True when ``strikes`` reached the guard's quarantine threshold.
    """

    slot: int
    job_step: int
    batch_step: int
    invariant: str
    error: InvariantError
    fluid: FluidGrid
    structure: ImmersedStructure | None
    strikes: int = 1
    quarantined: bool = False


class SlotGuard:
    """Health-check every active batch slot; eject and contain failures.

    Parameters
    ----------
    checker_factory:
        Zero-argument callable producing a fresh list of
        :class:`~repro.verify.invariants.Invariant` checkers.  Each
        bound slot gets its own instances (the checkers are stateful:
        conserved-quantity baselines are captured per simulation at
        admission).  Default: the config-gated standard set via
        :meth:`repro.verify.invariants.InvariantSuite.slot_checkers`
        with no config (finite + mass + momentum + positivity).
    every:
        Check cadence in slot-local steps (1 = every step).
    quarantine_after:
        Ejection count at which a job id is flagged as a repeat
        offender (``SlotEjection.quarantined``); the scheduler then
        stops retrying it regardless of remaining attempt budget.
    incident_log:
        Optional :class:`~repro.resilience.incident.IncidentLog`; every
        ejection is journaled as a ``slot_ejected`` event.
    metrics:
        Optional :class:`~repro.observe.metrics.MetricsRegistry`; every
        ejection bumps ``batch.ejections`` (and ``batch.quarantined``
        when the threshold trips).
    """

    def __init__(
        self,
        checker_factory: Callable[[], Sequence] | None = None,
        every: int = 1,
        quarantine_after: int = 3,
        incident_log=None,
        metrics=None,
    ) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        if quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        if checker_factory is None:
            from repro.verify.invariants import InvariantSuite

            checker_factory = InvariantSuite.slot_checkers
        self.checker_factory = checker_factory
        self.every = every
        self.quarantine_after = quarantine_after
        self.incident_log = incident_log
        self.metrics = metrics
        self._checkers: dict[int, list] = {}
        self._job_ids: dict[int, str] = {}
        self._strikes: dict[str, int] = {}
        self._ejections: list[SlotEjection] = []
        #: Total ejections performed over this guard's lifetime.
        self.total_ejections = 0

    # ------------------------------------------------------------------
    # slot binding (called by the solver's load_slot / clear_slot)
    # ------------------------------------------------------------------
    def bind_slot(
        self, solver: "BatchedLBMIBSolver", slot: int, job_id: str | None = None
    ) -> None:
        """Create and baseline-bind fresh checkers for ``slot``.

        ``job_id`` ties repeat offences together across retries of the
        same job; anonymous slots are keyed by slot number.
        """
        checkers = list(self.checker_factory())
        view = solver.grid.view(slot)
        structure = solver.structures[slot]
        for checker in checkers:
            checker.bind(view, structure)
        self._checkers[slot] = checkers
        self._job_ids[slot] = job_id if job_id is not None else f"slot{slot}"

    def release_slot(self, slot: int) -> None:
        """Forget a retired slot's checkers (its strikes are kept)."""
        self._checkers.pop(slot, None)
        self._job_ids.pop(slot, None)

    def strikes_for(self, job_id: str) -> int:
        """Ejection count recorded against ``job_id`` so far."""
        return self._strikes.get(job_id, 0)

    def forgive(self, job_id: str) -> None:
        """Clear a job's strike record (e.g. after it completes)."""
        self._strikes.pop(job_id, None)

    # ------------------------------------------------------------------
    # inspection (called by the solver at the end of every step)
    # ------------------------------------------------------------------
    def inspect(self, solver: "BatchedLBMIBSolver") -> None:
        """Check every active bound slot; eject violators.

        Ejection order is ascending slot number, so two sick slots in
        one step produce a deterministic ejection sequence.
        """
        for slot in sorted(self._checkers):
            if not solver.active[slot]:
                continue
            job_step = solver.slot_steps[slot]
            if job_step % self.every:
                continue
            view = solver.grid.view(slot)
            structure = solver.structures[slot]
            try:
                for checker in self._checkers[slot]:
                    checker.check(view, structure, job_step)
            except InvariantError as exc:
                self._eject(solver, slot, exc)

    def _eject(
        self, solver: "BatchedLBMIBSolver", slot: int, error: InvariantError
    ) -> None:
        """Evacuate ``slot``'s state and park it at equilibrium.

        Only this slot's sub-arrays are written (``reset_slot`` indexes
        the leading batch axis), so sibling slots keep bit-identical
        trajectories — the containment property the chaos harness pins
        with ``max_abs_delta == 0.0``.
        """
        job_id = self._job_ids.get(slot, f"slot{slot}")
        job_step = solver.slot_steps[slot]
        batch_step = solver.time_step
        fluid = solver.grid.gather_slot(slot)
        structure = solver.structures[slot]
        strikes = self._strikes[job_id] = self._strikes.get(job_id, 0) + 1
        quarantined = strikes >= self.quarantine_after
        ejection = SlotEjection(
            slot=slot,
            job_step=job_step,
            batch_step=batch_step,
            invariant=getattr(error, "invariant", "unknown"),
            error=error,
            fluid=fluid,
            structure=structure,
            strikes=strikes,
            quarantined=quarantined,
        )
        self._ejections.append(ejection)
        self.total_ejections += 1
        # clear_slot calls release_slot for us (guard is attached).
        solver.clear_slot(slot)
        if self.incident_log is not None:
            self.incident_log.record(
                "slot_ejected",
                step=job_step,
                slot=slot,
                job=job_id,
                invariant=ejection.invariant,
                error=str(error),
                strikes=strikes,
                quarantined=quarantined,
            )
        if self.metrics is not None:
            self.metrics.counter("batch.ejections").inc()
            if quarantined:
                self.metrics.counter("batch.quarantined").inc()

    def take_ejections(self) -> list[SlotEjection]:
        """Drain the pending-ejections queue (scheduler handshake)."""
        ejections, self._ejections = self._ejections, []
        return ejections
