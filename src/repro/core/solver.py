"""The sequential LBM-IB solver (paper Algorithm 1).

:class:`SequentialLBMIBSolver` creates/accepts an immersed structure and
a 3D fluid grid, then executes the nine computational kernels repeatedly
to simulate each time step.  An optional tracer records one span per
kernel per step; :meth:`repro.observe.tracer.Tracer.flat_profile` turns
those spans into the gprof-style profile of paper Table I.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.tracer import Tracer

from repro.constants import DT
from repro.core import kernels
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.lbm.boundaries import Boundary, validate_boundaries
from repro.core.lbm.fields import FluidGrid

__all__ = ["SequentialLBMIBSolver", "StepObserver", "FIBER_FORCE_KERNELS"]

#: Kernels 1-3 in Algorithm-1 order, as ``(span name, kernel)`` pairs.
FIBER_FORCE_KERNELS = (
    ("compute_bending_force_in_fibers", kernels.compute_bending_force_in_fibers),
    ("compute_stretching_force_in_fibers", kernels.compute_stretching_force_in_fibers),
    ("compute_elastic_force_in_fibers", kernels.compute_elastic_force_in_fibers),
)

#: Signature of a per-step observer: ``observer(step_index, solver)``.
StepObserver = Callable[[int, "SequentialLBMIBSolver"], None]


@dataclass
class SequentialLBMIBSolver:
    """Run the LBM-IB method sequentially, one kernel after another.

    Parameters
    ----------
    fluid:
        The Eulerian fluid grid.
    structure:
        The Lagrangian immersed structure (fiber sheets).
    delta:
        Smoothed delta kernel; defaults to Peskin's 4-point cosine.
    boundaries:
        Face boundary conditions applied after streaming; an empty list
        means fully periodic.
    dt:
        Time step (1 in lattice units).
    check_stability_every:
        Validate fields for NaN/Inf every this many steps (0 disables).
    external_force:
        Optional constant body-force density (3-vector) applied to every
        fluid node on top of the spread elastic force; used to drive
        channel flows (e.g. the Poiseuille validation).
    fault_hook:
        Optional ``hook(tid, step)`` called at the top of every step
        (tid is always 0 here); installed by the resilience layer's
        :class:`~repro.resilience.faults.FaultInjector` to corrupt
        fields or kill the run at a chosen step.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer` receiving one
        span per kernel per step (``None`` = telemetry disabled, the
        zero-overhead default).
    """

    fluid: FluidGrid
    structure: ImmersedStructure | None
    delta: DeltaKernel = field(default_factory=default_delta)
    boundaries: Sequence[Boundary] = field(default_factory=list)
    dt: float = DT
    check_stability_every: int = 0
    external_force: tuple[float, float, float] | None = None
    fault_hook: Callable[[int, int], None] | None = None
    tracer: "Tracer | None" = None
    time_step: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        validate_boundaries(list(self.boundaries))
        self._ext: np.ndarray | None = None
        if self.external_force is not None:
            self._ext = np.asarray(
                self.external_force, dtype=self.fluid.force.dtype
            ).reshape(3, 1, 1, 1)
            self.fluid.force[...] = self._ext

    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable[[], None]) -> None:
        tracer = self.tracer
        if tracer is None:
            fn()
            return
        start = time.perf_counter()
        fn()
        tracer.record(
            name, 0, start, time.perf_counter() - start, step=self.time_step
        )

    def _apply_boundaries(self) -> None:
        for boundary in self.boundaries:
            boundary.apply(self.fluid.df, self.fluid.df_new)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one time step (the 9 kernels)."""
        if self.fault_hook is not None:
            self.fault_hook(0, self.time_step)
        fluid, structure, delta = self.fluid, self.structure, self.delta

        # --- IB related ---
        if structure is not None:
            for name, kernel in FIBER_FORCE_KERNELS:
                self._timed(name, lambda: kernel(structure))
            # reset=False: the force field already holds exactly the
            # external body force (re-seeded at the end of every step).
            self._timed(
                "spread_force_from_fibers_to_fluid",
                lambda: kernels.spread_force_from_fibers_to_fluid(
                    structure, fluid, delta, reset=False
                ),
            )

        # --- LBM related ---
        self._timed(
            "compute_fluid_collision",
            lambda: kernels.compute_fluid_collision(fluid),
        )
        self._timed(
            "stream_fluid_velocity_distribution",
            lambda: (
                kernels.stream_fluid_velocity_distribution(fluid),
                self._apply_boundaries(),
            )[0],
        )

        # --- FSI coupling related ---
        self._timed(
            "update_fluid_velocity",
            lambda: kernels.update_fluid_velocity(fluid),
        )
        if structure is not None:
            self._timed(
                "move_fibers",
                lambda: kernels.move_fibers(structure, fluid, delta, dt=self.dt),
            )
        self._timed(
            "copy_fluid_velocity_distribution",
            lambda: kernels.copy_fluid_velocity_distribution(fluid),
        )
        self._end_step()

    def _end_step(self) -> None:
        """Reseed the force field, count the step, check stability."""
        # The spread force has served kernels 5-8; reset it here so every
        # solver variant (sequential, OpenMP, cube) leaves the same
        # post-step state: the force field holds only the constant
        # external body force (if any) between steps.
        self.fluid.force[...] = 0.0 if self._ext is None else self._ext
        self.time_step += 1
        if (
            self.check_stability_every
            and self.time_step % self.check_stability_every == 0
        ):
            self.fluid.validate_stable()
            if self.structure is not None:
                from repro.errors import StabilityError

                for sheet in self.structure.sheets:
                    if not np.isfinite(sheet.positions).all():
                        raise StabilityError(
                            "fiber positions contain non-finite values; the "
                            "structure solver has become unstable (reduce "
                            "stiffness or the time step)"
                        )

    def run(self, num_steps: int, observer: StepObserver | None = None) -> None:
        """Run ``num_steps`` time steps, optionally reporting each step."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        for _ in range(num_steps):
            self.step()
            if observer is not None:
                observer(self.time_step, self)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, np.ndarray]:
        """Shallow diagnostic snapshot of the headline state arrays."""
        return {
            "velocity": self.fluid.velocity.copy(),
            "density": self.fluid.density.copy(),
            "force": self.fluid.force.copy(),
            "fiber_positions": (
                [s.positions.copy() for s in self.structure.sheets]
                if self.structure is not None
                else []
            ),
        }
