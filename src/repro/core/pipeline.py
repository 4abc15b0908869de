"""The memory-aware LBM-IB step pipeline (``fused``, ``inplace``, ``batched``).

:class:`PipelineLBMIBSolver` executes the same nine-kernel time step as
the sequential solver (paper Algorithm 1) but restructured around memory
traffic rather than kernel boundaries:

* kernels 5 + 6 run as one lattice sweep (:mod:`repro.core.lbm.sweep`)
  — the equilibrium lattice and the whole-grid post-collision
  intermediate never materialize;
* kernel 7 runs allocation-free
  (:func:`repro.core.coupling.update_velocity_fields_inplace`);
* kernels 4 and 8 share one delta-stencil evaluation per sheet per step
  (:class:`~repro.core.ib.spreading.StencilCache`);
* every scratch buffer comes from the grid-owned arena, so a
  steady-state fluid step performs zero numpy array allocations.

Nothing about the step is a constructor option; both axes of variation
come from the grid it is handed:

Lattice scheme — ``fluid.single_lattice``
    A two-lattice grid runs :func:`~repro.core.lbm.sweep.fused_collide_stream`
    and replaces kernel 9's copy with a pointer swap (after a step
    ``df_new`` holds the *previous* step's post-collision distributions;
    every consumer either ignores it or overwrites it before reading).
    A single-lattice grid alternates the AA even and odd sweeps on its
    ``aa_phase`` flag — no ``df_new``, no swap, half the lattice bytes.
    After an even step, boundary repairs are written through the AA
    encoding (:meth:`~repro.core.lbm.boundaries.Boundary.apply_aa_even`)
    and kernel 7 takes its moments with pull reads.

Batch width — the grid's leading axes
    A :class:`~repro.core.lbm.fields.FluidGrid` is one simulation; a
    :class:`~repro.batch.fields.BatchedFluidGrid` carries ``B`` slots on
    a leading axis, and the sweeps and kernel 7 advance every slot in
    one numpy call per operation.  The IB kernels run per slot (each
    slot owns its structure), boundary face buffers are shaped
    ``(B,) + face`` and repairs are applied slot by slot.
    :class:`~repro.batch.solver.BatchedLBMIBSolver` adds slot management
    on top.

Boundary conditions that read post-collision values (bounce-back walls)
declare the directions they need via
:meth:`~repro.core.lbm.boundaries.Boundary.post_dependencies`; every
sweep hands each finalized post-collision slab to the capture hook
before any repair runs, so one capture plan serves every scheme.

The differential oracle (:mod:`repro.verify.oracle`) gates each variant
against ``sequential`` with zero divergence for BGK and TRT.
"""

from __future__ import annotations

import numpy as np

from repro.core.coupling import update_velocity_fields_inplace
from repro.core.ib import motion as _motion
from repro.core.ib import spreading as _spreading
from repro.core.lbm.boundaries import face_index
from repro.core.lbm.lattice import SLAB
from repro.core.lbm.sweep import (
    aa_even_collide_swap,
    aa_odd_collide_stream,
    fused_collide_stream,
    update_velocity_fields_aa,
)
from repro.core.solver import FIBER_FORCE_KERNELS, SequentialLBMIBSolver

__all__ = ["PipelineLBMIBSolver"]


class PipelineLBMIBSolver(SequentialLBMIBSolver):
    """Run the LBM-IB method through the memory-aware sweeps.

    Constructor parameters are those of
    :class:`~repro.core.solver.SequentialLBMIBSolver` — the two are
    drop-in interchangeable (``api.Simulation`` dispatches on the
    config's ``solver`` field).  The lattice scheme and batch width are
    read from ``fluid``.
    """

    #: Span name of the two-lattice sweep (kernels 5 + 6).
    collide_stream_span = "fused_collide_stream"

    def __post_init__(self) -> None:
        super().__post_init__()
        #: Per-slot immersed structures (``None`` = fluid-only slot); a
        #: solo grid has exactly one slot.
        self.structures = [self.structure]
        self._batched = self.fluid.df.ndim > 4
        self._stencil_cache = _spreading.StencilCache()
        self._build_capture_plan()

    def _slots(self, array: np.ndarray):
        """Per-slot views of a field (the field itself on a solo grid)."""
        return array if self._batched else (array,)

    def _build_capture_plan(self) -> None:
        """Preallocate face buffers for boundaries that read df_post."""
        df = self.fluid.df
        # direction -> [(face key, destination buffer), ...]
        plan: dict[int, list[tuple[tuple, np.ndarray]]] = {}
        # (boundary, per-slot {direction: captured face layer}) in apply order
        self._repairs: list[tuple] = []
        for boundary in self.boundaries:
            key = (Ellipsis,) + face_index(
                boundary.axis, boundary.side, self.fluid.shape
            )
            slot_faces: list[dict[int, np.ndarray]] = [{} for _ in self._slots(df)]
            for direction in boundary.post_dependencies():
                buf = np.empty(df[SLAB[0]][key].shape, dtype=df.dtype)
                for faces, face in zip(slot_faces, self._slots(buf)):
                    faces[int(direction)] = face
                plan.setdefault(int(direction), []).append((key, buf))
            self._repairs.append((boundary, slot_faces))
        self._capture_plan = plan
        self._capture = self._capture_faces if plan else None

    def _capture_faces(self, direction: int, post: np.ndarray) -> None:
        for key, buf in self._capture_plan.get(direction, ()):
            buf[...] = post[key]

    def _repair(self, method: str, df: np.ndarray) -> None:
        """Apply every boundary's ``method`` repair to each slot of ``df``."""
        for boundary, slot_faces in self._repairs:
            apply = getattr(boundary, method)
            for faces, slot_df in zip(slot_faces, self._slots(df)):
                apply(faces, slot_df)

    # ------------------------------------------------------------------
    # IB kernels, per slot
    # ------------------------------------------------------------------
    def _ib_slots(self):
        """``(structure, force, velocity)`` of every slot with a structure."""
        fluid = self.fluid
        return [
            (structure, force, velocity)
            for structure, force, velocity in zip(
                self.structures, self._slots(fluid.force), self._slots(fluid.velocity)
            )
            if structure is not None
        ]

    def _fiber_forces(self) -> None:
        """Kernels 1-3, one span each."""
        structures = [structure for structure, _, _ in self._ib_slots()]
        for name, kernel in FIBER_FORCE_KERNELS:
            self._timed(name, lambda: [kernel(s) for s in structures])

    def _spread_forces(self) -> None:
        for structure, force, _ in self._ib_slots():
            for sheet in structure.sheets:
                _spreading.spread_forces(
                    sheet, self.delta, force, cache=self._stencil_cache
                )

    def _move_fibers(self) -> None:
        for structure, _, velocity in self._ib_slots():
            for sheet in structure.sheets:
                _motion.move_fibers(
                    sheet, self.delta, velocity, dt=self.dt, cache=self._stencil_cache
                )

    # ------------------------------------------------------------------
    # LBM kernels, per lattice scheme
    # ------------------------------------------------------------------
    def _collide_stream(self) -> None:
        fused_collide_stream(self.fluid, capture=self._capture)
        self._repair("apply_fused", self.fluid.df_new)

    def _aa_even(self) -> None:
        aa_even_collide_swap(self.fluid, capture=self._capture)
        self._repair("apply_aa_even", self.fluid.df)

    def _aa_odd(self) -> None:
        aa_odd_collide_stream(self.fluid, capture=self._capture)
        self._repair("apply_fused", self.fluid.df)

    def _lbm_step(self) -> None:
        """Kernels 5-7: the sweep due next, its repairs, then kernel 7."""
        fluid = self.fluid
        momentum = fluid.arena.buffer("momentum", fluid.velocity.shape)
        if not fluid.single_lattice:
            self._timed(self.collide_stream_span, self._collide_stream)
            self._timed(
                "update_fluid_velocity",
                lambda: update_velocity_fields_inplace(fluid, momentum),
            )
        elif fluid.aa_phase == 0:
            self._timed("aa_even_collide_swap", self._aa_even)
            self._timed(
                "update_fluid_velocity",
                lambda: update_velocity_fields_aa(fluid, momentum),
            )
        else:
            self._timed("aa_odd_collide_stream", self._aa_odd)
            self._timed(
                "update_fluid_velocity",
                lambda: update_velocity_fields_inplace(fluid, momentum, df=fluid.df),
            )

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one time step through the memory-aware sweeps."""
        if self.fault_hook is not None:
            self.fault_hook(0, self.time_step)
        coupled = any(structure is not None for structure in self.structures)

        # --- IB related (kernels 1-4, unchanged physics) ---
        if coupled:
            self._fiber_forces()
            self._stencil_cache.begin_step()
            # reset=False semantics: the force field already holds exactly
            # the external body force (re-seeded at the end of every step).
            self._timed("spread_force_from_fibers_to_fluid", self._spread_forces)

        # --- LBM related + kernel 7 ---
        self._lbm_step()

        # --- FSI coupling related ---
        if coupled:
            self._timed("move_fibers", self._move_fibers)
            # The interpolation was the stencil's last consumer; release
            # it so no dead stencil arrays stay retained after the run.
            self._stencil_cache.end_step()
        # Kernel 9 is a pointer swap on two lattices and vanishes on one.
        if not self.fluid.single_lattice:
            self._timed("swap_distributions", self.fluid.swap_distributions)
        self._end_step()
