"""Batched fluid state: B same-shaped simulations on one leading axis.

:class:`BatchedFluidGrid` stacks the complete fluid state of ``B``
independent simulations along a leading batch axis — distributions
``(B, 19, Nx, Ny, Nz)``, density ``(B, Nx, Ny, Nz)``, vector fields
``(B, 3, Nx, Ny, Nz)``.  Every batched kernel then runs one numpy call
over all ``B`` slots, amortizing the Python/numpy dispatch overhead
that dominates small-grid steps (the same batched-execution shape GPU
LBM codes use to saturate hardware).

Layout guarantees the batched kernels rely on:

* slot ``b``'s sub-arrays (``df[b]``, ``density[b]``...) are
  C-contiguous and laid out exactly like a solo
  :class:`~repro.core.lbm.fields.FluidGrid`'s fields — a slot is
  bit-for-bit a solo simulation;
* a direction slab ``df[:, i]`` is a single (strided) array covering
  all ``B`` slots, so the per-direction fused sweep stays one numpy
  call per operation;
* elementwise numpy ufuncs, ``np.sum`` over the direction axis and
  stacked ``np.matmul`` are all bit-identical to their per-slot forms,
  so every slot of a batched step reproduces its solo sequential run
  exactly (enforced by the differential oracle and golden baselines).

:meth:`BatchedFluidGrid.view` returns a *live* :class:`FluidGrid`-
compatible view of one slot: ``df``/``df_new`` are properties that
track the batched grid's buffer swap, so fault hooks, invariant
sentinels and ``Simulation.fluid`` always see the current state.
"""

from __future__ import annotations

import numpy as np

from repro.constants import Q, RHO0
from repro.core.backend import backend_for
from repro.core.lbm import equilibrium
from repro.core.lbm.fields import FluidGrid
from repro.errors import ConfigurationError

__all__ = ["BatchedFluidGrid", "BatchSlotView", "adopt_state"]

#: Per-slot array fields copied by :meth:`BatchedFluidGrid.load_slot`.
_STATE_FIELDS = ("df", "df_new", "density", "velocity", "velocity_shifted", "force")


def adopt_state(
    fluid: FluidGrid, tau: float, collision_operator: str
) -> FluidGrid:
    """``fluid``'s state under (possibly different) lattice parameters.

    Returns ``fluid`` itself when the parameters already match;
    otherwise a fresh :class:`FluidGrid` with the requested ``tau`` /
    ``collision_operator`` carrying a copy of every state array.  This
    is how the batch scheduler re-admits a checkpointed state under
    damped retry parameters — the same contract as
    :class:`repro.api.Simulation`'s restore path, where the state comes
    from the checkpoint but the relaxation comes from the (retried)
    config.
    """
    if fluid.tau == tau and fluid.collision_operator == collision_operator:
        return fluid
    adopted = FluidGrid(
        fluid.shape,
        tau=tau,
        collision_operator=collision_operator,
        precision=fluid.precision,
    )
    for name in _STATE_FIELDS:
        getattr(adopted, name)[...] = getattr(fluid, name)
    return adopted


class BatchSlotView(FluidGrid):
    """Live :class:`FluidGrid` view of one slot of a batched grid.

    ``df`` and ``df_new`` are read through the owning
    :class:`BatchedFluidGrid` on every access, so the view stays
    correct across :meth:`BatchedFluidGrid.swap_distributions` (which
    swaps array *references*, not contents).  The macroscopic fields
    are plain slot sub-arrays — writes through the view hit the batch.

    Instances are created by :meth:`BatchedFluidGrid.view`; the
    dataclass ``__init__`` is bypassed (no new storage is allocated).
    """

    # Data descriptors win over instance attributes, so these shadow
    # the dataclass fields of FluidGrid for view instances.
    @property
    def df(self) -> np.ndarray:  # type: ignore[override]
        return self._batch.df[self._slot]

    @property
    def df_new(self) -> np.ndarray:  # type: ignore[override]
        return self._batch.df_new[self._slot]


class BatchedFluidGrid:
    """State of ``batch`` independent fluids on one shared mesh shape.

    Parameters
    ----------
    shape:
        Grid dimensions ``(Nx, Ny, Nz)`` shared by every slot.
    batch:
        Number of simulation slots ``B``.
    tau / collision_operator / trt_magic:
        Lattice relaxation parameters, shared by every slot (the batch
        scheduler only groups simulations with identical values).

    Every slot starts at the quiescent equilibrium; use
    :meth:`load_slot` to install a specific simulation's state.
    """

    #: Batched grids use the two-lattice scheme (``df`` / ``df_new``).
    single_lattice = False

    def __init__(
        self,
        shape: tuple[int, int, int],
        batch: int,
        tau: float = 1.0,
        collision_operator: str = "bgk",
        trt_magic: float = 3.0 / 16.0,
        precision="float64",
    ) -> None:
        # Reuse FluidGrid's validation (shape, tau, operator, precision),
        # then discard its solo storage in favour of the batched arrays.
        probe = FluidGrid(
            shape,
            tau=tau,
            collision_operator=collision_operator,
            trt_magic=trt_magic,
            precision=precision,
        )
        if batch < 1:
            raise ConfigurationError(f"batch size must be positive, got {batch}")
        self.shape = probe.shape
        self.batch = int(batch)
        self.tau = probe.tau
        self.collision_operator = probe.collision_operator
        self.trt_magic = probe.trt_magic
        self.precision = probe.precision
        backend = backend_for(self.precision)
        nx, ny, nz = self.shape
        b = self.batch
        self.df = backend.empty((b, Q, nx, ny, nz))
        self.df_new = backend.empty((b, Q, nx, ny, nz))
        self.density = backend.full((b, nx, ny, nz), RHO0)
        self.velocity = backend.zeros((b, 3, nx, ny, nz))
        self.velocity_shifted = backend.zeros((b, 3, nx, ny, nz))
        self.force = backend.zeros((b, 3, nx, ny, nz))
        self._arena = None
        # All slots start identical: compute slot 0's equilibrium once.
        equilibrium.equilibrium(self.density[0], self.velocity[0], out=self.df[0])
        self.df[1:] = self.df[0]
        self.df_new[...] = self.df

    # ------------------------------------------------------------------
    # batched scratch
    # ------------------------------------------------------------------
    @property
    def arena(self):
        """Lazily created scratch arena for the batched kernels."""
        if self._arena is None:
            from repro.core.arena import ScratchArena

            self._arena = ScratchArena(self.shape, dtype=self.precision.compute)
        return self._arena

    # ------------------------------------------------------------------
    # hot-path helpers
    # ------------------------------------------------------------------
    @property
    def tau_odd(self) -> float:
        """Odd-moment relaxation time (see :attr:`FluidGrid.tau_odd`)."""
        if self.collision_operator == "trt":
            return self.trt_magic / (self.tau - 0.5) + 0.5
        return self.tau

    def swap_distributions(self) -> None:
        """Exchange ``df`` and ``df_new`` for every slot (pointer swap)."""
        self.df, self.df_new = self.df_new, self.df

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.batch:
            raise IndexError(f"slot {slot} out of range for batch {self.batch}")

    def load_slot(self, slot: int, fluid: FluidGrid) -> None:
        """Copy a solo simulation's complete fluid state into ``slot``.

        The fluid must match the batch's shape and lattice parameters —
        the batched collision uses one shared ``tau``/operator, so a
        mismatch would silently change the slot's physics.
        """
        self._check_slot(slot)
        if tuple(fluid.shape) != self.shape:
            raise ConfigurationError(
                f"slot fluid shape {fluid.shape} does not match batch shape {self.shape}"
            )
        if (
            fluid.tau != self.tau
            or fluid.collision_operator != self.collision_operator
        ):
            raise ConfigurationError(
                "slot fluid lattice parameters "
                f"(tau={fluid.tau}, operator={fluid.collision_operator!r}) do not "
                f"match batch (tau={self.tau}, operator={self.collision_operator!r})"
            )
        if fluid.precision.name != self.precision.name:
            raise ConfigurationError(
                f"slot fluid precision {fluid.precision.name!r} does not match "
                f"batch precision {self.precision.name!r}; a silent cast would "
                "change the slot's arithmetic"
            )
        for name in _STATE_FIELDS:
            getattr(self, name)[slot][...] = getattr(fluid, name)

    def reset_slot(self, slot: int) -> None:
        """Return ``slot`` to the quiescent equilibrium.

        Used when a slot is retired with no queued replacement: the
        benign state keeps the batched sweep numerically quiet (no NaNs
        churning through a dead slot) at zero extra branching in the
        kernels.
        """
        self._check_slot(slot)
        self.density[slot] = RHO0
        self.velocity[slot] = 0.0
        self.velocity_shifted[slot] = 0.0
        self.force[slot] = 0.0
        equilibrium.equilibrium(self.density[slot], self.velocity[slot], out=self.df[slot])
        self.df_new[slot][...] = self.df[slot]

    def view(self, slot: int) -> BatchSlotView:
        """Live :class:`FluidGrid`-compatible view of ``slot``."""
        self._check_slot(slot)
        view = object.__new__(BatchSlotView)
        view.shape = self.shape
        view.tau = self.tau
        view.collision_operator = self.collision_operator
        view.trt_magic = self.trt_magic
        view.precision = self.precision
        view._batch = self
        view._slot = slot
        view.density = self.density[slot]
        view.velocity = self.velocity[slot]
        view.velocity_shifted = self.velocity_shifted[slot]
        view.force = self.force[slot]
        view._arena = None
        return view

    def gather_slot(self, slot: int) -> FluidGrid:
        """Deep-copied solo :class:`FluidGrid` of ``slot``'s state."""
        return self.view(slot).copy()

    def slot_finite(self, slot: int) -> bool:
        """Cheap divergence probe: are ``slot``'s macroscopic fields finite?

        Checks density and velocity only — a NaN in the distributions
        reaches the density at the next moment computation, so this
        catches divergence within one step at a fraction of the cost of
        scanning both distribution buffers.
        """
        self._check_slot(slot)
        return bool(
            np.isfinite(self.density[slot]).all()
            and np.isfinite(self.velocity[slot]).all()
        )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Fluid nodes per slot ``Nx * Ny * Nz``."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def nbytes(self) -> int:
        """Total bytes held by the batched field arrays."""
        return sum(getattr(self, name).nbytes for name in _STATE_FIELDS)
