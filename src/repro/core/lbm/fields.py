"""Fluid-grid data structure (paper Figure 3).

The 3D fluid grid is a structured ``Nx x Ny x Nz`` mesh.  Each fluid node
carries a 19-component velocity distribution, macroscopic density and
velocity, and the elastic force density spread from the immersed
structure.  Following the paper, two distribution buffers are kept: the
*present* buffer ``df`` and the *new* buffer ``df_new``; kernel 9
(:func:`repro.core.kernels.copy_fluid_velocity_distribution`) copies the
new buffer back to the present buffer at the end of every time step.

The storage is structure-of-arrays with the direction axis leading
(``(19, Nx, Ny, Nz)``), which keeps each direction's field contiguous for
vectorized per-direction kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import Q, RHO0
from repro.core.backend import (
    Precision,
    backend_for,
    resolve_precision,
    state_tolerance,
)
from repro.core.lbm import equilibrium
from repro.errors import ConfigurationError

__all__ = ["FluidGrid"]


@dataclass
class FluidGrid:
    """State of the Eulerian fluid on a structured 3D mesh.

    Parameters
    ----------
    shape:
        Grid dimensions ``(Nx, Ny, Nz)``.
    tau:
        BGK relaxation time; must exceed 0.5 for a positive viscosity.

    Attributes
    ----------
    df:
        Present velocity-distribution buffer, shape ``(19, Nx, Ny, Nz)``.
    df_new:
        New (post-streaming) distribution buffer, same shape.
    density:
        Macroscopic mass density ``rho``, shape ``(Nx, Ny, Nz)``.
    velocity:
        Physical macroscopic velocity ``u`` (includes the half-step
        force correction), shape ``(3, Nx, Ny, Nz)``.  This is the
        velocity the fibers move with (kernel 8).
    velocity_shifted:
        Equilibrium (collision) velocity ``u* = u + (tau - 1/2) F / rho``
        of the velocity-shift forcing scheme; written by kernel 7 and
        consumed by the *next* step's collision (kernel 5).  Keeping the
        force coupling entirely inside kernel 7 is what makes the
        paper's three-barrier cube schedule race-free.
    force:
        Elastic force density spread from the immersed structure,
        shape ``(3, Nx, Ny, Nz)``.  Reset to zero at the start of every
        time step before spreading.
    """

    shape: tuple[int, int, int]
    tau: float = 1.0
    #: Collision operator used by kernel 5: ``"bgk"`` (paper) or ``"trt"``.
    collision_operator: str = "bgk"
    #: TRT magic number Lambda (only used when ``collision_operator="trt"``).
    #: The default 3/16 makes straight halfway bounce-back walls exact
    #: for parabolic (Poiseuille) profiles.
    trt_magic: float = 3.0 / 16.0
    #: ``True`` allocates only ``df`` (``df_new`` is ``None``): the
    #: storage layout of the in-place AA-pattern solver
    #: (:mod:`repro.core.lbm.sweep`), which streams within a single
    #: lattice and never needs the second buffer.
    single_lattice: bool = False
    #: Precision policy: a name from :data:`repro.core.backend.PRECISIONS`
    #: (``"float64"`` | ``"float32"`` | ``"mixed"``) or a
    #: :class:`~repro.core.backend.Precision` instance.  Storage dtype
    #: governs the field arrays below; compute dtype governs the scratch
    #: arena (and thereby every hot-path accumulator).  Normalized to a
    #: ``Precision`` in ``__post_init__``.
    precision: "str | Precision" = "float64"
    #: AA-pattern storage phase: 0 = ``df`` holds the natural
    #: (post-streaming) layout, 1 = ``df`` holds the AA-encoded layout
    #: written by an even step (post-collision values in the *opposite*
    #: direction slot, streaming deferred).  Always 0 for two-lattice
    #: grids.
    aa_phase: int = field(default=0, init=False, repr=False)
    df: np.ndarray = field(init=False, repr=False)
    df_new: np.ndarray | None = field(init=False, repr=False)
    density: np.ndarray = field(init=False, repr=False)
    velocity: np.ndarray = field(init=False, repr=False)
    velocity_shifted: np.ndarray = field(init=False, repr=False)
    force: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shape = tuple(int(n) for n in self.shape)
        if len(shape) != 3 or any(n < 1 for n in shape):
            raise ConfigurationError(
                f"fluid grid shape must be three positive integers, got {self.shape}"
            )
        if not self.tau > 0.5:
            raise ConfigurationError(
                f"BGK relaxation time must be > 0.5, got {self.tau}"
            )
        from repro.core.lbm.collision import COLLISION_OPERATORS

        if self.collision_operator not in COLLISION_OPERATORS:
            raise ConfigurationError(
                f"unknown collision operator {self.collision_operator!r}; "
                f"choose from {COLLISION_OPERATORS}"
            )
        self.shape = shape
        nx, ny, nz = shape
        self.precision = resolve_precision(self.precision)
        backend = backend_for(self.precision)
        self._backend = backend
        self.df = backend.empty((Q, nx, ny, nz))
        self.df_new = None if self.single_lattice else backend.empty((Q, nx, ny, nz))
        self.density = backend.full((nx, ny, nz), RHO0)
        self.velocity = backend.zeros((3, nx, ny, nz))
        self.velocity_shifted = backend.zeros((3, nx, ny, nz))
        self.force = backend.zeros((3, nx, ny, nz))
        self._arena = None
        self.initialize_equilibrium()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def initialize_equilibrium(
        self,
        density: np.ndarray | float | None = None,
        velocity: np.ndarray | None = None,
    ) -> None:
        """Set both distribution buffers to the discrete equilibrium.

        Parameters
        ----------
        density:
            Initial density field (scalar or ``(Nx, Ny, Nz)`` array).
            Defaults to the current ``self.density``.
        velocity:
            Initial velocity field ``(3, Nx, Ny, Nz)``.  Defaults to the
            current ``self.velocity``.
        """
        if density is not None:
            self.density[...] = density
        if velocity is not None:
            self.velocity[...] = np.asarray(velocity)
        self.velocity_shifted[...] = self.velocity
        equilibrium.equilibrium(self.density, self.velocity, out=self.df)
        self.aa_phase = 0
        if self.df_new is not None:
            self.df_new[...] = self.df

    # ------------------------------------------------------------------
    # hot-path helpers
    # ------------------------------------------------------------------
    @property
    def arena(self):
        """Lazily created scratch arena for allocation-free kernels.

        Buffers live as long as the grid; the fused solver's steady
        state performs zero numpy allocations because every temporary
        it needs comes from here.
        """
        if self._arena is None:
            from repro.core.arena import ScratchArena

            # The arena carries the *compute* dtype: under the mixed
            # policy every moment/equilibrium scratch accumulates in
            # float64 even though the lattice is stored in float32.
            self._arena = ScratchArena(self.shape, dtype=self.precision.compute)
        return self._arena

    def swap_distributions(self) -> None:
        """Exchange ``df`` and ``df_new`` (two-lattice ping-pong).

        The fused solver replaces kernel 9's full-buffer copy with this
        pointer swap: after a fused step the freshly streamed state is
        already in ``df_new``, so swapping the references publishes it
        as the present buffer for free.  ``df_new`` then holds the
        *previous* step's distributions (finite, but stale).
        """
        if self.df_new is None:
            raise ConfigurationError(
                "single-lattice grid has no df_new to swap; the in-place "
                "solver streams within df and never calls this"
            )
        self.df, self.df_new = self.df_new, self.df

    # ------------------------------------------------------------------
    # inspection helpers
    # ------------------------------------------------------------------
    @property
    def tau_odd(self) -> float:
        """Relaxation time governing the odd (momentum) moments.

        BGK relaxes every moment with ``tau``; TRT relaxes the odd part
        with ``tau- = Lambda / (tau - 1/2) + 1/2``.  The velocity-shift
        forcing scheme must scale its shift with *this* value so that
        each step injects exactly ``F dt`` of momentum regardless of the
        collision operator.
        """
        if self.collision_operator == "trt":
            return self.trt_magic / (self.tau - 0.5) + 0.5
        return self.tau

    @property
    def num_nodes(self) -> int:
        """Total number of fluid nodes ``Nx * Ny * Nz``."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def nbytes(self) -> int:
        """Total bytes held by the field arrays (both buffers included)."""
        return (
            self.df.nbytes
            + (0 if self.df_new is None else self.df_new.nbytes)
            + self.density.nbytes
            + self.velocity.nbytes
            + self.velocity_shifted.nbytes
            + self.force.nbytes
        )

    def total_mass(self) -> float:
        """Total fluid mass, computed from the present distributions."""
        return float(self.df.sum())

    def total_momentum(self) -> np.ndarray:
        """Total fluid momentum vector from the present distributions."""
        from repro.core.lbm.lattice import E_FLOAT

        return np.einsum("ia,ixyz->a", E_FLOAT, self.df)

    def copy(self) -> "FluidGrid":
        """Deep copy of the whole fluid state."""
        clone = FluidGrid(
            self.shape,
            tau=self.tau,
            collision_operator=self.collision_operator,
            trt_magic=self.trt_magic,
            single_lattice=self.single_lattice,
            precision=self.precision,
        )
        clone.aa_phase = self.aa_phase
        clone.df[...] = self.df
        if self.df_new is not None:
            clone.df_new[...] = self.df_new
        clone.density[...] = self.density
        clone.velocity[...] = self.velocity
        clone.velocity_shifted[...] = self.velocity_shifted
        clone.force[...] = self.force
        return clone

    def state_allclose(
        self,
        other: "FluidGrid",
        rtol: float | None = None,
        atol: float | None = None,
    ) -> bool:
        """True if every field of ``other`` matches this grid within tolerance.

        Defaults resolve per precision policy (float64: ``1e-12/1e-13``,
        the historical values; single-precision storage relaxes to
        ``1e-5/1e-6``) — the loosest policy of the two grids wins, so a
        float32-vs-float64 comparison is judged at float32 resolution.
        """
        if rtol is None or atol is None:
            tols = [state_tolerance(self.precision)]
            if isinstance(other, FluidGrid):
                tols.append(state_tolerance(other.precision))
            default_rtol = max(t[0] for t in tols)
            default_atol = max(t[1] for t in tols)
            rtol = default_rtol if rtol is None else rtol
            atol = default_atol if atol is None else atol
        return (
            self.shape == other.shape
            and np.allclose(self.df, other.df, rtol=rtol, atol=atol)
            and (
                self.df_new is None
                or other.df_new is None
                or np.allclose(self.df_new, other.df_new, rtol=rtol, atol=atol)
            )
            and np.allclose(self.density, other.density, rtol=rtol, atol=atol)
            and np.allclose(self.velocity, other.velocity, rtol=rtol, atol=atol)
            and np.allclose(self.velocity_shifted, other.velocity_shifted, rtol=rtol, atol=atol)
            and np.allclose(self.force, other.force, rtol=rtol, atol=atol)
        )

    def validate_finite(self) -> None:
        """Raise :class:`~repro.errors.StabilityError` if any field has NaN/Inf."""
        from repro.errors import StabilityError

        for name in ("df", "df_new", "density", "velocity", "velocity_shifted", "force"):
            arr = getattr(self, name)
            if arr is None:  # single-lattice grid has no df_new
                continue
            if not np.isfinite(arr).all():
                raise StabilityError(
                    f"fluid field '{name}' contains non-finite values; "
                    "the simulation has become unstable (reduce forcing or "
                    "increase tau)"
                )

    def validate_stable(self, max_velocity: float = 0.5) -> None:
        """Finite check plus the lattice Mach-number limit.

        LBM is only valid well below the lattice speed of sound
        (``|u| << cs = 1/sqrt(3)``); a velocity beyond ``max_velocity``
        means the run has already left the physical regime even if all
        values are still finite.
        """
        from repro.errors import StabilityError

        self.validate_finite()
        u_sq = np.einsum("axyz,axyz->xyz", self.velocity, self.velocity)
        peak = float(np.sqrt(u_sq.max()))
        if peak > max_velocity:
            raise StabilityError(
                f"fluid velocity magnitude {peak:.3g} exceeds the lattice "
                f"Mach limit {max_velocity}; the simulation is unstable "
                "(reduce forcing/stiffness or increase tau)"
            )
