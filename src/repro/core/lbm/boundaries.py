"""Physical boundary conditions for the LBM fluid.

Streaming (:mod:`repro.core.lbm.streaming`) wraps periodically; each
boundary-condition object then *repairs* the distributions on its face
after streaming.  All conditions operate on a face of the box, selected
by ``axis`` (0 = x, 1 = y, 2 = z) and ``side`` (``"low"`` for the 0-index
face, ``"high"`` for the last-index face).

Implemented conditions
----------------------
:class:`PeriodicBoundary`
    No-op marker; the default wrap-around behaviour.
:class:`BounceBackWall`
    Halfway bounce-back no-slip wall; with a nonzero ``wall_velocity`` it
    becomes a moving wall (Ladd momentum correction) usable as a simple
    velocity inlet for tunnel flows (paper Figure 7).
:class:`OutflowBoundary`
    Zero-gradient outflow: incoming populations are copied from the
    adjacent interior layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import DTYPE, RHO0
from repro.core.lbm.lattice import E, OPPOSITE, Q, W
from repro.errors import ConfigurationError

__all__ = [
    "Boundary",
    "PeriodicBoundary",
    "BounceBackWall",
    "OutflowBoundary",
    "face_index",
]

_SIDES = ("low", "high")


def face_index(axis: int, side: str, shape: tuple[int, int, int]) -> tuple:
    """Index tuple selecting the boundary layer of ``axis``/``side``."""
    if axis not in (0, 1, 2):
        raise ConfigurationError(f"axis must be 0, 1 or 2, got {axis}")
    if side not in _SIDES:
        raise ConfigurationError(f"side must be 'low' or 'high', got {side!r}")
    layer = 0 if side == "low" else shape[axis] - 1
    idx: list = [slice(None)] * 3
    idx[axis] = layer
    return tuple(idx)


@dataclass
class Boundary:
    """Base class for face boundary conditions.

    Subclasses implement :meth:`apply`, called once per time step after
    streaming with the post-collision buffer ``df_post`` (source of the
    stream) and the streamed buffer ``df_new`` (to repair in place).
    """

    axis: int
    side: str

    def __post_init__(self) -> None:
        if self.axis not in (0, 1, 2):
            raise ConfigurationError(f"axis must be 0, 1 or 2, got {self.axis}")
        if self.side not in _SIDES:
            raise ConfigurationError(
                f"side must be 'low' or 'high', got {self.side!r}"
            )

    def incoming_directions(self) -> np.ndarray:
        """Directions whose velocity points from this face into the domain."""
        component = E[:, self.axis]
        if self.side == "low":
            return np.nonzero(component > 0)[0]
        return np.nonzero(component < 0)[0]

    def apply(self, df_post: np.ndarray, df_new: np.ndarray) -> None:
        raise NotImplementedError

    # -- fused-sweep protocol ------------------------------------------
    def post_dependencies(self) -> tuple[int, ...]:
        """Directions whose *post-collision* face layer this boundary reads.

        The fused collide-and-stream sweep never materializes the full
        post-collision lattice, so boundaries that read ``df_post`` (like
        bounce-back walls) declare the directions they need here; the
        fused solver captures just those face layers during the sweep and
        hands them to :meth:`apply_fused`.
        """
        return ()

    def apply_fused(
        self, post_faces: dict[int, np.ndarray], df_new: np.ndarray
    ) -> None:
        """Repair ``df_new`` using captured post-collision face layers.

        ``post_faces`` maps each direction from :meth:`post_dependencies`
        to the post-collision values on this boundary's face.  The
        default covers boundaries that never read ``df_post``.
        """
        self.apply(None, df_new)  # type: ignore[arg-type]

    # -- in-place AA-pattern protocol ----------------------------------
    def apply_aa_even(
        self, post_faces: dict[int, np.ndarray], df: np.ndarray
    ) -> None:
        """Repair an *AA-encoded* lattice after an even in-place step.

        After :func:`repro.core.lbm.sweep.aa_even_collide_swap` the
        streaming is deferred: the virtual post-streaming value
        ``f_i(x, t+1)`` lives at storage location
        ``df[opp(i)](x - e_i)`` (periodic wrap).  A repair that the
        two-lattice path writes to ``df_new[i]`` on this face must
        therefore land on the *opposite* face of the axis, tangentially
        shifted by ``-e_i`` — a pure index permutation, so the repaired
        virtual state is bit-identical to the sequential one.

        Boundary types that predate the in-place variant fail loudly
        here instead of silently skipping the repair.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the AA-pattern "
            "even-phase repair; variant='inplace' cannot use it"
        )


@dataclass
class PeriodicBoundary(Boundary):
    """Periodic face; streaming already handled it, so ``apply`` is a no-op."""

    def apply(self, df_post: np.ndarray, df_new: np.ndarray) -> None:  # noqa: D102
        return

    def apply_aa_even(
        self, post_faces: dict[int, np.ndarray], df: np.ndarray
    ) -> None:
        """The deferred wrap of the odd step's pull reads is periodic too."""
        return


@dataclass
class BounceBackWall(Boundary):
    """Halfway bounce-back wall, optionally moving with ``wall_velocity``.

    For every direction ``i`` entering the domain at the wall layer::

        f_i(x_b, t+1) = f_opp(i)^post(x_b, t) + 6 w_i rho0 (e_i . u_w)

    The correction term (Ladd 1994) imparts the wall's tangential
    momentum, which turns the wall into a simple velocity inlet — the
    mechanism our tunnel-flow example uses to drive the flow past the
    flexible sheet.
    """

    wall_velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    wall_density: float = RHO0

    def apply(self, df_post: np.ndarray, df_new: np.ndarray) -> None:  # noqa: D102
        shape = df_post.shape[1:]
        idx = face_index(self.axis, self.side, shape)
        u_w = np.asarray(self.wall_velocity, dtype=DTYPE)
        moving = bool(np.any(u_w != 0.0))
        for i in self.incoming_directions():
            value = df_post[(OPPOSITE[i],) + idx]
            if moving:
                value = value + 6.0 * W[i] * self.wall_density * float(E[i] @ u_w)
            df_new[(i,) + idx] = value

    def post_dependencies(self) -> tuple[int, ...]:  # noqa: D102
        return tuple(int(OPPOSITE[i]) for i in self.incoming_directions())

    def apply_fused(
        self, post_faces: dict[int, np.ndarray], df_new: np.ndarray
    ) -> None:
        """Bounce back from captured face layers, allocation-free.

        Writing the captured layer first and adding the scalar Ladd
        correction in place matches :meth:`apply` bit-for-bit while
        avoiding the temporary it creates for moving walls.
        """
        shape = df_new.shape[1:]
        idx = face_index(self.axis, self.side, shape)
        u_w = np.asarray(self.wall_velocity, dtype=DTYPE)
        moving = bool(np.any(u_w != 0.0))
        for i in self.incoming_directions():
            target = df_new[(i,) + idx]
            target[...] = post_faces[int(OPPOSITE[i])]
            if moving:
                target += 6.0 * W[i] * self.wall_density * float(E[i] @ u_w)

    def apply_aa_even(
        self, post_faces: dict[int, np.ndarray], df: np.ndarray
    ) -> None:
        """Bounce back through the AA encoding (even-phase repair).

        The reflected value for incoming direction ``i`` at boundary
        cell ``x_b`` is the captured post-collision face of ``opp(i)``
        plus the scalar Ladd correction — same arithmetic as
        :meth:`apply_fused`.  It is then written where the virtual
        ``f_i(x_b, t+1)`` is stored: slot ``opp(i)`` on the face layer
        ``x_axis - e_i`` (wrapping to the opposite face of the axis),
        with the face rolled by the tangential components of ``-e_i``.
        Rolls and the layer move are permutations, so the repaired
        virtual state matches the two-lattice repair bit for bit.
        """
        shape = df.shape[1:]
        n = shape[self.axis]
        idx = face_index(self.axis, self.side, shape)
        boundary_layer = 0 if self.side == "low" else n - 1
        face_axes = tuple(a for a in range(3) if a != self.axis)
        u_w = np.asarray(self.wall_velocity, dtype=DTYPE)
        moving = bool(np.any(u_w != 0.0))
        for i in self.incoming_directions():
            e = E[i]
            value = post_faces[int(OPPOSITE[i])].copy()
            if moving:
                value += 6.0 * W[i] * self.wall_density * float(E[i] @ u_w)
            for pos, a in enumerate(face_axes):
                if e[a]:
                    value = np.roll(value, -int(e[a]), axis=pos)
            target = list(idx)
            target[self.axis] = (boundary_layer - int(e[self.axis])) % n
            df[(int(OPPOSITE[i]),) + tuple(target)] = value


@dataclass
class OutflowBoundary(Boundary):
    """Zero-gradient outflow: copy incoming populations from the interior.

    ``f_i(x_b, t+1) = f_i(x_b - n, t+1)`` where ``n`` is the outward
    normal, i.e. the unknown populations are extrapolated (order 0) from
    the neighbouring interior layer.
    """

    def apply(self, df_post: np.ndarray, df_new: np.ndarray) -> None:  # noqa: D102
        shape = df_new.shape[1:]
        if shape[self.axis] < 2:
            raise ConfigurationError(
                "outflow boundary needs at least two layers along its axis"
            )
        boundary_idx = face_index(self.axis, self.side, shape)
        interior: list = list(boundary_idx)
        interior[self.axis] = 1 if self.side == "low" else shape[self.axis] - 2
        interior_idx = tuple(interior)
        for i in self.incoming_directions():
            df_new[(i,) + boundary_idx] = df_new[(i,) + interior_idx]

    def apply_aa_even(
        self, post_faces: dict[int, np.ndarray], df: np.ndarray
    ) -> None:
        """Zero-gradient outflow through the AA encoding.

        Copying the virtual ``f_i`` from the interior layer to the
        boundary layer shifts *both* storage locations by the same
        ``-e_i``, so the tangential rolls cancel and the repair is a
        direct storage layer copy in slot ``opp(i)``: from layer
        ``interior - e_axis`` to layer ``boundary - e_axis`` (wrapped).
        Reading the live lattice (not the captured faces) sees repairs
        already applied by earlier boundaries, exactly like the
        two-lattice path's reads of ``df_new``.
        """
        shape = df.shape[1:]
        n = shape[self.axis]
        if n < 2:
            raise ConfigurationError(
                "outflow boundary needs at least two layers along its axis"
            )
        boundary_layer = 0 if self.side == "low" else n - 1
        interior_layer = 1 if self.side == "low" else n - 2
        template = list(face_index(self.axis, self.side, shape))
        for i in self.incoming_directions():
            s = int(E[i][self.axis])
            target = list(template)
            target[self.axis] = (boundary_layer - s) % n
            source = list(template)
            source[self.axis] = (interior_layer - s) % n
            slot = int(OPPOSITE[i])
            df[(slot,) + tuple(target)] = df[(slot,) + tuple(source)]


def validate_boundaries(boundaries: list[Boundary]) -> None:
    """Reject duplicate face assignments."""
    seen: set[tuple[int, str]] = set()
    for b in boundaries:
        key = (b.axis, b.side)
        if key in seen:
            raise ConfigurationError(
                f"multiple boundary conditions assigned to axis={b.axis} side={b.side!r}"
            )
        seen.add(key)
