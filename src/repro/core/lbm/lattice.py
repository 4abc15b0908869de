"""The D3Q19 lattice model (paper Figure 2).

A particle at a lattice node may stay at rest (direction 0) or move along
18 discrete directions: the six axis-aligned unit vectors and the twelve
face-diagonal vectors.  This module defines the velocity set, quadrature
weights, opposite-direction table, and slice views used by the collision,
streaming, and bounce-back kernels.

Direction ordering
------------------
``0``        rest particle
``1..6``     +x, -x, +y, -y, +z, -z               (weight 1/18)
``7..18``    the twelve (±1, ±1, 0)-type diagonals (weight 1/36)
"""

from __future__ import annotations

import numpy as np

from repro.constants import CS2, DIM, Q

__all__ = [
    "Q",
    "DIM",
    "E",
    "E_FLOAT",
    "W",
    "OPPOSITE",
    "SLAB",
    "AXIS_DIRECTIONS",
    "DIAGONAL_DIRECTIONS",
    "REST_DIRECTION",
    "lattice_moments_ok",
    "direction_index",
]

#: Integer particle velocities, shape (19, 3).
E: np.ndarray = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        [1, 1, 0],
        [-1, -1, 0],
        [1, -1, 0],
        [-1, 1, 0],
        [1, 0, 1],
        [-1, 0, -1],
        [1, 0, -1],
        [-1, 0, 1],
        [0, 1, 1],
        [0, -1, -1],
        [0, 1, -1],
        [0, -1, 1],
    ],
    dtype=np.int64,
)

#: Floating point copy of :data:`E` used in arithmetic kernels.
E_FLOAT: np.ndarray = E.astype(np.float64)

#: Quadrature weights, shape (19,).
W: np.ndarray = np.array(
    [1.0 / 3.0]
    + [1.0 / 18.0] * 6
    + [1.0 / 36.0] * 12,
    dtype=np.float64,
)

#: Index of the rest direction.
REST_DIRECTION: int = 0

#: Indices of the six axis-aligned directions.
AXIS_DIRECTIONS: np.ndarray = np.arange(1, 7)

#: Indices of the twelve diagonal directions.
DIAGONAL_DIRECTIONS: np.ndarray = np.arange(7, 19)


def _build_opposite() -> np.ndarray:
    opp = np.empty(Q, dtype=np.int64)
    for i in range(Q):
        target = -E[i]
        matches = np.nonzero((E == target).all(axis=1))[0]
        if matches.size != 1:  # pragma: no cover - construction invariant
            raise AssertionError("D3Q19 velocity set is not symmetric")
        opp[i] = matches[0]
    return opp


#: ``OPPOSITE[i]`` is the direction with velocity ``-E[i]``.
OPPOSITE: np.ndarray = _build_opposite()

#: ``a[SLAB[i]]`` is ``a[..., i, :, :, :]``: direction ``i`` of a lattice
#: or component ``i`` of a vector field, with or without leading batch
#: axes.  Built once — a literal ``a[..., i, :, :, :]`` rebuilds the key
#: tuple on every call of a hot loop.
SLAB: tuple[tuple, ...] = tuple(
    (Ellipsis, i, slice(None), slice(None), slice(None)) for i in range(Q)
)


def direction_index(vector) -> int:
    """Return the direction index whose velocity equals ``vector``.

    Raises :class:`ValueError` if ``vector`` is not one of the 19 lattice
    velocities.
    """
    v = np.asarray(vector, dtype=np.int64)
    if v.shape != (DIM,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    matches = np.nonzero((E == v).all(axis=1))[0]
    if matches.size != 1:
        raise ValueError(f"{v.tolist()} is not a D3Q19 lattice velocity")
    return int(matches[0])


def lattice_moments_ok(rtol: float = 1e-14) -> bool:
    """Check the moment (isotropy) conditions of the D3Q19 quadrature.

    The weights and velocities must satisfy::

        sum_i w_i            = 1
        sum_i w_i e_ia       = 0
        sum_i w_i e_ia e_ib  = cs^2 delta_ab
        sum_i w_i e_ia e_ib e_ic = 0

    These conditions guarantee that the discrete equilibrium reproduces
    the Navier-Stokes equations to second order.
    """
    ok = np.isclose(W.sum(), 1.0, rtol=rtol)
    first = np.einsum("i,ia->a", W, E_FLOAT)
    ok &= np.allclose(first, 0.0, atol=rtol)
    second = np.einsum("i,ia,ib->ab", W, E_FLOAT, E_FLOAT)
    ok &= np.allclose(second, CS2 * np.eye(DIM), rtol=rtol, atol=rtol)
    third = np.einsum("i,ia,ib,ic->abc", W, E_FLOAT, E_FLOAT, E_FLOAT)
    ok &= np.allclose(third, 0.0, atol=rtol)
    return bool(ok)
