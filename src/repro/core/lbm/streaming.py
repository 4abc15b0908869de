"""Streaming step (paper kernel 6, ``stream_fluid_velocity_distribution``).

After collision, the post-collision distribution of every fluid node is
propagated (push-streamed) to its 18 immediate neighbours along the
lattice directions of Figure 2; the rest population stays in place.
Periodic wrap-around is built in; non-periodic physical boundaries are
corrected afterwards by the boundary-condition objects in
:mod:`repro.core.lbm.boundaries`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import Q
from repro.core.lbm.lattice import E

__all__ = [
    "stream",
    "stream_direction",
    "shift_slices",
    "periodic_shift_table",
]

#: Key pair ``(dst, src)`` realizing one contiguous block of a shift:
#: ``(..., x_slice, y_slice, z_slice)``, so one table serves a direction
#: slab with or without leading (batch) axes.
_BlockPair = tuple[tuple, tuple]

#: grid shape -> per-direction tuple of (dst, src) block pairs.  A cyclic
#: shift by ``E[i]`` decomposes into at most 8 contiguous block copies
#: (bulk/wrap per axis); precomputing them once per grid shape removes
#: both the per-call slice arithmetic and the full temporary that
#: ``np.roll`` would allocate on every direction of every step.
_SHIFT_TABLE_CACHE: dict[tuple[int, int, int], tuple[tuple[_BlockPair, ...], ...]] = {}


def _axis_pieces(extent: int, shift: int) -> list[tuple[slice, slice]]:
    """``(dst, src)`` slice pairs covering a cyclic shift along one axis."""
    s = shift % extent
    if s == 0:
        return [(slice(0, extent), slice(0, extent))]
    return [
        (slice(s, extent), slice(0, extent - s)),  # bulk
        (slice(0, s), slice(extent - s, extent)),  # wrap-around
    ]


def periodic_shift_table(
    grid_shape: tuple[int, int, int],
) -> tuple[tuple[_BlockPair, ...], ...]:
    """Per-direction block-copy plans for a periodic push-stream.

    Entry ``i`` is a tuple of ``(dst, src)`` key pairs such that
    ``out[dst] = field[src]`` over all pairs realizes the cyclic shift
    of ``field`` by ``E[i]``.  Keys are ``(..., sx, sy, sz)`` so they
    index the last three axes of a slab with any leading axes.  Tables
    are cached per grid shape for the lifetime of the process (they are
    tiny and immutable).
    """
    key = tuple(int(n) for n in grid_shape)
    table = _SHIFT_TABLE_CACHE.get(key)
    if table is None:
        directions = []
        for i in range(Q):
            pieces = [_axis_pieces(key[a], int(E[i, a])) for a in range(3)]
            pairs = tuple(
                ((Ellipsis, px[0], py[0], pz[0]), (Ellipsis, px[1], py[1], pz[1]))
                for px in pieces[0]
                for py in pieces[1]
                for pz in pieces[2]
            )
            directions.append(pairs)
        table = tuple(directions)
        _SHIFT_TABLE_CACHE[key] = table
    return table


def stream_direction(
    field: np.ndarray, direction: int, out: np.ndarray, table=None
) -> None:
    """Push-stream one direction's field by its lattice velocity.

    ``out[x + e] = field[x]`` with periodic wrap, i.e. a cyclic shift of
    ``field`` by ``E[direction]``, realized as direct block copies into
    ``out`` (no intermediate array).  ``field`` may carry leading batch
    axes; hot loops pass the grid's ``table`` to skip the cache lookup.
    """
    if table is None:
        table = periodic_shift_table(field.shape[-3:])
    for dst, src in table[direction]:
        out[dst] = field[src]


def stream(df_post: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stream all 19 directions from ``df_post`` into ``out``.

    Parameters
    ----------
    df_post:
        Post-collision distributions, shape ``(19, Nx, Ny, Nz)``.
    out:
        Destination buffer of the same shape (the grid's ``df_new``).
    """
    if df_post.shape != out.shape:
        raise ValueError(
            f"source shape {df_post.shape} != destination shape {out.shape}"
        )
    table = periodic_shift_table(df_post.shape[1:])
    for i in range(Q):
        stream_direction(df_post[i], i, out[i], table)
    return out


def shift_slices(extent: int, shift: int) -> tuple[slice, slice]:
    """Source/destination slice pair realizing a non-periodic shift.

    Returns ``(src, dst)`` such that ``dst_array[dst] = src_array[src]``
    moves data by ``shift`` along an axis of length ``extent`` without
    wrap-around.  Used by the cube-based solver to split a periodic
    stream into an interior part and cross-cube face transfers.
    """
    if abs(shift) >= extent:
        raise ValueError(f"|shift| must be < extent ({shift} vs {extent})")
    if shift > 0:
        return slice(0, extent - shift), slice(shift, extent)
    if shift < 0:
        return slice(-shift, extent), slice(0, extent + shift)
    return slice(0, extent), slice(0, extent)
