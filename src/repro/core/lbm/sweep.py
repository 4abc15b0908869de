"""Lattice sweeps of the memory-aware step: one per lattice scheme.

The sequential solver walks the full ``(19, Nx, Ny, Nz)`` lattice three
times per step for the LBM half: collision (kernel 5), streaming
(kernel 6) and the buffer copy (kernel 9).  On a memory-bound manycore
node that triples the distribution traffic.  The sweeps here perform
moments, equilibrium, collision and streaming in a *single* traversal,
direction pair by direction pair, for two storage schemes:

Two-lattice (:func:`fused_collide_stream`)
    Collide ``df[i]`` in place and push-stream the post-collision slab
    into ``df_new[i]`` via precomputed block copies; kernel 9 becomes a
    pointer swap.  The whole-lattice post-collision array and the
    ``feq`` lattice of the unfused path never exist.

Single lattice, AA pattern (:func:`aa_even_collide_swap` /
:func:`aa_odd_collide_stream`; Bailey et al. 2009, Fu & Song
arXiv:2208.05429)
    Two phase kernels that each advance one time step on *one* lattice,
    tracked by the grid's ``aa_phase`` flag.  The even step collides in
    place and writes each post-collision slab into the *opposite*
    direction's slot of the same cell (a register swap, streaming
    deferred), leaving the storage AA-encoded::

        df[opp(i)](x) = f_i^post(x)

    so the natural value of the step is ``f_i(x, t+1) = df[opp(i)](x -
    e_i)``.  The odd step gathers each pair's virtual slabs with pull
    reads, collides them in scratch and push-streams them to ``x +
    e_i`` — which lands the lattice back in the natural layout.  Reads
    and writes of a pair ``(i, opp(i))`` touch only that pair's two
    slots, so no pair overwrites a value a later pair still needs.

**Batch polymorphism.**  Every function indexes the direction (and
velocity-component) axis as ``a[..., i, :, :, :]`` through the
precomputed keys :data:`~repro.core.lbm.lattice.SLAB`, and scratch
buffers take the shape of ``grid.density``.  A solo ``(19, Nx, Ny,
Nz)`` grid and a batched ``(B, 19, Nx, Ny, Nz)`` grid therefore run
the same code: elementwise ufuncs are bit-identical regardless of a
leading axis, ``np.sum`` over the direction axis accumulates slab by
slab in order per slot, and the stacked momentum GEMM runs one GEMM per
slot.  A batched slot is a solo run by construction.

All sweeps share one moments helper, one ``e_i . u`` helper, one
equilibrium helper and one relaxation per operator.  The relaxations
take explicit ``pre`` / ``out`` slabs, so the two-lattice sweep relaxes
in place while the AA sweeps write into the swap slot or the gather
scratch — with ``out is pre``, ``np.multiply(pre, keep, out=out)`` is
the same operation as ``out *= keep``.

Equilibrium per direction (same operation order as
:func:`repro.core.lbm.equilibrium.equilibrium`)::

    f_i^eq = w_i * rho * (4.5 (e_i.u)^2 + 3 (e_i.u) - 1.5 |u|^2 + 1)

BGK (same order as :func:`repro.core.lbm.collision.bgk_collide`)::

    f_i^post = (1 - omega) f_i + omega f_i^eq

TRT processes the pair ``(i, opp(i))`` together, exploiting
``e_opp(i) = -e_i`` so the squared term and the ``|u|^2`` term are
shared between the pair.  Callers that must see post-collision values a
sweep would otherwise discard (bounce-back walls) register a
``capture`` hook invoked with each finalized post-collision slab.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import Q
from repro.core.coupling import split_velocities
from repro.core.lbm.fields import FluidGrid
from repro.core.lbm.lattice import E, OPPOSITE, SLAB, W
from repro.core.lbm.streaming import periodic_shift_table, stream_direction

__all__ = [
    "fused_collide_stream",
    "aa_even_collide_swap",
    "aa_odd_collide_stream",
    "aa_gather_direction",
    "aa_decode",
    "decoded_fluid",
    "update_velocity_fields_aa",
]

#: Callback receiving each finalized post-collision slab ``(i, df_i)``.
CaptureHook = Callable[[int, np.ndarray], None]

#: Nonzero lattice-velocity components per direction: ``(axis, sign)``.
_COMPONENTS: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple((a, int(E[i, a])) for a in range(3) if E[i, a] != 0) for i in range(Q)
)

#: Direction pairs ``(i, opp(i))`` with ``i < opp(i)`` (rest excluded).
_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, int(OPPOSITE[i])) for i in range(Q) if 0 < i < OPPOSITE[i]
)


def _scratch(grid, name: str) -> np.ndarray:
    """Arena scratch shaped like one scalar field (per slot if batched)."""
    return grid.arena.buffer(name, grid.density.shape)


def _direction_velocity(u: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
    """``e_i . u`` without multiplications (components are -1/0/+1)."""
    (a0, s0), *rest = _COMPONENTS[i]
    if s0 > 0:
        np.copyto(out, u[SLAB[a0]])
    else:
        np.negative(u[SLAB[a0]], out=out)
    for a, s in rest:
        if s > 0:
            out += u[SLAB[a]]
        else:
            out -= u[SLAB[a]]
    return out


def _feq_direction(
    rho: np.ndarray,
    eu: np.ndarray | None,
    usq15: np.ndarray,
    w: float,
    feq: np.ndarray,
    tmp: np.ndarray,
    sign: float = 1.0,
) -> np.ndarray:
    """Equilibrium slab for one direction into ``feq`` (arena scratch).

    ``eu=None`` selects the rest direction (``e_0 = 0``).  ``sign=-1``
    evaluates the *opposite* direction from the same ``eu`` buffer
    (``e_opp.u = -e_i.u``; the squared term is shared), which is how the
    TRT pair relaxation avoids recomputing the dot product.
    """
    if eu is None:
        np.subtract(1.0, usq15, out=feq)
    else:
        np.multiply(eu, eu, out=feq)
        feq *= 4.5
        np.multiply(eu, 3.0 * sign, out=tmp)
        feq += tmp
        feq -= usq15
        feq += 1.0
    feq *= rho
    feq *= w
    return feq


def _moments(grid, table=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density and the ``1.5 |u*|^2`` term into arena scratch buffers.

    The density is accumulated at the arena's (compute) dtype — under
    the mixed policy float32 distributions sum in float64.  With a block
    ``table`` the lattice is AA-encoded: the gathered natural slabs are
    accumulated in ascending direction order, which is exactly how
    ``np.sum`` reduces the outer direction axis.
    """
    df = grid.df
    rho = _scratch(grid, "rho")
    if table is None:
        np.sum(df, axis=-4, out=rho, dtype=rho.dtype)
    else:
        g = _scratch(grid, "gather")
        np.copyto(rho, df[SLAB[0]])  # opp(0) = 0 and e_0 = 0: no gather
        for k in range(1, Q):
            rho += aa_gather_direction(df, k, g, table)
    u = grid.velocity_shifted
    usq15 = _scratch(grid, "usq15")
    tmp = _scratch(grid, "tmp")
    np.multiply(u[SLAB[0]], u[SLAB[0]], out=usq15)
    np.multiply(u[SLAB[1]], u[SLAB[1]], out=tmp)
    usq15 += tmp
    np.multiply(u[SLAB[2]], u[SLAB[2]], out=tmp)
    usq15 += tmp
    usq15 *= 1.5
    return rho, usq15, tmp


class _Relaxation:
    """One sweep's collision operator over the rest slab and each pair."""

    def __init__(self, grid, table=None) -> None:
        self.rho, self.usq15, self.tmp = _moments(grid, table)
        self.u = grid.velocity_shifted
        self.eu = _scratch(grid, "eu")
        self.feq = _scratch(grid, "feq")
        tau = grid.tau
        self.trt = grid.collision_operator == "trt"
        if self.trt:
            self.feq_j = _scratch(grid, "feq_j")
            self.even = _scratch(grid, "even")
            self.odd = _scratch(grid, "odd")
            # Even and odd relaxation rates (omega+ and omega-).
            self.omega_even = 1.0 / tau
            self.omega_odd = 1.0 / grid.tau_odd
        else:
            self.omega = 1.0 / tau
            self.keep = 1.0 - self.omega

    def _bgk(self, i: int, pre: np.ndarray, out: np.ndarray) -> None:
        feq = self.feq
        if i == 0:
            _feq_direction(self.rho, None, self.usq15, float(W[0]), feq, self.tmp)
        else:
            _direction_velocity(self.u, i, self.eu)
            _feq_direction(self.rho, self.eu, self.usq15, float(W[i]), feq, self.tmp)
        np.multiply(pre, self.keep, out=out)
        feq *= self.omega
        out += feq

    def rest(self, post: np.ndarray) -> None:
        """Relax the rest slab in place (TRT: its odd half vanishes)."""
        if not self.trt:
            self._bgk(0, post, post)
            return
        feq = self.feq
        _feq_direction(self.rho, None, self.usq15, float(W[0]), feq, self.tmp)
        np.subtract(post, feq, out=feq)
        feq *= self.omega_even
        post -= feq

    def pair(
        self,
        i: int,
        j: int,
        pre_i: np.ndarray,
        pre_j: np.ndarray,
        out_i: np.ndarray,
        out_j: np.ndarray,
    ) -> None:
        """Relax directions ``i`` and ``j = opp(i)`` into ``out_i``/``out_j``.

        ``pre_i`` is last read before ``out_j`` is first written, so
        ``out_j`` may alias ``pre_i`` (the AA even step's register swap).
        """
        if not self.trt:
            self._bgk(i, pre_i, out_i)
            self._bgk(j, pre_j, out_j)
            return
        rho, usq15, tmp, eu = self.rho, self.usq15, self.tmp, self.eu
        feq_i, feq_j, even, odd = self.feq, self.feq_j, self.even, self.odd
        _direction_velocity(self.u, i, eu)
        _feq_direction(rho, eu, usq15, float(W[i]), feq_i, tmp)
        _feq_direction(rho, eu, usq15, float(W[j]), feq_j, tmp, sign=-1.0)
        # Reuse the feq buffers for the non-equilibrium parts.
        np.subtract(pre_i, feq_i, out=feq_i)
        np.subtract(pre_j, feq_j, out=feq_j)
        np.add(feq_i, feq_j, out=even)
        even *= 0.5
        even *= self.omega_even
        np.subtract(feq_i, feq_j, out=odd)
        odd *= 0.5
        odd *= self.omega_odd
        np.subtract(pre_i, even, out=out_i)
        out_i -= odd
        np.subtract(pre_j, even, out=out_j)
        out_j += odd


def _stream(
    i: int, post: np.ndarray, df: np.ndarray, table, capture: CaptureHook | None
) -> None:
    """Hand the finalized slab to the capture hook, then push-stream it."""
    if capture is not None:
        capture(i, post)
    stream_direction(post, i, df[SLAB[i]], table)


# ----------------------------------------------------------------------
# two-lattice scheme
# ----------------------------------------------------------------------
def fused_collide_stream(grid, capture: CaptureHook | None = None) -> None:
    """Collide ``grid.df`` in place and stream into ``grid.df_new``.

    Equivalent to kernel 5 followed by kernel 6 (periodic wrap), in one
    traversal and — after warmup — with zero numpy allocations.  ``df``
    is left holding the post-collision state (as after the unfused
    kernel 5) and ``df_new`` the streamed one.  Physical boundaries
    still need repairing afterwards; those that read post-collision
    values declare them via
    :meth:`~repro.core.lbm.boundaries.Boundary.post_dependencies` and
    receive the face layers ``capture(i, df_i)`` saw.
    """
    table = periodic_shift_table(grid.shape)
    df, df_new = grid.df, grid.df_new
    relax = _Relaxation(grid)
    post = df[SLAB[0]]
    relax.rest(post)
    _stream(0, post, df_new, table, capture)
    for i, j in _PAIRS:
        post_i, post_j = df[SLAB[i]], df[SLAB[j]]
        relax.pair(i, j, post_i, post_j, post_i, post_j)
        _stream(i, post_i, df_new, table, capture)
        _stream(j, post_j, df_new, table, capture)


# ----------------------------------------------------------------------
# single-lattice AA scheme
# ----------------------------------------------------------------------
def aa_gather_direction(
    df: np.ndarray, i: int, out: np.ndarray, table=None
) -> np.ndarray:
    """Natural (virtual) slab ``f_i`` from an AA-encoded lattice.

    ``out(x) = df[opp(i)](x - e_i)`` with periodic wrap — the pull read
    that undoes the even step's deferred streaming for one direction.
    The hot kernels pass the grid's ``periodic_shift_table`` explicitly
    so the per-direction loop skips the cache lookup.
    """
    if table is None:
        table = periodic_shift_table(df.shape[-3:])
    src_slab = df[SLAB[OPPOSITE[i]]]
    for dst, src in table[i]:
        out[dst] = src_slab[src]
    return out


def aa_decode(df_encoded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Full natural lattice from an AA-encoded one (allocates unless ``out``)."""
    if out is None:
        out = np.empty_like(df_encoded)
    for i in range(Q):
        aa_gather_direction(df_encoded, i, out[SLAB[i]])
    return out


def decoded_fluid(fluid: FluidGrid) -> FluidGrid:
    """The grid's state in the natural layout, decoding if mid AA-cycle.

    At phase 0 the single lattice *is* natural and the live grid is
    returned; at phase 1 a regular two-lattice :class:`FluidGrid` copy
    is built (``df_new`` seeded with the decoded distributions, as after
    a sequential step) — the same gather-a-copy contract the cube and
    distributed variants use for ``Simulation.fluid``.
    """
    if fluid.aa_phase == 0:
        return fluid
    clone = FluidGrid(
        fluid.shape,
        tau=fluid.tau,
        collision_operator=fluid.collision_operator,
        trt_magic=fluid.trt_magic,
        precision=fluid.precision,
    )
    aa_decode(fluid.df, out=clone.df)
    clone.df_new[...] = clone.df
    clone.density[...] = fluid.density
    clone.velocity[...] = fluid.velocity
    clone.velocity_shifted[...] = fluid.velocity_shifted
    clone.force[...] = fluid.force
    return clone


def _require_phase(fluid: FluidGrid, phase: int, kernel: str) -> None:
    if fluid.aa_phase != phase:
        raise ValueError(
            f"{kernel} requires aa_phase={phase} but the grid is at "
            f"aa_phase={fluid.aa_phase}; even and odd kernels must alternate"
        )


def aa_even_collide_swap(
    fluid: FluidGrid, capture: CaptureHook | None = None
) -> None:
    """Even AA step: collide the natural lattice in place, swap slots.

    Advances one full time step with zero neighbour traffic; the
    lattice is left AA-encoded (``aa_phase`` 1) with streaming
    deferred to the next odd step's pull reads.  ``capture(i, post_i)``
    receives each finalized post-collision slab (stored in slot
    ``opp(i)``) before any boundary repair runs.
    """
    _require_phase(fluid, 0, "aa_even_collide_swap")
    df = fluid.df
    relax = _Relaxation(fluid)
    swap = _scratch(fluid, "swap")
    # The rest direction is its own opposite: collide in place, no swap.
    post = df[SLAB[0]]
    relax.rest(post)
    if capture is not None:
        capture(0, post)
    for i, j in _PAIRS:
        # post_i lands in slot j through the swap buffer, post_j in slot i.
        slot_i, slot_j = df[SLAB[i]], df[SLAB[j]]
        relax.pair(i, j, slot_i, slot_j, swap, slot_i)
        slot_j[...] = swap
        if capture is not None:
            capture(i, slot_j)
            capture(j, slot_i)
    fluid.aa_phase = 1


def aa_odd_collide_stream(
    fluid: FluidGrid, capture: CaptureHook | None = None
) -> None:
    """Odd AA step: pull-read the encoded lattice, collide, push-stream.

    Gathers each pair's virtual pre-collision slabs into scratch (the
    pair's own two slots are the only storage it reads *and* the only
    storage it writes, so the in-place push is hazard-free), collides
    them and streams the result — restoring the natural layout
    (``aa_phase`` 0).
    """
    _require_phase(fluid, 1, "aa_odd_collide_stream")
    table = periodic_shift_table(fluid.shape)
    df = fluid.df
    relax = _Relaxation(fluid, table)
    g_i = _scratch(fluid, "gather")
    g_j = _scratch(fluid, "gather_j")
    post = df[SLAB[0]]
    relax.rest(post)
    if capture is not None:
        capture(0, post)
    for i, j in _PAIRS:
        aa_gather_direction(df, i, g_i, table)  # reads slot j only
        aa_gather_direction(df, j, g_j, table)  # reads slot i only
        relax.pair(i, j, g_i, g_j, g_i, g_j)
        _stream(i, g_i, df, table, capture)
        _stream(j, g_j, df, table, capture)
    fluid.aa_phase = 0


def update_velocity_fields_aa(fluid: FluidGrid, momentum: np.ndarray) -> None:
    """Allocation-free kernel 7 reading an AA-encoded lattice.

    Numerically identical to
    :func:`repro.core.coupling.update_velocity_fields_inplace` on the
    decoded lattice: the density accumulates gathered slabs in
    ascending direction order (``np.sum``'s outer-axis order) and the
    momentum adds/subtracts each slab per nonzero lattice-velocity
    component (the reduction order of the momentum GEMM).
    """
    _require_phase(fluid, 1, "update_velocity_fields_aa")
    df = fluid.df
    rho = fluid.density
    g = _scratch(fluid, "gather")
    table = periodic_shift_table(fluid.shape)
    np.copyto(rho, df[SLAB[0]])
    momentum[...] = 0.0
    for k in range(1, Q):
        aa_gather_direction(df, k, g, table)
        rho += g
        for a, s in _COMPONENTS[k]:
            if s > 0:
                momentum[SLAB[a]] += g
            else:
                momentum[SLAB[a]] -= g
    split_velocities(fluid, momentum)
