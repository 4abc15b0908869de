"""Distributed-memory LBM-IB solver over the simulated communicator.

Realizes the paper's future-work extension "from shared memory manycore
systems to extreme-scale distributed memory manycore systems":

* the fluid grid is block-decomposed along x — each rank owns a
  contiguous slab and *never* touches another rank's arrays.  The slab
  is stored in a rank-local layout: a global-layout
  :class:`~repro.core.lbm.fields.FluidGrid`, or, with ``cube_size``, a
  :class:`~repro.parallel.cubes.CubeGrid` driven through
  :class:`~repro.parallel.cube_solver.CubeLBMIBSolver`'s per-cube
  operations (the paper's exact sentence: distributed memory for the
  *cube-based* implementation);
* every rank streams its slab periodically, which deposits wrong values
  exactly on the +x-moving populations of its first plane and the
  -x-moving populations of its last plane; those are then overwritten
  by the halo planes its neighbours send (one message each way per
  step, per rank);
* the immersed structure is **replicated**: every rank holds the fiber
  state and computes the (cheap, paper Table I: <2.2%) fiber forces
  redundantly, spreads only into its own slab, interpolates partial
  fiber velocities from its slab, and an allreduce sums the partials —
  the delta support's partition of unity makes the sum exact up to
  summation order;
* physical boundaries are applied by the ranks owning the faces.

Without a structure both layouts are bit-identical to the sequential
solver; with one they agree with it to summation-order rounding and
bit for bit with each other at the same rank split (enforced by tests).
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable

import numpy as np

from repro.constants import DT, DTYPE
from repro.core import kernels
from repro.core.ib import forces as _forces
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.ib.spreading import flatten_stencil, scatter_flat
from repro.core.lbm.boundaries import Boundary, validate_boundaries
from repro.core.lbm.fields import FluidGrid
from repro.core.lbm.lattice import E, Q
from repro.distributed.comm import RankComm, SimulatedComm
from repro.errors import ConfigurationError, PartitionError
from repro.parallel.cube_solver import CubeLBMIBSolver
from repro.parallel.cubes import CubeGrid
from repro.parallel.executor import run_spmd
from repro.parallel.partition import Slab, static_slabs

__all__ = ["DistributedLBMIBSolver"]

#: Directions leaving a slab in +x / -x (five each in D3Q19).
_PLUS_X = np.array([i for i in range(Q) if E[i, 0] == 1])
_MINUS_X = np.array([i for i in range(Q) if E[i, 0] == -1])

_TAG_RIGHT = 0
_TAG_LEFT = 1

#: FluidGrid fields copied between the global grid and the rank slabs.
_FIELDS = ("df", "df_new", "density", "velocity", "velocity_shifted", "force")


class _SlabLayout:
    """A rank's slab stored as one global-layout :class:`FluidGrid`."""

    def __init__(
        self, local: FluidGrid, boundaries: list[Boundary], external_force
    ) -> None:
        self.grid = local
        self.boundaries = boundaries
        self.external_force = external_force
        #: ``(3, nodes)`` views addressed by :meth:`locate`.
        self.force = local.force.reshape(3, -1)
        self.velocity = local.velocity.reshape(3, -1)

    def locate(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Storage index of rank-local raveled node indices (identity)."""
        return (flat,)

    def gather_plane(self, x: int, directions: np.ndarray) -> np.ndarray:
        return self.grid.df[directions, x]

    def scatter_plane(
        self, x: int, directions: np.ndarray, values: np.ndarray
    ) -> None:
        self.grid.df_new[directions, x] = values

    def collide(self) -> None:
        kernels.compute_fluid_collision(self.grid)

    def stream(self) -> None:
        kernels.stream_fluid_velocity_distribution(self.grid)

    def update(self) -> None:
        for b in self.boundaries:
            b.apply(self.grid.df, self.grid.df_new)
        kernels.update_fluid_velocity(self.grid)

    def copy(self) -> None:
        kernels.copy_fluid_velocity_distribution(self.grid)
        if self.external_force is None:
            self.grid.force[...] = 0.0
        else:
            self.grid.force[...] = np.asarray(self.external_force, dtype=DTYPE)[
                :, None, None, None
            ]

    def to_fluid_grid(self) -> FluidGrid:
        return self.grid


class _CubeLayout:
    """A rank's slab stored as a :class:`CubeGrid`, run cube by cube."""

    def __init__(
        self,
        local: FluidGrid,
        cube_size: int,
        boundaries: list[Boundary],
        external_force,
        delta: DeltaKernel,
        dt: float,
    ) -> None:
        cubes = CubeGrid.from_fluid_grid(local, cube_size)
        self.cubes = cubes
        self.engine = CubeLBMIBSolver(
            cubes,
            None,  # fibers are handled by the distributed solver (replicated)
            num_threads=1,
            boundaries=boundaries,
            delta=delta,
            dt=dt,
            use_locks=False,  # single thread per rank
            trace=False,
            external_force=external_force,
        )
        k3 = cube_size**3
        n = cubes.num_cubes
        #: ``(3, cubes, k^3)`` views addressed by :meth:`locate`.
        self.force = cubes.force.reshape(n, 3, k3).transpose(1, 0, 2)
        self.velocity = cubes.velocity.reshape(n, 3, k3).transpose(1, 0, 2)
        self._df = cubes.df.reshape(n, Q, k3)
        self._df_new = cubes.df_new.reshape(n, Q, k3)

    def locate(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Storage index ``(cube, within-cube)`` of rank-local node indices."""
        return self.cubes.locate_flat(flat)

    def _plane(self, x: int, directions: np.ndarray):
        _, ny, nz = self.cubes.shape
        cube, local = self.locate(x * ny * nz + np.arange(ny * nz))
        return cube[None, :], directions[:, None], local[None, :]

    def gather_plane(self, x: int, directions: np.ndarray) -> np.ndarray:
        _, ny, nz = self.cubes.shape
        return self._df[self._plane(x, directions)].reshape(-1, ny, nz)

    def scatter_plane(
        self, x: int, directions: np.ndarray, values: np.ndarray
    ) -> None:
        self._df_new[self._plane(x, directions)] = values.reshape(
            len(directions), -1
        )

    def _each_cube(self, op: Callable[[int], None]) -> None:
        for c in range(self.cubes.num_cubes):
            op(c)

    def collide(self) -> None:
        self._each_cube(self.engine._collide_cube)

    def stream(self) -> None:
        self._each_cube(self.engine._stream_cube)

    def update(self) -> None:
        self._each_cube(self.engine._update_cube)

    def copy(self) -> None:
        self._each_cube(self.engine._copy_cube)

    def to_fluid_grid(self) -> FluidGrid:
        return self.cubes.to_fluid_grid()


class DistributedLBMIBSolver:
    """Rank-decomposed LBM-IB with explicit message passing.

    Parameters
    ----------
    fluid:
        Global initial fluid state; scattered into rank slabs at
        construction (the global grid is not referenced afterwards).
    structure:
        Immersed structure (replicated per rank) or ``None``.
    num_ranks:
        Ranks in the simulated communicator; each needs at least one
        x-plane (one row of cubes with ``cube_size``).
    cube_size:
        ``None`` stores every slab in the global layout; an edge ``k``
        stores it as a cube grid instead, and then the y/z extents must
        divide by ``k`` and the x extent must split into ``num_ranks``
        slabs of whole cubes.
    boundaries / delta / dt / external_force:
        As in the shared-memory solvers.
    """

    def __init__(
        self,
        fluid: FluidGrid,
        structure: ImmersedStructure | None,
        num_ranks: int,
        cube_size: int | None = None,
        delta: DeltaKernel | None = None,
        boundaries: list[Boundary] | None = None,
        dt: float = DT,
        external_force: tuple[float, float, float] | None = None,
    ) -> None:
        nx, ny, nz = fluid.shape
        if num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be positive, got {num_ranks}")
        if cube_size is None:
            if num_ranks > nx:
                raise ConfigurationError(
                    f"{num_ranks} ranks need at least {num_ranks} x-planes, "
                    f"grid has {nx}"
                )
            unit = 1
        else:
            if ny % cube_size or nz % cube_size:
                raise PartitionError(
                    f"grid {fluid.shape} y/z extents not divisible by cube size "
                    f"{cube_size}"
                )
            if nx % cube_size or nx // cube_size < num_ranks:
                raise PartitionError(
                    f"cannot split {nx} x-planes into {num_ranks} rank slabs of "
                    f"whole {cube_size}-cubes"
                )
            unit = cube_size
        self.global_shape = fluid.shape
        self.num_ranks = num_ranks
        self.cube_size = cube_size
        self.delta = delta if delta is not None else default_delta()
        self.boundaries = list(boundaries or [])
        validate_boundaries(self.boundaries)
        self.dt = dt
        self.external_force = external_force
        self._grid_params = dict(
            tau=fluid.tau,
            collision_operator=fluid.collision_operator,
            trt_magic=fluid.trt_magic,
        )
        self.time_step = 0
        self.comm = SimulatedComm(num_ranks)
        # Optional observe.Tracer; one span per phase per rank per step
        # (tid = rank).  None keeps the rank loop overhead-free.
        self.tracer = None

        #: x-plane range of every rank (whole rows of cubes with a cube size).
        self.slabs = [
            Slab(s.start * unit, s.stop * unit)
            for s in static_slabs(nx // unit, num_ranks)
        ]
        self._layouts: list[_SlabLayout | _CubeLayout] = []
        for rank, slab in enumerate(self.slabs):
            local = FluidGrid((slab.size, ny, nz), **self._grid_params)
            planes = (..., slice(slab.start, slab.stop), slice(None), slice(None))
            for name in _FIELDS:
                getattr(local, name)[...] = getattr(fluid, name)[planes]
            if external_force is not None:
                local.force[...] = np.asarray(external_force, dtype=DTYPE)[
                    :, None, None, None
                ]
            # x faces belong to the first and last rank only
            owned = [
                b
                for b in self.boundaries
                if b.axis != 0
                or (b.side == "low" and rank == 0)
                or (b.side == "high" and rank == num_ranks - 1)
            ]
            if cube_size is None:
                layout = _SlabLayout(local, owned, external_force)
            else:
                layout = _CubeLayout(
                    local, cube_size, owned, external_force, self.delta, dt
                )
            self._layouts.append(layout)
        self._structures: list[ImmersedStructure | None] = [
            structure.copy() if structure is not None else None
            for _ in range(num_ranks)
        ]

    # ------------------------------------------------------------------
    # per-rank kernels
    # ------------------------------------------------------------------
    def _slab_stencil(self, rank: int, positions: np.ndarray):
        """Flattened stencil in rank-local node indices, with the slab's share.

        Returns ``(local_flat, weights, mine)``, each ``(N, support^3)``;
        ``local_flat`` is only meaningful where ``mine`` is set.
        """
        indices, weights = self.delta.stencil(
            positions, grid_shape=self.global_shape
        )
        flat_idx, flat_w = flatten_stencil(indices, weights, self.global_shape)
        plane = self.global_shape[1] * self.global_shape[2]
        slab = self.slabs[rank]
        local_flat = flat_idx - slab.start * plane
        mine = (local_flat >= 0) & (local_flat < slab.size * plane)
        return local_flat, flat_w, mine

    def _spread(self, rank: int) -> None:
        """Kernels 1-4: full fiber forces, spreading clipped to the slab."""
        structure = self._structures[rank]
        assert structure is not None
        layout = self._layouts[rank]
        for sheet in structure.sheets:
            _forces.compute_bending_force(sheet)
            _forces.compute_stretching_force(sheet)
            _forces.compute_elastic_force(sheet)
            positions = sheet.positions[sheet.active]
            if positions.size == 0:
                continue
            local_flat, flat_w, mine = self._slab_stencil(rank, positions)
            node, point = np.nonzero(mine)
            storage = np.ravel_multi_index(
                layout.locate(local_flat[node, point]), layout.force.shape[1:]
            )
            # One contribution per row; bincount for both layouts, because
            # add.at and bincount round differently onto a pre-loaded force.
            scatter_flat(
                storage[:, None],
                flat_w[node, point][:, None],
                sheet.elastic_force[sheet.active][node],
                layout.force,
                scale=sheet.area_element,
                method="bincount",
            )

    def _halo_exchange(self, rank: int, rc: RankComm, step: int) -> None:
        """Overwrite the slab's x-boundary planes with the neighbours' halos.

        Sends the y/z-rolled post-collision populations leaving through
        each x face, one message per side.
        """
        layout = self._layouts[rank]
        right = (rank + 1) % self.num_ranks
        left = (rank - 1) % self.num_ranks
        last = self.slabs[rank].size - 1
        out_right = layout.gather_plane(last, _PLUS_X)
        out_left = layout.gather_plane(0, _MINUS_X)
        for out, directions in ((out_right, _PLUS_X), (out_left, _MINUS_X)):
            for slot, i in enumerate(directions):
                out[slot] = np.roll(out[slot], (int(E[i, 1]), int(E[i, 2])), (0, 1))
        # one message each way per step; tags separate steps and sides
        tag_r = (step << 1) | _TAG_RIGHT
        tag_l = (step << 1) | _TAG_LEFT
        rc.send(right, tag_r, out_right)
        rc.send(left, tag_l, out_left)
        # what my left neighbour pushed right, and my right one pushed left
        layout.scatter_plane(0, _PLUS_X, rc.recv(left, tag_r))
        layout.scatter_plane(last, _MINUS_X, rc.recv(right, tag_l))

    def _move_fibers(self, rank: int, rc: RankComm) -> None:
        """Kernel 8: partial interpolation per rank + allreduce sum."""
        structure = self._structures[rank]
        assert structure is not None
        layout = self._layouts[rank]
        for sheet in structure.sheets:
            positions = sheet.positions[sheet.active]
            if positions.size == 0:
                continue
            local_flat, flat_w, mine = self._slab_stencil(rank, positions)
            w_local = np.where(mine, flat_w, 0.0)
            storage = layout.locate(np.where(mine, local_flat, 0))
            gathered = layout.velocity[(slice(None), *storage)]
            partials = np.empty((positions.shape[0], 3), dtype=DTYPE)
            for comp in range(3):
                partials[:, comp] = np.einsum("ns,ns->n", gathered[comp], w_local)
            total = rc.allreduce_sum(partials)
            sheet.velocity[sheet.active] = total
            sheet.positions[sheet.active] += self.dt * total

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _phase(
        self, rank: int, step: int, name: str, fn: Callable[[], None]
    ) -> None:
        """Run one rank-loop phase, emitting a span when tracing."""
        tracer = self.tracer
        if tracer is None:
            fn()
            return
        start = time.perf_counter()
        fn()
        tracer.record(
            name,
            rank,
            start,
            time.perf_counter() - start,
            step=step,
            cat="phase",
        )

    def _rank_loop(self, rank: int, num_steps: int) -> None:
        rc = self.comm.rank_comm(rank)
        layout = self._layouts[rank]
        has_structure = self._structures[rank] is not None
        for local_step in range(num_steps):
            step = self.time_step + local_step
            phase = partial(self._phase, rank, step)
            if has_structure:
                phase("fiber_forces_and_spread", lambda: self._spread(rank))
            phase("compute_fluid_collision", layout.collide)
            phase("stream_fluid_velocity_distribution", layout.stream)
            phase("halo_exchange", lambda: self._halo_exchange(rank, rc, step))
            # boundaries of the owned faces, then kernel 7
            phase("update_fluid_velocity", layout.update)
            if has_structure:
                phase("move_fibers", lambda: self._move_fibers(rank, rc))
            phase("copy_fluid_velocity_distribution", layout.copy)

    def run(self, num_steps: int) -> None:
        """Advance ``num_steps`` steps across all ranks."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        if num_steps == 0:
            return
        run_spmd(self.num_ranks, lambda rank: self._rank_loop(rank, num_steps))
        self.time_step += num_steps

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def structure(self) -> ImmersedStructure | None:
        """Rank 0's structure replica (all replicas stay identical)."""
        return self._structures[0]

    def structures_consistent(self, rtol: float = 0.0, atol: float = 0.0) -> bool:
        """True if every rank's structure replica matches rank 0's."""
        ref = self._structures[0]
        if ref is None:
            return all(s is None for s in self._structures)
        return all(
            s is not None and ref.state_allclose(s, rtol=rtol, atol=atol)
            for s in self._structures[1:]
        )

    def gather_fluid(self) -> FluidGrid:
        """Reassemble the global fluid state from the rank slabs."""
        fluid = FluidGrid(self.global_shape, **self._grid_params)
        for slab, layout in zip(self.slabs, self._layouts):
            local = layout.to_fluid_grid()
            planes = (..., slice(slab.start, slab.stop), slice(None), slice(None))
            for name in _FIELDS:
                getattr(fluid, name)[planes] = getattr(local, name)
        return fluid
