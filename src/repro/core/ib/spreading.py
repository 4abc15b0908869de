"""Force spreading from fibers to fluid (paper kernel 4).

For every fiber node the kernel finds the set of fluid nodes in the
``support^3`` influential domain around it and exerts the node's elastic
force onto them, weighted by the smoothed Dirac delta::

    F(x) += f_l * delta_h(x - X_l) * dA

where ``dA`` is the Lagrangian area element of the sheet.  Periodic
wrap-around matches the fluid grid's periodic topology.

The scatter has two implementations that are bit-identical (both
accumulate contributions in strict input order): :func:`numpy.bincount`
over raveled grid indices, and ``np.add.at`` through NumPy's indexed
fast path.  Their costs differ in *which* size dominates: ``bincount``
allocates and sweeps a full ``minlength=num_grid_nodes`` output per
component on top of its histogram loop, while ``add.at`` only touches
the actual contributions.  Timing both on the paper's Table-I grid,
when the fused hot path was introduced, put the crossover above that
workload (43k contributions on a 63k-node grid: ``add.at`` 0.31 ms vs
``bincount`` 0.52 ms), so
:func:`scatter_method` picks ``bincount`` only when the contribution
count reaches the grid size and ``add_at`` otherwise.  The
``LBMIB_SCATTER`` environment variable (``auto``/``bincount``/
``add_at``, read at import) forces a specific implementation for
benchmarking.
"""

from __future__ import annotations

import os

import numpy as np

from repro.constants import DTYPE
from repro.core.ib.delta import DeltaKernel
from repro.core.ib.fiber import FiberSheet
from repro.errors import ConfigurationError

__all__ = [
    "flatten_stencil",
    "scatter_flat",
    "scatter_method",
    "set_scatter_method",
    "spread_forces",
    "spread_values",
    "StencilCache",
]

_SCATTER_METHODS = ("auto", "bincount", "add_at")


def _env_scatter_override() -> str:
    """``LBMIB_SCATTER`` validated at read time.

    An unknown value used to fall through :func:`scatter_flat`'s
    dispatch into the ``bincount`` branch silently — a typo like
    ``LBMIB_SCATTER=addat`` would *appear* to work while benchmarking
    the wrong implementation.  Failing loudly at import, naming the
    allowed methods, turns that into a one-line fix.
    """
    value = os.environ.get("LBMIB_SCATTER", "auto")
    if value not in _SCATTER_METHODS:
        raise ConfigurationError(
            f"LBMIB_SCATTER={value!r} is not a scatter method; allowed "
            f"values: {', '.join(_SCATTER_METHODS)}"
        )
    return value


#: Forced scatter implementation; ``"auto"`` selects by problem size.
_scatter_override = _env_scatter_override()


def set_scatter_method(method: str) -> None:
    """Force the scatter implementation (``"auto"`` restores selection)."""
    global _scatter_override
    if method not in _SCATTER_METHODS:
        raise ConfigurationError(
            f"scatter method must be one of {_SCATTER_METHODS}, got {method!r}"
        )
    _scatter_override = method


def scatter_method(
    num_grid_nodes: int, num_contributions: int, itemsize: int = 8
) -> str:
    """The scatter implementation used for this problem size.

    ``bincount`` pays O(``num_grid_nodes``) per component (a fresh
    ``minlength``-sized output, zeroed, summed back into the target) on
    top of its O(``num_contributions``) histogram loop; ``add_at`` pays
    only the contributions.  ``bincount`` therefore wins only once the
    stencil contributions cover the grid — below that the dense output
    sweep dominates (the kernel-4 regression measured on the Table-I
    grid: 43k contributions, 63k nodes, ``add.at`` 0.31 ms vs
    ``bincount`` 0.52 ms).

    ``itemsize`` is the target field's element size in bytes.  The
    ``add_at`` indexed loop is compute-bound and shrinks with the
    storage dtype, but ``bincount``'s dense ``minlength`` output is
    always float64 — 8 bytes per grid node no matter what the target
    stores — so on float32 fields (4-byte elements) its fixed sweep is
    relatively twice as expensive and the crossover needs
    proportionally more contributions before ``bincount`` wins.
    """
    if _scatter_override != "auto":
        return _scatter_override
    threshold = num_grid_nodes * (8.0 / float(itemsize))
    return "bincount" if num_contributions >= threshold else "add_at"


def flatten_stencil(
    indices: np.ndarray, weights: np.ndarray, grid_shape: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-point stencils to linear grid indices and weights.

    Parameters
    ----------
    indices:
        Per-axis grid coordinates from :meth:`DeltaKernel.stencil`,
        shape ``(N, s, 3)``, already wrapped into ``grid_shape``.
    weights:
        3D delta weights ``(N, s, s, s)``.
    grid_shape:
        Fluid grid dimensions ``(Nx, Ny, Nz)``.

    Returns
    -------
    (flat_indices, flat_weights):
        Both of shape ``(N, s**3)``; ``flat_indices`` are raveled
        C-order node indices into the grid.
    """
    n, s, _ = indices.shape
    _, ny, nz = grid_shape
    ix = indices[:, :, 0]
    iy = indices[:, :, 1]
    iz = indices[:, :, 2]
    flat = (
        ix[:, :, None, None] * (ny * nz)
        + iy[:, None, :, None] * nz
        + iz[:, None, None, :]
    )
    return flat.reshape(n, s**3), weights.reshape(n, s**3)


def scatter_flat(
    flat_idx: np.ndarray,
    flat_w: np.ndarray,
    values: np.ndarray,
    target: np.ndarray,
    scale: float = 1.0,
    method: str | None = None,
) -> np.ndarray:
    """Scatter pre-flattened stencil contributions onto ``target``.

    Parameters
    ----------
    flat_idx, flat_w:
        Output of :func:`flatten_stencil`, both ``(N, s**3)``.
    values:
        Per-point vectors ``(N, 3)``.
    target:
        Eulerian vector field ``(3, Nx, Ny, Nz)``, accumulated in place.
    scale:
        Constant multiplier (the Lagrangian area element).
    method:
        ``"bincount"`` or ``"add_at"``; ``None`` (the default) picks via
        :func:`scatter_method`.  Both are bit-identical — they
        accumulate contributions in the same input order.
    """
    if flat_idx.size == 0:
        return target
    grid_shape = target.shape[1:]
    num_nodes = target[0].size
    if scale != 1.0:
        flat_w = flat_w * scale
    idx = flat_idx.ravel()
    if method is None:
        method = scatter_method(num_nodes, idx.size, target.dtype.itemsize)
    # Sub-float64 targets accumulate through a float64 staging field and
    # cast once at the end: the spread reduction keeps double precision
    # (the mixed policy's contract) and — because each method then sums
    # identical float64 contributions in identical order — bincount and
    # add_at stay bit-identical at every storage dtype, not just f64.
    accum = (
        target
        if target.dtype == np.float64
        else np.zeros(target.shape, dtype=np.float64)  # backend-lint: ok (f64 reduction staging)
    )
    if method == "add_at" and not accum.flags.c_contiguous:
        # add.at needs a flat in-place view of each component.
        method = "bincount"
    for comp in range(3):
        contrib = (values[:, comp : comp + 1] * flat_w).ravel()
        if method == "add_at":
            np.add.at(accum[comp].reshape(-1), idx, contrib)
        else:
            binned = np.bincount(idx, weights=contrib, minlength=num_nodes)
            accum[comp] += binned.reshape(grid_shape)
    if accum is not target:
        target += accum
    return target


def spread_values(
    positions: np.ndarray,
    values: np.ndarray,
    delta: DeltaKernel,
    target: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Scatter per-point vector ``values`` onto the vector field ``target``.

    Parameters
    ----------
    positions:
        Lagrangian coordinates ``(N, 3)``.
    values:
        Per-point vectors ``(N, 3)`` (e.g. elastic force).
    delta:
        Smoothed delta kernel.
    target:
        Eulerian vector field ``(3, Nx, Ny, Nz)``, accumulated in place.
    scale:
        Constant multiplier (the Lagrangian area element).
    """
    if positions.size == 0:
        return target
    grid_shape = target.shape[1:]
    indices, weights = delta.stencil(positions, grid_shape=grid_shape)
    flat_idx, flat_w = flatten_stencil(indices, weights, grid_shape)
    return scatter_flat(flat_idx, flat_w, values, target, scale=scale)


class StencilCache:
    """Per-step cache of flattened delta stencils, keyed per sheet.

    Within one time step the fiber positions do not move between the
    spread (kernel 4) and the velocity interpolation inside kernel 8,
    so the delta-stencil indices and weights computed for the spread
    can be reused verbatim for the interpolation.  The fused solver
    owns one cache and calls :meth:`begin_step` at the top of every
    step; both transfer kernels then share one stencil evaluation.
    """

    def __init__(self) -> None:
        self._flat: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def begin_step(self) -> None:
        """Invalidate every cached stencil (positions are about to move)."""
        self._flat.clear()

    def end_step(self) -> None:
        """Release this step's stencils once the last consumer has run.

        The stencil arrays are large (``active_nodes x support`` indices
        plus weights — ~692 kB for the paper's Table-I sheet); holding
        the final step's entry across the end of a run shows up as
        retained memory in the allocation profile even though the data
        is dead.  Dropping it here keeps the cache's retained footprint
        at zero between steps at no numerical cost.
        """
        self._flat.clear()

    def flat_stencil(
        self,
        sheet: FiberSheet,
        delta: DeltaKernel,
        grid_shape: tuple[int, int, int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flattened ``(indices, weights)`` of ``sheet``'s active nodes."""
        entry = self._flat.get(id(sheet))
        if entry is None:
            positions = sheet.positions[sheet.active]
            indices, weights = delta.stencil(positions, grid_shape=grid_shape)
            entry = flatten_stencil(indices, weights, grid_shape)
            self._flat[id(sheet)] = entry
        return entry


def spread_forces(
    sheet: FiberSheet,
    delta: DeltaKernel,
    force_grid: np.ndarray,
    rows=None,
    cache: StencilCache | None = None,
) -> np.ndarray:
    """Kernel 4: spread the sheet's elastic force into ``force_grid``.

    Parameters
    ----------
    sheet:
        Fiber sheet whose ``elastic_force`` has been computed (kernel 3).
    delta:
        Smoothed delta kernel defining the influential domain.
    force_grid:
        Fluid force-density field ``(3, Nx, Ny, Nz)``; accumulated in
        place (callers zero it at the start of the time step).
    rows:
        Optional fiber indices restricting which fibers spread — the
        parallel unit of ``fiber2thread``.
    cache:
        Optional :class:`StencilCache`; the stencil computed here is
        then reused by the same step's velocity interpolation.  Only
        valid without ``rows`` (the cache covers all active nodes).
    """
    if rows is None:
        if cache is not None:
            flat_idx, flat_w = cache.flat_stencil(
                sheet, delta, force_grid.shape[1:]
            )
            values = sheet.elastic_force[sheet.active]
            return scatter_flat(
                flat_idx, flat_w, values, force_grid, scale=sheet.area_element
            )
        node_mask = sheet.active
    else:
        node_mask = np.zeros_like(sheet.active)
        node_mask[np.asarray(rows, dtype=np.int64)] = True
        node_mask &= sheet.active
    positions = sheet.positions[node_mask]
    values = sheet.elastic_force[node_mask]
    return spread_values(
        positions, values, delta, force_grid, scale=sheet.area_element
    )
