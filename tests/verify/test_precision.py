"""Precision-policy verification: float32/mixed vs the float64 truth.

The array backend's contract (:mod:`repro.core.backend`) has three
checkable parts:

* **float64 is untouched** — the golden-digest suite pins that path
  bit-exactly; here we pin the *pluggability*: layout control, backend
  injection and the per-dtype scatter dispatch.
* **float32/mixed track float64 within analytic bounds** — the same
  seeded run at reduced precision stays within single-precision
  rounding of the double-precision reference, and the mixed policy
  (float64 accumulation under float32 storage) tracks strictly tighter
  than pure float32.
* **precision round-trips through checkpoints** — every solver variant
  can write at one policy and restore under another, with the cast
  (pure widening/narrowing, no arithmetic) being the only difference.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.core.backend import (
    ArrayBackend,
    backend_for,
    dtype_bytes,
    invariant_scale,
    oracle_tolerance,
    resolve_precision,
    set_default_backend,
    state_tolerance,
)
from repro.core.lbm.fields import FluidGrid
from repro.verify.oracle import DifferentialOracle, _seeded_initial_fluid, variant_config

pytestmark = pytest.mark.verify

VARIANTS = [
    "sequential",
    "fused",
    "inplace",
    "batched",
    "openmp",
    "cube",
    "async_cube",
    "distributed",
    "hybrid",
]

_FIELDS = ("df", "density", "velocity", "velocity_shifted", "force")


def _config(variant="sequential", precision="float64"):
    base = SimulationConfig(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        cube_size=4,
        num_threads=2,
        precision=precision,
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3),
    )
    return variant_config(base, variant)


def _final_state(precision, steps=5, solver="sequential"):
    config = _config(solver, precision)
    with Simulation(config, initial_fluid=_seeded_initial_fluid(config, 31)) as sim:
        sim.run(steps)
        fluid = sim.fluid
        return {
            name: np.asarray(getattr(fluid, name), dtype=np.float64)
            for name in ("df", "density", "velocity")
        }


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------
def test_config_precision_round_trip():
    config = _config(precision="mixed")
    assert SimulationConfig.from_dict(config.to_dict()) == config


def test_config_without_precision_entry_defaults_to_float64():
    data = _config().to_dict()
    del data["precision"]  # a manifest written before the policy existed
    assert SimulationConfig.from_dict(data).precision == "float64"


def test_config_rejects_unknown_precision():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        replace(_config(), precision="float16")


def _lattice_nbytes(precision, single_lattice):
    grid = FluidGrid((4, 4, 4), single_lattice=single_lattice, precision=precision)
    return sum(buf.nbytes for buf in (grid.df, grid.df_new) if buf is not None)


@pytest.mark.parametrize("precision", ["float64", "float32", "mixed"])
def test_grid_storage_and_arena_compute_dtypes(precision):
    policy = resolve_precision(precision)
    grid = FluidGrid((4, 4, 4), precision=precision)
    for name in _FIELDS:
        arr = getattr(grid, name)
        assert arr.dtype == policy.storage, name
    assert grid.arena.scalar("probe").dtype == policy.compute
    # Lattice bytes follow the storage dtype on both lattice schemes:
    # float64 holds exactly twice float32's, mixed exactly as much.
    for single in (False, True):
        assert _lattice_nbytes(precision, single) == (
            _lattice_nbytes("float32", single) * policy.storage.itemsize // 4
        )


# ----------------------------------------------------------------------
# numerics: reduced precision tracks the float64 reference
# ----------------------------------------------------------------------
def test_float32_tracks_float64_within_single_precision_bounds():
    r64 = _final_state("float64")
    r32 = _final_state("float32")
    for name in r64:
        np.testing.assert_allclose(
            r32[name], r64[name], rtol=1e-4, atol=5e-6, err_msg=name
        )


def test_mixed_tracks_tighter_than_float32():
    """float64 accumulation under float32 storage must show up as a
    strictly smaller drift from the double-precision reference."""
    r64 = _final_state("float64")
    r32 = _final_state("float32")
    rmx = _final_state("mixed")
    for name in r64:
        np.testing.assert_allclose(
            rmx[name], r64[name], rtol=2e-5, atol=1e-6, err_msg=name
        )
    drift32 = float(np.abs(r32["df"] - r64["df"]).max())
    driftmx = float(np.abs(rmx["df"] - r64["df"]).max())
    assert driftmx <= drift32


@pytest.mark.slow
@pytest.mark.parametrize("precision", ["float32", "mixed"])
@pytest.mark.parametrize("variant", ["fused", "inplace", "batched", "cube"])
def test_cross_variant_oracle_at_reduced_precision(precision, variant):
    """All variants still agree pairwise when running *at* a reduced
    policy — the per-precision oracle tolerances absorb reordered
    single-precision sums, nothing more."""
    oracle = DifferentialOracle(
        _config(precision=precision), "sequential", variant
    )
    divergence = oracle.run(3)
    assert divergence is None, str(divergence)


def test_tolerance_tables_widen_monotonically():
    for lookup in (state_tolerance, oracle_tolerance):
        r64, a64 = lookup("float64")
        rmx, amx = lookup("mixed")
        r32, a32 = lookup("float32")
        assert r64 < rmx <= r32
        assert a64 < amx <= a32
    assert invariant_scale("float64") == 1.0
    assert 1.0 < invariant_scale("mixed") <= invariant_scale("float32")


def test_state_allclose_uses_per_precision_tolerance():
    g32 = FluidGrid((4, 4, 4), precision="float32")
    h32 = FluidGrid((4, 4, 4), precision="float32")
    h32.df += np.float32(1e-7)  # sub-f32-resolution wiggle
    assert g32.state_allclose(h32)

    g64 = FluidGrid((4, 4, 4))
    h64 = FluidGrid((4, 4, 4))
    h64.df += 1e-7  # far beyond the f64 tolerance
    assert not g64.state_allclose(h64)


def test_invariants_hold_at_float32():
    from repro.verify.invariants import InvariantSuite

    config = _config("fused", "float32")
    suite = InvariantSuite.default(config)
    with Simulation(
        config,
        initial_fluid=_seeded_initial_fluid(config, 31),
        invariants=suite,
    ) as sim:
        sim.run(4)
    assert suite.checks_passed == 4


# ----------------------------------------------------------------------
# cross-precision checkpoint matrix
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestCrossPrecisionCheckpoints:
    """Write at one policy, restore under another, for every variant.

    The restore is a pure dtype cast (widening f32 -> f64 is exact;
    narrowing rounds once), so equality against the writer's snapshot
    is asserted *exactly* after applying that cast — no tolerance.
    """

    @pytest.fixture(scope="class")
    def float32_checkpoints(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt_f32")
        paths = {}
        for writer in VARIANTS:
            config = _config(writer, "float32")
            with Simulation(
                config, initial_fluid=_seeded_initial_fluid(config, 31)
            ) as sim:
                sim.run(2)
                path = root / f"{writer}.npz"
                sim.checkpoint(path)
                fluid = sim.fluid
                snap = {n: np.array(getattr(fluid, n)) for n in _FIELDS}
                paths[writer] = (path, snap)
        return paths

    @pytest.fixture(scope="class")
    def float64_checkpoint(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt_f64")
        config = _config("sequential", "float64")
        with Simulation(
            config, initial_fluid=_seeded_initial_fluid(config, 31)
        ) as sim:
            sim.run(2)
            path = root / "sequential.npz"
            sim.checkpoint(path)
            fluid = sim.fluid
            return path, {n: np.array(getattr(fluid, n)) for n in _FIELDS}

    @pytest.mark.parametrize("writer", VARIANTS)
    def test_float32_writer_restores_into_float64_reader(
        self, float32_checkpoints, writer
    ):
        path, expected = float32_checkpoints[writer]
        with Simulation.from_checkpoint(
            path, _config("sequential", "float64")
        ) as restored:
            for name in _FIELDS:
                np.testing.assert_array_equal(
                    np.asarray(getattr(restored.fluid, name), dtype=np.float64),
                    np.asarray(expected[name], dtype=np.float64),
                    err_msg=name,
                )

    @pytest.mark.parametrize("reader", VARIANTS)
    def test_float64_writer_restores_into_float32_reader(
        self, float64_checkpoint, reader
    ):
        path, expected = float64_checkpoint
        with Simulation.from_checkpoint(
            path, _config(reader, "float32")
        ) as restored:
            for name in _FIELDS:
                np.testing.assert_array_equal(
                    np.asarray(getattr(restored.fluid, name), dtype=np.float32),
                    expected[name].astype(np.float32),
                    err_msg=name,
                )

    def test_precision_name_survives_round_trip(self, tmp_path):
        from repro.io.checkpoint import load_checkpoint, save_checkpoint

        grid = FluidGrid((4, 4, 4), precision="mixed")
        path = tmp_path / "mixed.npz"
        save_checkpoint(path, grid)
        restored, _, _ = load_checkpoint(path)
        assert restored.precision.name == "mixed"
        assert restored.df.dtype == np.float32

    def test_float32_resume_continues_identically(self, float32_checkpoints):
        """Restoring at the writer's own policy is transparent: 2
        checkpointed + 2 resumed steps == 4 straight steps, exactly."""
        config = _config("fused", "float32")
        with Simulation(
            config, initial_fluid=_seeded_initial_fluid(config, 31)
        ) as straight:
            straight.run(4)
            fluid = straight.fluid
            reference = {n: np.array(getattr(fluid, n)) for n in _FIELDS}
        path, _ = float32_checkpoints["fused"]
        with Simulation.from_checkpoint(path, config) as resumed:
            resumed.run(2)
            for name in _FIELDS:
                np.testing.assert_array_equal(
                    getattr(resumed.fluid, name), reference[name], err_msg=name
                )


# ----------------------------------------------------------------------
# memory footprint
# ----------------------------------------------------------------------
def _fluid_alloc_peak(precision):
    tracemalloc.start()
    tracemalloc.reset_peak()
    grid = FluidGrid((16, 16, 16), precision=precision)
    grid.arena.vector("momentum")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del grid
    return peak


def test_float32_fluid_peak_is_half_of_float64():
    peak64 = _fluid_alloc_peak("float64")
    peak32 = _fluid_alloc_peak("float32")
    assert 0.4 < peak32 / peak64 < 0.62


# ----------------------------------------------------------------------
# kernel-4 scatter: dispatch recalibration + forced bit-equality
# ----------------------------------------------------------------------
def test_scatter_crossover_scales_with_itemsize():
    from repro.core.ib.spreading import scatter_method

    # float64 target: crossover at one contribution per grid node
    # (the historical threshold, reproduced exactly).
    assert scatter_method(1000, 999, 8) == "add_at"
    assert scatter_method(1000, 1000, 8) == "bincount"
    # float32 target: bincount's dense minlength output stays float64
    # (8 B/node) while the rest of the kernel shrinks, so it needs
    # twice the contributions before it wins.
    assert scatter_method(1000, 1000, 4) == "add_at"
    assert scatter_method(1000, 1999, 4) == "add_at"
    assert scatter_method(1000, 2000, 4) == "bincount"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_forced_scatter_methods_bit_identical(dtype):
    """bincount and add_at stay bit-identical at every storage dtype:
    sub-f64 targets accumulate through a shared float64 staging field,
    so both methods sum identical doubles in identical order."""
    from repro.core.ib.spreading import flatten_stencil, scatter_flat

    rng = np.random.default_rng(7)
    grid_shape = (8, 8, 8)
    n, s = 40, 4
    indices = rng.integers(0, 8, size=(n, s, 3))
    weights = rng.random((n, s, s, s))
    flat_idx, flat_w = flatten_stencil(indices, weights, grid_shape)
    values = rng.standard_normal((n, 3))

    target_a = np.zeros((3,) + grid_shape, dtype=dtype)
    target_b = np.zeros_like(target_a)
    scatter_flat(flat_idx, flat_w, values, target_a, method="add_at")
    scatter_flat(flat_idx, flat_w, values, target_b, method="bincount")
    assert target_a.dtype == dtype
    np.testing.assert_array_equal(target_a, target_b)


# ----------------------------------------------------------------------
# layout control and backend injection
# ----------------------------------------------------------------------
def test_fortran_order_layout_control():
    backend = backend_for("float32", order="F")
    arr = backend.zeros((3, 4, 5))
    assert arr.flags.f_contiguous and arr.dtype == np.float32
    # per-call override beats the backend default
    assert backend.empty((3, 4, 5), order="C").flags.c_contiguous
    # grids stay C-ordered (the layout every kernel's block copies assume)
    assert FluidGrid((4, 4, 4), precision="float32").df.flags.c_contiguous


class _RecordingXP:
    """Duck-typed stand-in for an injected array module (cupy-shaped)."""

    def __init__(self):
        self.calls = []

    def empty(self, shape, dtype=None, order="C"):
        self.calls.append(("empty", tuple(shape)))
        return np.empty(shape, dtype=dtype, order=order)

    def zeros(self, shape, dtype=None, order="C"):
        self.calls.append(("zeros", tuple(shape)))
        return np.zeros(shape, dtype=dtype, order=order)

    def full(self, shape, fill, dtype=None, order="C"):
        self.calls.append(("full", tuple(shape)))
        return np.full(shape, fill, dtype=dtype, order=order)

    def asarray(self, values, dtype=None):
        self.calls.append(("asarray", None))
        return np.asarray(values, dtype=dtype)


def test_backend_injection_routes_every_field_allocation():
    fake = _RecordingXP()
    previous = set_default_backend(ArrayBackend(xp=fake))
    try:
        grid = FluidGrid((4, 4, 4), precision="float32")
    finally:
        set_default_backend(previous)
    kinds = {name for name, _ in fake.calls}
    assert {"empty", "zeros", "full"} <= kinds
    # every persistent field came out of the injected module
    assert sum(1 for name, _ in fake.calls if name != "asarray") >= 6
    assert grid.df.dtype == np.float32


# ----------------------------------------------------------------------
# machine-model scaling
# ----------------------------------------------------------------------
def test_step_bytes_scales_fluid_traffic_only():
    from repro.machine.workload import step_bytes

    full = step_bytes(1000, 0, dtype_bytes=8)
    half = step_bytes(1000, 0, dtype_bytes=4)
    assert half == pytest.approx(full / 2)
    # fiber-kernel traffic stays float64 under every policy
    fiber_only = step_bytes(0, 100, dtype_bytes=4)
    assert fiber_only == step_bytes(0, 100, dtype_bytes=8)


def test_perf_model_precision_speedup():
    from repro.machine.perf_model import PerformanceModel
    from repro.machine.spec import abu_dhabi

    model = PerformanceModel(abu_dhabi())
    shape, fibers = (124, 64, 64), (52, 52)
    assert model.precision_time_factor(shape, fibers, "float64") == 1.0
    speedup = model.precision_speedup(shape, fibers, "float32")
    assert 1.0 < speedup < 2.0
    assert dtype_bytes("float32") == dtype_bytes("mixed") == 4
