"""Differential oracle: variant agreement and divergence localization."""

from dataclasses import replace

import pytest

from repro.config import BoundaryConfig, SimulationConfig, StructureConfig
from repro.verify import DifferentialOracle, compare_variants
from repro.verify.oracle import variant_config

pytestmark = pytest.mark.verify


def _base_config(**overrides):
    defaults = dict(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        cube_size=4,
        num_threads=2,
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestAgreement:
    @pytest.mark.parametrize(
        "variant", ["openmp", "cube", "async_cube", "distributed", "hybrid"]
    )
    def test_variant_matches_sequential(self, variant):
        divergence = compare_variants(
            _base_config(), "sequential", variant, num_steps=3, state_seed=5
        )
        assert divergence is None

    def test_cube_matches_async_cube(self):
        divergence = compare_variants(
            _base_config(), "cube", "async_cube", num_steps=3, state_seed=5
        )
        assert divergence is None


#: Both x faces (owned by the first and last rank) plus a y wall pair.
_WALLS = (
    BoundaryConfig("bounce_back", "x", "low", wall_velocity=(0.02, 0.0, 0.0)),
    BoundaryConfig("outflow", "x", "high"),
    BoundaryConfig("bounce_back", "y", "low"),
    BoundaryConfig("bounce_back", "y", "high"),
)
_NO_SHEET = StructureConfig(kind="none")
_FORCE = (2e-5, 0.0, 0.0)


def _exact(config, variant_a, variant_b):
    return compare_variants(
        config, variant_a, variant_b, num_steps=3, rtol=0.0, atol=0.0, state_seed=5
    )


class TestBitwiseAgreement:
    """Zero-tolerance contracts of the two message-passing layouts.

    Without a sheet each rank runs the sequential arithmetic on its own
    planes, so both layouts match ``sequential`` bit for bit.  With a
    sheet the allreduce sums per-rank partial interpolations in another
    order than the sequential sum, so only the two layouts (at the same
    rank split) agree exactly with each other.
    """

    CASES = {
        "bgk": {},
        "trt": {"collision_operator": "trt"},
        "force": {"external_force": _FORCE},
    }

    @pytest.mark.parametrize("variant", ["distributed", "hybrid"])
    @pytest.mark.parametrize("case", [*CASES, "walls"])
    def test_fluid_only_matches_sequential(self, variant, case):
        extra = {"boundaries": _WALLS} if case == "walls" else self.CASES[case]
        config = _base_config(fluid_shape=(16, 8, 8), structure=_NO_SHEET, **extra)
        assert _exact(config, "sequential", variant) is None

    @pytest.mark.parametrize("case", list(CASES))
    def test_layouts_agree_with_sheet(self, case):
        config = _base_config(fluid_shape=(16, 8, 8), **self.CASES[case])
        assert _exact(config, "distributed", "hybrid") is None

    @pytest.mark.parametrize("variant", ["distributed", "hybrid"])
    def test_uneven_split_matches_sequential(self, variant):
        """16 planes over 3 ranks: 6/5/5 planes, or 2/1/1 rows of 4-cubes."""
        config = _base_config(
            fluid_shape=(16, 8, 8), num_threads=3, structure=_NO_SHEET
        )
        assert _exact(config, "sequential", variant) is None


class TestDivergenceDetection:
    def test_tau_perturbation_is_caught_and_localized(self):
        """The acceptance-criteria self-test: tau off by 1e-3 must be caught,
        with the divergent step, field, and cube identified."""
        config = _base_config()
        perturbed = replace(config, tau=config.tau + 1e-3, viscosity=None)
        oracle = DifferentialOracle(
            config, "sequential", "cube", config_b=perturbed, state_seed=5
        )
        divergence = oracle.run(num_steps=3)
        assert divergence is not None
        assert divergence.step >= 1
        assert divergence.field in ("df", "density", "velocity", "velocity_shifted", "force")
        assert divergence.max_abs_error > divergence.tolerance
        # variant_b is the cube solver, so the worst element maps to a cube
        assert divergence.cube is not None
        assert len(divergence.cube) == 3
        text = str(divergence)
        assert "step" in text and divergence.field in text

    def test_no_cube_localization_without_cube_variant(self):
        """When neither variant is cube-blocked there is no owning cube;
        the report must still name step, field, and global index."""
        config = _base_config()
        perturbed = replace(config, tau=config.tau + 1e-3, viscosity=None)
        oracle = DifferentialOracle(
            config, "sequential", "sequential", config_b=perturbed, state_seed=5
        )
        divergence = oracle.run(num_steps=3)
        assert divergence is not None
        assert divergence.cube is None
        assert divergence.index


class TestVariantConfig:
    def test_thread_counts_clamped_per_variant(self):
        config = _base_config(num_threads=64)
        assert variant_config(config, "sequential").num_threads == 1
        cube_cfg = variant_config(config, "cube")
        assert cube_cfg.num_threads <= 8  # 8^3 grid, k=4 -> 2 cubes per dim
        dist_cfg = variant_config(config, "distributed")
        assert dist_cfg.num_threads <= config.fluid_shape[0]

    def test_solver_field_set(self):
        config = _base_config()
        assert variant_config(config, "hybrid").solver == "hybrid"
