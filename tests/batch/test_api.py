"""``variant="batched"`` through the public Simulation facade.

A single Simulation runs as a batch of one; the state lives in the
batched layout behind a live slot view, so the whole verification
surface — differential oracle, golden digests, invariants, checkpoint
restore — sees it exactly like any other variant.
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.batch.fields import BatchSlotView
from repro.config import SimulationConfig, StructureConfig
from repro.verify import compare_variants
from repro.verify.golden import GOLDEN_CASES, GOLDEN_VARIANTS, compute_baseline
from repro.verify.oracle import seeded_initial_fluid

pytestmark = pytest.mark.verify


def _config(**overrides):
    defaults = dict(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        solver="batched",
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestFacade:
    def test_runs_and_exposes_live_state(self):
        with Simulation(_config()) as sim:
            assert isinstance(sim.fluid, BatchSlotView)
            sim.run(3)
            assert sim.time_step == 3
            assert np.isfinite(sim.fluid.density).all()
            assert np.isfinite(sim.kinetic_energy())
            snap = sim.solver.snapshot()
            assert np.array_equal(snap["density"], sim.fluid.density)

    def test_config_accepts_batched_solver(self):
        assert _config().solver == "batched"

    @pytest.mark.parametrize("operator", ["bgk", "trt"])
    def test_oracle_matches_sequential(self, operator):
        divergence = compare_variants(
            _config(solver="sequential", collision_operator=operator),
            "sequential",
            "batched",
            num_steps=4,
            state_seed=7,
        )
        assert divergence is None

    def test_checkpoint_roundtrip_is_transparent(self, tmp_path):
        """Checkpoint at step 2 and resume: bit-identical to the
        uninterrupted batched run at step 4."""
        config = _config()
        fluid = seeded_initial_fluid(config, 19)
        with Simulation(config, initial_fluid=fluid.copy()) as straight:
            straight.run(4)
            expected = {
                name: np.array(getattr(straight.fluid, name))
                for name in ("df", "density", "velocity")
            }
        path = tmp_path / "batched.npz"
        with Simulation(config, initial_fluid=fluid.copy()) as sim:
            sim.run(2)
            sim.checkpoint(path)
        with Simulation.from_checkpoint(path, config) as resumed:
            resumed.run(2)
            assert resumed.time_step == 4
            for name, value in expected.items():
                np.testing.assert_array_equal(getattr(resumed.fluid, name), value)


class TestGoldenBaselines:
    def test_batched_variant_registered(self):
        assert GOLDEN_VARIANTS.get("_batched") == "batched"

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_batched_digest_equals_sequential(self, name):
        """Not just tolerance-close: every golden scenario reproduces
        the sequential digest exactly under the batched layout."""
        case = GOLDEN_CASES[name]
        sequential = compute_baseline(name, case, "sequential")
        batched = compute_baseline(name, case, "batched")
        assert batched["digest"] == sequential["digest"]
        assert batched["stats"] == sequential["stats"]
