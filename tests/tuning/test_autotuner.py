"""Tests of the full predict -> probe -> cache autotuner loop."""

import math
import statistics

import pytest

from repro.config import SimulationConfig, StructureConfig
from repro.errors import ConfigurationError
from repro.tuning.autotuner import Autotuner
from repro.tuning.cache import DecisionCache
from repro.tuning.space import ORACLE_SAFE_VARIANTS
from repro.verify.oracle import DifferentialOracle


CFG = SimulationConfig(
    fluid_shape=(8, 8, 8),
    structure=StructureConfig(kind="flat_sheet", num_fibers=4, nodes_per_fiber=4),
)


def _tuner(**kwargs):
    kwargs.setdefault("cache", DecisionCache(path=None, fingerprint="test-host"))
    kwargs.setdefault("probe_steps", 1)
    kwargs.setdefault("probe_warmup", 0)
    kwargs.setdefault("probe_repeats", 1)
    return Autotuner(**kwargs)


class TestTuneLoop:
    def test_probes_and_decides(self):
        report = _tuner().tune(CFG)
        assert not report.from_cache
        assert report.predictions and report.probes
        d = report.decision
        assert d.candidate.variant in ORACLE_SAFE_VARIANTS
        assert d.measured_seconds > 0
        assert d.probes
        for probe in d.probes:
            assert math.isfinite(probe["error"])
        # The winner is the measured minimum among the probed set.
        assert d.measured_seconds == min(r.seconds for r in report.probes)

    def test_decision_is_cached_and_reused(self):
        tuner = _tuner()
        first = tuner.tune(CFG)
        second = tuner.tune(CFG)
        assert not first.from_cache
        assert second.from_cache
        assert second.decision == first.decision
        assert not second.probes  # nothing ran

    def test_force_reprobes_and_keeps_recalibration(self):
        tuner = _tuner()
        first = tuner.tune(CFG)
        again = tuner.tune(CFG, force=True)
        assert not again.from_cache
        assert again.probes
        # The second round starts from the first round's model_scale —
        # its stored scale is first.model_scale times a fresh median
        # ratio, so repeated tuning converges instead of oscillating.
        assert again.decision.model_scale > 0

    def test_model_scale_recalibrates_toward_measurement(self):
        report = _tuner().tune(CFG)
        d = report.decision
        # From the neutral prior scale 1.0, the stored scale is the median
        # measured/predicted ratio of the probes, so the recalibrated model
        # predicts the median probe exactly.  Whether that shrinks or grows
        # the model depends on the host's speed, not on the tuner.
        ratios = [p["measured"] / p["predicted"] for p in d.probes]
        assert d.model_scale > 0
        assert d.model_scale == pytest.approx(statistics.median(ratios))

    def test_variant_restriction_respected(self):
        report = _tuner().tune(CFG, variants=("fused",))
        assert report.decision.candidate.variant == "fused"

    def test_precision_contract_respected(self):
        from dataclasses import replace

        report = _tuner().tune(replace(CFG, precision="float64"))
        assert report.decision.candidate.precision == "float64"

    def test_tuned_config_is_runnable(self):
        config = _tuner().tuned_config(CFG)
        assert config.solver in ORACLE_SAFE_VARIANTS
        assert config.fluid_shape == CFG.fluid_shape

    def test_invalid_top_n_rejected(self):
        with pytest.raises(ConfigurationError):
            Autotuner(probe_top_n=0)


class TestBitIdentitySafety:
    def test_tuned_decision_passes_the_differential_oracle(self):
        """Acceptance: a tuned decision never changes the answer.

        The tuned solo config must stay within the oracle tolerance of
        the sequential reference — at the float64 contract that bound
        is tighter than any physical signal.
        """
        report = _tuner().tune(CFG)
        tuned = report.best_config(CFG)
        variant = tuned.solver
        if variant == "batched":
            # The solo oracle drives solver variants; the batched slot
            # equivalence is pinned by the scheduler suite.
            variant = "fused"
        oracle = DifferentialOracle(
            CFG, variant_a="sequential", variant_b=variant, state_seed=0
        )
        assert oracle.run(4) is None
