"""Golden regression baselines: committed files match, drift is caught."""

import json
import os

import pytest

from repro.verify import (
    GOLDEN_CASES,
    check_baselines,
    compute_baseline,
    default_golden_dir,
    state_digest,
    write_baselines,
)
from repro.verify.golden import GOLDEN_PRECISIONS, GOLDEN_VARIANTS

pytestmark = pytest.mark.verify


class TestCommittedBaselines:
    def test_every_golden_case_has_a_committed_file(self):
        directory = default_golden_dir()
        for name in GOLDEN_CASES:
            assert os.path.exists(os.path.join(directory, f"{name}.json")), (
                f"missing committed baseline for {name}; run "
                "`python -m repro.verify --regen-golden` and commit the result"
            )

    def test_current_physics_matches_committed_baselines(self):
        failures = check_baselines()
        assert failures == []


class TestRegeneration:
    def test_regen_round_trips(self, tmp_path):
        written = write_baselines(tmp_path)
        per_case = len(GOLDEN_VARIANTS) + sum(map(len, GOLDEN_PRECISIONS.values()))
        assert len(written) == len(GOLDEN_CASES) * per_case
        assert check_baselines(tmp_path) == []

    def test_reduced_precision_baselines_are_committed(self):
        directory = default_golden_dir()
        for name in GOLDEN_CASES:
            for suffix, precisions in GOLDEN_PRECISIONS.items():
                for precision in precisions:
                    path = os.path.join(directory, f"{name}{suffix}_{precision}.json")
                    with open(path, encoding="utf-8") as fh:
                        assert json.load(fh)["precision"] == precision

    def test_missing_file_is_a_failure_not_a_skip(self, tmp_path):
        write_baselines(tmp_path)
        name = next(iter(GOLDEN_CASES))
        os.remove(tmp_path / f"{name}.json")
        failures = check_baselines(tmp_path)
        assert any("missing" in f and name in f for f in failures)

    def test_stat_drift_is_reported_by_name(self, tmp_path):
        write_baselines(tmp_path)
        name = next(iter(GOLDEN_CASES))
        path = tmp_path / f"{name}.json"
        record = json.loads(path.read_text())
        record["stats"]["total_mass"] *= 1.0 + 1e-6
        path.write_text(json.dumps(record))
        failures = check_baselines(tmp_path)
        assert any("total_mass" in f for f in failures)

    def test_digest_drift_mentions_regen_command(self, tmp_path):
        write_baselines(tmp_path)
        name = next(iter(GOLDEN_CASES))
        path = tmp_path / f"{name}.json"
        record = json.loads(path.read_text())
        record["digest"] = "0" * 64
        path.write_text(json.dumps(record))
        failures = check_baselines(tmp_path)
        assert any("--regen-golden" in f for f in failures)


class TestDigest:
    def test_digest_is_deterministic_across_reruns(self):
        name, case = next(iter(GOLDEN_CASES.items()))
        a = compute_baseline(name, case)
        b = compute_baseline(name, case)
        assert a["digest"] == b["digest"]
        assert a["stats"] == b["stats"]

    def test_digest_distinguishes_cases(self):
        baselines = [compute_baseline(n, c) for n, c in GOLDEN_CASES.items()]
        digests = {b["digest"] for b in baselines}
        assert len(digests) == len(baselines)

    def test_negative_zero_normalized(self):
        import numpy as np

        from repro.api import Simulation
        from repro.verify.golden import GOLDEN_CASES as cases

        case = cases["fluid_decay_bgk"]
        with Simulation(case.config("sequential")) as sim:
            before = state_digest(sim)
            # -0.0 and +0.0 must hash identically.
            sim.fluid.force[...] = np.where(
                sim.fluid.force == 0.0, -0.0, sim.fluid.force
            )
            assert state_digest(sim) == before
