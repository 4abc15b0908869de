"""Chaos harness: seeded fault storms vs. a bit-identical golden run.

The chaos invariant (DESIGN.md §14): under any seeded
:class:`~repro.resilience.faults.FaultPlan`, every submitted job
reaches a terminal state, every completed job's final state is
bit-identical to its fault-free run (``max_abs_delta == 0.0``), and
healthy sibling slots are never perturbed.

``LBMIB_CHAOS_DIR`` (set by the CI chaos job) redirects the harness
workdirs to a stable location so the job journals, which resume
replays, survive as forensic artifacts when the invariant breaks.
"""

import os

import pytest

from repro.config import SimulationConfig, StructureConfig
from repro.resilience import ChaosHarness, standard_plan
from repro.resilience.faults import Fault, FaultPlan

pytestmark = pytest.mark.chaos


def _config(**overrides):
    defaults = dict(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        structure=StructureConfig(kind="none"),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _fsi_config():
    return _config(
        structure=StructureConfig(kind="flat_sheet", num_fibers=3, nodes_per_fiber=3)
    )


@pytest.fixture
def chaos_dir(request, tmp_path):
    """Per-test workdir, rooted at ``LBMIB_CHAOS_DIR`` when set (CI)."""
    root = os.environ.get("LBMIB_CHAOS_DIR")
    if not root:
        return tmp_path
    path = os.path.join(root, request.node.name.replace("/", "_"))
    os.makedirs(path, exist_ok=True)
    return path


def _harness(workdir, jobs=None, **overrides):
    if jobs is None:
        jobs = [(_config(), 8), (_fsi_config(), 8), (_config(), 8)]
    kwargs = dict(max_batch=2, checkpoint_every=2)
    kwargs.update(overrides)
    return ChaosHarness(jobs, workdir, **kwargs)


class TestStandardPlan:
    def test_standard_storm_preserves_every_job_bit_for_bit(self, chaos_dir):
        report = _harness(chaos_dir).run()
        assert report.mismatches() == []
        assert report.all_terminal
        assert report.all_completed
        assert report.bit_identical
        for verdict in report.verdicts.values():
            assert verdict.max_abs_delta == 0.0
        # The storm actually happened: a kill was survived via resume,
        # faults fired, and the slot-corruption forced a retry.
        assert report.kills_survived == 1
        assert report.resumes == 1
        assert report.incident_counts["fault_injected"] == 3
        assert report.incident_counts.get("job_retry", 0) >= 1

    def test_chaos_is_deterministic_across_replays(self, tmp_path):
        first = _harness(tmp_path / "a").run()
        second = _harness(tmp_path / "b").run()
        assert {k: v.digest for k, v in first.verdicts.items()} == {
            k: v.digest for k, v in second.verdicts.items()
        }
        assert first.kills_survived == second.kills_survived

    def test_summary_is_json_safe(self, tmp_path):
        import json

        report = _harness(tmp_path).run()
        summary = json.loads(json.dumps(report.summary()))
        assert summary["all_terminal"] is True
        assert summary["bit_identical"] is True
        assert summary["kills_survived"] == 1


class TestCustomStorms:
    def test_repeated_kills_survived_by_repeated_resume(self, chaos_dir):
        plan = FaultPlan.of(
            [
                Fault(kind="kill_worker", step=3, tid=0),
                Fault(kind="kill_worker", step=5, tid=1),
                Fault(kind="corrupt_field", step=4, tid=1, fluid_field="df"),
            ],
            seed=7,
        )
        report = _harness(chaos_dir).run(plan)
        assert report.mismatches() == []
        assert report.kills_survived == 2

    def test_truncation_storm_still_completes_losslessly(self, chaos_dir):
        plan = FaultPlan.of(
            [
                Fault(kind="truncate_checkpoint", step=2, nbytes=4096),
                Fault(kind="truncate_checkpoint", step=4, nbytes=4096),
                Fault(kind="corrupt_field", step=5, tid=0, fluid_field="df"),
            ],
            seed=11,
        )
        report = _harness(chaos_dir, keep_checkpoints=4).run(plan)
        assert report.mismatches() == []
        assert report.all_completed and report.bit_identical

    def test_fault_free_plan_is_a_clean_pass(self, tmp_path):
        report = _harness(tmp_path).run(FaultPlan.of([], seed=0))
        assert report.mismatches() == []
        assert report.kills_survived == 0
        assert report.incident_counts.get("fault_injected", 0) == 0


class TestPlanShape:
    def test_standard_plan_is_deterministic_and_complete(self):
        plan = standard_plan(12, checkpoint_every=3, seed=5)
        assert plan == standard_plan(12, checkpoint_every=3, seed=5)
        kinds = sorted(fault.kind for fault in plan)
        assert kinds == ["corrupt_field", "kill_worker", "truncate_checkpoint"]

    def test_harness_rejects_empty_job_list(self, tmp_path):
        with pytest.raises(ValueError):
            ChaosHarness([], tmp_path)
