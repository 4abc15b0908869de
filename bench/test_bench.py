"""Self-test of the benchmark at ``--quick`` size.

Run from the repository root with ``python -m pytest bench/ -q``.  It
is not part of the library's test suite (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

import plan as plans
from stats import ROOT, load_spec

RUN = ROOT / "bench" / "run.py"


def run_bench(*args: str) -> tuple[int, dict[tuple[str, str], tuple[float, str]], dict]:
    """Exit code, ``{(workload, metric): (value, unit)}`` and the final JSON."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        workload, name, value, unit = line.split()
        printed[(workload, name)] = (float(value), unit)
    return proc.returncode, printed, json.loads(lines[-1])


@pytest.fixture(scope="module")
def quick_runs():
    return {trace: run_bench("--trace", str(trace)) for trace in (0, 1)}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_unit_and_finite_value(quick_runs, trace, section):
    code, printed, final = quick_runs[trace]
    assert code == 0 and final["correct"] and final["failed"] == 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    spec = load_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec[section]:
            value, unit = printed[(workload, metric["name"])]
            assert unit == metric["unit"]
            assert math.isfinite(value)
            assert math.isfinite(final["metrics"][f"{workload}.{metric['name']}"]["value"])
        assert printed[(workload, "failed_ratio")] == (0.0, "fraction")


@pytest.mark.parametrize("workload", ["table1_fused", "service_open"])
def test_forced_reference_mismatch_raises_failed_ratio(workload):
    code, printed, final = run_bench("--workload", workload, "--inject-mismatch")
    assert code != 0
    assert not final["correct"] and final["failed"] > 0
    assert printed[(workload, "failed_ratio")][0] > 0


def test_seed_changes_the_plan_but_not_the_metric_names(quick_runs):
    for workload in plans.WORKLOADS:
        plan_a = plans.make_plan(workload, 0, 20)
        assert plans.plan_digest(plan_a) == plans.plan_digest(plans.make_plan(workload, 0, 20))
        assert plans.plan_digest(plan_a) != plans.plan_digest(plans.make_plan(workload, 1, 20))
    code, printed, _ = run_bench("--seed", "1", "--workload", "service_open")
    assert code == 0
    seed0 = {name for (workload, name) in quick_runs[0][1] if workload == "service_open"}
    assert {name for (_, name) in printed} == seed0
