#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

Usage::

    python bench/compare.py A.jsonl B.jsonl

Each file holds the JSON records ``run.py --out FILE`` appends, one per
workload run; A is the baseline, B the candidate.  For every (workload,
metric) present in both, the report gives each side's median and
quartiles (``statistics.quantiles(n=4)``) and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``within bound`` — B's median is no worse than A's by more than the
  bound;
* ``beyond bound`` — it is worse by more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell, unless every B run beats
  every A run (then ``better, all runs``).

Per-layer metrics have no bound; they are marked ``repeats`` when every
run on both sides reads the same value (counts), else ``-``.  The exit
code is 1 when any metric is beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from stats import load_spec, quartiles


def load_runs(path: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> tuple[str, float]:
    """``(verdict, relative change of B's median, positive = worse)``."""
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    if bound is None:
        return ("repeats" if len(set(a + b)) == 1 else "-"), worse
    spread = max(_spread(a), _spread(b))
    if spread > bound:
        wins = all(sign * (x - y) < 0 for x in b for y in a)
        return ("better, all runs" if wins else "unresolved"), worse
    return ("beyond bound" if worse > bound else "within bound"), worse


def _spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load_runs(args.baseline), load_runs(args.candidate)
    print(
        f"{'workload':20} {'metric':34} {'A q1/med/q3':>30} {'B q1/med/q3':>30}"
        f" {'worse':>8} {'bound':>6}  verdict"
    )
    beyond = False
    for key in sorted(a_runs.keys() & b_runs.keys()):
        workload, name = key
        meta = metrics.get(name)
        if meta is None:
            continue
        a, b = a_runs[key], b_runs[key]
        result, worse = verdict(a, b, meta["better"], meta.get("bound"))
        beyond |= result == "beyond bound"
        bound = "-" if meta.get("bound") is None else f"{meta['bound']:.2f}"
        print(
            f"{workload:20} {name:34} {_fmt(a):>30} {_fmt(b):>30}"
            f" {worse:+8.1%} {bound:>6}  {result} (n={len(a)}/{len(b)})"
        )
    return 1 if beyond else 0


def _fmt(values: list[float]) -> str:
    return "/".join(f"{v:.4g}" for v in quartiles(values))


if __name__ == "__main__":
    sys.exit(main())
