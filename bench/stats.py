"""Small helpers shared by the runners, ``run.py`` and ``compare.py``."""

from __future__ import annotations

import json
import math
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def load_spec() -> dict:
    """``BENCHMARK.json``: workload and metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    data = list(values)
    if len(data) < 2:
        value = data[0] if data else math.nan
        return value, value, value
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def mean(values) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0
