"""Autotuner benchmark: auto-tuned vs hand-picked configurations.

Measures every candidate of the tuning space for the Table-I profiling
workload (the exhaustive "hand-picked" sweep a careful human would
run), then lets the :class:`~repro.tuning.autotuner.Autotuner` choose
with its budgeted top-N probe, and records how close the automatic
decision lands:

* ``auto_vs_best`` — auto-tuned step time over the best exhaustively
  measured candidate (the acceptance bar is <= 1.05);
* ``worst_vs_auto`` — worst candidate over the auto-tuned choice (the
  bar is >= 1.3: tuning must matter);
* per-candidate prediction-vs-measured error, raw and after the
  ``model_scale`` recalibration the probe round derives.

``make bench-tune`` writes ``BENCH_tune.json``; ``python -m
repro.experiments tune`` prints the table; the CI smoke job runs a
tiny grid with a few-second probe budget and asserts the error summary
finite.
"""

from __future__ import annotations

import math
import statistics

from repro.experiments.workloads import scaled_profiling_config
from repro.tuning.autotuner import Autotuner
from repro.tuning.cache import DecisionCache
from repro.tuning.predict import predict_ranking
from repro.tuning.probe import probe_candidates
from repro.tuning.space import TuningWorkload, candidate_space

__all__ = ["render_bench_tune", "run_bench_tune"]


def run_bench_tune(
    scale: int = 2,
    steps: int = 3,
    warmup: int = 1,
    repeats: int = 3,
    batch_size: int = 4,
    precision: str = "float32",
    budget_seconds: float | None = None,
    cache_path: str | None = None,
) -> dict:
    """The complete ``BENCH_tune.json`` record.

    ``scale=2`` is the Table-I profiling grid (62 x 32 x 32);
    ``precision="float32"`` requests the float32 contract so the
    precision axis (float32 vs mixed) participates in the search.
    The exhaustive sweep shares the probe stage's interleaved min-of-R
    discipline, so the "hand-picked" numbers and the tuner's probes
    are measured identically.
    """
    from dataclasses import replace

    base = replace(scaled_profiling_config(scale=scale), precision=precision)
    workload = TuningWorkload.from_config(base, batch_size=batch_size)
    candidates = candidate_space(workload)
    predictions = predict_ranking(workload, candidates)
    predicted = {p.candidate.label(): p.seconds for p in predictions}

    # Exhaustive hand-picked sweep: measure *every* candidate.
    sweep = probe_candidates(
        base, candidates, steps=steps, warmup_steps=warmup, repeats=repeats
    )
    measured = {r.candidate.label(): r.seconds for r in sweep}

    # The automatic path: fresh cache, budgeted top-N probe.
    tuner = Autotuner(
        cache=DecisionCache(path=cache_path),
        probe_steps=steps,
        probe_warmup=warmup,
        probe_repeats=repeats,
        budget_seconds=budget_seconds,
    )
    report = tuner.tune(base, batch_size=batch_size, force=True)
    decision = report.decision
    auto_label = decision.candidate.label()

    # Judge the auto decision on the exhaustive sweep's own numbers so
    # the comparison is apples-to-apples (same rounds, same machine
    # moment); fall back to the tuner's probe if the sweep skipped it.
    auto_seconds = measured.get(auto_label, decision.measured_seconds)
    best_label, best_seconds = min(measured.items(), key=lambda kv: kv[1])
    worst_label, worst_seconds = max(measured.items(), key=lambda kv: kv[1])

    scale_factor = decision.model_scale
    rows = []
    errors = []
    for label in sorted(measured, key=measured.get):
        pred = predicted[label]
        meas = measured[label]
        error = (pred - meas) / meas
        recal = (pred * scale_factor - meas) / meas
        errors.append(error)
        rows.append(
            {
                "label": label,
                "predicted_seconds": pred,
                "measured_seconds": meas,
                "prediction_error": error,
                "recalibrated_error": recal,
                "auto": label == auto_label,
            }
        )

    return {
        "workload": {
            "scale": scale,
            "fluid_shape": list(base.fluid_shape),
            "key": workload.key(),
            "batch_size": batch_size,
            "precision": precision,
            "steps": steps,
            "warmup": warmup,
            "repeats": repeats,
        },
        "candidates": rows,
        "decision": decision.to_dict(),
        "auto": {"label": auto_label, "seconds": auto_seconds},
        "best": {"label": best_label, "seconds": best_seconds},
        "worst": {"label": worst_label, "seconds": worst_seconds},
        "auto_vs_best": auto_seconds / best_seconds,
        "worst_vs_auto": worst_seconds / auto_seconds,
        "model_scale": scale_factor,
        "prediction_error_summary": {
            "median_abs": statistics.median(abs(e) for e in errors),
            "max_abs": max(abs(e) for e in errors),
            "finite": all(math.isfinite(e) for e in errors),
        },
    }


def render_bench_tune(result: dict) -> str:
    """Text table of a :func:`run_bench_tune` record."""
    w = result["workload"]
    shape = "x".join(str(n) for n in w["fluid_shape"])
    lines = [
        "Workload-adaptive autotuner (model-guided search + measured probes)",
        f"  workload: {w['key']} (grid {shape}, batch {w['batch_size']}, "
        f"{w['steps']} steps x {w['repeats']} interleaved rounds)",
        "",
        f"  {'candidate':<32} {'pred ms':>9} {'meas ms':>9} {'err':>7} "
        f"{'recal':>7}  pick",
    ]
    for row in result["candidates"]:
        pick = "auto" if row["auto"] else ""
        if row["label"] == result["best"]["label"]:
            pick = (pick + " best").strip()
        lines.append(
            f"  {row['label']:<32} {row['predicted_seconds'] * 1e3:>9.4f} "
            f"{row['measured_seconds'] * 1e3:>9.4f} "
            f"{row['prediction_error']:>+7.2f} "
            f"{row['recalibrated_error']:>+7.2f}  {pick}"
        )
    summary = result["prediction_error_summary"]
    lines += [
        "",
        f"  auto decision : {result['auto']['label']} "
        f"({result['auto']['seconds'] * 1e3:.4f} ms/step)",
        f"  auto_vs_best  : {result['auto_vs_best']:.3f}x "
        "(acceptance <= 1.05)",
        f"  worst_vs_auto : {result['worst_vs_auto']:.3f}x "
        "(acceptance >= 1.3)",
        f"  model_scale   : {result['model_scale']:.3g} "
        f"(median |err| {summary['median_abs']:.2f}, "
        f"max |err| {summary['max_abs']:.2f})",
    ]
    return "\n".join(lines)
