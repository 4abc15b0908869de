#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root::

    python bench/run.py                               # all workloads
    python bench/run.py --workload table1_fused --seed 3
    python bench/run.py --trace                       # per-layer pass
    python bench/run.py --seconds 20 --out runs.jsonl # append records

Each workload runs in a fresh subprocess with one BLAS/OpenMP thread;
``setup_s`` is the median over several such subprocesses of the time
from their first line (before the library is imported) to the first
timed operation.  Workloads, metric names, units and regression bounds
live in ``BENCHMARK.json``.

Output: one ``workload metric value unit`` line per metric, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; ``bench/out/result.json`` receives one record per
workload.  The exit code is non-zero when a correctness check fails or
a workload cannot run.  ``--trace`` runs each workload at a quarter of
its size with bench-side spans and the solvers' telemetry hook, prints
the per-layer metrics, and writes ``bench/out/trace-<workload>.json``
(chrome://tracing or Perfetto).
"""

import time

T0 = time.perf_counter()  # start of setup_s: nothing imported yet

import argparse
import json
import os
import statistics
import subprocess
import sys

import plan as plans
from stats import OUT_DIR, ROOT, load_spec

#: Subprocesses whose set-up time is measured per workload (the median
#: is reported).
SETUP_REPEATS = 5
#: A workload's subprocesses must finish within this many seconds.
WORKLOAD_TIMEOUT_S = 170.0
#: Traced passes run this fraction of the workload.
TRACE_FRACTION = 0.25
#: ``--quick`` caps the memory-resident bandwidth arrays at this size.
QUICK_DRAM_BYTES = 32 << 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="extend", nargs="+", choices=plans.WORKLOADS,
        help="workload(s) to run (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=plans.DEFAULT_SEED,
        help=f"input seed (default {plans.DEFAULT_SEED}; hold-out seed {plans.HOLDOUT_SEED})",
    )
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="run length: the work is sized to about this many seconds (default 20)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): quarter-size traced pass reporting per-layer metrics",
    )
    parser.add_argument("--out", help="append one JSON record per workload to this file")
    parser.add_argument(
        "--quick", action="store_true",
        help="self-test size: 1 s of work, one set-up, small bandwidth arrays",
    )
    parser.add_argument("--inject-mismatch", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 1.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = list(dict.fromkeys(args.workload or plans.WORKLOADS))
    return args


# ----------------------------------------------------------------------
# parent: one subprocess per measurement
# ----------------------------------------------------------------------
def _spawn(workload: str, args, deadline: float, setup_only: bool = False) -> dict | None:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--setup-only"] * setup_only + ["--quick"] * args.quick
    cmd += ["--inject-mismatch"] * args.inject_mismatch
    src = str(ROOT / "src")
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
    )
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"# {workload}: no result within {WORKLOAD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {workload}: measurement process exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _measure(workload: str, args) -> dict | None:
    """All subprocesses of one workload, folded into one record."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    setups = []
    repeats = 1 if args.quick or args.trace else SETUP_REPEATS
    for _ in range(repeats - 1):
        child = _spawn(workload, args, deadline, setup_only=True)
        if child is None:
            return None
        setups.append(child["setup_s"])
    child = _spawn(workload, args, deadline)
    if child is None:
        return None
    if not args.trace:
        setups.append(child["metrics"]["setup_s"])
        child["metrics"]["setup_s"] = statistics.median(setups)
        child["setup_samples_s"] = setups
    return child


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    spec = load_spec()
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}
    records = []
    for workload in args.workload:
        child = _measure(workload, args)
        if child is None:
            return 1
        metrics = {
            name: {"value": child["metrics"][name], "unit": unit} for name, unit in units.items()
        }
        record = {
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "plan_digest": child["plan_digest"],
            "correct": child["failed"] == 0,
            "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": metrics,
        }
        records.append(record)
        _print_record(record, child)
    _save(records, args.out)
    single = len(records) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"): value
            for r in records
            for name, value in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in records) else 1


def _print_record(record: dict, child: dict) -> None:
    workload = record["workload"]
    print(f"# {workload}: seed {record['seed']}, plan {record['plan_digest']}")
    for note in child.get("notes", []):
        print(f"# {workload}: check failed: {note}")
    for name, row in child.get("self_ms", {}).items():
        print(
            f"# {workload}: span {name}: n={row['count']} total_ms={row['total_ms']:.1f}"
            f" self_ms={row['self_ms']:.1f}"
        )
    host = child.get("host")
    if host:
        fits = "fits" if host["lattice_fits_llc"] else "does not fit"
        source = "sysfs" if host["llc_from_sysfs"] else "assumed"
        print(
            f"# {workload}: LLC {host['llc_bytes'] / 2**20:.0f} MiB ({source}); lattice"
            f" {host['lattice_bytes'] / 1e6:.1f} MB {fits} in it; copy arrays"
            f" {host['llc_array_bytes'] / 1e6:.1f} MB (llc) and"
            f" {host['dram_array_bytes'] / 2**20:.0f} MiB (dram)"
        )
    if "samples" in child:
        counts = ", ".join(f"{k}={v:g}" for k, v in child["samples"].items())
        print(f"# {workload}: samples: {counts}")
    if "setup_samples_s" in child:
        samples = ", ".join(f"{s:.3f}" for s in child["setup_samples_s"])
        print(f"# {workload}: setup_s samples: {samples}")
    if "trace_file" in child:
        print(f"# {workload}: chrome trace {child['trace_file']}")
    for name, row in record["metrics"].items():
        print(f"{workload} {name} {row['value']:.6g} {row['unit']}")
    ratio = record["failed"] / record["attempted"]
    print(f"{workload} failed_ratio {ratio:.6g} fraction")


def _save(records: list[dict], out: str | None) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    text = "".join(json.dumps(r) + "\n" for r in records)
    (OUT_DIR / "result.json").write_text(text)
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# child: one measurement in a fresh interpreter
# ----------------------------------------------------------------------
def child_main(args) -> int:
    (workload,) = args.workload
    plan = plans.make_plan(workload, args.seed, args.seconds)
    if args.trace:
        plan = plans.scaled(plan, TRACE_FRACTION)
    run = _child_table1 if workload.startswith("table1") else _child_service
    record = run(plan, args)
    record["plan_digest"] = plans.plan_digest(plan)
    print(json.dumps(record))
    return 0


def _traced_record(plan: dict, args, layer_metrics: dict, recorder, lattice_bytes: int) -> dict:
    """Probe the host, fill every per-layer metric (0 where a layer does
    not run) and write the chrome trace."""
    import host

    info = host.probe(lattice_bytes, QUICK_DRAM_BYTES if args.quick else None)
    metrics = {m["name"]: 0.0 for m in load_spec()["per_layer"]}
    metrics.update(layer_metrics)
    metrics["host.copy_gbs_llc"] = info["copy_gbs_llc"]
    metrics["host.copy_gbs_dram"] = info["copy_gbs_dram"]
    metrics["core.lbm.bw_ratio"] = metrics["core.lbm.achieved_gbs"] / info["copy_gbs_llc"]
    path = OUT_DIR / f"trace-{plan['workload']}.json"
    recorder.save_chrome_trace(path)
    return {
        "metrics": metrics,
        "host": info,
        "self_ms": recorder.self_ms(),
        "trace_file": str(path.relative_to(ROOT)),
    }


def _child_table1(plan: dict, args) -> dict:
    import table1
    from spans import Recorder

    sim = table1.setup(plan)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return {"setup_s": setup_s}
    if args.trace:
        recorder = Recorder()
        layers = table1.traced(plan, sim, recorder)
        record = _traced_record(plan, args, layers, recorder, table1.lattice_bytes(plan, sim))
    else:
        times, _ = table1.timed_steps(sim, plan["steps"])
        metrics = table1.end_to_end(plan, sim, times)
        metrics["setup_s"] = setup_s
        record = {"metrics": metrics, "samples": {"steps": len(times), "windows": plan["windows"]}}
    attempted, failed, notes = table1.check(plan, sim, args.inject_mismatch)
    record.update(attempted=attempted, failed=failed, notes=notes)
    return record


def _child_service(plan: dict, args) -> dict:
    import serving
    from spans import Recorder

    if args.trace:
        untraced = serving.run_pass(plan)
        recorder = Recorder()
        traced = serving.run_pass(plan, recorder=recorder)
        layers = serving.per_layer(traced, recorder, untraced)
        record = _traced_record(plan, args, layers, recorder, serving.lattice_bytes(plan))
        passes = [untraced, traced]
    else:
        measured = serving.run_pass(plan, t0=T0, setup_only=args.setup_only)
        if args.setup_only:
            return {"setup_s": measured.setup_s}
        metrics = serving.end_to_end(plan, measured)
        metrics["setup_s"] = measured.setup_s
        record = {
            "metrics": metrics,
            "samples": {
                "jobs_completed": len(serving.completed(measured)),
                "sweeps": len(measured.sweeps),
                "loadgen_lag_ms_p90": serving.loadgen(measured)["loadgen.lag_ms_p90"],
            },
        }
        passes = [measured]
    attempted = failed = 0
    notes = []
    for measured in passes:
        a, f, n = serving.check(measured, args.inject_mismatch)
        attempted, failed, notes = attempted + a, failed + f, notes + n
    record.update(attempted=attempted, failed=failed, notes=notes)
    return record


if __name__ == "__main__":
    sys.exit(main())
