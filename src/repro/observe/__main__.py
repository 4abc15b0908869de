"""Command-line entry points of the observability layer.

``python -m repro.observe trace-example [--output trace.json]``
    Runs a small FSI workload on the sequential solver (all nine
    Algorithm-1 kernels as per-step spans) and on the cube-parallel
    solver (per-cube spans tagged with thread and cube ids), and writes
    one merged ``chrome://tracing`` file plus a metrics snapshot next to
    it.  ``make trace-example`` wraps this.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.observe import Telemetry, merge_chrome_traces, save_chrome_trace


def _cmd_trace_example(args: argparse.Namespace) -> int:
    from repro.api import Simulation
    from repro.experiments.workloads import scaled_profiling_config

    steps = args.steps

    sequential = Telemetry(name="sequential", pid=0)
    config = scaled_profiling_config(scale=args.scale, solver="sequential")
    with Simulation(config, telemetry=sequential) as sim:
        sim.run(steps)
        sequential.collect(sim)

    cube = Telemetry(name=f"cube x{args.threads} threads", pid=1)
    cube_config = scaled_profiling_config(
        scale=args.scale, solver="cube", num_threads=args.threads
    )
    with Simulation(cube_config, telemetry=cube) as sim:
        sim.run(steps)
        cube.collect(sim)

    out = pathlib.Path(args.output)
    save_chrome_trace(
        out,
        merge_chrome_traces(
            sequential.tracer.to_chrome_trace(), cube.tracer.to_chrome_trace()
        ),
    )
    metrics_path = out.with_name(out.stem + "_metrics.json")
    cube.metrics.save(metrics_path)

    kernels = sorted({s.name for s in sequential.tracer.spans if s.cat == "kernel"})
    print(f"wrote {out} ({len(sequential.tracer)} sequential spans, "
          f"{len(cube.tracer)} cube spans over {steps} steps)")
    print(f"wrote {metrics_path}")
    print("sequential kernels traced: " + ", ".join(kernels))
    print("open the trace at chrome://tracing or https://ui.perfetto.dev")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe",
        description="telemetry tools: trace example",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser(
        "trace-example",
        help="trace a small run (sequential + cube) to chrome-trace JSON",
    )
    trace.add_argument(
        "--output", default="benchmarks/results/trace_example.json",
        help="chrome-trace output path",
    )
    trace.add_argument("--steps", type=int, default=3, help="steps to trace")
    trace.add_argument(
        "--scale", type=int, default=8,
        help="grid divisor of the Table-I workload (8 = tiny smoke grid)",
    )
    trace.add_argument(
        "--threads", type=int, default=2, help="cube-solver thread count"
    )
    trace.set_defaults(fn=_cmd_trace_example)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
