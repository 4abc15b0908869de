"""Unified observability layer: tracing and metrics.

The paper's performance analysis rests on three instruments — gprof
flat profiles (Table I), OmpP parallel-region profiles (Table II), and
PAPI hardware counters (Figure 5).  This package is the library's
first-class telemetry subsystem that subsumes the ad-hoc pieces under
:mod:`repro.profiling`:

``tracer``   — span-based per-kernel/per-cube/per-thread timelines with
               ``chrome://tracing`` export and bridges to the gprof /
               OmpP analyses;
``metrics``  — a counters/gauges/histograms registry with JSON snapshot
               round-trip.

:class:`Telemetry` bundles one tracer and one registry and is the
object the :class:`~repro.api.Simulation` facade accepts::

    from repro.api import Simulation, SimulationConfig
    from repro.observe import Telemetry

    telemetry = Telemetry()
    sim = Simulation(SimulationConfig(fluid_shape=(16, 16, 16)),
                     telemetry=telemetry)
    sim.run(10)
    telemetry.collect(sim)                   # barrier/lock/trace stats
    telemetry.tracer.save_chrome_trace("trace.json")
    telemetry.metrics.save("metrics.json")

When no telemetry is attached every solver sees ``tracer is None`` and
skips all bookkeeping — the disabled path costs one attribute load per
instrumentation site and allocates nothing
(``tests/observe/test_tracer.py::TestDisabledPath`` pins it with
tracemalloc).
"""

from __future__ import annotations

from repro.observe.drift import DriftDetector
from repro.observe.metrics import Counter, Gauge, Histogram, MetricsRegistry, Quantiles
from repro.observe.tracer import (
    Span,
    Tracer,
    merge_chrome_traces,
    save_chrome_trace,
    span_tree_valid,
)

__all__ = [
    "Telemetry",
    "Tracer",
    "Span",
    "span_tree_valid",
    "merge_chrome_traces",
    "save_chrome_trace",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Quantiles",
    "DriftDetector",
]


class Telemetry:
    """One tracer plus one metrics registry, wired as a unit.

    Parameters
    ----------
    name:
        Trace label (chrome-trace process name).
    pid:
        Chrome-trace process id for multi-trace merges.
    """

    def __init__(self, name: str = "lbm-ib", pid: int = 0) -> None:
        self.tracer = Tracer(name=name, pid=pid)
        self.metrics = MetricsRegistry()

    def collect(self, sim) -> None:
        """Fold a simulation's solver-side statistics into the registry.

        Harvests whatever the underlying solver variant exposes:
        instrumented-barrier crossings and wait times, owner-lock
        acquisition/contention counts, the executed-task count of the
        async scheduler, and per-kernel busy seconds from the execution
        trace.  Call after :meth:`~repro.api.Simulation.run`.
        """
        # Accept a Simulation facade or a bare solver object; never
        # touch Simulation.solver (it force-builds the lazy variants).
        solver = getattr(sim, "_solver", None)
        if solver is None:
            solver = sim
        self.metrics.counter("sim.steps").inc(0)  # materialize the key
        barriers = getattr(solver, "barriers", None)
        if barriers:
            wait = self.metrics.histogram("parallel.barrier_wait_seconds")
            crossings = self.metrics.counter("parallel.barrier_crossings")
            for barrier in barriers.values():
                stats = barrier.stats
                crossings.inc(stats.crossings)
                if stats.crossings:
                    wait.observe(stats.total_wait_seconds)
        locks = getattr(solver, "locks", None)
        if locks is not None:
            self.metrics.counter("parallel.lock_acquisitions").inc(
                locks.total_acquisitions()
            )
            self.metrics.counter("parallel.lock_contentions").inc(
                locks.total_contentions()
            )
        tasks = getattr(solver, "tasks_executed", None)
        if tasks:
            self.metrics.counter("parallel.tasks_executed").inc(int(tasks))
        trace = getattr(solver, "trace", None)
        if trace is not None:
            for kernel, seconds in trace.seconds_by_kernel().items():
                self.metrics.histogram(f"kernel.{kernel}.seconds").observe(seconds)
            self.metrics.gauge("parallel.load_imbalance").set(
                trace.load_imbalance()
            )
