"""Bench-side tracing: spans recorded around public library calls.

The benchmark adds no instrumentation to the library.  Its spans come
from two sources:

* :class:`Recorder` spans taken by the benchmark's own code around the
  calls it makes (``Simulation.run(1)``, ``SimulationService.submit``,
  ``poll``, ``stream`` events) and by wrappers that :func:`rebound`
  installs over public callables for the length of a traced pass
  (``BatchScheduler.run``, ``BatchedLBMIBSolver.step`` and the
  scheduler's ``save_checkpoint``);
* kernel spans from the solvers' existing ``telemetry=`` hook, given a
  parent by time containment (:meth:`Recorder.adopt`).

Spans are kept in memory and written once, as a chrome trace, when the
pass ends.  Each span carries a name, start, end, parent span id and the
job id it belongs to; a span's self time is its duration minus the part
covered by its children.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    job: str | None = None
    tid: int = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Thread-safe span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None):
        """Record the enclosed block; nested spans get it as parent."""
        stack = self._stack()
        sid = self.new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, parent=parent, job=job, sid=sid)

    def add(self, name, start, end, parent=None, job=None, sid=None, tid=None) -> int:
        """Record a span measured by the caller; returns its id."""
        sid = self.new_id() if sid is None else sid
        tid = threading.get_ident() if tid is None else tid
        with self._lock:
            self.spans.append(Span(sid, name, start, end, parent, job, tid))
        return sid

    def named(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def adopt(self, kernel_spans, parent_name: str) -> None:
        """Add library tracer spans under the ``parent_name`` span that
        contains each one (parents of one name never overlap in time)."""
        parents = sorted(self.named(parent_name), key=lambda s: s.start)
        starts = [p.start for p in parents]
        for k in kernel_spans:
            i = bisect.bisect_right(starts, k.start) - 1
            parent = parents[i] if i >= 0 and k.start + k.duration <= parents[i].end + 1e-6 else None
            self.add(
                k.name,
                k.start,
                k.start + k.duration,
                parent=None if parent is None else parent.id,
                job=None if parent is None else parent.job,
                tid=0 if parent is None else parent.tid,
            )

    def self_ms(self) -> dict[str, dict]:
        """Per span name: count, total ms and self ms (total − children)."""
        with self._lock:
            spans = list(self.spans)
        child_ms: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        table: dict[str, dict] = {}
        for s in spans:
            row = table.setdefault(s.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += s.ms
            row["self_ms"] += s.ms - child_ms.get(s.id, 0.0)
        return table

    def save_chrome_trace(self, path) -> None:
        """Write every span as a ``chrome://tracing`` / Perfetto file.

        Jobs overlap on the event-loop thread, so ``job`` spans are
        async events; all others are complete events on their thread.
        """
        with self._lock:
            spans = list(self.spans)
        epoch = min((s.start for s in spans), default=0.0)
        lanes: dict[int, int] = {}
        events = []
        for s in spans:
            tid = lanes.setdefault(s.tid, len(lanes))
            args = {"id": s.id, "parent": s.parent, "job": s.job}
            ts = (s.start - epoch) * 1e6
            if s.name == "job":
                common = {"name": s.job or "job", "cat": "job", "id": s.id, "pid": 0, "tid": tid}
                events.append({**common, "ph": "b", "ts": ts, "args": args})
                events.append({**common, "ph": "e", "ts": (s.end - epoch) * 1e6})
            else:
                events.append(
                    {"name": s.name, "ph": "X", "pid": 0, "tid": tid, "ts": ts,
                     "dur": (s.end - s.start) * 1e6, "args": args}
                )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


@contextlib.contextmanager
def rebound(owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)`` inside the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def count_calls(fn, *args) -> tuple[int, int]:
    """``(c_calls, python_calls)`` of ``fn(*args)``, counted with ``sys.setprofile``.

    The call of ``fn`` itself and of ``sys.setprofile(None)`` are
    included, so the counts repeat exactly for identical work.
    """
    counts = {"c_call": 0, "call": 0}

    def profile(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts["c_call"], counts["call"]
