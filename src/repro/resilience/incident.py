"""Structured incident log: every fault, retry, and recovery, as data.

A resilient system that recovers *silently* is almost as bad as one
that crashes: operators need to know a rollback happened, how often,
and why.  :class:`IncidentLog` is an append-only, thread-safe event
journal kept by :class:`~repro.resilience.runner.ResilientRunner` and
the batch scheduler (and fed by
:class:`~repro.resilience.faults.FaultInjector`); its JSONL file is the
one durable record of a job.

The log is **crash-safe** when given a ``jsonl_path``: every
:meth:`~IncidentLog.record` appends one JSON line and flushes it to the
OS immediately, so a worker killed mid-run leaves a readable journal
tail on disk (the classic append-only write-ahead-log shape).
:meth:`IncidentLog.load` reads such a file back, tolerating a torn
final line from a kill mid-append.  Detail payloads are serialised
numpy-safely — numpy scalars and small arrays coming out of fault
hooks and invariant checkers never poison the journal with a
``TypeError`` at dump time.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = ["INCIDENTS_NAME", "Incident", "IncidentLog", "json_safe"]

#: Job-journal file name inside a runner or standalone scheduler workdir.
INCIDENTS_NAME = "incidents.jsonl"


def json_safe(value):
    """Recursively coerce ``value`` into JSON-serialisable built-ins.

    Numpy scalars become Python scalars, numpy arrays become (nested)
    lists, sets/tuples become lists, and anything else unknown falls
    back to ``str`` — the journal must never raise at record time.
    """
    import numpy as np

    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class Incident:
    """One resilience event.

    Attributes
    ----------
    seq:
        Monotonic sequence number within the log (total order even when
        events race in from worker threads).
    kind:
        Record kind: the job lifecycle of runner and scheduler alike
        (``"job_dispatched"``, ``"checkpoint_saved"`` /
        ``"_corrupt"`` / ``"_unstable"``, ``"job_retry"``,
        ``"job_completed"``, ``"job_failed"``), ``"fault_injected"``,
        and the batch-only ``"slot_ejected"``, ``"slot_diverged"``,
        ``"job_quarantined"``, ``"cancel_requested"``, ``"job_cancelled"``,
        ``"scheduler_resumed"``.
    step:
        Simulation time step the event refers to (``-1`` if not tied to
        a step).
    wall_time:
        ``time.time()`` at record time.
    detail:
        Free-form, JSON-safe payload (fault spec, error text, retry
        parameters, ...).
    """

    seq: int
    kind: str
    step: int
    wall_time: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe, numpy values coerced)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "step": self.step,
            "wall_time": self.wall_time,
            "detail": json_safe(self.detail),
        }


class IncidentLog:
    """Append-only, thread-safe journal of resilience events.

    Parameters
    ----------
    jsonl_path:
        Optional file to mirror every event into as one JSON line,
        flushed per record — the crash-safe on-disk form.  ``None``
        keeps the journal in memory only (tests, ad-hoc runs).
    """

    def __init__(self, jsonl_path: str | os.PathLike | None = None) -> None:
        self._events: list[Incident] = []
        self._lock = threading.Lock()
        self._jsonl_path: str | None = None
        self._jsonl = None
        if jsonl_path is not None:
            self.attach_jsonl(jsonl_path)

    # ------------------------------------------------------------------
    # crash-safe JSONL sink
    # ------------------------------------------------------------------
    @property
    def jsonl_path(self) -> str | None:
        """Path of the attached append-line journal (or ``None``)."""
        return self._jsonl_path

    def attach_jsonl(self, path: str | os.PathLike) -> None:
        """Mirror every future event into ``path`` (append, flush-per-record).

        A torn final line left by a kill mid-append is terminated first,
        so the next record starts on a line of its own instead of being
        glued to (and lost with) the fragment.
        """
        with self._lock:
            if self._jsonl is not None:
                self._jsonl.close()
            self._jsonl_path = os.fspath(path)
            torn = False
            if os.path.exists(self._jsonl_path) and os.path.getsize(self._jsonl_path):
                with open(self._jsonl_path, "rb") as fh:
                    fh.seek(-1, os.SEEK_END)
                    torn = fh.read(1) != b"\n"
            self._jsonl = open(self._jsonl_path, "a", encoding="utf-8")
            if torn:
                self._jsonl.write("\n")

    def close(self) -> None:
        """Close the JSONL sink (idempotent; the in-memory journal stays)."""
        with self._lock:
            if self._jsonl is not None:
                self._jsonl.close()
                self._jsonl = None

    def record(self, kind: str, step: int = -1, **detail) -> Incident:
        """Append one event; safe to call from worker threads.

        With a JSONL sink attached the event line is written and
        flushed before returning, so a process killed right after the
        triggering fault still leaves this record readable on disk.
        """
        with self._lock:
            event = Incident(
                seq=len(self._events),
                kind=kind,
                step=int(step),
                wall_time=time.time(),
                detail=detail,
            )
            self._events.append(event)
            if self._jsonl is not None:
                self._jsonl.write(json.dumps(event.to_dict()) + "\n")
                self._jsonl.flush()
                os.fsync(self._jsonl.fileno())
        return event

    @classmethod
    def load(cls, path: str | os.PathLike) -> "IncidentLog":
        """Rebuild a log from a JSONL journal written by a (dead) run.

        A torn final line — the process was killed mid-append — is
        skipped, so the readable tail of a crashed worker's journal
        always loads.
        """
        log = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from a mid-append kill
                with log._lock:
                    log._events.append(
                        Incident(
                            seq=len(log._events),
                            kind=str(data.get("kind", "unknown")),
                            step=int(data.get("step", -1)),
                            wall_time=float(data.get("wall_time", 0.0)),
                            detail=dict(data.get("detail", {})),
                        )
                    )
        return log

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[Incident]:
        """Snapshot of all events in sequence order."""
        with self._lock:
            return list(self._events)

    def events_of(self, kind: str) -> list[Incident]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        """Number of events of one kind."""
        return len(self.events_of(kind))

    def counts(self) -> dict[str, int]:
        """Event count per kind."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def to_json(self, indent: int = 2) -> str:
        """The full journal as a JSON document."""
        return json.dumps(
            {"events": [e.to_dict() for e in self.events], "counts": self.counts()},
            indent=indent,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
