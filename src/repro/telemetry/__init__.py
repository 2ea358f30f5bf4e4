"""Lightweight, deterministic-by-construction instrumentation layer.

Every layer of the stack — event kernel, fastpath, link front end,
statistical-eye training, resilient sweep service — carries load-bearing
caches and loops whose behaviour the runtime otherwise cannot see: where
a slow sweep spends its time, whether the :mod:`repro.link.memo`
pulse-response cache actually hits, how often the process pool degraded
mid-run.  This package provides the measurement substrate without ever
feeding back into numerics:

* a nestable span :class:`Tracer` (context-manager API, monotonic
  ``time.perf_counter`` durations) with typed **counters**, **gauges**
  and **histograms**;
* a module-level :data:`ACTIVE` tracer that defaults to the falsy
  :data:`NULL_TRACER`, so the *disabled* path costs a single truthiness
  check in hot loops (``tr = telemetry.ACTIVE`` then ``if tr: ...``) and
  null spans are reusable no-op context managers;
* strict RFC 8259 JSONL export (via :mod:`repro._jsonio`) and a
  :mod:`repro.telemetry.report` sibling that folds a trace into
  :mod:`repro.reporting` tables.

**Telemetry never changes numerics.**  Instrumented code only *reads*
simulation state; enabling or disabling tracing is bit-identity-gated by
``tests/telemetry/test_determinism.py``.  Counter totals are integers
accumulated on deterministic code paths, so merged totals are identical
at any worker count; span and histogram *durations* are wall-clock and
are therefore kept out of every content hash and golden comparison.

Usage::

    from repro import telemetry

    with telemetry.trace("my-study") as tracer:
        result = run_grid(spec, axes, workers=4)
    tracer.write_jsonl("trace.jsonl")

Hot-loop instrumentation pattern (disabled cost ~ one truthiness check)::

    tr = telemetry.ACTIVE
    if tr:
        tr.count("link.pulse_cache.misses")

Span pattern (the null span makes the branch unnecessary)::

    with telemetry.ACTIVE.span("fastpath.run"):
        ...
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .._jsonio import dumps_compact, encode_json_value, read_jsonl

__all__ = [
    "TRACE_KIND",
    "TRACE_VERSION",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ACTIVE",
    "active",
    "activate",
    "trace",
    "read_trace",
]

#: Header ``kind`` of every JSONL trace file this module writes.
TRACE_KIND = "repro-telemetry-trace"

#: Trace file format version.
TRACE_VERSION = 1

#: Histogram name prefix under which span durations are auto-aggregated —
#: the per-stage time breakdown the report reads.
SPAN_HISTOGRAM_PREFIX = "span:"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: its nesting path and monotonic duration.

    ``path`` joins the names of every enclosing span with ``/`` (e.g.
    ``"sweep.map/sweep.chunk"``); ``start_s`` is relative to the tracer's
    creation instant.  Durations are wall-clock diagnostics — they never
    enter a content hash or golden comparison.
    """

    name: str
    path: str
    start_s: float
    duration_s: float

    def to_dict(self) -> dict:
        """Strict-JSON-safe representation."""
        return {
            "kind": "span",
            "name": self.name,
            "path": self.path,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }


class _Span:
    """Context manager recording one span on its tracer (re-entrant never)."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        path = "/".join(tracer._stack)
        tracer._stack.pop()
        tracer.spans.append(
            SpanRecord(
                name=self._name,
                path=path,
                start_s=self._start - tracer._origin,
                duration_s=duration,
            )
        )
        tracer.observe(SPAN_HISTOGRAM_PREFIX + path, duration)
        return False


class _NullSpan:
    """Reusable no-op span: the disabled path's context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Falsy do-nothing tracer bound to :data:`ACTIVE` while disabled.

    Hot loops guard with a single truthiness check (``if telemetry.ACTIVE``);
    span sites need no branch at all because :meth:`span` hands back one
    shared no-op context manager.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def span(self, name: str) -> _NullSpan:
        """A shared no-op context manager."""
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        """No-op."""

    def gauge(self, name: str, value: float) -> None:
        """No-op."""

    def observe(self, name: str, value: float) -> None:
        """No-op."""

    def merge_snapshot(self, snapshot: dict) -> None:
        """No-op."""


#: The process-wide no-op tracer (falsy).
NULL_TRACER = NullTracer()

#: The active tracer.  Hot code reads this module attribute directly —
#: ``tr = telemetry.ACTIVE`` — so swapping it via :func:`activate` /
#: :func:`trace` takes effect everywhere immediately.
ACTIVE: "Tracer | NullTracer" = NULL_TRACER


class Tracer:
    """Collects spans, counters, gauges and histograms for one trace.

    All mutation is O(1) dict work on plain Python numbers; nothing here
    touches simulation state, so instrumented code cannot change numerics.
    Counters hold integers (or plain sums) on deterministic code paths —
    their merged totals are worker-count-invariant — while span/histogram
    durations are wall-clock diagnostics.
    """

    __slots__ = ("name", "spans", "counters", "gauges", "histograms", "_stack", "_origin")

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict] = {}
        self._stack: list[str] = []
        self._origin = time.perf_counter()

    def __bool__(self) -> bool:
        return True

    # -- recording ------------------------------------------------------------

    def span(self, name: str) -> _Span:
        """Context manager timing one nested stage."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold *value* into histogram *name* (count/total/min/max)."""
        value = float(value)
        histogram = self.histograms.get(name)
        if histogram is None:
            self.histograms[name] = {
                "count": 1,
                "total": value,
                "min": value,
                "max": value,
            }
            return
        histogram["count"] += 1
        histogram["total"] += value
        if value < histogram["min"]:
            histogram["min"] = value
        if value > histogram["max"]:
            histogram["max"] = value

    # -- snapshots (cross-process shipping) -----------------------------------

    def snapshot(self) -> dict:
        """JSON-safe counters/gauges/histograms (picklable, keys sorted).

        The shape :meth:`merge_snapshot` consumes — how worker processes
        ship their metrics back alongside task results.  Spans are *not*
        part of a snapshot: their wall-clock timeline belongs to the
        process that recorded them; their durations still travel inside
        the ``span:`` histograms.
        """
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "histograms": {
                name: dict(self.histograms[name]) for name in sorted(self.histograms)
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this tracer.

        Counters add, gauges last-write-win, histograms combine their
        count/total/min/max.  Merging snapshots in a deterministic order
        (the resilient runner merges sorted by task seed path) keeps
        counter totals identical at any worker count.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, histogram in snapshot.get("histograms", {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = dict(histogram)
                continue
            mine["count"] += histogram["count"]
            mine["total"] += histogram["total"]
            if histogram["min"] < mine["min"]:
                mine["min"] = histogram["min"]
            if histogram["max"] > mine["max"]:
                mine["max"] = histogram["max"]

    # -- export ---------------------------------------------------------------

    def records(self) -> list[dict]:
        """The trace as JSONL records: header, spans, counters, gauges, histograms.

        Spans appear in completion order; counters/gauges/histograms are
        sorted by name so two traces of the same deterministic run differ
        only in wall-clock fields.
        """
        header = {
            "kind": TRACE_KIND,
            "version": TRACE_VERSION,
            "name": self.name,
        }
        records: list[dict] = [header]
        records.extend(span.to_dict() for span in self.spans)
        records.extend(
            {"kind": "counter", "name": name, "value": self.counters[name]}
            for name in sorted(self.counters)
        )
        records.extend(
            {"kind": "gauge", "name": name, "value": self.gauges[name]}
            for name in sorted(self.gauges)
        )
        records.extend(
            {"kind": "histogram", "name": name, **self.histograms[name]}
            for name in sorted(self.histograms)
        )
        return records

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the trace as strict RFC 8259 JSONL and return the path."""
        path = Path(path)
        lines = [dumps_compact(encode_json_value(record)) for record in self.records()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def read_trace(path: str | Path) -> dict:
    """Load a JSONL trace written by :meth:`Tracer.write_jsonl`.

    Returns ``{"name", "spans", "counters", "gauges", "histograms",
    "truncated_tail"}`` with spans as :class:`SpanRecord` objects and the
    scalar stores as plain dicts.  Raises ``ValueError`` when the file is
    not a telemetry trace.

    A torn trailing line (the writer was interrupted mid-append) is
    tolerated rather than fatal: :func:`repro._jsonio.read_jsonl` stops at
    the first malformed line, every complete record before it is
    returned, and the raw torn text is reported under
    ``"truncated_tail"`` (``None`` for an intact file).
    """
    path = Path(path)
    records, torn, _ = read_jsonl(path)
    if not records and torn is None:
        raise ValueError(f"{path} is empty, not a telemetry trace")
    header = records[0] if records else {}
    if header.get("kind") != TRACE_KIND:
        raise ValueError(f"{path} is not a telemetry trace")
    trace_data: dict = {
        "name": header.get("name", "trace"),
        "spans": [],
        "counters": {},
        "gauges": {},
        "histograms": {},
        "truncated_tail": torn,
    }
    for record in records[1:]:
        kind = record.get("kind")
        if kind == "span":
            trace_data["spans"].append(
                SpanRecord(
                    name=record["name"],
                    path=record["path"],
                    start_s=float(record["start_s"]),
                    duration_s=float(record["duration_s"]),
                )
            )
        elif kind == "counter":
            trace_data["counters"][record["name"]] = record["value"]
        elif kind == "gauge":
            trace_data["gauges"][record["name"]] = record["value"]
        elif kind == "histogram":
            trace_data["histograms"][record["name"]] = {
                "count": record["count"],
                "total": record["total"],
                "min": record["min"],
                "max": record["max"],
            }
    return trace_data


# -- activation ----------------------------------------------------------------


def active() -> "Tracer | NullTracer":
    """The currently active tracer (falsy :data:`NULL_TRACER` when disabled)."""
    return ACTIVE


def activate(tracer: "Tracer | NullTracer") -> "Tracer | NullTracer":
    """Bind *tracer* as :data:`ACTIVE`; returns the previously active one.

    Prefer the :func:`trace` context manager; ``activate`` exists for the
    resilient runner's worker processes, which must scope a task-local
    tracer around one guarded task and restore the previous binding.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = tracer
    return previous


@contextmanager
def trace(name: str = "trace"):
    """Enable tracing for the duration of the ``with`` block.

    Yields the fresh :class:`Tracer`; the previously active tracer (or
    the null tracer) is restored on exit, exception or not.
    """
    tracer = Tracer(name)
    previous = activate(tracer)
    try:
        yield tracer
    finally:
        activate(previous)
