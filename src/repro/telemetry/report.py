"""Summarize a telemetry trace into :mod:`repro.reporting` tables.

A raw trace is a JSONL stream of spans and metric records; this module
folds it into the three summaries that answer the questions telemetry
exists for:

* **stage breakdown** — per span path: how often it ran, total/mean
  wall-clock time, share of the total traced time (where does a slow
  sweep spend its time?);
* **cache report** — every ``<name>.hits`` / ``<name>.misses`` counter
  pair as a hit rate (is the :mod:`repro.link.memo` pulse-response
  cache actually hitting?  how many budget-charged
  :class:`~repro.link.training.objective.StatEyeObjective` solves did
  memoisation save?);
* **pool health** — the resilient runner's task-mode, failure, rebuild,
  fallback and checkpoint-resume counters (how degraded was the run?).

Use :func:`summarize` for the full plain-text report, the ``*_table``
functions for individual :class:`repro.reporting.TextTable` views, or
:func:`stage_breakdown` for the JSON-safe dict the benchmark harness
embeds in ``BENCH_fastpath.json``.  Command line::

    PYTHONPATH=src python -m repro.telemetry.report trace.jsonl
    PYTHONPATH=src python -m repro.telemetry.report --history \\
        benchmarks/results/bench_history.jsonl

The ``--history`` mode reads the append-only bench-history ledger
(``benchmarks/run_bench.py`` appends one manifest-stamped record per
run) and renders each benchmark's trend beside its latest absolute
fast-path seconds (``fast_s``, where the benchmark records them).  An
entry is judged on the absolute seconds it records — each of the
event-kernel and fast-path legs (``event_s``, ``fast_s``) and the
solver times (``stateye_s``, ``training_s``) and the short-point grid
seconds (``short_point_s``) on its own — never on a
ratio of two legs, which improves when a shared layer slows both and
falls when one leg gets faster.  The seconds are rescaled by the
records' ``host_probe_ms`` (a fixed pure-Python slice timed in thread
CPU time) where both carry one, so a slow host phase alone reads as no
change.  Leg seconds count only in records that carry them to the
microsecond (``seconds_decimals``); earlier records rounded them to the
millisecond.  An entry with no such seconds is judged on its speedup.
Seconds that rise above their rolling median (over the previous
``--window`` runs) divided by ``--tolerance``, or a speedup that drops
below ``--tolerance`` times its median, are flagged as a regression and
the exit code is 1 — the soft trend gate beside the hard ``--floor``
one.
"""

from __future__ import annotations

import argparse
import math
import statistics
from pathlib import Path

from .._jsonio import dumps_strict, read_jsonl
from ..reporting.tables import TextTable
from . import SPAN_HISTOGRAM_PREFIX, Tracer, read_trace

__all__ = [
    "HISTORY_KIND",
    "HISTORY_VERSION",
    "load_trace",
    "stage_table",
    "cache_table",
    "pool_table",
    "counter_table",
    "stage_breakdown",
    "summarize",
    "history_entry",
    "load_history",
    "history_summary",
    "history_table",
    "main",
]

#: Counter-name prefixes summarized by the pool-health table.
POOL_COUNTER_PREFIXES = ("sweep.",)

#: ``kind`` tag of every ``bench_history.jsonl`` record
#: (``benchmarks/run_bench.py`` writes them, this module reads them).
HISTORY_KIND = "repro-bench-history"

#: Bench-history record format version.
HISTORY_VERSION = 1

#: Fields of a benchmark entry that its history record keeps: the speedup
#: always, the absolute fast-path and event-kernel seconds where the
#: benchmark measures them, the fast path's gated-ring bits/s
#: (``bittrue_kernels``), the statistical-eye solve and link-training
#: seconds (``stateye_vs_bittrue``, ``link_training``), whose speedups
#: divide by an extrapolated bit-true time and so move with the fast
#: path too, and the seconds of a grid of short fast-path points
#: (``short_point_s``, ``link_ber_vs_loss``), which the per-point fixed
#: cost dominates.  Older records lack the later fields and still load.
HISTORY_FIELDS = (
    "speedup", "fast_s", "event_s", "ring_bits_per_s", "stateye_s", "training_s", "short_point_s",
)

#: Absolute seconds that :func:`history_summary` judges, each on its own;
#: an entry whose latest record carries none of them is judged on its
#: speedup.
SECONDS_FIELDS = ("event_s", "fast_s", "stateye_s", "training_s", "short_point_s")

#: Decimals to which ``benchmarks/run_bench.py`` records a timed leg's
#: seconds; each history record says so in its ``seconds_decimals`` field.
SECONDS_DECIMALS = 6

#: Backend-leg seconds that records without ``seconds_decimals`` rounded
#: to the millisecond — up to a quarter of a few-millisecond leg — so
#: only records at :data:`SECONDS_DECIMALS` count for them.
LEG_SECONDS_FIELDS = ("event_s", "fast_s")


def load_trace(source: "str | Path | Tracer | dict") -> dict:
    """Normalize *source* into the dict shape :func:`read_trace` returns.

    Accepts a trace file path, a live :class:`~repro.telemetry.Tracer`,
    or an already-loaded trace dict.
    """
    if isinstance(source, Tracer):
        snapshot = source.snapshot()
        return {
            "name": source.name,
            "spans": list(source.spans),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
        }
    if isinstance(source, dict):
        return source
    return read_trace(source)


def _stage_rows(trace: dict) -> list[tuple[str, int, float, float]]:
    """(path, count, total_s, mean_s) per span stage, sorted by total time."""
    rows = []
    for name, histogram in trace["histograms"].items():
        if not name.startswith(SPAN_HISTOGRAM_PREFIX):
            continue
        path = name[len(SPAN_HISTOGRAM_PREFIX) :]
        count = int(histogram["count"])
        total = float(histogram["total"])
        rows.append((path, count, total, total / count if count else 0.0))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def stage_table(trace: dict) -> TextTable:
    """Per-stage time breakdown: count, total, mean, share of traced time.

    The *share* column normalizes by the top-level (depth-zero) span
    total, so nested stages show what fraction of the run they explain.
    """
    rows = _stage_rows(trace)
    top_level = sum(total for path, _count, total, _mean in rows if "/" not in path)
    table = TextTable(
        headers=["stage", "count", "total_s", "mean_s", "share"],
        title="stage breakdown",
    )
    for path, count, total, mean in rows:
        share = total / top_level if top_level > 0.0 else 0.0
        table.add_row(path, count, f"{total:.6g}", f"{mean:.6g}", f"{share:.1%}")
    return table


def _cache_names(counters: dict) -> list[str]:
    names = set()
    for name in counters:
        if name.endswith(".hits"):
            names.add(name[: -len(".hits")])
        elif name.endswith(".misses"):
            names.add(name[: -len(".misses")])
    return sorted(names)


def cache_table(trace: dict) -> TextTable:
    """Hit/miss/rate of every ``<cache>.hits`` / ``<cache>.misses`` pair."""
    counters = trace["counters"]
    table = TextTable(
        headers=["cache", "hits", "misses", "hit_rate"],
        title="cache hit rates",
    )
    for name in _cache_names(counters):
        hits = int(counters.get(name + ".hits", 0))
        misses = int(counters.get(name + ".misses", 0))
        lookups = hits + misses
        rate = hits / lookups if lookups else 0.0
        table.add_row(name, hits, misses, f"{rate:.1%}")
    return table


def pool_table(trace: dict) -> TextTable:
    """Pool-health summary: the resilient runner's ``sweep.*`` counters."""
    table = TextTable(headers=["metric", "value"], title="pool health")
    for name in sorted(trace["counters"]):
        if name.startswith(POOL_COUNTER_PREFIXES):
            table.add_row(name, trace["counters"][name])
    return table


def counter_table(trace: dict) -> TextTable:
    """Every counter of the trace, sorted by name."""
    table = TextTable(headers=["counter", "value"], title="counters")
    for name in sorted(trace["counters"]):
        table.add_row(name, trace["counters"][name])
    return table


def stage_breakdown(source: "str | Path | Tracer | dict") -> dict:
    """JSON-safe stage/cache/pool summary of a trace.

    The shape the benchmark harness embeds per ``BENCH_fastpath.json``
    entry: per-stage counts and total seconds, cache hit/miss pairs, and
    the raw counters.  Durations here are wall-clock diagnostics — never
    part of a content hash.
    """
    trace = load_trace(source)
    stages = {
        path: {"count": count, "total_s": round(total, 6)}
        for path, count, total, _mean in _stage_rows(trace)
    }
    caches = {}
    for name in _cache_names(trace["counters"]):
        hits = int(trace["counters"].get(name + ".hits", 0))
        misses = int(trace["counters"].get(name + ".misses", 0))
        lookups = hits + misses
        caches[name] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        }
    counters = {
        name: trace["counters"][name]
        for name in sorted(trace["counters"])
        if not name.endswith(".hits") and not name.endswith(".misses")
    }
    return {"stages": stages, "caches": caches, "counters": counters}


def summarize(source: "str | Path | Tracer | dict") -> str:
    """Render the full report: stage breakdown, cache rates, pool health."""
    trace = load_trace(source)
    parts = [f"telemetry report: {trace['name']}", ""]
    parts.append(stage_table(trace).render())
    cache = cache_table(trace)
    if cache.rows:
        parts.append(cache.render())
    pool = pool_table(trace)
    if pool.rows:
        parts.append(pool.render())
    remaining = [
        name
        for name in trace["counters"]
        if not name.startswith(POOL_COUNTER_PREFIXES)
        and not name.endswith(".hits")
        and not name.endswith(".misses")
    ]
    if remaining:
        table = TextTable(headers=["counter", "value"], title="other counters")
        for name in sorted(remaining):
            table.add_row(name, trace["counters"][name])
        parts.append(table.render())
    return "\n".join(parts)


# --- bench history ------------------------------------------------------------


def history_entry(entry: dict) -> dict:
    """The :data:`HISTORY_FIELDS` of one ``BENCH_fastpath.json`` benchmark entry."""
    return {key: entry[key] for key in HISTORY_FIELDS if key in entry}


def load_history(path: str | Path) -> list[dict]:
    """All complete :data:`HISTORY_KIND` records of a bench-history ledger.

    Torn-tail-tolerant through :func:`repro._jsonio.read_jsonl`: parsing
    stops at the first malformed line.  Raises ``ValueError`` when the
    file contains no history record at all (the watcher was pointed at
    the wrong file).
    """
    path = Path(path)
    records = [record for record in read_jsonl(path)[0] if record.get("kind") == HISTORY_KIND]
    if not records:
        raise ValueError(f"{path} contains no {HISTORY_KIND} records")
    return records


def _trend(judged: list[tuple[float, float | None]], *, seconds: bool,
           window: int, tolerance: float) -> dict:
    """Judge one metric's run-ordered ``(value, host_probe_ms)`` pairs.

    The latest value is compared with the median of the up-to-*window*
    values before it; seconds are first rescaled to the latest host speed
    where both records carry a probe.  ``ratio`` reads below 1 when the
    benchmark got slower.
    """
    latest, latest_probe = judged[-1]
    # Speedups are ratios taken on one host and stay raw.
    rescale = seconds and latest_probe is not None
    previous = [
        value * latest_probe / probe if rescale and probe else value
        for value, probe in judged[:-1][-window:]
    ]
    median = statistics.median(previous) if previous else None
    if seconds:
        ratio = median / latest if median and latest else None
    else:
        ratio = latest / median if median else None
    regression = len(previous) >= 2 and ratio is not None and ratio < tolerance
    return {"latest": latest, "median": median, "ratio": ratio, "regression": regression}


def history_summary(
    path: str | Path, *, window: int = 5, tolerance: float = 0.8
) -> dict:
    """JSON-safe trend summary of a bench-history ledger.

    Per benchmark name: every recorded speedup in run order, ``metrics``
    — for each judged metric its ``latest`` value, the ``median`` of the
    up-to-*window* earlier runs that record it, a ``ratio`` that reads
    below 1 when the benchmark got slower and a ``regression`` flag set
    when that ratio drops below *tolerance* — the same four fields and
    the ``metric`` name of the one that moved worst (a flagged one
    first, then the lowest ratio), and ``latest_fast_s``, the latest
    record's absolute fast-path seconds (``None`` when that record has
    none).  The judged metrics are the :data:`SECONDS_FIELDS` the latest
    entry records (ratio ``median / latest``), or its ``speedup`` when it
    records none; the :data:`LEG_SECONDS_FIELDS` count only in records
    whose ``seconds_decimals`` reaches :data:`SECONDS_DECIMALS`, as the
    latest value and as priors alike.  Seconds move with the host's
    speed, so where an earlier record and the latest one both carry a
    ``host_probe_ms``, the earlier seconds are first rescaled to the
    latest host speed (``seconds * latest_probe / probe``); records
    without a probe are compared raw.  A metric needs at least two prior
    runs before it can be flagged — a fresh ledger is never a
    regression.
    """
    records = load_history(path)
    entries: dict[str, list[tuple[dict, float | None, bool]]] = {}
    for record in records:
        probe_ms = record.get("host_probe_ms")
        rounded = record.get("seconds_decimals", 0) < SECONDS_DECIMALS
        for name, entry in record.get("entries", {}).items():
            entries.setdefault(name, []).append((entry, probe_ms, rounded))

    def recorded(run: dict, rounded: bool, metric: str) -> bool:
        return metric in run and not (rounded and metric in LEG_SECONDS_FIELDS)

    benchmarks: dict[str, dict] = {}
    regressions: list[str] = []
    for name in sorted(entries):
        runs = [entry for entry, _, _ in entries[name]]
        latest_rounded = entries[name][-1][2]
        judged = [
            key for key in SECONDS_FIELDS if recorded(runs[-1], latest_rounded, key)
        ] or ["speedup"]
        metrics = {
            metric: _trend(
                [(float(run[metric]), probe) for run, probe, rounded in entries[name]
                 if recorded(run, rounded, metric)],
                seconds=metric != "speedup", window=window, tolerance=tolerance,
            )
            for metric in judged
        }
        worst = min(judged, key=lambda metric: (
            not metrics[metric]["regression"],
            math.inf if metrics[metric]["ratio"] is None else metrics[metric]["ratio"],
        ))
        if metrics[worst]["regression"]:
            regressions.append(name)
        benchmarks[name] = {
            "speedups": [float(run["speedup"]) for run in runs],
            "metric": worst,
            **metrics[worst],
            "metrics": metrics,
            "latest_fast_s": runs[-1].get("fast_s"),
        }
    return {
        "kind": HISTORY_KIND,
        "runs": len(records),
        "window": window,
        "tolerance": tolerance,
        "benchmarks": benchmarks,
        "regressions": regressions,
    }


def history_table(summary: dict) -> TextTable:
    """Render a :func:`history_summary` dict as one trend row per benchmark.

    The row shows the judged metric that moved worst.
    """
    table = TextTable(
        headers=["benchmark", "runs", "metric", "median", "latest", "fast_s", "ratio", "status"],
        title=f"bench history ({summary['runs']} runs, "
        f"window {summary['window']}, tolerance {summary['tolerance']})",
    )
    for name, entry in summary["benchmarks"].items():
        unit = "x" if entry["metric"] == "speedup" else "s"
        median = f"{entry['median']:g}{unit}" if entry["median"] is not None else "-"
        ratio = f"{entry['ratio']:.2f}" if entry["ratio"] is not None else "-"
        fast_s = entry["latest_fast_s"]
        fast_s = f"{fast_s:g}s" if fast_s is not None else "-"
        status = "REGRESSION" if entry["regression"] else "ok"
        latest = f"{entry['latest']:g}{unit}"
        table.add_row(name, len(entry["speedups"]), entry["metric"], median, latest, fast_s,
                      ratio, status)
    return table


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: trace summary, or ``--history`` trends.

    Exit codes: 0 on success, 1 on an unreadable input or a flagged
    history regression, 2 on usage errors (argparse).
    """
    parser = argparse.ArgumentParser(
        description="Summarize a repro telemetry JSONL trace or bench history."
    )
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="path to a trace written by Tracer.write_jsonl",
    )
    parser.add_argument(
        "--history", metavar="PATH", default=None,
        help="render the trends of a bench_history.jsonl ledger instead",
    )
    parser.add_argument(
        "--window", type=int, default=5,
        help="rolling-median window of --history (default 5)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.8,
        help="regression threshold as a fraction of the rolling median (default 0.8)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    arguments = parser.parse_args(argv)
    if (arguments.trace is None) == (arguments.history is None):
        parser.error("exactly one of a trace path or --history is required")

    try:
        if arguments.history is not None:
            summary = history_summary(
                arguments.history, window=arguments.window, tolerance=arguments.tolerance
            )
            if arguments.format == "json":
                print(dumps_strict(summary, sort_keys=True))
            else:
                print(history_table(summary).render())
                for name in summary["regressions"]:
                    for metric, trend in summary["benchmarks"][name]["metrics"].items():
                        if not trend["regression"]:
                            continue
                        latest, median = trend["latest"], trend["median"]
                        if metric == "speedup":
                            moved = (
                                f"{latest:g}x fell below {arguments.tolerance:g}x "
                                f"its rolling median {median:g}x"
                            )
                        else:
                            moved = (
                                f"{latest:g}s rose above its rolling median "
                                f"{median:g}s / {arguments.tolerance:g}"
                            )
                        print(f"REGRESSION: {name} {metric} {moved}")
            return 1 if summary["regressions"] else 0
        if arguments.format == "json":
            print(dumps_strict(stage_breakdown(Path(arguments.trace)), sort_keys=True))
        else:
            print(summarize(Path(arguments.trace)))
        return 0
    except (OSError, ValueError) as exc:
        print(f"report: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
