"""Offline/live status viewer for resilient-sweep sidecar files.

``python -m repro.telemetry.watch <checkpoint>`` reads the checkpoint
and its ``.progress`` / ``.audit`` sidecars (written by
:func:`repro.sweep.resilient.map_tasks_resilient`) and renders a status
report: run state, completion, failure / retry / restore counts,
throughput and ETA, pool-health transitions, provenance from the
embedded :class:`~repro.telemetry.manifest.RunManifest`, and — when a
trace file is supplied — the per-stage time breakdown.  ``--follow``
re-renders every ``--interval`` seconds until the run writes its ``end``
record.

The module is deliberately **numpy-free**: it reads JSONL through
:mod:`repro._jsonio` (guarded numpy import) and renders through the
dependency-free :mod:`repro.reporting` tables, so an operator can watch
a sweep from an environment that cannot import the simulation stack —
the CI lint job smoke-tests exactly that.  For the same reason the
sidecar ``kind`` tags are mirrored here as constants instead of being
imported from :mod:`repro.sweep.resilient` (which imports numpy);
``tests/telemetry/test_watch.py`` pins the two copies equal.

Every reader is torn-tail-tolerant: an interrupted writer can tear at
most the trailing line of an append-only JSONL file, so parsing stops at
the first malformed line and everything durably written still counts —
the same discipline as the checkpoint/audit/trace readers.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from .._jsonio import dumps_strict, loads_strict
from ..reporting.tables import TextTable

__all__ = [
    "CHECKPOINT_KIND",
    "AUDIT_KIND",
    "PROGRESS_KIND",
    "read_jsonl_tolerant",
    "collect_status",
    "render_status",
    "main",
]

#: Mirrors of the private header kinds in :mod:`repro.sweep.resilient`
#: (unimportable here without numpy); pinned equal by the test suite.
CHECKPOINT_KIND = "repro-sweep-checkpoint"
AUDIT_KIND = "repro-sweep-audit"
PROGRESS_KIND = "repro-sweep-progress"


def read_jsonl_tolerant(path: Path) -> tuple[list[dict], str | None]:
    """All complete records of a JSONL file, plus any torn trailing text.

    Parsing stops at the first undecodable line (the signature of a
    crash or an in-flight append); the raw torn text is returned as the
    second element (``None`` for an intact file).
    """
    records: list[dict] = []
    truncated = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            record = loads_strict(line)
        except json.JSONDecodeError:
            truncated = line
            break
        if isinstance(record, dict):
            records.append(record)
    return records, truncated


def _read_sidecar(path: Path, kind: str) -> tuple[dict | None, list[dict], str | None]:
    """(header, body records, torn tail) of one sidecar, or all-empty.

    A missing or empty file yields ``(None, [], None)``; a file whose
    header is not *kind* raises ``ValueError`` (the watcher was pointed
    at the wrong file — better loud than a silently empty report).
    """
    if not path.exists() or path.stat().st_size == 0:
        return None, [], None
    records, truncated = read_jsonl_tolerant(path)
    if not records:
        return None, [], truncated
    header = records[0]
    if header.get("kind") != kind:
        raise ValueError(f"{path} is not a {kind} file (kind={header.get('kind')!r})")
    return header, records[1:], truncated


def collect_status(checkpoint: str | Path) -> dict:
    """Assemble the JSON-safe status dict of one checkpointed run.

    Reads ``<checkpoint>``, ``<checkpoint>.progress`` and
    ``<checkpoint>.audit``; each file is optional (the report states
    which were present).  Progress counts come from the latest run's
    events (a resumed run appends a fresh ``start`` record); durable
    point/failure counts come from the checkpoint itself.
    """
    checkpoint = Path(checkpoint)
    progress_path = checkpoint.with_name(checkpoint.name + ".progress")
    audit_path = checkpoint.with_name(checkpoint.name + ".audit")

    cp_header, cp_records, cp_torn = _read_sidecar(checkpoint, CHECKPOINT_KIND)
    pg_header, pg_records, pg_torn = _read_sidecar(progress_path, PROGRESS_KIND)
    au_header, au_records, au_torn = _read_sidecar(audit_path, AUDIT_KIND)
    if cp_header is None and pg_header is None:
        raise FileNotFoundError(
            f"neither {checkpoint} nor {progress_path} exists (or both are empty)"
        )

    header = pg_header if pg_header is not None else cp_header
    status: dict = {
        "checkpoint": str(checkpoint),
        "key": header.get("key"),
        "n_tasks": header.get("n_tasks"),
        "seed": header.get("seed"),
        "manifest": header.get("manifest"),
        "files": {
            "checkpoint": cp_header is not None,
            "progress": pg_header is not None,
            "audit": au_header is not None,
        },
        "torn_tails": {
            "checkpoint": cp_torn is not None,
            "progress": pg_torn is not None,
            "audit": au_torn is not None,
        },
    }

    # Durable truth from the checkpoint body: last record per index wins
    # (a point re-run after a failure supersedes the failure record).
    durable: dict[int, str] = {}
    for record in cp_records:
        if record.get("kind") in ("point", "failure"):
            durable[int(record["index"])] = record["kind"]
    status["durable"] = {
        "points": sum(1 for kind in durable.values() if kind == "point"),
        "failures": sum(1 for kind in durable.values() if kind == "failure"),
    }

    # Latest run = everything after the last "start" progress event.
    run: dict = {"state": "unknown", "events": 0}
    if pg_header is not None:
        last_start = 0
        for position, record in enumerate(pg_records):
            if record.get("kind") == "start":
                last_start = position
        events = pg_records[last_start:]
        run["events"] = len(events)
        run["pool_transitions"] = [
            record["transition"] for record in events if record.get("kind") == "pool"
        ]
        last = events[-1] if events else None
        if last is not None:
            for name in ("done", "failed", "restored", "retries", "pending"):
                if name in last:
                    run[name] = last[name]
            run["timing"] = last.get("timing")
        ended = any(record.get("kind") == "end" for record in events)
        run["state"] = "completed" if ended else "in-progress"
        chunk_ends = [record for record in events if record.get("kind") == "chunk-end"]
        starts = [record for record in events if record.get("kind") == "start"]
        run["chunks_done"] = len(chunk_ends)
        run["chunks_planned"] = starts[-1].get("chunks") if starts else None
    status["run"] = run

    # Execution-mode counts from the audit sidecar (last write per index wins).
    if au_header is not None:
        modes: dict[int, str] = {}
        for record in au_records:
            if record.get("kind") == "audit":
                modes[int(record["index"])] = str(record["mode"])
        by_mode: dict[str, int] = {}
        for mode in modes.values():
            by_mode[mode] = by_mode.get(mode, 0) + 1
        status["modes"] = {mode: by_mode[mode] for mode in sorted(by_mode)}

    n_tasks = status["n_tasks"]
    processed = None
    if "done" in run:
        processed = run.get("restored", 0) + run["done"] + run.get("failed", 0)
    elif cp_header is not None:
        processed = status["durable"]["points"] + status["durable"]["failures"]
    if processed is not None and n_tasks:
        status["completion"] = processed / n_tasks
    return status


def _format_seconds(value) -> str:
    if value is None:
        return "-"
    return f"{float(value):.1f}s"


def render_status(status: dict, trace: str | Path | None = None) -> str:
    """Render :func:`collect_status` output as aligned text tables."""
    parts = [f"sweep watch: {status['checkpoint']}", ""]

    run = status.get("run", {})
    timing = run.get("timing") or {}
    table = TextTable(headers=["field", "value"], title="run status")
    table.add_row("state", run.get("state", "unknown"))
    if status.get("n_tasks") is not None:
        table.add_row("tasks", status["n_tasks"])
    if "completion" in status:
        table.add_row("completion", f"{status['completion']:.1%}")
    for name in ("done", "failed", "restored", "retries", "pending"):
        if name in run:
            table.add_row(name, run[name])
    if run.get("chunks_planned") is not None:
        table.add_row("chunks", f"{run.get('chunks_done', 0)}/{run['chunks_planned']}")
    if timing:
        table.add_row("elapsed", _format_seconds(timing.get("elapsed_s")))
        throughput = timing.get("throughput_pts_per_s")
        table.add_row("throughput", f"{throughput:.2f} pts/s" if throughput else "-")
        table.add_row("eta", _format_seconds(timing.get("eta_s")))
    if run.get("pool_transitions"):
        table.add_row("pool", ", ".join(run["pool_transitions"]))
    durable = status.get("durable", {})
    if status["files"]["checkpoint"]:
        table.add_row("durable points", durable.get("points", 0))
        table.add_row("durable failures", durable.get("failures", 0))
    torn = [name for name, flag in status["torn_tails"].items() if flag]
    if torn:
        table.add_row("torn tails", ", ".join(sorted(torn)))
    parts.append(table.render())

    if status.get("modes"):
        table = TextTable(headers=["mode", "tasks"], title="execution modes")
        for mode, count in status["modes"].items():
            table.add_row(mode, count)
        parts.append(table.render())

    manifest = status.get("manifest")
    if manifest:
        table = TextTable(headers=["field", "value"], title="provenance")
        for name in ("backend", "python", "numpy", "platform", "seed"):
            if manifest.get(name) is not None:
                table.add_row(name, manifest[name])
        parts.append(table.render())

    if trace is not None and Path(trace).exists():
        # Deferred so the sidecar-only path never imports the report module.
        from .report import load_trace, stage_table

        parts.append(stage_table(load_trace(Path(trace))).render())

    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: one-shot (default) or ``--follow`` status rendering."""
    parser = argparse.ArgumentParser(
        description="Watch a resilient sweep via its checkpoint sidecar files."
    )
    parser.add_argument("checkpoint", help="checkpoint path (sidecars are derived from it)")
    parser.add_argument(
        "--trace", default=None, help="optional telemetry trace for a stage breakdown"
    )
    parser.add_argument(
        "--follow", action="store_true", help="re-render until the run completes"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="--follow refresh period in seconds"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    arguments = parser.parse_args(argv)

    try:
        while True:
            try:
                status = collect_status(arguments.checkpoint)
            except (FileNotFoundError, ValueError) as exc:
                print(f"watch: {exc}")
                return 1
            if arguments.format == "json":
                print(dumps_strict(status, sort_keys=True))
            else:
                print(render_status(status, trace=arguments.trace))
            if not arguments.follow or status.get("run", {}).get("state") == "completed":
                return 0
            time.sleep(arguments.interval)
    except BrokenPipeError:
        # Status output is routinely piped (`watch ... | head`); a closed
        # reader ends the watch, it is not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
