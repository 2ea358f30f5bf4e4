"""Offline/live status viewer for a resilient sweep's journal.

``python -m repro.telemetry.watch <checkpoint>`` reads the one JSONL
journal written by :func:`repro.sweep.resilient.map_tasks_resilient` and
renders a status report: run state, completion, failure / restore
counts, throughput and ETA, execution modes, pool-health transitions,
provenance from the embedded
:class:`~repro.telemetry.manifest.RunManifest`, and — when a trace file
is supplied — the per-stage time breakdown.  ``--follow`` re-renders
every ``--interval`` seconds until the run writes its ``end`` marker.

The module is deliberately **numpy-free**: it reads the journal through
:mod:`repro._jsonio` (guarded numpy import), whose torn-tail-tolerant
:func:`~repro._jsonio.read_jsonl` and header ``kind`` it shares with the
writer, and renders through the dependency-free :mod:`repro.reporting`
tables, so an operator can watch a sweep from an environment that cannot
import the simulation stack — the CI lint job smoke-tests exactly that.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from .._jsonio import check_identity, dumps_strict, read_jsonl
from ..reporting.tables import TextTable

__all__ = [
    "collect_status",
    "render_status",
    "main",
]

_COUNTS = ("done", "failed", "restored", "pending")


def collect_status(checkpoint: str | Path) -> dict:
    """Assemble the JSON-safe status dict of one checkpointed run.

    Durable point / failure counts and execution modes come from the
    task lines (the last line per index wins: a point re-run after a
    failure supersedes it).  Run counts come from the latest run's chunk
    progress; a run starts at a progress line of chunk 1.  A resume that
    restores every task appends nothing, so the report then still
    describes the run that wrote the last line.  A journal whose header
    a crash tore reads as an in-progress run with nothing stored, as a
    resume treats it.  Raises ``FileNotFoundError`` for a missing file
    and ``ValueError`` for one that is not a sweep journal.
    """
    checkpoint = Path(checkpoint)
    records, torn, _ = read_jsonl(checkpoint)
    header = check_identity(checkpoint, records, {}, torn)
    status: dict = {
        "checkpoint": str(checkpoint),
        "key": header.get("key"),
        "n_tasks": header.get("n_tasks"),
        "seed": header.get("seed"),
        "manifest": header.get("manifest"),
        "torn_tail": torn is not None,
    }

    latest: dict[int, dict] = {}
    progress: list[dict] = []
    for record in records[1:]:
        if record.get("kind") in ("point", "failure"):
            latest[int(record["index"])] = record
        if "progress" in record:
            if record["progress"].get("chunk") == 1:
                progress = []
            progress.append(record)
    kinds = [record["kind"] for record in latest.values()]
    status["durable"] = {"points": kinds.count("point"), "failures": kinds.count("failure")}
    by_mode: dict[str, int] = {}
    for record in latest.values():
        mode = str(record.get("mode"))
        by_mode[mode] = by_mode.get(mode, 0) + 1
    status["modes"] = {mode: by_mode[mode] for mode in sorted(by_mode)}

    run: dict = {"state": "in-progress"}
    if progress:
        last = progress[-1]
        run.update({name: last["progress"][name] for name in _COUNTS})
        run["chunks_done"] = last["progress"].get("chunk")
        run["chunks_planned"] = last["progress"].get("chunks")
        run["pool_transitions"] = [
            transition for record in progress for transition in record["progress"].get("pool", ())
        ]
        run["timing"] = last.get("timing")
        if last.get("end") is True:
            run["state"] = "completed"
    status["run"] = run

    n_tasks = status["n_tasks"]
    if "done" in run:
        processed = run["restored"] + run["done"] + run["failed"]
    else:
        processed = status["durable"]["points"] + status["durable"]["failures"]
    if n_tasks:
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
    for name in _COUNTS:
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
    table.add_row("durable points", status["durable"]["points"])
    table.add_row("durable failures", status["durable"]["failures"])
    if status["torn_tail"]:
        table.add_row("torn tail", "yes")
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
        # Deferred so the journal-only path never imports the report module.
        from .report import load_trace, stage_table

        parts.append(stage_table(load_trace(Path(trace))).render())

    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: one-shot (default) or ``--follow`` status rendering."""
    parser = argparse.ArgumentParser(
        description="Watch a resilient sweep via its checkpoint journal."
    )
    parser.add_argument("checkpoint", help="checkpoint journal path")
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
