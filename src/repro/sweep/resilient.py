"""Fault-tolerant, checkpointed, chunked execution of sweep tasks.

Deterministic seeding is the contract: task *i*'s random stream is
``np.random.default_rng(SeedSequence(seed).spawn(n)[i])``, so it depends
only on ``(seed, i)`` — never on the worker count, the chunking, or
whether the task ran in a pool process, serially, or after a resume.
On that contract :func:`map_tasks_resilient` adds three properties:

**Failure isolation.**  Every task runs once inside a per-task ``try`` /
``except`` boundary (:func:`_guarded`, executed identically in-pool and
in-process).  A raising task becomes a structured :class:`TaskFailure`
(exception type, message, traceback tail, seed path) instead of killing
the grid; the ``failure_policy`` knob selects whether failures are
collected (``"collect"``) or abort the run after the current chunk is
checkpointed (``"raise"``).  A worker is a deterministic function of
its task and its SeedSequence child, so running a failed task again
would only raise again: a failed point is re-run by a resume, after
its cause is fixed.

**Checkpoint / resume.**  Tasks execute in chunks of ``chunk_size``
(bounding peak in-flight memory); a checkpointed run keeps one strict
RFC 8259 JSONL journal, written through :class:`repro._jsonio.Journal`.
Its header carries the study identity: a content hash of the task list
and seed (or an explicit ``checkpoint_key``), the task count, the seed
and the format version.  Each completed chunk is appended with one
``fsync``, so resuming re-runs only missing and failed points — and
because per-task streams depend only on ``(seed, index)``, the merged
result is bit-identical to a single uninterrupted run.  A crash-torn
trailing line is tolerated and cut off before the next append; a
foreign header raises :class:`CheckpointMismatchError` instead of
silently mixing studies.

**Pool robustness.**  Pool-layer failures are distinguished from worker
exceptions (which the guarded boundary always converts to outcomes):
a spawn-time ``OSError`` / ``PermissionError`` means the environment
cannot fork and the run degrades to serial execution permanently; a
``BrokenProcessPool`` mid-chunk (a worker process died hard) re-executes
the affected tasks serially and rebuilds the pool once before giving up
on it.  Every task records its execution mode and duration in a
:class:`TaskAudit`.

**Observability.**  When a :mod:`repro.telemetry` tracer is active, each
guarded task runs under a fresh task-local tracer whose counter/gauge/
histogram snapshot is shipped back alongside the task outcome — pooled
and serial execution alike — and merged into the parent tracer in task
index order (equivalently: sorted by seed path, since spawn keys are
per-index).  Counter totals are therefore identical at any worker
count.  The parent additionally records ``sweep.chunk`` spans and
``sweep.*`` pool-health counters (tasks by mode, failures, pool
breakages and spawn fallbacks, checkpoint restores).  Task durations
never enter the journal or any content hash.

**Journal layout.**  After the header, each run appends exactly one
line per task it executed, in task order: ``{"kind": "point", "index",
"value", "mode"}`` or ``{"kind": "failure", "index", "failure",
"mode"}``.  The last line of each chunk also carries that chunk's
``"progress"``: its number and the planned chunk count, the cumulative
done / failed / restored / pending counts of the run, and any
pool-health transitions (spawn fallback, rebuild).  The same line
carries ``"timing"``, the only wall-clock field (elapsed seconds,
throughput and ETA from monotonic ``perf_counter`` durations).  The
last line of a run that completes also carries ``"end": true``; its
absence marks a run as live or interrupted.  A resume appends task
lines only, and restored points keep the original execution's mode as
``source_mode``.  Without ``mode`` and ``timing`` the lines are
byte-identical across worker counts for healthy runs.  Journals of
earlier writers also carry per-line ``attempts`` and a progress
``retries`` count; a resume and the watch CLI ignore both.  The
numpy-free ``python -m repro.telemetry.watch`` CLI renders a journal
offline or live.

**Provenance.**  A ``manifest`` mapping (see
:func:`repro.telemetry.manifest.collect_manifest`) passed by the caller
is embedded verbatim in the journal header.  It is diagnostic
provenance, not identity: resume compares version / key / task count /
seed only, so a journal written on one machine restores on another.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .. import telemetry
from .._jsonio import (
    CheckpointMismatchError,
    Journal,
    content_key,
    decode_json_value,
    dumps_compact,
    encode_json_value,
)

# The journal's record codec stays bound here: cdrbench's ``--trace 1``
# layer timers look up dumps_compact, loads_strict, encode_json_value and
# decode_json_value on this module.
from .._jsonio import loads_strict  # noqa: F401

__all__ = [
    "FAILURE_POLICIES",
    "TaskFailure",
    "TaskAudit",
    "ResilientMap",
    "SweepTaskError",
    "CheckpointMismatchError",
    "map_tasks_resilient",
]

#: Supported failure policies of :func:`map_tasks_resilient`.
FAILURE_POLICIES = ("collect", "raise")

#: Lines of formatted traceback kept in a failure record.  The *tail* is
#: the deepest frames — inside the worker — which are identical whether
#: the task ran in a pool process or serially in-process.
TRACEBACK_TAIL_LINES = 6

#: Journal format version.  Version 1 kept audit and progress records in
#: sidecar files; it is rejected rather than resumed without them.
_CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TaskFailure:
    """One isolated task failure, structured and JSON-safe.

    Attributes
    ----------
    index:
        Flat task index in the submitted task sequence.
    exception_type:
        ``type(exc).__name__`` of the exception the worker raised.
    message:
        ``str(exc)`` of that exception.
    traceback_tail:
        The last :data:`TRACEBACK_TAIL_LINES` lines of the formatted
        traceback — identical for pooled and serial execution.
    seed_path:
        The ``SeedSequence`` spawn key of the task's random stream, i.e.
        the deterministic identity of the stream that observed the
        failure.
    """

    index: int
    exception_type: str
    message: str
    traceback_tail: str
    seed_path: tuple[int, ...]

    def to_dict(self) -> dict:
        """Strict-JSON-safe representation."""
        return {
            "index": self.index,
            "exception_type": self.exception_type,
            "message": self.message,
            "traceback_tail": self.traceback_tail,
            "seed_path": list(self.seed_path),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskFailure":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            index=int(payload["index"]),
            exception_type=payload["exception_type"],
            message=payload["message"],
            traceback_tail=payload["traceback_tail"],
            seed_path=tuple(int(part) for part in payload["seed_path"]),
        )


@dataclass(frozen=True)
class TaskAudit:
    """Execution record of one task: where it ran and how long.

    ``mode`` is ``"pool"`` (process pool), ``"serial"`` (deliberate or
    spawn-fallback in-process execution), ``"serial-degraded"``
    (re-executed in-process after a pool breakage) or
    ``"checkpoint"`` (restored from a checkpoint file, not re-run).
    Durations are wall-clock and therefore *not* part of any serialized
    result — they are in-memory diagnostics only.

    For a point restored from a checkpoint, ``source_mode`` carries the
    mode of the execution that originally produced the value, read from
    its journal line (``None`` for a point that ran in this call).
    """

    index: int
    mode: str
    duration_s: float
    source_mode: str | None = None


@dataclass(frozen=True)
class ResilientMap:
    """Outcome of one resilient map: values, failures, audit trail.

    ``values[i]`` is the worker's return value for task *i*, or ``None``
    where the task failed (its :class:`TaskFailure` appears in
    ``failures``, ordered by index).  ``audit[i]`` records every task's
    execution mode and duration.
    """

    values: list
    failures: tuple[TaskFailure, ...]
    audit: tuple[TaskAudit, ...]

    @property
    def n_failures(self) -> int:
        """Number of failed tasks."""
        return len(self.failures)


class SweepTaskError(RuntimeError):
    """Raised under ``failure_policy="raise"``; carries the :class:`TaskFailure`."""

    def __init__(self, failure: TaskFailure):
        super().__init__(
            f"sweep task {failure.index} raised {failure.exception_type}: "
            f"{failure.message}\n{failure.traceback_tail}"
        )
        self.failure = failure


def _traceback_tail(exc: BaseException) -> str:
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(lines).strip().splitlines()[-TRACEBACK_TAIL_LINES:]
    return "\n".join(tail)


def _guarded(packed: tuple) -> tuple:
    """Pool/serial entry point: run one task inside the isolation boundary.

    Returns ``("ok", value, duration_s, snapshot)`` or ``("fail",
    exception_type, message, traceback_tail, duration_s, snapshot)``.

    When *collect* is set, the task runs under a fresh task-local
    :class:`repro.telemetry.Tracer` — uniformly for pooled and serial
    execution, so merged counter totals never depend on the worker count
    — and the final element is its :meth:`~repro.telemetry.Tracer.snapshot`
    (otherwise ``None``).  The previous tracer binding is restored even
    when the task fails.
    """
    worker, task, child, collect = packed
    tracer = telemetry.Tracer("sweep-task") if collect else None
    previous = telemetry.activate(tracer) if collect else None
    start = time.perf_counter()
    try:
        outcome = ("ok", worker(task, np.random.default_rng(child)))
    except Exception as exc:  # noqa: BLE001 — the isolation boundary
        outcome = ("fail", type(exc).__name__, str(exc), _traceback_tail(exc))
    finally:
        if collect:
            telemetry.activate(previous)
    duration = time.perf_counter() - start
    return (*outcome, duration, tracer.snapshot() if collect else None)


class _PoolState:
    """Process-pool lifecycle: spawn fallback and breakage rebuild."""

    def __init__(self, workers: int | None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = workers
        self.executor: ProcessPoolExecutor | None = None
        self.serial_only = workers <= 1
        self.degraded = False
        self.breakages = 0
        self.spawn_fallback = False

    def get(self) -> ProcessPoolExecutor | None:
        """The live executor, or ``None`` when execution must be serial."""
        if self.serial_only:
            return None
        if self.executor is None:
            try:
                self.executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, PermissionError, NotImplementedError):
                self.spawn_failed()
        return self.executor

    def spawn_failed(self) -> None:
        """The environment cannot spawn processes: serial from here on."""
        self._discard()
        self.serial_only = True
        self.spawn_fallback = True

    def broken(self) -> None:
        """A worker process died hard: rebuild once, then give up on pools."""
        self._discard()
        self.degraded = True
        self.breakages += 1
        if self.breakages >= 2:
            self.serial_only = True

    def _discard(self) -> None:
        if self.executor is not None:
            try:
                self.executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
            self.executor = None

    def close(self) -> None:
        """Shut the executor down cleanly (no-op after a discard)."""
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None


def _run_chunk(
    pool: _PoolState,
    worker: Callable,
    tasks: list,
    children: list,
    indices: list[int],
    collect: bool,
) -> dict[int, tuple]:
    """Execute one chunk; returns ``{index: (outcome, mode)}`` for *indices*.

    Worker exceptions never escape (they are guarded outcomes); any
    exception surfacing here is a pool-layer failure and routes the
    affected tasks to serial re-execution.
    """
    outcomes: dict[int, tuple] = {}
    executor = pool.get()
    if executor is not None:
        futures = {}
        spawn_failure = False
        broke = False
        try:
            for index in indices:
                packed = (worker, tasks[index], children[index], collect)
                futures[executor.submit(_guarded, packed)] = index
        except (OSError, PermissionError):
            spawn_failure = True
        except RuntimeError:
            broke = True
        for future, index in futures.items():
            try:
                outcomes[index] = (future.result(), "pool")
            except Exception:  # noqa: BLE001 — pool-layer failure
                broke = True
        if spawn_failure:
            pool.spawn_failed()
        elif broke:
            pool.broken()
    mode = "serial-degraded" if pool.degraded else "serial"
    for index in indices:
        if index in outcomes:
            continue
        packed = (worker, tasks[index], children[index], collect)
        outcomes[index] = (_guarded(packed), mode)
    return outcomes


# --- run journal --------------------------------------------------------------


def _pool_transitions(pool: _PoolState, before: tuple[bool, int]) -> list[str]:
    """Pool-health transitions since *before* (``spawn_fallback, breakages``)."""
    transitions = []
    if pool.spawn_fallback and not before[0]:
        transitions.append("spawn-fallback")
    if pool.breakages > before[1]:
        transitions.append("rebuild")
    return transitions


def _timing(origin: float, counts: dict) -> dict:
    """Elapsed seconds, throughput and ETA of the run so far (wall clock)."""
    elapsed = time.perf_counter() - origin
    processed = counts["done"] + counts["failed"]
    throughput = processed / elapsed if elapsed > 0 and processed else None
    eta = counts["pending"] / throughput if throughput else None
    return {"elapsed_s": elapsed, "throughput_pts_per_s": throughput, "eta_s": eta}


def _count_pool_health(
    tracer,
    audits: list,
    failures: dict[int, TaskFailure],
    pool: _PoolState,
    n_chunks: int,
    n_restored: int,
) -> None:
    """Record ``sweep.*`` pool-health counters on *tracer* (nonzero only).

    These describe *how* the run executed (modes, breakages,
    resume hits) rather than what it computed, so — unlike the merged
    worker counters — they legitimately vary with worker count and pool
    health.  Reports group them via the ``sweep.`` prefix.
    """
    by_mode: dict[str, int] = {}
    for audit in audits:
        if audit is not None:
            by_mode[audit.mode] = by_mode.get(audit.mode, 0) + 1
    for mode in sorted(by_mode):
        tracer.count(f"sweep.tasks.{mode}", by_mode[mode])
    if failures:
        tracer.count("sweep.failures", len(failures))
    if n_chunks:
        tracer.count("sweep.chunks", n_chunks)
    if n_restored:
        tracer.count("sweep.checkpoint.restored", n_restored)
    if pool.breakages:
        tracer.count("sweep.pool.rebuilds", pool.breakages)
    if pool.spawn_fallback:
        tracer.count("sweep.pool.spawn_fallbacks")


# --- the resilient map --------------------------------------------------------


def map_tasks_resilient(
    worker: Callable,
    tasks: Sequence[Any],
    *,
    seed: int | None = 0,
    workers: int | None = None,
    chunk_size: int | None = None,
    failure_policy: str = "collect",
    checkpoint: str | Path | None = None,
    checkpoint_key: str | None = None,
    manifest: dict | None = None,
) -> ResilientMap:
    """Run ``worker(task, rng)`` over *tasks* with isolation and checkpoints.

    Parameters
    ----------
    worker:
        Module-level callable ``worker(task, rng)`` (must be picklable).
    tasks:
        Task descriptions, one per point (must be picklable).
    seed:
        Root seed of the spawned per-task seed tree; task *i*'s stream
        depends only on ``(seed, i)``, never on the worker count, the
        chunking, or whether it ran fresh or after a resume.
    workers:
        Process count; ``None`` uses the CPU count, values below two run
        serially in-process.
    chunk_size:
        Tasks submitted (and checkpointed) per wave; ``None`` runs all
        tasks as one chunk.  Bounds peak in-flight memory and sets the
        granularity of checkpoint appends.
    failure_policy:
        ``"collect"`` records failures and keeps going; ``"raise"``
        checkpoints the failing chunk and then raises
        :class:`SweepTaskError` for its first failure.
    checkpoint:
        JSONL journal path (see the module docstring).  An existing file
        must match the study identity (or :class:`CheckpointMismatchError`
        is raised) and its completed points are not re-run; the worker's
        return values must be JSON-representable (numbers, strings,
        ``None``, lists/tuples, dicts — restored values come back with
        lists for tuples).  On resume, restored points' :class:`TaskAudit`
        carry the original execution's ``source_mode``.
    checkpoint_key:
        Explicit study identity; default is a content hash of the task
        list and seed via :func:`repro._jsonio.content_key`.
    manifest:
        Optional provenance mapping (a
        :meth:`repro.telemetry.manifest.RunManifest.to_dict` payload)
        embedded in the journal header.  Diagnostic only — never part
        of the resume identity comparison.
    """
    tasks = list(tasks)
    if failure_policy not in FAILURE_POLICIES:
        raise ValueError(
            f"unknown failure policy {failure_policy!r}; "
            f"expected one of {list(FAILURE_POLICIES)}"
        )
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    n_tasks = len(tasks)
    children = list(np.random.SeedSequence(seed).spawn(n_tasks)) if n_tasks else []

    tracer = telemetry.ACTIVE
    collect = bool(tracer)

    values: list = [None] * n_tasks
    audits: list = [None] * n_tasks
    failures: dict[int, TaskFailure] = {}

    journal = None
    n_restored = 0
    if checkpoint is not None:
        if checkpoint_key is None:
            checkpoint_key = content_key({"tasks": tasks, "seed": seed})
        identity = {
            "version": _CHECKPOINT_VERSION,
            "key": checkpoint_key,
            "n_tasks": n_tasks,
            "seed": seed,
        }
        journal = Journal(checkpoint, identity, manifest)
        # Last line per index wins: a point re-run after a failure
        # supersedes the failure line.
        latest = {}
        for record in journal.load():
            if record.get("kind") in ("point", "failure") and 0 <= record["index"] < n_tasks:
                latest[int(record["index"])] = record
        for index, record in latest.items():
            if record["kind"] == "point":
                values[index] = decode_json_value(record["value"])
                audits[index] = TaskAudit(
                    index=index,
                    mode="checkpoint",
                    duration_s=0.0,
                    source_mode=str(record["mode"]),
                )
                n_restored += 1

    pending = [index for index in range(n_tasks) if audits[index] is None]
    size = chunk_size if chunk_size is not None else max(n_tasks, 1)
    n_planned = (len(pending) + size - 1) // size
    counts = {"done": 0, "failed": 0, "restored": n_restored, "pending": len(pending)}
    origin = time.perf_counter()

    pool = _PoolState(workers)
    n_chunks = 0
    try:
        for start in range(0, len(pending), size):
            chunk = pending[start : start + size]
            n_chunks += 1
            pool_before = (pool.spawn_fallback, pool.breakages)
            with tracer.span("sweep.chunk"):
                outcomes = _run_chunk(pool, worker, tasks, children, chunk, collect)
            records = []
            chunk_failures = []
            for index in chunk:
                outcome, mode = outcomes[index]
                if outcome[0] == "ok":
                    _, value, duration, snapshot = outcome
                    values[index] = value
                    if journal is not None:
                        records.append(
                            {"kind": "point", "index": index, "value": encode_json_value(value)}
                        )
                else:
                    _, exc_type, message, tail, duration, snapshot = outcome
                    failure = TaskFailure(
                        index=index,
                        exception_type=exc_type,
                        message=message,
                        traceback_tail=tail,
                        seed_path=tuple(int(part) for part in children[index].spawn_key),
                    )
                    failures[index] = failure
                    chunk_failures.append(failure)
                    if journal is not None:
                        records.append(
                            {"kind": "failure", "index": index, "failure": failure.to_dict()}
                        )
                audits[index] = TaskAudit(index=index, mode=mode, duration_s=duration)
                if journal is not None:
                    records[-1]["mode"] = mode
                if tracer and snapshot is not None:
                    # Chunks run in index order and each chunk's indices are
                    # ascending, so this merge order is the task-index order
                    # — worker count and pool health cannot reorder it.
                    tracer.merge_snapshot(snapshot)
            counts["done"] += len(chunk) - len(chunk_failures)
            counts["failed"] += len(chunk_failures)
            counts["pending"] -= len(chunk)
            aborting = bool(chunk_failures) and failure_policy == "raise"
            if journal is not None:
                # The chunk's progress rides on its last task line, so the
                # journal stays one line per task.  Pool transitions appear
                # only when the pool degraded and the wall clock only under
                # "timing", so without "mode" and "timing" the lines are
                # identical at any worker count for healthy runs.
                progress = {"chunk": n_chunks, "chunks": n_planned, **counts}
                transitions = _pool_transitions(pool, pool_before)
                if transitions:
                    progress["pool"] = transitions
                records[-1].update(progress=progress, timing=_timing(origin, counts))
                if n_chunks == n_planned and not aborting:
                    records[-1]["end"] = True
                journal.append([dumps_compact(record) for record in records])
            if aborting:
                raise SweepTaskError(chunk_failures[0])
    finally:
        pool.close()
        if tracer:
            _count_pool_health(tracer, audits, failures, pool, n_chunks, n_restored)

    ordered = tuple(failures[index] for index in sorted(failures))
    return ResilientMap(values=values, failures=ordered, audit=tuple(audits))
