"""Fault-tolerant, checkpointed, chunked execution of sweep tasks.

Deterministic seeding is the contract: task *i*'s random stream is
``np.random.default_rng(SeedSequence(seed).spawn(n)[i])``, so it depends
only on ``(seed, i)`` — never on the worker count, the chunking, or
whether the task ran in a pool process, serially, or after a resume.
On that contract :func:`map_tasks_resilient` adds three properties:

**Failure isolation.**  Every task runs inside a per-task ``try`` /
``except`` boundary (:func:`_guarded`, executed identically in-pool and
in-process).  A raising task becomes a structured :class:`TaskFailure`
(exception type, message, traceback tail, seed path, attempt count)
instead of killing the grid; the ``failure_policy`` knob selects whether
failures are collected (``"collect"``), abort the run after the current
chunk is checkpointed (``"raise"``), or are retried a bounded number of
times (``"retry"``).  A retry rebuilds the generator from the *same*
SeedSequence child, so a flaky-environment retry cannot change numerics.

**Checkpoint / resume.**  Tasks execute in chunks of ``chunk_size``
(bounding peak in-flight memory); each completed chunk is appended to a
strict RFC 8259 JSONL checkpoint file and fsync'd.  The file is keyed by
a content hash of the task list and seed (or an explicit
``checkpoint_key``), so resuming re-runs only missing and failed points
— and because per-task streams depend only on ``(seed, index)``, the
merged result is bit-identical to a single uninterrupted run.  A
crash-truncated trailing line is tolerated; a key mismatch raises
:class:`CheckpointMismatchError` instead of silently mixing studies.

**Pool robustness.**  Pool-layer failures are distinguished from worker
exceptions (which the guarded boundary always converts to outcomes):
a spawn-time ``OSError`` / ``PermissionError`` means the environment
cannot fork and the run degrades to serial execution permanently; a
``BrokenProcessPool`` mid-chunk (a worker process died hard) re-executes
the affected tasks serially and rebuilds the pool once before giving up
on it; a chunk exceeding ``chunk_timeout_s`` abandons the pool and
finishes the chunk (and all later chunks) serially.  Every task records
its execution mode, duration and attempt count in a :class:`TaskAudit`.

**Observability.**  When a :mod:`repro.telemetry` tracer is active, each
guarded task runs under a fresh task-local tracer whose counter/gauge/
histogram snapshot is shipped back alongside the task outcome — pooled
and serial execution alike — and merged into the parent tracer in task
index order (equivalently: sorted by seed path, since spawn keys are
per-index).  Counter totals are therefore identical at any worker
count.  The parent additionally records ``sweep.chunk`` spans and
``sweep.*`` pool-health counters (tasks by mode, retries, failures,
pool breakages/abandonment/spawn fallbacks, checkpoint restores).
Durations never enter the checkpoint or any content hash.

**Audit sidecar.**  A checkpointed run also appends each task's
deterministic audit fields (mode, attempts — never wall-clock durations)
to a ``<checkpoint>.audit`` JSONL sidecar.  On resume, restored points
keep ``mode="checkpoint"`` but carry the original execution's
``source_mode`` / ``source_attempts`` from the sidecar, so a resumed
study retains its full execution history.

**Progress sidecar.**  A checkpointed run additionally streams live
progress events to a ``<checkpoint>.progress`` JSONL sidecar under the
same study-identity discipline: a run ``start`` record
(task/restored/pending counts), ``chunk-start`` / ``chunk-end`` records
with cumulative done / failed / restored / retry counts, ``pool``
records for pool-health transitions (spawn fallback, rebuild,
abandonment), and an ``end`` record written only on normal completion —
its absence marks a run as live or interrupted.  All wall-clock
quantities (elapsed seconds, throughput, ETA — monotonic
``perf_counter`` durations) live under each record's ``"timing"`` key,
so the remaining fields are byte-identical across worker counts for
healthy runs, exactly like the checkpoint itself.  The numpy-free
``python -m repro.telemetry.watch`` CLI renders these sidecars offline
or live.

**Provenance.**  A ``manifest`` mapping (see
:func:`repro.telemetry.manifest.collect_manifest`) passed by the caller
is embedded verbatim in the checkpoint and progress headers.  It is
diagnostic provenance, not identity: resume compares key / task count /
seed only, so a checkpoint written on one machine restores on another.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .. import telemetry
from .._jsonio import (
    content_key,
    decode_json_value,
    dumps_compact,
    encode_json_value,
    loads_strict,
)

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
FAILURE_POLICIES = ("collect", "raise", "retry")

#: Lines of formatted traceback kept in a failure record.  The *tail* is
#: the deepest frames — inside the worker — which are identical whether
#: the task ran in a pool process or serially in-process.
TRACEBACK_TAIL_LINES = 6

_CHECKPOINT_KIND = "repro-sweep-checkpoint"
_CHECKPOINT_VERSION = 1

_AUDIT_KIND = "repro-sweep-audit"

# Mirrored by the numpy-free watch CLI (repro.telemetry.watch), which
# cannot import this module; tests pin the two copies equal.
_PROGRESS_KIND = "repro-sweep-progress"


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
        failure (and that any retry reuses).
    attempts:
        Total attempts made (1 without retry).
    """

    index: int
    exception_type: str
    message: str
    traceback_tail: str
    seed_path: tuple[int, ...]
    attempts: int = 1

    def to_dict(self) -> dict:
        """Strict-JSON-safe representation."""
        return {
            "index": self.index,
            "exception_type": self.exception_type,
            "message": self.message,
            "traceback_tail": self.traceback_tail,
            "seed_path": list(self.seed_path),
            "attempts": self.attempts,
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
            attempts=int(payload["attempts"]),
        )


@dataclass(frozen=True)
class TaskAudit:
    """Execution record of one task: where it ran, how long, how often.

    ``mode`` is ``"pool"`` (process pool), ``"serial"`` (deliberate or
    spawn-fallback in-process execution), ``"serial-degraded"``
    (re-executed in-process after a pool breakage or chunk timeout) or
    ``"checkpoint"`` (restored from a checkpoint file, not re-run).
    Durations are wall-clock and therefore *not* part of any serialized
    result — they are in-memory diagnostics only.

    For a point restored from a checkpoint whose run kept an audit
    sidecar, ``source_mode`` / ``source_attempts`` carry the mode and
    attempt count of the execution that originally produced the value
    (``None`` when no sidecar information exists).
    """

    index: int
    mode: str
    duration_s: float
    attempts: int
    source_mode: str | None = None
    source_attempts: int | None = None


@dataclass(frozen=True)
class ResilientMap:
    """Outcome of one resilient map: values, failures, audit trail.

    ``values[i]`` is the worker's return value for task *i*, or ``None``
    where the task failed (its :class:`TaskFailure` appears in
    ``failures``, ordered by index).  ``audit[i]`` records every task's
    execution mode, duration and attempts.
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


class CheckpointMismatchError(ValueError):
    """The checkpoint file on disk belongs to a different study."""


def _traceback_tail(exc: BaseException) -> str:
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(lines).strip().splitlines()[-TRACEBACK_TAIL_LINES:]
    return "\n".join(tail)


def _guarded(packed: tuple) -> tuple:
    """Pool/serial entry point: run one task inside the isolation boundary.

    Returns ``("ok", value, attempts, duration_s, snapshot)`` or
    ``("fail", exception_type, message, traceback_tail, attempts,
    duration_s, snapshot)``.  Every attempt rebuilds the generator from
    the same SeedSequence child, so a retry that succeeds is numerically
    identical to a first attempt that succeeds.

    When *collect* is set, the task runs under a fresh task-local
    :class:`repro.telemetry.Tracer` — uniformly for pooled and serial
    execution, so merged counter totals never depend on the worker count
    — and the final element is its :meth:`~repro.telemetry.Tracer.snapshot`
    (otherwise ``None``).  The previous tracer binding is restored even
    when the task fails.
    """
    worker, task, child, retries, collect = packed
    tracer = telemetry.Tracer("sweep-task") if collect else None
    previous = telemetry.activate(tracer) if collect else None
    attempts = 0
    start = time.perf_counter()
    try:
        while True:
            attempts += 1
            try:
                value = worker(task, np.random.default_rng(child))
            except Exception as exc:  # noqa: BLE001 — the isolation boundary
                if attempts > retries:
                    duration = time.perf_counter() - start
                    tail = _traceback_tail(exc)
                    snapshot = tracer.snapshot() if collect else None
                    return (
                        "fail",
                        type(exc).__name__,
                        str(exc),
                        tail,
                        attempts,
                        duration,
                        snapshot,
                    )
            else:
                duration = time.perf_counter() - start
                snapshot = tracer.snapshot() if collect else None
                return ("ok", value, attempts, duration, snapshot)
    finally:
        if collect:
            telemetry.activate(previous)


class _PoolState:
    """Process-pool lifecycle: spawn fallback, breakage rebuild, abandonment."""

    def __init__(self, workers: int | None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = workers
        self.executor: ProcessPoolExecutor | None = None
        self.serial_only = workers <= 1
        self.degraded = False
        self.breakages = 0
        self.abandoned = False
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

    def abandon(self) -> None:
        """A chunk timed out: leave the pool behind, serial from here on."""
        self._discard()
        self.degraded = True
        self.abandoned = True
        self.serial_only = True

    def _discard(self) -> None:
        if self.executor is not None:
            try:
                self.executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
            self.executor = None

    def close(self) -> None:
        """Shut the executor down cleanly (no-op after discard/abandon)."""
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None


def _run_chunk(
    pool: _PoolState,
    worker: Callable,
    tasks: list,
    children: list,
    indices: list[int],
    retries: int,
    timeout_s: float | None,
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
                packed = (worker, tasks[index], children[index], retries, collect)
                futures[executor.submit(_guarded, packed)] = index
        except (OSError, PermissionError):
            spawn_failure = True
        except RuntimeError:
            broke = True
        if futures:
            done, pending = wait(futures, timeout=timeout_s)
            if pending:
                for future in pending:
                    future.cancel()
                pool.abandon()
            for future in done:
                index = futures[future]
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
        packed = (worker, tasks[index], children[index], retries, collect)
        outcomes[index] = (_guarded(packed), mode)
    return outcomes


# --- checkpoint file ----------------------------------------------------------


def _checkpoint_header(
    key: str, n_tasks: int, seed: int | None, manifest: dict | None = None
) -> dict:
    header = {
        "kind": _CHECKPOINT_KIND,
        "version": _CHECKPOINT_VERSION,
        "key": key,
        "n_tasks": n_tasks,
        "seed": seed,
    }
    if manifest is not None:
        header["manifest"] = manifest
    return header


def _append_records(path: Path, records: list[dict]) -> None:
    """Append JSONL *records* and force them to disk (crash durability)."""
    with path.open("a", encoding="utf-8") as handle:
        for record in records:
            handle.write(dumps_compact(record))
            handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())


def _load_checkpoint(path: Path, header: dict) -> dict[int, Any]:
    """Completed point values from an existing checkpoint file.

    Raises :class:`CheckpointMismatchError` unless the file's header
    matches *header* exactly (kind, version, key, task count, seed).
    Parsing stops at the first undecodable line — the signature of a
    crash mid-append — so everything durably written still counts.
    Failure records are skipped: failed points are re-run on resume.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return {}
    try:
        first = loads_strict(lines[0])
    except json.JSONDecodeError:
        raise CheckpointMismatchError(f"{path} is not a sweep checkpoint") from None
    if not isinstance(first, dict) or first.get("kind") != _CHECKPOINT_KIND:
        raise CheckpointMismatchError(f"{path} is not a sweep checkpoint")
    for name in ("version", "key", "n_tasks", "seed"):
        if first.get(name) != header[name]:
            raise CheckpointMismatchError(
                f"checkpoint {path} belongs to a different study: "
                f"{name} is {first.get(name)!r}, expected {header[name]!r}"
            )
    values: dict[int, Any] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            record = loads_strict(line)
        except json.JSONDecodeError:
            break
        if record.get("kind") == "point":
            index = int(record["index"])
            if 0 <= index < header["n_tasks"]:
                values[index] = decode_json_value(record["value"])
    return values


# --- audit sidecar ------------------------------------------------------------


def _audit_path(checkpoint_path: Path) -> Path:
    """The audit sidecar living next to *checkpoint_path* (``<name>.audit``)."""
    return checkpoint_path.with_name(checkpoint_path.name + ".audit")


def _audit_header(key: str, n_tasks: int, seed: int | None) -> dict:
    return {
        "kind": _AUDIT_KIND,
        "version": _CHECKPOINT_VERSION,
        "key": key,
        "n_tasks": n_tasks,
        "seed": seed,
    }


def _load_audit(path: Path, header: dict) -> dict[int, tuple[str, int]]:
    """``{index: (mode, attempts)}`` from an audit sidecar file.

    Same study-identity discipline as :func:`_load_checkpoint`: the
    header must match (key, task count, seed) or
    :class:`CheckpointMismatchError` is raised.  Records are
    last-write-wins per index (a re-run after failure supersedes the
    failed attempt's audit); parsing stops at the first undecodable
    line, and unknown record kinds are skipped.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return {}
    try:
        first = loads_strict(lines[0])
    except json.JSONDecodeError:
        raise CheckpointMismatchError(f"{path} is not a sweep audit sidecar") from None
    if not isinstance(first, dict) or first.get("kind") != _AUDIT_KIND:
        raise CheckpointMismatchError(f"{path} is not a sweep audit sidecar")
    for name in ("version", "key", "n_tasks", "seed"):
        if first.get(name) != header[name]:
            raise CheckpointMismatchError(
                f"audit sidecar {path} belongs to a different study: "
                f"{name} is {first.get(name)!r}, expected {header[name]!r}"
            )
    sources: dict[int, tuple[str, int]] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            record = loads_strict(line)
        except json.JSONDecodeError:
            break
        if record.get("kind") == "audit":
            index = int(record["index"])
            if 0 <= index < header["n_tasks"]:
                sources[index] = (str(record["mode"]), int(record["attempts"]))
    return sources


# --- progress sidecar ---------------------------------------------------------


def _progress_path(checkpoint_path: Path) -> Path:
    """The progress sidecar living next to *checkpoint_path* (``<name>.progress``)."""
    return checkpoint_path.with_name(checkpoint_path.name + ".progress")


def _progress_header(
    key: str, n_tasks: int, seed: int | None, manifest: dict | None = None
) -> dict:
    header = {
        "kind": _PROGRESS_KIND,
        "version": _CHECKPOINT_VERSION,
        "key": key,
        "n_tasks": n_tasks,
        "seed": seed,
    }
    if manifest is not None:
        header["manifest"] = manifest
    return header


class _ProgressWriter:
    """Streams run progress events to the ``<checkpoint>.progress`` sidecar.

    Every event is one strict-JSON line, appended and fsync'd so an
    external watcher (``python -m repro.telemetry.watch``) observes it
    immediately and a crash can tear at most the trailing line.  Counts
    are deterministic run facts; wall-clock quantities are confined to
    each record's ``"timing"`` object (monotonic ``perf_counter``
    durations — never wall-clock timestamps), keeping the remaining
    fields byte-identical across worker counts for healthy runs.
    """

    def __init__(self, path: Path, header: dict):
        self.path = path
        if path.exists() and path.stat().st_size > 0:
            lines = path.read_text(encoding="utf-8").splitlines()
            try:
                first = loads_strict(lines[0])
            except json.JSONDecodeError:
                raise CheckpointMismatchError(
                    f"{path} is not a sweep progress sidecar"
                ) from None
            if not isinstance(first, dict) or first.get("kind") != _PROGRESS_KIND:
                raise CheckpointMismatchError(f"{path} is not a sweep progress sidecar")
            for name in ("version", "key", "n_tasks", "seed"):
                if first.get(name) != header[name]:
                    raise CheckpointMismatchError(
                        f"progress sidecar {path} belongs to a different study: "
                        f"{name} is {first.get(name)!r}, expected {header[name]!r}"
                    )
        else:
            _append_records(path, [header])
        self._origin = time.perf_counter()
        self.done = 0
        self.failed = 0
        self.retries = 0
        self.restored = 0
        self.pending = 0

    def _counts(self) -> dict:
        return {
            "done": self.done,
            "failed": self.failed,
            "restored": self.restored,
            "retries": self.retries,
            "pending": self.pending,
        }

    def _timing(self) -> dict:
        elapsed = time.perf_counter() - self._origin
        processed = self.done + self.failed
        throughput = processed / elapsed if elapsed > 0 and processed else None
        eta = self.pending / throughput if throughput else None
        return {
            "elapsed_s": elapsed,
            "throughput_pts_per_s": throughput,
            "eta_s": eta,
        }

    def emit(self, kind: str, **fields) -> None:
        """Append one ``{"kind": kind, ...fields, counts, "timing"}`` event."""
        record = {"kind": kind, **fields, **self._counts(), "timing": self._timing()}
        _append_records(self.path, [record])


def _count_pool_health(
    tracer,
    audits: list,
    failures: dict[int, TaskFailure],
    pool: _PoolState,
    n_chunks: int,
    n_restored: int,
) -> None:
    """Record ``sweep.*`` pool-health counters on *tracer* (nonzero only).

    These describe *how* the run executed (modes, retries, breakages,
    resume hits) rather than what it computed, so — unlike the merged
    worker counters — they legitimately vary with worker count and pool
    health.  Reports group them via the ``sweep.`` prefix.
    """
    by_mode: dict[str, int] = {}
    retries_total = 0
    for audit in audits:
        if audit is None:
            continue
        by_mode[audit.mode] = by_mode.get(audit.mode, 0) + 1
        if audit.attempts > 1:
            retries_total += audit.attempts - 1
    for mode in sorted(by_mode):
        tracer.count(f"sweep.tasks.{mode}", by_mode[mode])
    if retries_total:
        tracer.count("sweep.retries", retries_total)
    if failures:
        tracer.count("sweep.failures", len(failures))
    if n_chunks:
        tracer.count("sweep.chunks", n_chunks)
    if n_restored:
        tracer.count("sweep.checkpoint.restored", n_restored)
    if pool.breakages:
        tracer.count("sweep.pool.rebuilds", pool.breakages)
    if pool.abandoned:
        tracer.count("sweep.pool.abandoned")
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
    max_retries: int = 1,
    chunk_timeout_s: float | None = None,
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
        granularity of checkpoint appends and chunk timeouts.
    failure_policy:
        ``"collect"`` records failures and keeps going; ``"raise"``
        checkpoints the failing chunk and then raises
        :class:`SweepTaskError` for its first failure; ``"retry"``
        retries each failing task up to *max_retries* extra times on the
        same SeedSequence child (then collects what still fails).
    max_retries:
        Extra attempts per task under ``failure_policy="retry"``.
    chunk_timeout_s:
        Wall-clock budget per pooled chunk; on expiry the pool is
        abandoned and the chunk (and all later chunks) complete serially.
        ``None`` disables the timeout; any other value must be finite and
        positive.  Serial execution is not limited.
    checkpoint:
        JSONL checkpoint path.  An existing file must match the study
        key (or :class:`CheckpointMismatchError` is raised) and its
        completed points are not re-run; the worker's return values must
        be JSON-representable (numbers, strings, ``None``, lists/tuples,
        dicts — restored values come back with lists for tuples).  The
        run also writes the ``<checkpoint>.audit`` and
        ``<checkpoint>.progress`` sidecars next to it (see the module
        docstring); on resume, restored points' :class:`TaskAudit` carry
        the original execution's ``source_mode`` / ``source_attempts``.
    checkpoint_key:
        Explicit study identity; default is a content hash of the task
        list and seed via :func:`repro._jsonio.content_key`.
    manifest:
        Optional provenance mapping (a
        :meth:`repro.telemetry.manifest.RunManifest.to_dict` payload)
        embedded in the checkpoint and progress headers.  Diagnostic
        only — never part of the resume identity comparison.
    """
    tasks = list(tasks)
    if failure_policy not in FAILURE_POLICIES:
        raise ValueError(
            f"unknown failure policy {failure_policy!r}; "
            f"expected one of {list(FAILURE_POLICIES)}"
        )
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be non-negative, got {max_retries}")
    if chunk_timeout_s is not None and not 0.0 < chunk_timeout_s < math.inf:
        raise ValueError(
            f"chunk_timeout_s must be None or finite and positive, got {chunk_timeout_s}"
        )
    n_tasks = len(tasks)
    children = list(np.random.SeedSequence(seed).spawn(n_tasks)) if n_tasks else []
    retries = max_retries if failure_policy == "retry" else 0

    tracer = telemetry.ACTIVE
    collect = bool(tracer)

    values: list = [None] * n_tasks
    audits: list = [None] * n_tasks
    failures: dict[int, TaskFailure] = {}

    checkpoint_path = None
    sidecar_path = None
    n_restored = 0
    if checkpoint is not None:
        checkpoint_path = Path(checkpoint)
        if checkpoint_key is None:
            checkpoint_key = content_key({"tasks": tasks, "seed": seed})
        header = _checkpoint_header(checkpoint_key, n_tasks, seed, manifest)
        sidecar_path = _audit_path(checkpoint_path)
        if checkpoint_path.exists() and checkpoint_path.stat().st_size > 0:
            sources: dict[int, tuple[str, int]] = {}
            if sidecar_path.exists() and sidecar_path.stat().st_size > 0:
                sources = _load_audit(sidecar_path, _audit_header(checkpoint_key, n_tasks, seed))
            for index, value in _load_checkpoint(checkpoint_path, header).items():
                values[index] = value
                source_mode, source_attempts = sources.get(index, (None, None))
                audits[index] = TaskAudit(
                    index=index,
                    mode="checkpoint",
                    duration_s=0.0,
                    attempts=0,
                    source_mode=source_mode,
                    source_attempts=source_attempts,
                )
                n_restored += 1
        else:
            if checkpoint_path.parent != Path(""):
                checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
            _append_records(checkpoint_path, [header])
        if not sidecar_path.exists() or sidecar_path.stat().st_size == 0:
            _append_records(sidecar_path, [_audit_header(checkpoint_key, n_tasks, seed)])

    pending = [index for index in range(n_tasks) if audits[index] is None]
    size = chunk_size if chunk_size is not None else max(n_tasks, 1)

    progress = None
    if checkpoint_path is not None:
        progress = _ProgressWriter(
            _progress_path(checkpoint_path),
            _progress_header(checkpoint_key, n_tasks, seed, manifest),
        )
        progress.restored = n_restored
        progress.pending = len(pending)
        n_planned = (len(pending) + size - 1) // size
        progress.emit("start", n_tasks=n_tasks, chunks=n_planned)

    pool = _PoolState(workers)
    n_chunks = 0
    try:
        for start in range(0, len(pending), size):
            chunk = pending[start : start + size]
            n_chunks += 1
            if progress is not None:
                progress.emit("chunk-start", chunk=n_chunks, size=len(chunk))
            pool_flags = (pool.spawn_fallback, pool.breakages, pool.abandoned)
            with tracer.span("sweep.chunk"):
                outcomes = _run_chunk(
                    pool, worker, tasks, children, chunk, retries, chunk_timeout_s, collect
                )
            if progress is not None:
                # Pool-health transitions, like the audit `mode` fields,
                # describe how the run executed — they appear only when
                # the pool actually degraded, so healthy runs stay
                # byte-identical at any worker count.
                if pool.spawn_fallback and not pool_flags[0]:
                    progress.emit("pool", transition="spawn-fallback", chunk=n_chunks)
                if pool.breakages > pool_flags[1]:
                    progress.emit("pool", transition="rebuild", chunk=n_chunks)
                if pool.abandoned and not pool_flags[2]:
                    progress.emit("pool", transition="abandoned", chunk=n_chunks)
            records = []
            audit_records = []
            chunk_failures = []
            for index in chunk:
                outcome, mode = outcomes[index]
                if outcome[0] == "ok":
                    _, value, attempts, duration, snapshot = outcome
                    values[index] = value
                    audits[index] = TaskAudit(
                        index=index, mode=mode, duration_s=duration, attempts=attempts
                    )
                    if checkpoint_path is not None:
                        records.append(
                            {"kind": "point", "index": index, "value": encode_json_value(value)}
                        )
                else:
                    _, exc_type, message, tail, attempts, duration, snapshot = outcome
                    failure = TaskFailure(
                        index=index,
                        exception_type=exc_type,
                        message=message,
                        traceback_tail=tail,
                        seed_path=tuple(int(part) for part in children[index].spawn_key),
                        attempts=attempts,
                    )
                    failures[index] = failure
                    chunk_failures.append(failure)
                    audits[index] = TaskAudit(
                        index=index, mode=mode, duration_s=duration, attempts=attempts
                    )
                    if checkpoint_path is not None:
                        records.append(
                            {"kind": "failure", "index": index, "failure": failure.to_dict()}
                        )
                if tracer and snapshot is not None:
                    # Chunks run in index order and each chunk's indices are
                    # ascending, so this merge order is the task-index order
                    # — worker count and pool health cannot reorder it.
                    tracer.merge_snapshot(snapshot)
                if sidecar_path is not None:
                    audit_records.append(
                        {"kind": "audit", "index": index, "mode": mode, "attempts": attempts}
                    )
            if checkpoint_path is not None and records:
                _append_records(checkpoint_path, records)
            if sidecar_path is not None and audit_records:
                _append_records(sidecar_path, audit_records)
            if progress is not None:
                n_failed = len(chunk_failures)
                progress.done += len(chunk) - n_failed
                progress.failed += n_failed
                progress.retries += sum(
                    audits[index].attempts - 1 for index in chunk if audits[index].attempts > 1
                )
                progress.pending -= len(chunk)
                progress.emit("chunk-end", chunk=n_chunks)
            if chunk_failures and failure_policy == "raise":
                raise SweepTaskError(chunk_failures[0])
        if progress is not None:
            progress.emit("end", n_tasks=n_tasks, chunks=n_chunks)
    finally:
        pool.close()
        if tracer:
            _count_pool_health(tracer, audits, failures, pool, n_chunks, n_restored)

    ordered = tuple(failures[index] for index in sorted(failures))
    return ResilientMap(values=values, failures=ordered, audit=tuple(audits))
