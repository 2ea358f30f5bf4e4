"""Deterministic fault injection for resilience tests (and downstream use).

The wrappers here turn any sweep worker into one that fails at chosen
points, *deterministically*: which point fails is derived from the
task's SeedSequence spawn key (``rng.bit_generator.seed_seq.spawn_key``),
i.e. from the same ``(seed, index)`` identity that makes sweep results
independent of the worker count.  Injection therefore hits the same
points at any ``workers`` / ``chunk_size`` setting, in a process pool or
serially, fresh or resumed from a checkpoint.

All wrappers are frozen dataclasses whose classes live at module scope,
so instances pickle across the process-pool boundary like any worker.

* :class:`FailEveryNth` — raise :class:`InjectedFault` at every Nth
  point (optionally offset): the "some fraction of the corpus is bad"
  shape.
* :class:`FailOnceThenSucceed` — fail listed points on their first
  attempt in each process, succeed on retry: the flaky-environment shape
  for ``failure_policy="retry"`` (retries run in-process, so the second
  attempt sees the first's marker).
* :class:`HangInPool` / :class:`CrashInPool` — sleep past a chunk
  timeout / hard-exit the worker process, but **only when running inside
  a pool child process**; executed serially they just run the wrapped
  worker.  They exercise the timeout-degradation and broken-pool paths
  while keeping the serial re-execution (and the test suite) safe.

There is also a registered ``"inject_fault"`` parameter axis (importing
this module registers it): axis value ``True`` swaps the scenario's
stimulus for one whose ``bits()`` raises inside the worker, so
engine-level grids can carry per-point faults declaratively.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..experiments.spec import ScenarioSpec, StimulusSpec, register_axis

__all__ = [
    "InjectedFault",
    "task_index",
    "FailEveryNth",
    "FailOnceThenSucceed",
    "HangInPool",
    "CrashInPool",
    "FaultyStimulus",
    "reset_fault_state",
]


class InjectedFault(RuntimeError):
    """The exception every injector raises (easy to assert on)."""


def task_index(rng: np.random.Generator) -> int:
    """The flat task index encoded in the runner's spawned seed tree.

    ``map_tasks_resilient`` builds task *i*'s generator from
    ``SeedSequence(seed).spawn(n)[i]``, whose spawn key ends in ``i`` —
    so a worker can recover its own index from nothing but the generator
    it was handed.
    """
    return int(rng.bit_generator.seed_seq.spawn_key[-1])


#: Per-process markers of points that already failed once (see
#: :class:`FailOnceThenSucceed`).
_FAILED_ONCE: set = set()


def reset_fault_state() -> None:
    """Clear the per-process fail-once markers (call between tests)."""
    _FAILED_ONCE.clear()


@dataclass(frozen=True)
class FailEveryNth:
    """Wrap *worker* so every Nth point raises :class:`InjectedFault`."""

    worker: Callable
    every: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be positive, got {self.every}")

    def __call__(self, task, rng):
        index = task_index(rng)
        if index % self.every == self.offset % self.every:
            raise InjectedFault(f"injected fault at point {index}")
        return self.worker(task, rng)


@dataclass(frozen=True)
class FailOnceThenSucceed:
    """Fail listed points on the first attempt per process, then succeed.

    Designed for ``failure_policy="retry"``: the retry runs in the same
    process as the failed attempt, sees the marker, and succeeds — with
    numerics identical to a clean first attempt, because the retry
    reuses the same SeedSequence child.  ``tag`` separates concurrent
    wrappers sharing the per-process marker set.
    """

    worker: Callable
    indices: tuple[int, ...]
    tag: str = "default"

    def __call__(self, task, rng):
        index = task_index(rng)
        marker = (self.tag, index)
        if index in self.indices and marker not in _FAILED_ONCE:
            _FAILED_ONCE.add(marker)
            raise InjectedFault(f"injected transient fault at point {index}")
        return self.worker(task, rng)


def _in_pool_child() -> bool:
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class HangInPool:
    """Sleep at listed points — but only inside a pool child process.

    Exercises the chunk-timeout degradation path: the pooled attempt
    stalls past ``chunk_timeout_s``, the serial re-execution (same seed
    child, so same numerics) returns immediately.
    """

    worker: Callable
    indices: tuple[int, ...]
    sleep_s: float = 2.0

    def __call__(self, task, rng):
        if task_index(rng) in self.indices and _in_pool_child():
            time.sleep(self.sleep_s)
        return self.worker(task, rng)


@dataclass(frozen=True)
class CrashInPool:
    """Hard-exit the worker process at listed points (pool children only).

    Provokes a ``BrokenProcessPool`` — the worker dies without raising —
    to exercise the pool-breakage path; the serial re-execution runs the
    wrapped worker normally.
    """

    worker: Callable
    indices: tuple[int, ...]
    exit_code: int = 17

    def __call__(self, task, rng):
        if task_index(rng) in self.indices and _in_pool_child():
            os._exit(self.exit_code)
        return self.worker(task, rng)


# --- engine-level injection: a fault axis -------------------------------------


@dataclass(frozen=True)
class FaultyStimulus(StimulusSpec):
    """A stimulus whose ``bits()`` raises when ``fail`` is set.

    Keeps the full :class:`~repro.experiments.StimulusSpec` surface (the
    engine validates and resolves the point normally in the parent), but
    detonates inside the worker — exactly where a real per-point failure
    would strike.
    """

    fail: bool = False

    def bits(self) -> np.ndarray:
        if self.fail:
            raise InjectedFault("injected stimulus fault")
        return super().bits()


@register_axis("inject_fault")
def _apply_inject_fault(spec: ScenarioSpec, value) -> ScenarioSpec:
    """Axis applicator: ``True`` makes this grid point fail in the worker."""
    names = [field.name for field in dataclasses.fields(StimulusSpec)]
    parts = {name: getattr(spec.stimulus, name) for name in names}
    return replace(spec, stimulus=FaultyStimulus(fail=bool(value), **parts))
