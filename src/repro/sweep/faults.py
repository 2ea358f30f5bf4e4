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
* :class:`CrashInPool` — hard-exit the worker process, but **only when
  running inside a pool child process**; executed serially it just runs
  the wrapped worker.  It exercises the broken-pool path while keeping
  the serial re-execution (and the test suite) safe.

There is also a registered ``"inject_fault"`` parameter axis (importing
this module registers it): axis value ``True`` swaps the scenario's
stimulus for one whose ``bits()`` raises inside the worker, so
engine-level grids can carry per-point faults declaratively.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..experiments.spec import ScenarioSpec, StimulusSpec, register_axis

__all__ = [
    "InjectedFault",
    "task_index",
    "FailEveryNth",
    "CrashInPool",
    "FaultyStimulus",
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


def _in_pool_child() -> bool:
    return multiprocessing.parent_process() is not None


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
