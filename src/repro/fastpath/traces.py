"""Array-backed waveform traces for the fast-path engine.

The event-driven flow records waveforms through a
:class:`~repro.events.waveform.WaveformRecorder` that subscribes to signals;
the fast path already *has* every edge as a numpy array, so it wraps those
arrays in the same :class:`~repro.events.waveform.Trace` objects (whose
analysis helpers all go through ``as_arrays`` and therefore accept ndarray
storage) and exposes them through a recorder with the same ``trace(name)``
surface.

A sweep point reads its decisions, not its waveforms, so the fast path
hands the recorder :class:`EdgeArrays` — the edge arrays plus how to clip
and label them — and, for DOUT, :class:`DecisionEdges`, the decisions its
edges derive from; the recorder builds each ``Trace`` the first time it
is asked for.  Nothing random happens at build time (every jitter draw was
taken when the arrays were made), so a trace built late is byte-equal to
one built at once, and the recorder holds only arrays and plain records:
it pickles across a process pool like any result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..events.waveform import Trace

__all__ = ["array_trace", "EdgeArrays", "DecisionEdges", "ArrayRecorder"]


def array_trace(name: str, times_s: np.ndarray, values: np.ndarray,
                *, initial_time_s: float = 0.0, initial_value: int = 0) -> Trace:
    """Build a :class:`Trace` from edge arrays, prepending the initial sample.

    The event-driven recorder stores the signal value at watch time as the
    first point of every trace; the fast path reproduces that so edge
    extraction (which skips the first point) behaves identically.
    """
    times = np.concatenate(([float(initial_time_s)], np.asarray(times_s, dtype=float)))
    vals = np.concatenate(([int(initial_value)],
                           np.asarray(values, dtype=np.int64)))
    return Trace(name=name, times_s=times, values=vals)


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """The edges of one signal, not yet wrapped in a :class:`Trace`.

    Attributes
    ----------
    times_s:
        Edge times, in time order.
    values:
        Signal value after each edge; ``None`` for a signal that toggles
        at every edge, starting from *initial_value*.
    initial_value:
        Value at time zero (the trace's first point).
    horizon_s:
        Edges after this time are dropped (``None`` keeps them all) — the
        event kernel's ``run_until`` never executes them.
    """

    times_s: np.ndarray
    values: np.ndarray | None = None
    initial_value: int = 0
    horizon_s: float | None = None

    def build(self, name: str) -> Trace:
        """The :class:`Trace` named *name* (see :func:`array_trace`)."""
        times, values = self.times_s, self.values
        if self.horizon_s is not None:
            keep = times <= self.horizon_s
            times = times[keep]
            if values is not None:
                values = values[keep]
        if values is None:
            values = (np.arange(times.size) + self.initial_value + 1) & 1
        return array_trace(name, times, values, initial_value=self.initial_value)


@dataclass(frozen=True, eq=False)
class DecisionEdges:
    """DOUT's edges, derived from the sampler's decisions when first read.

    The flip-flop assigns its output at every rising clock edge, one
    clock-to-Q delay later; only actual value changes are edges (the
    transport apply filters the rest).  DOUT starts at 0, whatever the
    data's initial level.
    """

    sample_times_s: np.ndarray
    sampled: np.ndarray
    clock_to_q_s: float
    horizon_s: float | None = None

    def build(self, name: str) -> Trace:
        """The :class:`Trace` named *name* (see :class:`EdgeArrays`)."""
        values = self.sampled.astype(np.int64)
        changed = np.diff(values, prepend=0) != 0
        times = (self.sample_times_s + self.clock_to_q_s)[changed]
        return EdgeArrays(times, values[changed], horizon_s=self.horizon_s).build(name)


class ArrayRecorder:
    """Duck-typed stand-in for :class:`WaveformRecorder` holding fixed traces.

    Each entry is a ready :class:`Trace`, or an :class:`EdgeArrays` or
    :class:`DecisionEdges` record that is built on first access and kept.
    """

    def __init__(self, traces: dict[str, Trace | EdgeArrays | DecisionEdges]) -> None:
        self._traces = dict(traces)

    def trace(self, name: str) -> Trace:
        """Return the trace recorded under *name* (KeyError if unknown)."""
        trace = self._traces[name]
        if not isinstance(trace, Trace):
            trace = self._traces[name] = trace.build(name)
        return trace

    def __getitem__(self, name: str) -> Trace:
        return self.trace(name)

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def names(self) -> list[str]:
        """Names of all recorded traces."""
        return sorted(self._traces)
