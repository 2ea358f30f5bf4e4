"""Waveform recording for event-driven simulations.

The VHDL flow in the paper dumps aligned data into a text file that is then
read into Matlab to plot the eye diagram (section 3.3b).  The Python
equivalent is the :class:`WaveformRecorder`: it subscribes to signals,
collects ``(time, value)`` pairs, and offers the edge-extraction and sampling
helpers the analysis layer (eye diagrams, BER counting, jitter measurement)
builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signal import Signal

__all__ = ["Trace", "WaveformRecorder"]


@dataclass(slots=True)
class Trace:
    """Recorded history of a single signal.

    Storage is either growable lists (the live recorder appends on every
    event) or pre-built numpy arrays (the fast path wraps its edge arrays
    directly); all analysis helpers go through :meth:`as_arrays` and accept
    both.
    """

    name: str
    times_s: list[float] = field(default_factory=list)
    values: list = field(default_factory=list)

    def append(self, time_s: float, value) -> None:
        """Record a value change."""
        self.times_s.append(time_s)
        self.values.append(value)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the history as ``(times, values)`` numpy arrays."""
        return np.asarray(self.times_s, dtype=float), np.asarray(self.values)

    def edges(self, polarity: str = "any") -> np.ndarray:
        """Return the times of the requested edges of a binary trace.

        ``polarity`` is ``'rising'``, ``'falling'`` or ``'any'``.  The first
        recorded point (the initial value) never counts as an edge.
        """
        times, values = self.as_arrays()
        if times.size < 2:
            return np.zeros(0, dtype=float)
        values = values.astype(np.int64)
        previous = values[:-1]
        current = values[1:]
        if polarity == "rising":
            mask = (previous == 0) & (current == 1)
        elif polarity == "falling":
            mask = (previous == 1) & (current == 0)
        elif polarity == "any":
            mask = previous != current
        else:
            raise ValueError(f"unknown edge polarity {polarity!r}")
        return times[1:][mask]

    def value_at(self, time_s: float):
        """Return the recorded value in force at absolute time *time_s*."""
        times, values = self.as_arrays()
        if times.size == 0:
            raise ValueError(f"trace {self.name!r} is empty")
        index = int(np.searchsorted(times, time_s, side="right")) - 1
        index = max(index, 0)
        return values[index]

    def sample(self, sample_times_s: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value_at` over an array of sample times."""
        times, values = self.as_arrays()
        if times.size == 0:
            raise ValueError(f"trace {self.name!r} is empty")
        sample_times_s = np.asarray(sample_times_s, dtype=float)
        indices = np.searchsorted(times, sample_times_s, side="right") - 1
        indices = np.clip(indices, 0, times.size - 1)
        return values[indices]

    def intervals(self, polarity: str = "rising") -> np.ndarray:
        """Periods between consecutive edges of the requested polarity."""
        edge_times = self.edges(polarity)
        return np.diff(edge_times)


class WaveformRecorder:
    """Records value changes of a set of signals for post-processing."""

    def __init__(self) -> None:
        self._traces: dict[str, Trace] = {}

    def watch(self, signal: Signal, name: str | None = None) -> Trace:
        """Start recording *signal*; returns the (shared) :class:`Trace`."""
        key = name or signal.name
        if key in self._traces:
            return self._traces[key]
        trace = Trace(name=key)
        trace.append(signal.simulator.now, signal.value)
        self._traces[key] = trace

        append_time = trace.times_s.append
        append_value = trace.values.append

        def on_change(changed: Signal, time_s: float) -> None:
            append_time(time_s)
            append_value(changed.value)

        signal.subscribe(on_change)
        return trace

    def __getitem__(self, name: str) -> Trace:
        return self._traces[name]

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def names(self) -> list[str]:
        """Names of all recorded traces."""
        return sorted(self._traces)

    def trace(self, name: str) -> Trace:
        """Return the trace recorded under *name* (KeyError if unknown)."""
        return self._traces[name]
