"""Signals with VHDL-style transport-delayed assignment.

A :class:`Signal` carries a value (any comparable Python object; the gate
library uses ints 0/1), notifies subscribers on value *changes* (VHDL events),
and supports ``transport`` assignment semantics: scheduling a new value at
time ``t`` cancels every previously scheduled transaction at or after ``t`` —
exactly the behaviour of the ``transport`` assignments in the paper's VHDL
model of the gated CCO (Figure 12).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable

from .._validation import require_non_negative
from .kernel import SimulationError, Simulator

__all__ = ["Signal", "Edge"]

_INF = float("inf")


class Edge:
    """Constants naming edge polarities."""

    RISING = "rising"
    FALLING = "falling"
    ANY = "any"


class Signal:
    """A simulated signal (wire) with transport-delay scheduling.

    Subscribers are stored as a tuple: dispatch iterates the immutable
    snapshot directly (no defensive copy per event), and subscription
    changes replace the tuple.

    A transaction is a ``(time, value)`` tuple.  The live ones wait in a
    deque in strictly increasing time order — transport cancellation
    removes every live transaction at or after a new one's time, and
    those are always at the tail.  The queue entry of a transaction
    carries the tuple itself; when it fires, the transaction applies only
    if it is still the head of the deque, so a cancelled transaction is
    simply one that is no longer there.
    """

    __slots__ = ("_simulator", "name", "_value", "_subscribers", "_pending",
                 "_apply_entry", "last_event_time_s")

    def __init__(self, simulator: Simulator, name: str, initial=0) -> None:
        self._simulator = simulator
        self.name = name
        self._value = initial
        self._subscribers: tuple[Callable[["Signal", float], None], ...] = ()
        self._pending: deque[tuple[float, object]] = deque()
        # The bound method is built once, not once per transaction.
        self._apply_entry = self._apply
        self.last_event_time_s: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, value={self._value!r})"

    @property
    def value(self):
        """Current value of the signal."""
        return self._value

    @property
    def simulator(self) -> Simulator:
        """The simulator this signal belongs to."""
        return self._simulator

    # -- subscription --------------------------------------------------------

    def subscribe(self, callback: Callable[["Signal", float], None]) -> Callable[[], None]:
        """Register *callback(signal, time)* to run on every value change.

        Returns a function that unsubscribes the callback.
        """
        self._subscribers = self._subscribers + (callback,)

        def unsubscribe() -> None:
            subscribers = list(self._subscribers)
            try:
                subscribers.remove(callback)
            except ValueError:
                return
            self._subscribers = tuple(subscribers)

        return unsubscribe

    # -- assignment ----------------------------------------------------------

    def assign(self, value, delay_s: float = 0.0) -> None:
        """Schedule a transport-delayed assignment of *value* after *delay_s*.

        Any previously scheduled transaction at the same or a later time is
        cancelled (VHDL transport semantics).
        """
        if not 0.0 <= delay_s < _INF:
            require_non_negative("delay_s", delay_s)
        simulator = self._simulator
        target_time = simulator._now + delay_s
        pending = self._pending
        while pending and pending[-1][0] >= target_time:
            pending.pop()
        transaction = (target_time, value)
        pending.append(transaction)
        heappush(simulator._queue,
                 (target_time, next(simulator._sequence), self._apply_entry, transaction))

    def force(self, value) -> None:
        """Immediately set the signal value (used for initial conditions)."""
        simulator = self._simulator
        if simulator._draining:
            self._change(value)
        else:
            simulator._execute(self._change, value)

    def drive(self, times_s, values) -> None:
        """Batch stimulus injection: force each value at its absolute time.

        Equivalent to one ``call_at(t, lambda: force(v))`` per sample but
        with a single self-rescheduling callback instead of a closure and a
        heap entry per edge — the stimulus costs one pending event however
        long the drive pattern is.  Times must be non-decreasing and not in
        the past.
        """
        times_list = [float(t) for t in times_s]
        values_list = [int(v) for v in values]
        if len(times_list) != len(values_list):
            raise SimulationError("drive() needs equally long times and values")
        if not times_list:
            return
        if any(not later >= earlier
               for earlier, later in zip(times_list, times_list[1:])):
            raise SimulationError("drive() times must be non-decreasing and not NaN")
        index = 0

        def fire() -> None:
            nonlocal index
            self.force(values_list[index])
            index += 1
            if index < len(times_list):
                self._simulator.call_at(times_list[index], fire)

        self._simulator.call_at(times_list[0], fire)

    def _apply(self, transaction: tuple[float, object]) -> None:
        pending = self._pending
        if not pending or pending[0] is not transaction:
            return  # cancelled by a later assignment
        pending.popleft()
        self._change(transaction[1])

    def _change(self, value) -> None:
        """Take *value* and, if it is new, dispatch the event to the subscribers.

        The one dispatch of the kernel.  Each dispatched callback is one
        gate/process evaluation: while the running drain or step is traced
        they are summed in the simulator, which counts them as
        ``kernel.gate_evaluations`` when it ends.  The subscriber tuple is
        an immutable snapshot, so callbacks that (un)subscribe during
        dispatch do not affect this iteration.
        """
        if value == self._value:
            return
        self._value = value
        simulator = self._simulator
        now = self.last_event_time_s = simulator._now
        subscribers = self._subscribers
        if simulator._tracer is not None:
            simulator._evaluations += len(subscribers)
        for callback in subscribers:
            callback(self, now)

    # -- helpers -------------------------------------------------------------

    def on_edge(self, callback: Callable[["Signal", float], None],
                polarity: str = Edge.RISING) -> Callable[[], None]:
        """Subscribe to a particular edge polarity of a binary signal."""
        if polarity not in (Edge.RISING, Edge.FALLING, Edge.ANY):
            raise SimulationError(f"unknown edge polarity {polarity!r}")

        def filtered(signal: "Signal", time_s: float) -> None:
            if polarity == Edge.ANY:
                callback(signal, time_s)
            elif polarity == Edge.RISING and signal.value == 1:
                callback(signal, time_s)
            elif polarity == Edge.FALLING and signal.value == 0:
                callback(signal, time_s)

        return self.subscribe(filtered)

    def pending_transactions(self) -> list[tuple[float, object]]:
        """Return the (time, value) pairs currently scheduled (for inspection)."""
        return list(self._pending)


def bus(simulator: Simulator, prefix: str, width: int, initial=0) -> list[Signal]:
    """Create a list of *width* signals named ``prefix[i]``."""
    return [Signal(simulator, f"{prefix}[{index}]", initial) for index in range(width)]
