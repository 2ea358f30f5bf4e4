"""Discrete-event simulation kernel.

This is the Python stand-in for the VHDL simulator the paper uses for
behavioural verification (section 3.3).  It provides the minimal but faithful
subset of VHDL semantics the gated-oscillator model in Figure 12 relies on:

* an event queue ordered by time (with a deterministic tie-break),
* signals with **transport-delayed** assignment (later pending transactions
  are cancelled when an earlier one is scheduled, exactly like VHDL
  ``transport`` assignments),
* processes written either as plain callbacks or as generators that ``yield``
  wait statements (:class:`WaitFor` a delay / :class:`WaitOn` a signal event).

The kernel is deliberately single-threaded and deterministic: given the same
seeded random generators in the gate models, two runs produce identical
waveforms, which is what makes the regression tests meaningful.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Generator

from .. import telemetry
from .._validation import require_non_negative

__all__ = [
    "Simulator",
    "WaitFor",
    "WaitOn",
    "Process",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for scheduling errors (negative delays, running past the horizon...)."""


@dataclass(frozen=True)
class WaitFor:
    """Process wait statement: suspend for a fixed simulated delay (seconds)."""

    delay_s: float

    def __post_init__(self) -> None:
        require_non_negative("delay_s", self.delay_s)


@dataclass(frozen=True)
class WaitOn:
    """Process wait statement: suspend until any of the given signals has an event."""

    signals: tuple

    def __init__(self, *signals) -> None:
        if not signals:
            raise ValueError("WaitOn needs at least one signal")
        object.__setattr__(self, "signals", tuple(signals))


class Process:
    """A generator-based simulation process.

    The generator yields :class:`WaitFor` / :class:`WaitOn` objects; the
    kernel resumes it when the wait condition is met.  The process ends when
    the generator returns.
    """

    __slots__ = ("_simulator", "_generator", "name", "finished",
                 "_pending_unsubscribe")

    def __init__(self, simulator: "Simulator", generator: Generator, name: str = "") -> None:
        self._simulator = simulator
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self._pending_unsubscribe: list[Callable[[], None]] = []

    def _resume(self) -> None:
        for unsubscribe in self._pending_unsubscribe:
            unsubscribe()
        self._pending_unsubscribe.clear()
        if self.finished:
            return
        try:
            statement = next(self._generator)
        except StopIteration:
            self.finished = True
            return
        self._wait(statement)

    def _wait(self, statement) -> None:
        if isinstance(statement, WaitFor):
            self._simulator.call_after(statement.delay_s, self._resume)
            return
        if isinstance(statement, WaitOn):
            fired = {"done": False}

            def on_event(_signal, _time) -> None:
                if fired["done"]:
                    return
                fired["done"] = True
                # Resume in a fresh event so all same-delta updates settle first.
                self._simulator.call_after(0.0, self._resume)

            for signal in statement.signals:
                unsubscribe = signal.subscribe(on_event)
                self._pending_unsubscribe.append(unsubscribe)
            return
        raise SimulationError(
            f"process {self.name!r} yielded {statement!r}; expected WaitFor or WaitOn"
        )


class Simulator:
    """Event-driven simulator with an absolute-time event queue.

    :meth:`step` is the event-order reference: :meth:`run` and
    :meth:`run_until` drain the queue with the heap and the pop hoisted
    into locals, but execute exactly the events a :meth:`step` loop
    would, in the same order and with the same clock updates.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processes: list[Process] = []
        self._started = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def call_at(self, time_s: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* at absolute time *time_s* (must not be in the past)."""
        if time_s < self._now - 1.0e-18:
            raise SimulationError(
                f"cannot schedule an event at {time_s!r}s, current time is {self._now!r}s"
            )
        heapq.heappush(self._queue, (max(time_s, self._now), next(self._sequence), callback))

    def call_after(self, delay_s: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* after *delay_s* seconds of simulated time."""
        require_non_negative("delay_s", delay_s)
        self.call_at(self._now + delay_s, callback)

    def add_process(self, generator_function: Callable[..., Generator], *args,
                    name: str = "", **kwargs) -> Process:
        """Register a generator-based process; it starts at the current time."""
        process = Process(self, generator_function(*args, **kwargs),
                          name=name or generator_function.__name__)
        self._processes.append(process)
        self.call_after(0.0, process._resume)
        return process

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event; return False when the queue is empty."""
        if not self._queue:
            return False
        time_s, _seq, callback = heapq.heappop(self._queue)
        self._now = time_s
        callback()
        return True

    def run_until(self, stop_time_s: float, max_events: int | None = None) -> int:
        """Run until simulated time reaches *stop_time_s*; return the event count.

        ``max_events`` guards against runaway zero-delay loops (an error is
        raised when it is exceeded).
        """
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        bounded = max_events is not None
        while queue and queue[0][0] <= stop_time_s:
            if bounded and executed >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before reaching {stop_time_s!r}s "
                    "(possible zero-delay loop)"
                )
            time_s, _seq, callback = pop(queue)
            self._now = time_s
            callback()
            executed += 1
        self._now = max(self._now, stop_time_s)
        tracer = telemetry.ACTIVE
        if tracer:
            tracer.count("kernel.events", executed)
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains; return the number of executed events."""
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        while queue:
            if executed >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events without draining the queue"
                )
            time_s, _seq, callback = pop(queue)
            self._now = time_s
            callback()
            executed += 1
        tracer = telemetry.ACTIVE
        if tracer:
            tracer.count("kernel.events", executed)
        return executed

    def pending_events(self) -> int:
        """Number of events currently scheduled."""
        return len(self._queue)
