"""Discrete-event simulation kernel.

This is the Python stand-in for the VHDL simulator the paper uses for
behavioural verification (section 3.3).  It provides the minimal but faithful
subset of VHDL semantics the gated-oscillator model in Figure 12 relies on:

* an event queue ordered by time (with a deterministic tie-break),
* signals with **transport-delayed** assignment (later pending transactions
  are cancelled when an earlier one is scheduled, exactly like VHDL
  ``transport`` assignments),
* processes written either as plain callbacks or as generators that ``yield``
  wait statements (:class:`WaitFor` a delay / :class:`WaitOn` a signal event),
* a :class:`NormalStream` per random generator, which the gate models draw
  their delay jitter from.

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
    "NormalStream",
    "NORMAL_BLOCK",
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


_INF = float("inf")

#: Draws per :class:`NormalStream` block.
NORMAL_BLOCK = 256


def _invoke(callback: Callable[[], None]) -> None:
    """Heap-entry adapter for the zero-argument callbacks of :meth:`Simulator.call_at`."""
    callback()


class NormalStream:
    """Standard-normal draws from one generator, taken in blocks during a drain.

    Scalar ``rng.normal`` calls cost about a microsecond each, which is most
    of a jittered gate event.  Inside :meth:`Simulator.run` and
    :meth:`Simulator.run_until` the stream draws ``standard_normal`` in
    blocks of :data:`NORMAL_BLOCK` and hands the values out one by one;
    when the drain ends (or raises) it rewinds the generator to the start
    of the open block and re-draws only the values that were handed out.
    The generator therefore leaves every drain in exactly the state the
    same number of scalar draws would leave it in, and the values are the
    ones those scalar draws would have returned: ``1.0 + sigma * draw()``
    is bit-equal to ``1.0 + rng.normal(0.0, sigma)``.  Outside a drain
    every draw is a scalar draw.

    The contract: while a drain runs, the generator belongs to the
    simulator — nothing may draw from it except through this stream.
    """

    __slots__ = ("_simulator", "_rng", "_block", "_index", "_block_state")

    def __init__(self, simulator: "Simulator", rng) -> None:
        self._simulator = simulator
        self._rng = rng
        self._block: list[float] = []
        self._index = 0
        self._block_state: dict | None = None

    def draw(self) -> float:
        """The next standard-normal value of the generator."""
        index = self._index
        try:
            value = self._block[index]
        except IndexError:
            return self._refill()
        self._index = index + 1
        return value

    def _refill(self) -> float:
        rng = self._rng
        if not self._simulator._draining:
            return rng.standard_normal()
        # Only a used-up block gets here, and it needs no rewind: the
        # generator sits where NORMAL_BLOCK scalar draws would leave it.
        self._block_state = rng.bit_generator.state
        self._block = rng.standard_normal(NORMAL_BLOCK).tolist()
        self._index = 1
        return self._block[0]

    def rewind(self) -> None:
        """Return the generator to the scalar-draw state and drop the open block."""
        state = self._block_state
        if state is None:
            return
        rng = self._rng
        rng.bit_generator.state = state
        rng.standard_normal(self._index)
        self._block = []
        self._index = 0
        self._block_state = None


class Simulator:
    """Event-driven simulator with an absolute-time event queue.

    A queue entry is ``(time, sequence, fn, arg)``; executing it calls
    ``fn(arg)``.  Signal transactions push their apply method and the
    transaction itself, so scheduling allocates no closure;
    :meth:`call_at` pushes zero-argument callbacks through a shared
    adapter.

    :meth:`step` is the event-order reference: :meth:`run` and
    :meth:`run_until` share one drain with the heap and the pop hoisted
    into locals, but it executes exactly the events a :meth:`step` loop
    would, in the same order, with the same clock updates and the same
    :class:`NormalStream` values.
    """

    def __init__(self) -> None:
        self._queue: list[tuple] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processes: list[Process] = []
        self._started = False
        #: The active tracer read at the start of the running drain (or
        #: step, or force outside a drain), or None.
        self._tracer = None
        #: Subscriber dispatches of the running drain while traced; flushed
        #: to ``kernel.gate_evaluations`` when it ends.
        self._evaluations = 0
        self._draining = False
        self._streams: dict[int, NormalStream] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def normal_stream(self, rng) -> NormalStream:
        """The simulator's :class:`NormalStream` over *rng* (one per generator)."""
        stream = self._streams.get(id(rng))
        if stream is None:
            stream = self._streams[id(rng)] = NormalStream(self, rng)
        return stream

    # -- scheduling ----------------------------------------------------------

    def call_at(self, time_s: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* at absolute time *time_s* (must not be in the past)."""
        if time_s < self._now - 1.0e-18:
            raise SimulationError(
                f"cannot schedule an event at {time_s!r}s, current time is {self._now!r}s"
            )
        heapq.heappush(
            self._queue, (max(time_s, self._now), next(self._sequence), _invoke, callback)
        )

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
        """Execute the next pending event; return False when the queue is empty.

        A single step takes its normal draws one scalar at a time, so it
        leaves no stream block to rewind.
        """
        if not self._queue:
            return False
        time_s, _seq, fn, arg = heapq.heappop(self._queue)
        self._now = time_s
        self._execute(fn, arg)
        return True

    def _execute(self, fn, arg) -> None:
        """Call ``fn(arg)`` outside a drain, with the telemetry of a one-event drain.

        :meth:`step` runs its event through here, and so does a
        :meth:`Signal.force <repro.events.signal.Signal.force>` made
        outside a drain.
        """
        self._tracer = telemetry.ACTIVE or None
        try:
            fn(arg)
        finally:
            self._flush_evaluations()

    def _flush_evaluations(self) -> None:
        if self._evaluations:
            self._tracer.count("kernel.gate_evaluations", self._evaluations)
            self._evaluations = 0

    def _drain(self, stop_time_s: float, limit: float, overrun: str) -> int:
        """Execute every event due by *stop_time_s*; return the event count.

        The one event loop of :meth:`run_until` and :meth:`run`.  Executing
        more than *limit* events raises ``SimulationError(overrun)``.
        """
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        # The one telemetry read of the drain: signals test _tracer against
        # None, which costs no NullTracer.__bool__ call per event.
        tracer = self._tracer = telemetry.ACTIVE or None
        self._draining = True
        try:
            while queue and queue[0][0] <= stop_time_s:
                if executed >= limit:
                    raise SimulationError(overrun)
                time_s, _seq, fn, arg = pop(queue)
                self._now = time_s
                fn(arg)
                executed += 1
        finally:
            self._draining = False
            for stream in self._streams.values():
                stream.rewind()
            self._flush_evaluations()
        if tracer is not None:
            tracer.count("kernel.events", executed)
        return executed

    def run_until(self, stop_time_s: float, max_events: int | None = None) -> int:
        """Run until simulated time reaches *stop_time_s*; return the event count.

        ``max_events`` guards against runaway zero-delay loops (an error is
        raised when it is exceeded).
        """
        executed = self._drain(
            stop_time_s,
            _INF if max_events is None else max_events,
            f"exceeded {max_events} events before reaching {stop_time_s!r}s "
            "(possible zero-delay loop)",
        )
        self._now = max(self._now, stop_time_s)
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains; return the number of executed events."""
        return self._drain(
            _INF, max_events, f"exceeded {max_events} events without draining the queue"
        )

    def pending_events(self) -> int:
        """Number of events currently scheduled."""
        return len(self._queue)
