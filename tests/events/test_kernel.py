"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.events.kernel import SimulationError, Simulator, WaitFor, WaitOn
from repro.events.signal import Signal


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_execute_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.call_after(2.0e-9, lambda: order.append("late"))
        simulator.call_after(1.0e-9, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]

    def test_ties_execute_in_scheduling_order(self):
        simulator = Simulator()
        order = []
        simulator.call_after(1.0e-9, lambda: order.append("first"))
        simulator.call_after(1.0e-9, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second"]

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator()
        simulator.call_after(1.0e-9, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.call_at(0.5e-9, lambda: None)

    def test_nan_time_rejected_and_queue_untouched(self):
        # A queued NaN compares false against every time, so it would stall
        # the heap: run_until would execute none of the valid events.
        simulator = Simulator()
        fired = []
        for time_s in (1.0e-9, 2.0e-9, 3.0e-9):
            simulator.call_at(time_s, lambda: fired.append(simulator.now))
        with pytest.raises(SimulationError, match="nan"):
            simulator.call_at(float("nan"), lambda: fired.append("nan"))
        assert simulator.pending_events() == 3
        assert simulator.run_until(1.0e-8) == 3
        assert fired == [1.0e-9, 2.0e-9, 3.0e-9]

    def test_drive_rejects_nan_time_before_scheduling(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        with pytest.raises(SimulationError, match="NaN"):
            signal.drive([1.0e-9, float("nan"), 3.0e-9], [1, 0, 1])
        assert simulator.pending_events() == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().call_after(-1.0e-9, lambda: None)

    def test_run_until_stops_at_horizon(self):
        simulator = Simulator()
        fired = []
        simulator.call_after(1.0e-9, lambda: fired.append(1))
        simulator.call_after(5.0e-9, lambda: fired.append(2))
        simulator.run_until(2.0e-9)
        assert fired == [1]
        assert simulator.now == pytest.approx(2.0e-9)
        assert simulator.pending_events() == 1

    def test_run_until_event_limit(self):
        simulator = Simulator()

        def reschedule():
            simulator.call_after(0.0, reschedule)

        simulator.call_after(0.0, reschedule)
        with pytest.raises(SimulationError):
            simulator.run_until(1.0e-9, max_events=100)

    def test_nested_scheduling_from_callbacks(self):
        simulator = Simulator()
        hits = []

        def outer():
            hits.append(simulator.now)
            simulator.call_after(1.0e-9, inner)

        def inner():
            hits.append(simulator.now)

        simulator.call_after(1.0e-9, outer)
        simulator.run()
        assert hits == [pytest.approx(1.0e-9), pytest.approx(2.0e-9)]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


def step_drain(simulator, stop_time_s=None, max_events=None):
    """The drain oracle: a plain :meth:`Simulator.step` loop.

    Runs until the queue empties (``stop_time_s=None``) or its next event
    lies past *stop_time_s*; returns ``(executed, budget_exhausted)``.
    """
    executed = 0
    queue = simulator._queue
    while queue and (stop_time_s is None or queue[0][0] <= stop_time_s):
        if max_events is not None and executed >= max_events:
            return executed, True
        simulator.step()
        executed += 1
    return executed, False


class TestDrainMatchesStepOracle:
    """``run``/``run_until`` execute exactly what a ``step()`` loop would."""

    @staticmethod
    def _scheduled(simulator):
        order = []
        simulator.call_after(2.0e-9, lambda: order.append("late"))
        simulator.call_after(1.0e-9, lambda: order.append("early"))
        simulator.call_after(1.0e-9, lambda: order.append("tied"))
        return order

    def test_same_time_ties_match_step_order(self):
        drained = Simulator()
        order = self._scheduled(drained)
        executed = drained.run()
        oracle = Simulator()
        oracle_order = self._scheduled(oracle)
        assert step_drain(oracle) == (executed, False)
        assert order == oracle_order == ["early", "tied", "late"]
        assert drained.now == oracle.now

    @staticmethod
    def _runaway(delay_s):
        """A simulator whose single callback reschedules itself forever."""
        simulator = Simulator()
        fired = []

        def reschedule():
            fired.append(simulator.now)
            simulator.call_after(delay_s, reschedule)

        simulator.call_after(0.0, reschedule)
        return simulator, fired

    def test_run_until_budget_error_matches_reference(self):
        simulator, fired = self._runaway(0.0)
        with pytest.raises(SimulationError, match="zero-delay loop"):
            simulator.run_until(1.0e-9, max_events=25)
        oracle, oracle_fired = self._runaway(0.0)
        assert step_drain(oracle, 1.0e-9, max_events=25) == (25, True)
        assert fired == oracle_fired
        assert simulator.now == oracle.now

    def test_run_budget_error_matches_reference(self):
        simulator, fired = self._runaway(1.0e-12)
        with pytest.raises(SimulationError, match="without draining"):
            simulator.run(max_events=25)
        oracle, oracle_fired = self._runaway(1.0e-12)
        assert step_drain(oracle, max_events=25) == (25, True)
        assert fired == oracle_fired
        assert simulator.now == oracle.now

    def test_run_until_advances_clock_to_stop_time(self):
        simulator = Simulator()
        simulator.call_after(1.0e-9, lambda: None)
        assert simulator.run_until(5.0e-9) == 1
        assert simulator.now == 5.0e-9
        oracle = Simulator()
        oracle.call_after(1.0e-9, lambda: None)
        assert step_drain(oracle, 5.0e-9) == (1, False)
        assert oracle.now == 1.0e-9  # the advance past the last event is run_until's own


class TestProcesses:
    def test_wait_for_delays(self):
        simulator = Simulator()
        times = []

        def process():
            times.append(simulator.now)
            yield WaitFor(3.0e-9)
            times.append(simulator.now)
            yield WaitFor(2.0e-9)
            times.append(simulator.now)

        simulator.add_process(process)
        simulator.run()
        assert times == [pytest.approx(0.0), pytest.approx(3.0e-9), pytest.approx(5.0e-9)]

    def test_wait_on_signal(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        seen = []

        def watcher():
            yield WaitOn(signal)
            seen.append((simulator.now, signal.value))

        simulator.add_process(watcher)
        simulator.call_after(2.0e-9, lambda: signal.force(1))
        simulator.run()
        assert len(seen) == 1
        assert seen[0][1] == 1

    def test_process_finishes(self):
        simulator = Simulator()

        def process():
            yield WaitFor(1.0e-9)

        handle = simulator.add_process(process)
        simulator.run()
        assert handle.finished

    def test_invalid_yield_raises(self):
        simulator = Simulator()

        def process():
            yield 42

        simulator.add_process(process)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_wait_on_requires_signal(self):
        with pytest.raises(ValueError):
            WaitOn()

    def test_wait_for_rejects_negative(self):
        with pytest.raises(ValueError):
            WaitFor(-1.0)
