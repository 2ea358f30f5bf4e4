"""Tests for transport-delay signals."""

import pytest

from repro import telemetry
from repro.events.kernel import Simulator
from repro.events.signal import Edge, Signal, bus


class TestAssignment:
    def test_initial_value(self):
        simulator = Simulator()
        assert Signal(simulator, "s", initial=1).value == 1

    def test_delayed_assignment(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        signal.assign(1, 5.0e-9)
        simulator.run_until(4.0e-9)
        assert signal.value == 0
        simulator.run_until(6.0e-9)
        assert signal.value == 1

    def test_no_event_for_same_value(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=1)
        events = []
        signal.subscribe(lambda s, t: events.append(t))
        signal.assign(1, 1.0e-9)
        simulator.run()
        assert events == []

    def test_same_value_assignment_is_still_scheduled(self):
        """Only the gate models skip settled outputs; the signal schedules all."""
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=1)
        signal.assign(1, 1.0e-9)
        assert signal.pending_transactions() == [(1.0e-9, 1)]
        assert simulator.pending_events() == 1
        assert simulator.run() == 1
        assert simulator.now == 1.0e-9

    def test_transport_semantics_cancel_later_transactions(self):
        # Scheduling an earlier transaction cancels already-pending later ones,
        # exactly as VHDL transport assignments behave.
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        signal.assign(1, 10.0e-9)
        signal.assign(0, 5.0e-9)   # earlier: cancels the later '1'
        simulator.run()
        assert signal.value == 0

    def test_transport_preserves_earlier_transactions(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        history = []
        signal.subscribe(lambda s, t: history.append((t, s.value)))
        signal.assign(1, 1.0e-9)
        signal.assign(0, 3.0e-9)
        simulator.run()
        assert history == [(pytest.approx(1.0e-9), 1), (pytest.approx(3.0e-9), 0)]

    def test_force_is_immediate(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        signal.force(1)
        assert signal.value == 1

    def test_pending_transactions_inspection(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        signal.assign(1, 2.0e-9)
        pending = signal.pending_transactions()
        assert len(pending) == 1
        assert pending[0][1] == 1

    @pytest.mark.parametrize("delay", [-1.0e-12, float("nan"), float("inf")])
    def test_invalid_delay_rejected(self, delay):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        with pytest.raises(ValueError):
            signal.assign(1, delay)
        assert signal.pending_transactions() == []
        assert simulator.pending_events() == 0

    def test_equal_time_assignment_replaces_pending(self):
        # A transaction at the same time as a pending one cancels it too.
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        history = []
        signal.subscribe(lambda s, t: history.append((t, s.value)))
        signal.assign(1, 2.0e-9)
        signal.assign(0, 1.0e-9)
        signal.assign(1, 1.0e-9)
        assert signal.pending_transactions() == [(1.0e-9, 1)]
        simulator.run()
        assert history == [(1.0e-9, 1)]

    def test_last_event_time(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        signal.assign(1, 2.0e-9)
        simulator.run()
        assert signal.last_event_time_s == pytest.approx(2.0e-9)


class TestSubscription:
    def test_unsubscribe(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        calls = []
        unsubscribe = signal.subscribe(lambda s, t: calls.append(t))
        signal.assign(1, 1.0e-9)
        simulator.run()
        unsubscribe()
        signal.assign(0, 1.0e-9)
        simulator.run()
        assert len(calls) == 1

    def test_edge_filtering(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        rising, falling = [], []
        signal.on_edge(lambda s, t: rising.append(t), Edge.RISING)
        signal.on_edge(lambda s, t: falling.append(t), Edge.FALLING)
        signal.assign(1, 1.0e-9)
        signal.assign(0, 2.0e-9)
        signal.assign(1, 3.0e-9)
        simulator.run()
        assert len(rising) == 2
        assert len(falling) == 1

    def test_unknown_polarity_rejected(self):
        simulator = Simulator()
        signal = Signal(simulator, "s")
        with pytest.raises(Exception):
            signal.on_edge(lambda s, t: None, "sideways")


class TestTelemetry:
    def test_every_dispatch_counts_once_in_and_outside_drains(self):
        simulator = Simulator()
        signal = Signal(simulator, "s", initial=0)
        signal.subscribe(lambda s, t: None)
        signal.subscribe(lambda s, t: None)
        with telemetry.trace("signal") as tracer:
            signal.force(1)  # outside a drain: counted at once
            assert tracer.counters["kernel.gate_evaluations"] == 2
            signal.assign(0, 1.0e-12)
            simulator.step()
            assert tracer.counters["kernel.gate_evaluations"] == 4
            simulator.call_after(1.0e-12, lambda: signal.force(1))  # inside a drain
            signal.assign(0, 2.0e-12)
            simulator.run()
            assert tracer.counters["kernel.gate_evaluations"] == 8
        signal.force(1)
        simulator.run()
        assert tracer.counters["kernel.gate_evaluations"] == 8


class TestBus:
    def test_bus_creation(self):
        simulator = Simulator()
        signals = bus(simulator, "d", 4, initial=1)
        assert len(signals) == 4
        assert signals[2].name == "d[2]"
        assert all(s.value == 1 for s in signals)
