"""Tests for the CML latch and flip-flop."""

import numpy as np

from repro.events.kernel import Simulator
from repro.events.signal import Signal
from repro.gates.cml import CmlTiming
from repro.gates.storage import CmlFlipFlop, CmlLatch

DELAY = 20.0e-12


class TestLatch:
    def test_transparent_when_enabled(self):
        simulator = Simulator()
        data = Signal(simulator, "d", initial=0)
        enable = Signal(simulator, "en", initial=1)
        output = Signal(simulator, "q", initial=0)
        CmlLatch("latch", data, enable, output, CmlTiming(DELAY))
        data.force(1)
        simulator.run()
        assert output.value == 1

    def test_holds_when_disabled(self):
        simulator = Simulator()
        data = Signal(simulator, "d", initial=0)
        enable = Signal(simulator, "en", initial=1)
        output = Signal(simulator, "q", initial=0)
        CmlLatch("latch", data, enable, output, CmlTiming(DELAY))
        data.force(1)              # transparent: output follows
        simulator.run()
        assert output.value == 1
        enable.force(0)            # now opaque
        data.force(0)
        simulator.run()
        assert output.value == 1   # held value


class TestSettledOutputs:
    """The model-level no-op rule in the latch and the flip-flop."""

    def test_latch_schedules_nothing_onto_a_settled_output(self):
        simulator = Simulator()
        data = Signal(simulator, "d", initial=0)
        enable = Signal(simulator, "en", initial=0)
        output = Signal(simulator, "q", initial=0)
        rng = np.random.default_rng(5)
        CmlLatch("latch", data, enable, output,
                 CmlTiming(DELAY, jitter_sigma_fraction=0.05), rng=rng)
        enable.force(1)  # transparent, and q already holds d
        assert simulator.pending_events() == 0
        twin = np.random.default_rng(5)
        twin.standard_normal()
        assert rng.random() == twin.random()

    def test_flip_flop_schedules_nothing_onto_a_settled_output(self):
        simulator = Simulator()
        data = Signal(simulator, "d", initial=0)
        clock = Signal(simulator, "ck", initial=0)
        output = Signal(simulator, "q", initial=0)
        rng = np.random.default_rng(6)
        ff = CmlFlipFlop(simulator, "ff", data, clock, output,
                         CmlTiming(DELAY, jitter_sigma_fraction=0.05), rng=rng)
        clock.force(1)  # captures 0 into q, which holds 0
        clock.force(0)  # the master already holds d
        assert simulator.pending_events() == 0
        assert ff.decision_values().tolist() == [0]
        twin = np.random.default_rng(6)
        twin.standard_normal()
        assert rng.random() == twin.random()


class TestFlipFlop:
    def _build(self):
        simulator = Simulator()
        data = Signal(simulator, "d", initial=0)
        clock = Signal(simulator, "ck", initial=0)
        output = Signal(simulator, "q", initial=0)
        ff = CmlFlipFlop(simulator, "ff", data, clock, output, CmlTiming(DELAY))
        return simulator, data, clock, output, ff

    def test_samples_on_rising_edge(self):
        simulator, data, clock, output, ff = self._build()
        data.force(1)
        clock.assign(1, 1.0e-9)
        simulator.run()
        assert output.value == 1
        assert ff.decision_values().tolist() == [1]

    def test_ignores_data_changes_while_clock_high(self):
        simulator, data, clock, output, ff = self._build()
        data.force(1)
        clock.assign(1, 1.0e-9)
        simulator.run()
        data.force(0)         # clock still high: master opaque
        simulator.run()
        assert output.value == 1

    def test_tracks_data_between_clock_edges(self):
        simulator, data, clock, output, ff = self._build()
        clock.assign(1, 1.0e-9)
        clock.assign(0, 2.0e-9)
        simulator.run()
        data.force(1)          # clock low: master transparent again
        clock.assign(1, 1.0e-9)
        simulator.run()
        assert output.value == 1
        assert ff.decision_values().tolist() == [0, 1]

    def test_decision_times_recorded(self):
        simulator, data, clock, output, ff = self._build()
        for cycle in range(4):
            clock.assign(1, (cycle + 0.5) * 1.0e-9)
            clock.assign(0, (cycle + 1.0) * 1.0e-9)
        simulator.run()
        times = ff.decision_times()
        assert times.size == 4
        np.testing.assert_allclose(np.diff(times), 1.0e-9)

    def test_clock_to_q_delay(self):
        simulator, data, clock, output, ff = self._build()
        data.force(1)
        clock.assign(1, 1.0e-9)
        simulator.run_until(1.0e-9 + 0.5 * DELAY)
        assert output.value == 0
        simulator.run_until(1.0e-9 + 1.5 * DELAY)
        assert output.value == 1
