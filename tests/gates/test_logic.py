"""Tests for the combinational CML gate models."""

import numpy as np
import pytest

from repro.events.kernel import Simulator
from repro.events.signal import Signal
from repro.events.waveform import WaveformRecorder
from repro.gates.cml import CmlGate, CmlTiming
from repro.gates.logic import (
    And2Gate,
    BufferGate,
    InverterGate,
    Mux2Gate,
    Nand2Gate,
    Or2Gate,
    Xnor2Gate,
    Xor2Gate,
)

DELAY = 25.0e-12


def setup(n_inputs=2):
    simulator = Simulator()
    inputs = [Signal(simulator, f"in{i}", initial=0) for i in range(n_inputs)]
    output = Signal(simulator, "out", initial=0)
    return simulator, inputs, output


class TestTiming:
    def test_delay_for_input_with_skew(self):
        timing = CmlTiming(nominal_delay_s=DELAY, input_skew_s=(0.0, 10.0e-12))
        assert timing.delay_for_input(0) == pytest.approx(DELAY)
        assert timing.delay_for_input(1) == pytest.approx(DELAY + 10.0e-12)
        assert timing.delay_for_input(5) == pytest.approx(DELAY)

    def test_rejects_non_positive_delay(self):
        with pytest.raises(ValueError):
            CmlTiming(nominal_delay_s=0.0)

    def test_with_delay_copy(self):
        timing = CmlTiming(nominal_delay_s=DELAY, jitter_sigma_fraction=0.01)
        copy = timing.with_delay(2 * DELAY)
        assert copy.nominal_delay_s == pytest.approx(2 * DELAY)
        assert copy.jitter_sigma_fraction == pytest.approx(0.01)


class TestPropagation:
    def test_buffer_propagates_with_delay(self):
        simulator, (data,), output = setup(1)
        BufferGate("buf", data, output, CmlTiming(DELAY))
        data.force(1)
        simulator.run_until(DELAY * 0.9)
        assert output.value == 0
        simulator.run_until(DELAY * 1.1)
        assert output.value == 1

    def test_inverter(self):
        simulator, (data,), output = setup(1)
        InverterGate("inv", data, output, CmlTiming(DELAY))
        data.force(1)
        simulator.run()
        assert output.value == 0

    def test_and_gate_truth_table(self):
        for a, b, expected in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]:
            simulator, (in_a, in_b), output = setup(2)
            gate = And2Gate("and", in_a, in_b, output, CmlTiming(DELAY))
            in_a.force(a)
            in_b.force(b)
            gate.settle()
            simulator.run()
            assert output.value == expected, (a, b)

    def test_nand_or_xor_xnor(self):
        cases = [
            (Nand2Gate, [(0, 0, 1), (1, 1, 0), (1, 0, 1)]),
            (Or2Gate, [(0, 0, 0), (1, 0, 1), (1, 1, 1)]),
            (Xor2Gate, [(0, 0, 0), (1, 0, 1), (1, 1, 0)]),
            (Xnor2Gate, [(0, 0, 1), (1, 0, 0), (1, 1, 1)]),
        ]
        for gate_class, table in cases:
            for a, b, expected in table:
                simulator, (in_a, in_b), output = setup(2)
                gate = gate_class("g", in_a, in_b, output, CmlTiming(DELAY))
                in_a.force(a)
                in_b.force(b)
                gate.settle()
                simulator.run()
                assert output.value == expected, (gate_class.__name__, a, b)

    def test_mux(self):
        for sel, expected in [(0, 1), (1, 0)]:
            simulator, (in_a, in_b), output = setup(2)
            select = Signal(simulator, "sel", initial=0)
            gate = Mux2Gate("mux", in_a, in_b, select, output, CmlTiming(DELAY))
            in_a.force(1)
            in_b.force(0)
            select.force(sel)
            gate.settle()
            simulator.run()
            assert output.value == expected

    def test_per_input_skew_changes_delay(self):
        simulator, (in_a, in_b), output = setup(2)
        timing = CmlTiming(DELAY, input_skew_s=(0.0, 15.0e-12))
        And2Gate("and", in_a, in_b, output, timing)
        in_a.force(1)
        simulator.run()
        recorder = WaveformRecorder()
        trace = recorder.watch(output)
        # Event arriving on the slower (stacked) input B.
        event_time = simulator.now
        in_b.force(1)
        simulator.run()
        rising = trace.edges("rising")
        assert rising.size == 1
        # The output toggles one nominal delay plus the input-B skew later.
        assert rising[0] - event_time == pytest.approx(DELAY + 15.0e-12, abs=1e-15)

    def test_jitter_spreads_delay(self):
        delays = []
        for seed in range(40):
            simulator, (data,), output = setup(1)
            timing = CmlTiming(DELAY, jitter_sigma_fraction=0.05)
            BufferGate("buf", data, output, timing,
                       rng=np.random.default_rng(seed))
            data.force(1)
            simulator.run()
            delays.append(simulator.now)
        spread = np.std(delays)
        assert spread == pytest.approx(0.05 * DELAY, rel=0.5)

    def test_delay_scale_factor(self):
        simulator, (data,), output = setup(1)
        gate = BufferGate("buf", data, output, CmlTiming(DELAY))
        gate.delay_scale = 2.0
        data.force(1)
        simulator.run()
        assert simulator.now == pytest.approx(2.0 * DELAY)

    def test_event_counter(self):
        simulator, (data,), output = setup(1)
        gate = BufferGate("buf", data, output, CmlTiming(DELAY))
        data.force(1)
        data.force(0)
        simulator.run()
        assert gate.event_count == 2

    def test_settled_output_schedules_nothing_but_still_draws(self):
        """The model-level no-op rule: no transaction, same draw order."""
        simulator, (in_a, in_b), output = setup(2)
        rng = np.random.default_rng(12)
        gate = And2Gate("and", in_a, in_b, output,
                        CmlTiming(DELAY, jitter_sigma_fraction=0.05), rng=rng)
        in_a.force(1)  # AND(1, 0) = 0: the output already holds it
        assert simulator.pending_events() == 0
        assert output.pending_transactions() == []
        assert gate.event_count == 1
        twin = np.random.default_rng(12)
        twin.standard_normal()
        assert rng.random() == twin.random()

    def test_settled_rule_needs_an_empty_queue(self):
        """A pending glitch is still cancelled by a same-value assignment."""
        simulator, (data,), output = setup(1)
        BufferGate("buf", data, output, CmlTiming(DELAY))
        data.force(1)
        assert output.pending_transactions() == [(DELAY, 1)]
        data.force(0)  # output holds 0, but 1 is pending: schedule the 0
        assert output.pending_transactions() == [(DELAY, 0)]
        simulator.run()
        assert output.value == 0
        assert output.last_event_time_s is None

    def test_gate_requires_inputs(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            CmlGate("bad", [], Signal(simulator, "o"), lambda v: 0, CmlTiming(DELAY))

    def test_settle_forces_output(self):
        simulator, (in_a, in_b), output = setup(2)
        in_a.force(1)
        in_b.force(1)
        gate = And2Gate("and", in_a, in_b, output, CmlTiming(DELAY))
        gate.settle()
        assert output.value == 1

    @pytest.mark.parametrize("n_inputs", [1, 2, 3, 4])
    def test_settle_and_input_events_agree_for_every_arity(self, n_inputs):
        """Both paths index the truth table the same way, bools read as 0/1."""
        def parity(values):
            return sum(values) & 1

        for index in range(1 << n_inputs):
            values = [(index >> bit) & 1 for bit in range(n_inputs)]
            simulator, inputs, settled = setup(n_inputs)
            evented = Signal(simulator, "evented", initial=0)
            for signal, value in zip(inputs, values):
                signal.force(bool(value))
            gate = CmlGate("settled", inputs, settled, parity, CmlTiming(DELAY))
            CmlGate("evented", inputs, evented, parity, CmlTiming(DELAY)).evaluate_now()
            gate.settle()
            simulator.run()
            assert settled.value == evented.value == parity(values), values
