"""Tests for the gate-level gated ring oscillator (GCCO)."""

import numpy as np
import pytest

from repro.events.kernel import Simulator
from repro.events.signal import Signal
from repro.events.waveform import WaveformRecorder
from repro.gates.delay_line import DelayLine
from repro.gates.cml import CmlTiming
from repro.gates.ring import GatedRingOscillator, GccoParameters
from repro.analysis.timing import measure_frequency, period_jitter


def build_oscillator(gate_value=1, parameters=None, control_current=None, seed=0):
    simulator = Simulator()
    gate = Signal(simulator, "edet", initial=gate_value)
    oscillator = GatedRingOscillator(simulator, "osc", gate, parameters,
                                     control_current_a=control_current,
                                     rng=np.random.default_rng(seed))
    recorder = WaveformRecorder()
    nominal = recorder.watch(oscillator.clock_nominal, "nominal")
    improved = recorder.watch(oscillator.clock_improved, "improved")
    return simulator, gate, oscillator, nominal, improved


class TestParameters:
    def test_frequency_at_midpoint(self):
        parameters = GccoParameters()
        assert parameters.frequency_at(parameters.control_current_midpoint_a) == \
            pytest.approx(2.5e9)

    def test_cco_gain(self):
        parameters = GccoParameters()
        up = parameters.frequency_at(parameters.control_current_midpoint_a + 10e-6)
        assert up == pytest.approx(2.5e9 + 2.0e12 * 10e-6)

    def test_stage_delay(self):
        parameters = GccoParameters()
        assert parameters.stage_delay_at(parameters.control_current_midpoint_a) == \
            pytest.approx(50.0e-12)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            GccoParameters().frequency_at(-10.0)

    def test_too_few_stages_rejected(self):
        with pytest.raises(ValueError):
            GccoParameters(n_stages=2)

    @pytest.mark.parametrize("n_stages", [3, 5, 7])
    def test_odd_stage_count_rejected(self, n_stages):
        """An odd ring (AND + an even number of inverters) would latch."""
        with pytest.raises(ValueError, match="even"):
            GccoParameters(n_stages=n_stages)

    @pytest.mark.parametrize("n_stages", [4, 6])
    def test_even_stage_count_accepted(self, n_stages):
        assert GccoParameters(n_stages=n_stages).n_stages == n_stages


class TestFreeRunning:
    def test_oscillates_at_nominal_frequency(self):
        simulator, _gate, osc, nominal, _ = build_oscillator()
        simulator.run_until(200.0e-9)
        edges = nominal.edges("rising")
        assert edges.size > 100
        assert measure_frequency(edges[10:]) == pytest.approx(2.5e9, rel=0.01)

    def test_period_is_eight_stage_delays(self):
        simulator, _gate, osc, nominal, _ = build_oscillator()
        simulator.run_until(100.0e-9)
        _, stats = period_jitter(nominal.edges("rising")[5:])
        assert stats.mean_s == pytest.approx(8 * 50.0e-12, rel=0.01)

    def test_control_current_tunes_frequency(self):
        parameters = GccoParameters()
        target = 2.375e9
        control = parameters.control_current_midpoint_a + (
            target - 2.5e9) / parameters.gain_hz_per_a
        simulator, _gate, osc, nominal, _ = build_oscillator(control_current=control)
        assert osc.oscillation_frequency_hz == pytest.approx(target)
        simulator.run_until(200.0e-9)
        assert measure_frequency(nominal.edges("rising")[10:]) == pytest.approx(target, rel=0.01)

    def test_jitter_accumulates_on_periods(self):
        parameters = GccoParameters(jitter_sigma_fraction=0.02)
        simulator, _gate, osc, nominal, _ = build_oscillator(parameters=parameters, seed=3)
        simulator.run_until(400.0e-9)
        _, stats = period_jitter(nominal.edges("rising")[5:])
        assert stats.rms_s > 1.0e-12  # visible period jitter

    def test_set_control_current_at_runtime(self):
        simulator, _gate, osc, nominal, _ = build_oscillator()
        simulator.run_until(50.0e-9)
        osc.set_control_current(osc.parameters.control_current_midpoint_a + 50e-6)
        assert osc.oscillation_frequency_hz > 2.5e9
        simulator.run_until(100.0e-9)
        late = nominal.edges("rising")
        assert measure_frequency(late[late > 55.0e-9]) == pytest.approx(
            osc.oscillation_frequency_hz, rel=1e-9)

    def test_invalid_control_current_rejected_at_construction(self):
        with pytest.raises(ValueError):
            build_oscillator(control_current=-10.0)


class TestGating:
    def test_gate_low_freezes_oscillator(self):
        simulator, gate, osc, nominal, _ = build_oscillator()
        simulator.run_until(20.0e-9)
        gate.force(0)
        simulator.run_until(22.0e-9)
        edges_before = nominal.edges("any").size
        simulator.run_until(30.0e-9)
        edges_after = nominal.edges("any").size
        # After the freeze has propagated no further clock activity occurs.
        assert edges_after <= edges_before + 1

    def test_release_rephases_clock(self):
        """The first nominal rising edge comes T/2 after the gate is released."""
        simulator, gate, osc, nominal, _ = build_oscillator()
        simulator.run_until(20.0e-9)
        gate.force(0)
        simulator.run_until(21.0e-9)
        release_time = 21.5e-9
        simulator.call_at(release_time, lambda: gate.force(1))
        simulator.run_until(23.0e-9)
        rising = nominal.edges("rising")
        first_after_release = rising[rising > release_time][0]
        assert first_after_release - release_time == pytest.approx(200.0e-12, rel=0.02)

    def test_improved_tap_is_one_stage_earlier(self):
        """The improved tap rises T/8 before the nominal tap (paper Figure 15)."""
        simulator, gate, osc, nominal, improved = build_oscillator()
        simulator.run_until(20.0e-9)
        gate.force(0)
        simulator.run_until(21.0e-9)
        release_time = 21.5e-9
        simulator.call_at(release_time, lambda: gate.force(1))
        simulator.run_until(23.0e-9)
        nominal_edge = nominal.edges("rising")
        improved_edge = improved.edges("rising")
        first_nominal = nominal_edge[nominal_edge > release_time][0]
        first_improved = improved_edge[improved_edge > release_time][0]
        assert first_nominal - first_improved == pytest.approx(50.0e-12, rel=0.05)


class TestDelayLine:
    def test_total_delay(self):
        simulator = Simulator()
        data = Signal(simulator, "d", initial=0)
        line = DelayLine(simulator, "dl", data, 3, CmlTiming(100.0e-12))
        assert line.nominal_delay_s == pytest.approx(300.0e-12)
        data.force(1)
        simulator.run()
        assert simulator.now == pytest.approx(300.0e-12)
        assert line.output.value == 1

    def test_taps_expose_intermediate_nodes(self):
        simulator = Simulator()
        data = Signal(simulator, "d", initial=0)
        line = DelayLine(simulator, "dl", data, 4, CmlTiming(50.0e-12))
        assert len(line.taps) == 4

    def test_requires_at_least_one_cell(self):
        simulator = Simulator()
        data = Signal(simulator, "d", initial=0)
        with pytest.raises(ValueError):
            DelayLine(simulator, "dl", data, 0, CmlTiming(50.0e-12))
