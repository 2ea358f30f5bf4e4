"""Tests for the behavioural (event-driven) CDR channel."""

import numpy as np
import pytest

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import PAPER_JITTER_SPEC, CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs7
from repro.gates.ring import GccoParameters

NO_JITTER = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0)
SJ_ONLY = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0,
                     sj_amplitude_ui_pp=0.1, sj_frequency_hz=250.0e6)


def run_channel(config, bits=None, jitter=NO_JITTER, seed=1, n=600):
    channel = BehavioralCdrChannel(config)
    if bits is None:
        bits = prbs7(n)
    return channel.run(bits, jitter=jitter, rng=np.random.default_rng(seed))


class TestErrorFreeOperation:
    def test_recovers_prbs7_without_jitter(self):
        result = run_channel(CdrChannelConfig.paper_nominal())
        measurement = result.ber()
        assert measurement.compared_bits > 500
        assert measurement.errors == 0
        assert result.missed_bits() == 0

    def test_recovers_with_improved_tap(self):
        result = run_channel(CdrChannelConfig.paper_improved())
        assert result.ber().errors == 0

    def test_recovers_under_moderate_jitter(self):
        jitter = JitterSpec(dj_ui_pp=0.1, rj_ui_rms=0.01)
        result = run_channel(CdrChannelConfig.paper_nominal(), jitter=jitter)
        assert result.ber().errors == 0

    def test_recovers_under_small_frequency_offset(self):
        config = CdrChannelConfig.paper_nominal().with_frequency_offset(0.001)
        result = run_channel(config)
        assert result.ber().errors == 0

    def test_one_sample_per_bit(self):
        result = run_channel(CdrChannelConfig.paper_nominal())
        assert result.samples_per_bit() == pytest.approx(1.0, abs=0.02)

    def test_recovered_clock_frequency_matches_data_rate(self):
        result = run_channel(CdrChannelConfig.paper_nominal())
        assert result.recovered_clock_frequency_hz() == pytest.approx(2.5e9, rel=0.01)

    def test_gate_jitter_spreads_recovered_clock(self):
        clean = run_channel(CdrChannelConfig(oscillator=GccoParameters(jitter_sigma_fraction=0.0)))
        jittered = run_channel(CdrChannelConfig.paper_nominal())
        clean_periods = np.diff(clean.trace("clock").edges("rising"))
        jittered_periods = np.diff(jittered.trace("clock").edges("rising"))
        assert jittered_periods.std() > clean_periods.std()


class TestSamplingPhase:
    def test_nominal_tap_samples_mid_bit(self):
        result = run_channel(CdrChannelConfig.paper_nominal())
        phases = result.sampling_phase_ui()
        in_bit = phases[(phases > 0) & (phases < 1)]
        assert np.median(in_bit) == pytest.approx(0.5, abs=0.03)

    def test_improved_tap_samples_one_eighth_earlier(self):
        """Section 3.3b: the improved tap shifts sampling by T/8."""
        result = run_channel(CdrChannelConfig.paper_improved())
        phases = result.sampling_phase_ui()
        in_bit = phases[(phases > 0) & (phases < 1)]
        assert np.median(in_bit) == pytest.approx(0.375, abs=0.03)


class TestEyeDiagram:
    def test_clean_eye_is_wide_open(self):
        result = run_channel(CdrChannelConfig.paper_nominal())
        metrics = result.eye_diagram().metrics()
        assert metrics.eye_opening_ui > 0.7

    def test_figure14_eye_is_asymmetric(self):
        """Fig. 14: with a 5 % slow oscillator the right edge spreads, the left stays tight."""
        config = CdrChannelConfig.figure14_condition()
        result = run_channel(config, jitter=SJ_ONLY, n=1500)
        metrics = result.eye_diagram().metrics()
        assert metrics.right_edge_std_ui > metrics.left_edge_std_ui

    def test_figure16_improved_tap_recentres_eye(self):
        """Fig. 16: under the Figure 14 condition (5 % slow CCO) the improved tap
        moves the eye centre back towards the sampling instant."""
        nominal = run_channel(CdrChannelConfig.figure14_condition(), jitter=SJ_ONLY,
                              n=1500)
        improved = run_channel(CdrChannelConfig.figure14_condition(improved_sampling=True),
                               jitter=SJ_ONLY, n=1500)
        assert abs(improved.eye_diagram().metrics().eye_centre_ui) < \
            abs(nominal.eye_diagram().metrics().eye_centre_ui)


class TestEdgeDetectorDelayWindow:
    def test_short_delay_fails_with_frequency_offset(self):
        """Fig. 13: tau well below T/2 loses synchronisation under offset + jitter."""
        good = CdrChannelConfig.paper_nominal().with_frequency_offset(0.02)
        bad = good.with_edge_detector_delay(0.2)
        jitter = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.02)
        good_result = run_channel(good, jitter=jitter, n=1200)
        bad_result = run_channel(bad, jitter=jitter, n=1200)
        assert bad_result.ber().errors > good_result.ber().errors

    def test_large_frequency_offset_loses_last_bit_of_long_runs(self):
        """With a slow oscillator and a long edge-detector delay, the gating of
        the next transition swallows the sampling edge of the last bit of long
        runs — the freeze blanks the final (tau - T/2) of every run."""
        config = CdrChannelConfig.figure14_condition().with_edge_detector_delay(0.85)
        result = run_channel(config, n=1500)
        assert result.missed_bits() > 0
        assert result.ber().errors == result.missed_bits()

    def test_short_edge_detector_delay_avoids_the_blanking(self):
        """The same 5 % offset with tau near T/2 keeps every bit sampled."""
        config = CdrChannelConfig.figure14_condition().with_edge_detector_delay(0.55)
        result = run_channel(config, n=1500)
        assert result.missed_bits() == 0


class TestDiagnostics:
    def test_traces_are_recorded(self):
        result = run_channel(CdrChannelConfig.paper_nominal(), n=100)
        for name in ("din", "ddin", "edet", "clock", "dout"):
            assert result.trace(name).edges("any").size > 0

    def test_sequence_ber_agrees_when_no_slips(self):
        result = run_channel(CdrChannelConfig.paper_nominal(), n=400)
        assert result.sequence_ber().errors == 0

    def test_reproducible_with_seed(self):
        config = CdrChannelConfig.paper_nominal()
        a = run_channel(config, jitter=PAPER_JITTER_SPEC, seed=5, n=300)
        b = run_channel(config, jitter=PAPER_JITTER_SPEC, seed=5, n=300)
        np.testing.assert_array_equal(a.sampled_bits, b.sampled_bits)

    def test_rejects_empty_bits(self):
        with pytest.raises(ValueError):
            BehavioralCdrChannel().run(np.array([], dtype=np.uint8))
