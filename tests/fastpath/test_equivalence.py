"""Fast-path versus event-kernel equivalence suite.

On configurations without per-gate delay jitter the fast path must be an
*exact* replica of the event kernel: identical floating-point sample times,
identical bit decisions, identical BER counts, identical traces and eye
metrics, on every seeded run of the corpus — across data-jitter mixes
(DJ / RJ / SJ), transmitter ppm offsets, channel frequency offsets, both
sampling taps and the edge-detector blanking corner.  A generated suite
extends the hand-picked corpus to random zero-gate-jitter configurations
and to prebuilt streams that start at either data level.  Configurations
with per-gate delay jitter are the event kernel's alone: the fast path
refuses them (``tests/fastpath/test_backends.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec, generate_edge_times
from repro.datapath.prbs import prbs7
from repro.fastpath import FastCdrChannel
from repro.gates.ring import GccoParameters

NO_GATE_JITTER = GccoParameters(jitter_sigma_fraction=0.0)
BASE = CdrChannelConfig(oscillator=NO_GATE_JITTER)
FIG14_OFFSET = 2.5e9 / 2.375e9 - 1.0

NO_JITTER = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0)
DJ_RJ = JitterSpec(dj_ui_pp=0.3, rj_ui_rms=0.02)
SJ_ONLY = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0,
                     sj_amplitude_ui_pp=0.1, sj_frequency_hz=250.0e6)
HEAVY = JitterSpec(dj_ui_pp=0.4, rj_ui_rms=0.021,
                   sj_amplitude_ui_pp=0.3, sj_frequency_hz=1.25e9)

#: (label, config, jitter, transmitter ppm) corners of the equivalence corpus.
CORPUS = [
    ("clean", BASE, NO_JITTER, 0.0),
    ("dj_rj", BASE, DJ_RJ, 0.0),
    ("sj", BASE, SJ_ONLY, 0.0),
    ("heavy", BASE, HEAVY, 0.0),
    ("ppm_plus", BASE, DJ_RJ, 300.0),
    ("ppm_minus", BASE.with_frequency_offset(-0.02), DJ_RJ, -200.0),
    ("fig14_offset", BASE.with_frequency_offset(FIG14_OFFSET), SJ_ONLY, 0.0),
    ("blanking", BASE.with_frequency_offset(FIG14_OFFSET).with_edge_detector_delay(0.85),
     NO_JITTER, 0.0),
    ("improved_tap", CdrChannelConfig(oscillator=NO_GATE_JITTER, improved_sampling=True),
     DJ_RJ, 0.0),
    ("gating_skew", CdrChannelConfig(
        oscillator=GccoParameters(jitter_sigma_fraction=0.0, gating_input_skew_s=5.0e-12)),
     DJ_RJ, 0.0),
    ("skewed_improved", CdrChannelConfig(
        oscillator=GccoParameters(jitter_sigma_fraction=0.0, gating_input_skew_s=8.0e-12),
        improved_sampling=True),
     JitterSpec(sj_amplitude_ui_pp=0.2), 0.0),
]


def run_both(config, jitter, ppm, seed=1, n=500, initial_level=None):
    """Run both backends; with *initial_level*, on one prebuilt stream."""
    bits = prbs7(n)
    stream = None
    if initial_level is not None:
        stream = generate_edge_times(
            bits, bit_rate_hz=config.bit_rate_hz, jitter=jitter,
            data_rate_offset_ppm=ppm, start_time_s=4 * config.unit_interval_s,
            initial_level=initial_level, rng=np.random.default_rng(seed))
    event = BehavioralCdrChannel(config).run(
        bits, jitter=jitter, data_rate_offset_ppm=ppm,
        rng=np.random.default_rng(seed), stream=stream)
    fast = FastCdrChannel(config).run(
        bits, jitter=jitter, data_rate_offset_ppm=ppm,
        rng=np.random.default_rng(seed), stream=stream)
    return event, fast


class TestExactEquivalence:
    @pytest.mark.parametrize("label,config,jitter,ppm",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_decisions_and_ber_match_exactly(self, label, config, jitter, ppm):
        event, fast = run_both(config, jitter, ppm)
        np.testing.assert_array_equal(event.sample_times_s, fast.sample_times_s)
        np.testing.assert_array_equal(event.sampled_bits, fast.sampled_bits)
        event_ber, fast_ber = event.ber(), fast.ber()
        assert event_ber.errors == fast_ber.errors
        assert event_ber.compared_bits == fast_ber.compared_bits
        assert event.missed_bits() == fast.missed_bits()

    @pytest.mark.parametrize("label,config,jitter,ppm",
                             CORPUS[:4], ids=[c[0] for c in CORPUS[:4]])
    def test_traces_match_exactly(self, label, config, jitter, ppm):
        event, fast = run_both(config, jitter, ppm)
        for name in ("din", "ddin", "edet", "clock", "dout"):
            np.testing.assert_array_equal(
                event.trace(name).edges("any"), fast.trace(name).edges("any"),
                err_msg=f"trace {name!r} diverged")

    def test_eye_metrics_match_exactly(self):
        config = BASE.with_frequency_offset(FIG14_OFFSET)
        event, fast = run_both(config, SJ_ONLY, 0.0, n=1000)
        em = event.eye_diagram().metrics()
        fm = fast.eye_diagram().metrics()
        assert em.n_crossings == fm.n_crossings
        assert em.eye_opening_ui == fm.eye_opening_ui
        assert em.left_edge_std_ui == fm.left_edge_std_ui
        assert em.right_edge_std_ui == fm.right_edge_std_ui

    def test_sampling_phase_matches_exactly(self):
        event, fast = run_both(BASE, DJ_RJ, 0.0)
        np.testing.assert_array_equal(event.sampling_phase_ui(),
                                      fast.sampling_phase_ui())

    def test_sequence_ber_matches(self):
        event, fast = run_both(BASE, DJ_RJ, 0.0)
        assert event.sequence_ber().errors == fast.sequence_ber().errors

    def test_different_seeds_differ(self):
        """Guard against the corpus accidentally comparing constants."""
        _, fast_a = run_both(BASE, DJ_RJ, 0.0, seed=1)
        _, fast_b = run_both(BASE, DJ_RJ, 0.0, seed=2)
        assert not np.array_equal(fast_a.sample_times_s, fast_b.sample_times_s)


@st.composite
def zero_gate_jitter_cases(draw):
    """``(config, jitter, transmitter ppm, seed, initial level)`` without per-gate jitter."""
    oscillator = GccoParameters(
        jitter_sigma_fraction=0.0,
        gating_input_skew_s=draw(st.sampled_from([0.0, 5.0e-12, 20.0e-12])),
    )
    config = CdrChannelConfig(
        oscillator=oscillator,
        # 0.85 UI with a slow oscillator is the edge-detector blanking corner.
        edge_detector_delay_ui=draw(st.one_of(st.just(0.85), st.floats(0.5, 0.95))),
        improved_sampling=draw(st.booleans()),
        frequency_offset=draw(st.one_of(st.just(FIG14_OFFSET), st.floats(-0.05, 0.05))),
    )
    jitter = JitterSpec(
        dj_ui_pp=draw(st.floats(0.0, 0.4)),
        rj_ui_rms=draw(st.floats(0.0, 0.03)),
        sj_amplitude_ui_pp=draw(st.floats(0.0, 0.4)),
        sj_frequency_hz=draw(st.sampled_from([25.0e6, 250.0e6, 1.25e9])),
    )
    ppm = draw(st.floats(-300.0, 300.0))
    return config, jitter, ppm, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0, 1]))


class TestGeneratedExactEquivalence:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(zero_gate_jitter_cases())
    def test_generated_configs_match_exactly(self, case):
        config, jitter, ppm, seed, initial_level = case
        event, fast = run_both(config, jitter, ppm, seed=seed, n=200,
                               initial_level=initial_level)
        np.testing.assert_array_equal(event.sample_times_s, fast.sample_times_s)
        np.testing.assert_array_equal(event.sampled_bits, fast.sampled_bits)
        for name in ("din", "ddin", "edet", "clock", "dout"):
            # Whole traces, initial level included.
            for ours, theirs in zip(fast.trace(name).as_arrays(), event.trace(name).as_arrays()):
                np.testing.assert_array_equal(ours, theirs, err_msg=f"trace {name!r} diverged")


class TestPaperClaimsOnFastPath:
    """The paper's claims hold on the fast path's jitter-free presets."""

    def test_clean_recovery(self):
        _, fast = run_both(CdrChannelConfig.paper_nominal(jitter_sigma_fraction=0.0),
                           NO_JITTER, 0.0, n=600)
        assert fast.ber().errors == 0

    def test_improved_tap_samples_three_eighths_into_the_bit(self):
        _, fast = run_both(CdrChannelConfig.paper_improved(jitter_sigma_fraction=0.0),
                           NO_JITTER, 0.0, n=600)
        assert fast.ber().errors == 0
        phases = fast.sampling_phase_ui()
        assert np.median(phases[(phases > 0) & (phases < 1)]) == pytest.approx(0.375, abs=0.03)

    def test_fig14_eye_asymmetry_reproduced(self):
        _, fast = run_both(CdrChannelConfig.figure14_condition(jitter_sigma_fraction=0.0),
                           SJ_ONLY, 0.0, n=1500)
        metrics = fast.eye_diagram().metrics()
        assert metrics.right_edge_std_ui > metrics.left_edge_std_ui
