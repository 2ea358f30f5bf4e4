"""Tests for jittered NRZ edge-stream generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.datapath import nrz


class TestJitterSpec:
    def test_defaults_match_table1(self):
        spec = nrz.JitterSpec()
        assert spec.dj_ui_pp == pytest.approx(0.4)
        assert spec.rj_ui_rms == pytest.approx(0.021)
        assert spec.sj_amplitude_ui_pp == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            nrz.JitterSpec(dj_ui_pp=-0.1)

    def test_with_sinusoidal(self):
        spec = nrz.JitterSpec().with_sinusoidal(0.2, 5.0e6)
        assert spec.sj_amplitude_ui_pp == pytest.approx(0.2)
        assert spec.sj_frequency_hz == pytest.approx(5.0e6)
        assert spec.dj_ui_pp == pytest.approx(0.4)

    def test_total_deterministic(self):
        spec = nrz.JitterSpec(dj_ui_pp=0.3, sj_amplitude_ui_pp=0.2)
        assert spec.total_deterministic_ui_pp() == pytest.approx(0.5)


class TestIdealEdges:
    def test_edges_at_bit_boundaries(self):
        times, indices = nrz.ideal_edge_times([1, 1, 0, 1], 1.0e-9)
        np.testing.assert_allclose(times, [0.0, 2.0e-9, 3.0e-9])
        np.testing.assert_array_equal(indices, [0, 2, 3])

    def test_no_edges_for_constant_stream(self):
        times, _ = nrz.ideal_edge_times([0, 0, 0], 1.0e-9)
        assert times.size == 0

    def test_initial_level_controls_first_edge(self):
        times, _ = nrz.ideal_edge_times([1, 1], 1.0e-9, initial_level=1)
        assert times.size == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        bits=st.lists(st.integers(0, 1), max_size=64),
        initial_level=st.integers(0, 1),
        bit_period_s=st.floats(1.0e-12, 1.0e-8),
        start_time_s=st.floats(0.0, 1.0e-8),
    )
    def test_edges_match_the_diff_form(self, bits, initial_level, bit_period_s, start_time_s):
        """The level compare finds the same edges as the int8 ``np.diff``
        form it replaced (the oracle below), empty streams included."""
        times, indices = nrz.ideal_edge_times(
            bits, bit_period_s, start_time_s=start_time_s, initial_level=initial_level)
        levels = np.concatenate(([np.uint8(initial_level)], np.asarray(bits, dtype=np.uint8)))
        transitions = np.flatnonzero(np.diff(levels.astype(np.int8)) != 0)
        expected_times = (start_time_s + transitions * bit_period_s).astype(float)
        assert times.dtype == expected_times.dtype and indices.dtype == np.int64
        assert times.tobytes() == expected_times.tobytes()
        assert indices.tobytes() == transitions.astype(np.int64).tobytes()


class TestGenerateEdgeTimes:
    def test_no_jitter_matches_ideal(self):
        bits = [0, 1, 0, 1, 1, 0]
        stream = nrz.generate_edge_times(
            bits, jitter=nrz.JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0),
            rng=np.random.default_rng(0))
        ideal, _ = nrz.ideal_edge_times(bits, units.DEFAULT_UNIT_INTERVAL)
        np.testing.assert_allclose(stream.edge_times_s, ideal)

    def test_edges_remain_ordered_under_jitter(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=2000)
        stream = nrz.generate_edge_times(bits, jitter=nrz.JitterSpec(), rng=rng)
        assert np.all(np.diff(stream.edge_times_s) >= 0.0)

    def test_data_rate_offset_changes_bit_period(self):
        stream = nrz.generate_edge_times([0, 1] * 10, data_rate_offset_ppm=1000.0,
                                         jitter=nrz.JitterSpec(0.0, 0.0),
                                         rng=np.random.default_rng(0))
        assert stream.bit_period_s == pytest.approx(
            units.DEFAULT_UNIT_INTERVAL / 1.001, rel=1e-9)

    def test_jitter_displacement_statistics(self):
        rng = np.random.default_rng(2)
        bits = (np.arange(40000) % 2).astype(np.uint8)  # all boundaries toggle
        spec = nrz.JitterSpec(dj_ui_pp=0.4, rj_ui_rms=0.0)
        stream = nrz.generate_edge_times(bits, jitter=spec, rng=rng)
        ideal, _ = nrz.ideal_edge_times(bits, stream.bit_period_s)
        displacement_ui = (stream.edge_times_s - ideal) / units.DEFAULT_UNIT_INTERVAL
        # Uniform DJ of 0.4 UIpp has sigma 0.4/sqrt(12) ~ 0.115 and bounded support.
        assert abs(displacement_ui).max() <= 0.21
        assert displacement_ui.std() == pytest.approx(0.4 / np.sqrt(12.0), rel=0.05)

    def test_sinusoidal_jitter_bounded(self):
        rng = np.random.default_rng(3)
        bits = (np.arange(5000) % 2).astype(np.uint8)
        spec = nrz.JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0,
                              sj_amplitude_ui_pp=0.2, sj_frequency_hz=10.0e6)
        stream = nrz.generate_edge_times(bits, jitter=spec, rng=rng)
        ideal, _ = nrz.ideal_edge_times(bits, stream.bit_period_s)
        displacement_ui = (stream.edge_times_s - ideal) / units.DEFAULT_UNIT_INTERVAL
        assert abs(displacement_ui).max() <= 0.101

    def test_start_time_offset(self):
        stream = nrz.generate_edge_times([1, 0], start_time_s=1.0e-6,
                                         jitter=nrz.JitterSpec(0.0, 0.0),
                                         rng=np.random.default_rng(0))
        assert stream.edge_times_s[0] == pytest.approx(1.0e-6)


class TestStreamSampling:
    def test_level_at_reproduces_bits(self):
        bits = [1, 0, 0, 1, 1, 1, 0]
        stream = nrz.generate_edge_times(bits, jitter=nrz.JitterSpec(0.0, 0.0),
                                         rng=np.random.default_rng(0))
        ui = stream.bit_period_s
        sampled = [stream.level_at((i + 0.5) * ui) for i in range(len(bits))]
        assert sampled == bits

    def test_vectorised_sample_matches_scalar(self):
        bits = [1, 0, 1, 1, 0]
        stream = nrz.generate_edge_times(bits, jitter=nrz.JitterSpec(0.0, 0.0),
                                         rng=np.random.default_rng(0))
        times = (np.arange(len(bits)) + 0.5) * stream.bit_period_s
        np.testing.assert_array_equal(stream.sample(times),
                                      [stream.level_at(t) for t in times])

    def test_level_before_first_edge_is_initial(self):
        stream = nrz.generate_edge_times([1, 0], start_time_s=1.0e-9,
                                         jitter=nrz.JitterSpec(0.0, 0.0),
                                         initial_level=0,
                                         rng=np.random.default_rng(0))
        assert stream.level_at(0.0) == 0

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_mid_bit_sampling_recovers_data_without_jitter(self, n_bits):
        rng = np.random.default_rng(n_bits)
        bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        stream = nrz.generate_edge_times(bits, jitter=nrz.JitterSpec(0.0, 0.0), rng=rng)
        times = (np.arange(n_bits) + 0.5) * stream.bit_period_s
        np.testing.assert_array_equal(stream.sample(times), bits)

    def test_waveform_rendering(self):
        bits = [0, 1, 1, 0]
        stream = nrz.generate_edge_times(bits, jitter=nrz.JitterSpec(0.0, 0.0),
                                         rng=np.random.default_rng(0))
        times, levels = nrz.waveform_from_edges(stream, stream.bit_period_s / 8.0)
        assert levels.min() == 0 and levels.max() == 1
        assert times.size == levels.size
