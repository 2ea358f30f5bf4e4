"""Tests for jittered NRZ edge-stream generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.datapath import nrz
from repro.jitter.pdf import gaussian_pdf, sinusoidal_pdf, uniform_pdf


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


#: Per-case false-alarm rate of the binned chi-square test below.
CHI_SQUARE_ALPHA = 1.0e-6
#: Draws per case and bins per test: every bin expects hundreds of draws.
N_DRAWS = 20_000
N_BINS = 16


def _chi_square_p_value(draws, pdf, inner_edges):
    """Upper-tail p-value of the binned chi-square statistic of *draws*
    against *pdf*: two open outer bins around the bins between
    *inner_edges*, each bin's mass read from ``probability_below``."""
    from scipy.stats import chi2

    below = np.array([pdf.probability_below(edge) for edge in inner_edges])
    masses = np.diff(np.concatenate(([0.0], below, [1.0])))
    counts = np.bincount(np.searchsorted(inner_edges, draws), minlength=masses.size)
    expected = masses * draws.size
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    return float(chi2.sf(statistic, masses.size - 1))


class TestDrawsFollowTheModelPdfs:
    """The stimulus's one jitter draw, ``jitter_displacements_ui``, samples
    the very densities the analytic model convolves: DJ ``uniform_pdf``, RJ
    ``gaussian_pdf`` and SJ ``sinusoidal_pdf``.

    Each case bins ``N_DRAWS`` displacements into ``N_BINS`` bins and
    rejects at a false-alarm rate of ``CHI_SQUARE_ALPHA`` = 1e-6 per case
    (chi-square upper tail, ``N_BINS - 1`` degrees of freedom).  The model
    grid step is 1/2000 of the width, so its discretisation moves a bin's
    mass by ~1e-3 of itself, far below the test's resolution.  SJ samples a
    sinusoid, not a generator: its edges sit one unit interval apart and the
    SJ period is an irrational number of unit intervals, so the phases are
    equidistributed.
    """

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
    def test_dj_draws_are_uniform(self, dj_ui_pp, seed):
        draws = nrz.jitter_displacements_ui(
            np.arange(N_DRAWS) * units.DEFAULT_UNIT_INTERVAL,
            nrz.JitterSpec(dj_ui_pp=dj_ui_pp, rj_ui_rms=0.0), np.random.default_rng(seed))
        half = 0.5 * dj_ui_pp
        edges = np.linspace(-0.95 * half, 0.95 * half, N_BINS - 1)
        pdf = uniform_pdf(dj_ui_pp, dj_ui_pp / 2000.0)
        assert _chi_square_p_value(draws, pdf, edges) >= CHI_SQUARE_ALPHA

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.floats(0.002, 0.1), st.integers(0, 2**32 - 1))
    def test_rj_draws_are_gaussian(self, rj_ui_rms, seed):
        draws = nrz.jitter_displacements_ui(
            np.arange(N_DRAWS) * units.DEFAULT_UNIT_INTERVAL,
            nrz.JitterSpec(dj_ui_pp=0.0, rj_ui_rms=rj_ui_rms), np.random.default_rng(seed))
        edges = np.linspace(-2.5 * rj_ui_rms, 2.5 * rj_ui_rms, N_BINS - 1)
        pdf = gaussian_pdf(rj_ui_rms, rj_ui_rms / 200.0)
        assert _chi_square_p_value(draws, pdf, edges) >= CHI_SQUARE_ALPHA

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.floats(0.01, 1.0), st.integers(1, 50), st.floats(-np.pi, np.pi))
    def test_sj_draws_are_arcsine(self, amplitude_ui_pp, divisor, phase_rad):
        golden = 0.5 * (np.sqrt(5.0) - 1.0)
        spec = nrz.JitterSpec(
            dj_ui_pp=0.0, rj_ui_rms=0.0, sj_amplitude_ui_pp=amplitude_ui_pp,
            sj_frequency_hz=golden * units.DEFAULT_BIT_RATE / divisor, sj_phase_rad=phase_rad)
        draws = nrz.jitter_displacements_ui(
            np.arange(N_DRAWS) * units.DEFAULT_UNIT_INTERVAL, spec, np.random.default_rng(0))
        # The arcsine's integrable peaks sit in the two open outer bins.
        half = 0.5 * amplitude_ui_pp
        edges = np.linspace(-0.9 * half, 0.9 * half, N_BINS - 1)
        pdf = sinusoidal_pdf(amplitude_ui_pp, amplitude_ui_pp / 2000.0)
        assert _chi_square_p_value(draws, pdf, edges) >= CHI_SQUARE_ALPHA


def _sj_only(amplitude_ui_pp, frequency_hz, phase_rad=0.0):
    return nrz.JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0, sj_amplitude_ui_pp=amplitude_ui_pp,
                          sj_frequency_hz=frequency_hz, sj_phase_rad=phase_rad)


class TestJitterDisplacements:
    """Per-component bounds, moments and the draw-order contract of
    ``jitter_displacements_ui``, the one jitter draw of the stimulus."""

    def test_zero_spec_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        draws = nrz.jitter_displacements_ui(
            np.linspace(0.0, 1.0e-6, 100), nrz.JitterSpec(0.0, 0.0), rng)
        assert draws.shape == (100,) and np.all(draws == 0.0)
        assert rng.bit_generator.state == state

    def test_no_edges_draw_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        draws = nrz.jitter_displacements_ui(
            np.empty(0), nrz.JitterSpec().with_sinusoidal(0.1, 1.0e6), rng)
        assert draws.size == 0
        assert rng.bit_generator.state == state

    def test_dj_support_is_bounded(self):
        draws = nrz.jitter_displacements_ui(
            np.zeros(100_000), nrz.JitterSpec(dj_ui_pp=0.4, rj_ui_rms=0.0),
            np.random.default_rng(2))
        assert np.abs(draws).max() <= 0.2
        assert draws.std() == pytest.approx(uniform_pdf(0.4, 1e-4).std(), rel=0.02)

    def test_rj_statistics_match_sigma(self):
        draws = nrz.jitter_displacements_ui(
            np.zeros(200_000), nrz.JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.02),
            np.random.default_rng(1))
        assert draws.std() == pytest.approx(0.02, rel=0.02)
        assert abs(draws.mean()) < 1.0e-3

    def test_sj_follows_the_sine(self):
        frequency_hz = 10.0e6
        quarter_period = 1.0 / (4.0 * frequency_hz)
        draws = nrz.jitter_displacements_ui(
            np.array([0.0, quarter_period, 3.0 * quarter_period]),
            _sj_only(0.2, frequency_hz), np.random.default_rng(0))
        np.testing.assert_allclose(draws, [0.0, 0.1, -0.1], atol=1e-12)

    def test_sj_phase_offsets_the_sine(self):
        draws = nrz.jitter_displacements_ui(
            np.array([0.0]), _sj_only(0.2, 10.0e6, phase_rad=0.5 * np.pi),
            np.random.default_rng(0))
        assert draws[0] == pytest.approx(0.1, abs=1e-12)

    def test_sj_is_bounded_by_half_its_amplitude(self):
        draws = nrz.jitter_displacements_ui(
            np.linspace(0.0, 1.0e-5, 10_000), _sj_only(0.3, 1.0e6), np.random.default_rng(0))
        assert np.abs(draws).max() <= 0.15 + 1e-12
        assert np.abs(draws).max() == pytest.approx(0.15, rel=1e-3)

    def test_sj_draws_no_random_numbers(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        nrz.jitter_displacements_ui(np.linspace(0.0, 1.0e-6, 50), _sj_only(0.2, 1.0e6), rng)
        assert rng.bit_generator.state == state

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        dj_ui_pp=st.sampled_from([0.0, 0.4]),
        rj_ui_rms=st.sampled_from([0.0, 0.021]),
        sj_ui_pp=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_order_is_dj_then_rj_then_sj(self, dj_ui_pp, rj_ui_rms, sj_ui_pp, seed):
        """The replay below draws DJ, then RJ, from one generator and adds SJ
        last; the routine matches it byte for byte."""
        spec = nrz.JitterSpec(dj_ui_pp=dj_ui_pp, rj_ui_rms=rj_ui_rms,
                              sj_amplitude_ui_pp=sj_ui_pp, sj_frequency_hz=250.0e6,
                              sj_phase_rad=0.3)
        times = np.arange(64) * units.DEFAULT_UNIT_INTERVAL
        draws = nrz.jitter_displacements_ui(times, spec, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        expected = np.zeros(times.size)
        if dj_ui_pp > 0.0:
            expected += replay.uniform(-0.5 * dj_ui_pp, 0.5 * dj_ui_pp, size=times.size)
        if rj_ui_rms > 0.0:
            expected += replay.normal(0.0, rj_ui_rms, size=times.size)
        if sj_ui_pp > 0.0:
            expected += 0.5 * sj_ui_pp * np.sin(2.0 * np.pi * 250.0e6 * times + 0.3)
        assert draws.tobytes() == expected.tobytes()

    def test_components_add_in_quadrature(self):
        """DJ and RJ are independent, so the draw's rms is the rms of the
        model's convolved PDF."""
        draws = nrz.jitter_displacements_ui(
            np.zeros(200_000), nrz.JitterSpec(dj_ui_pp=0.4, rj_ui_rms=0.021),
            np.random.default_rng(4))
        model = uniform_pdf(0.4, 1e-4).convolve(gaussian_pdf(0.021, 1e-4))
        assert model.std() == pytest.approx(np.sqrt(0.4 ** 2 / 12.0 + 0.021 ** 2), rel=1e-3)
        assert draws.std() == pytest.approx(model.std(), rel=0.02)

    def test_bounded_components_stay_within_the_deterministic_bound(self):
        spec = nrz.JitterSpec(dj_ui_pp=0.3, rj_ui_rms=0.0,
                              sj_amplitude_ui_pp=0.2, sj_frequency_hz=3.1e6)
        draws = nrz.jitter_displacements_ui(
            np.arange(50_000) * units.DEFAULT_UNIT_INTERVAL, spec, np.random.default_rng(5))
        bound = 0.5 * spec.total_deterministic_ui_pp()
        assert np.abs(draws).max() <= bound
        assert np.abs(draws).max() > 0.95 * bound


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
