"""Tests for the Monte-Carlo cross-check of the analytic BER model."""

import numpy as np
import pytest
from scipy import special

from repro.analysis.ber_counter import BerMeasurement, ber_interval
from repro.statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel
from repro.statistical.montecarlo import simulate_ber

#: One-sided confidence of a z-sigma normal bound: an exact interval at this
#: confidence per side has the coverage of the z-sigma interval.
THREE_SIGMA = float(special.ndtr(3.0))
FOUR_SIGMA = float(special.ndtr(4.0))

STRESSED = CdrJitterBudget(sj_amplitude_ui_pp=0.8, sj_frequency_hz=1.25e9,
                           frequency_offset=0.02)


class TestMeasurement:
    def test_every_trial_is_a_compared_bit(self):
        result = simulate_ber(STRESSED, n_bits=5000, rng=np.random.default_rng(0))
        assert isinstance(result, BerMeasurement)
        assert result.compared_bits == 5000
        assert 0 < result.errors < 5000
        assert result.ber == result.errors / 5000

    def test_consistency_check(self):
        low, high = ber_interval(100, 10000, THREE_SIGMA)
        assert low <= 0.01 <= high
        assert not low <= 0.10 <= high


class TestSimulation:
    def test_no_jitter_gives_no_errors(self):
        budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.0, osc_sigma_ui_per_bit=0.0)
        result = simulate_ber(budget, n_bits=10000, rng=np.random.default_rng(0))
        assert result.errors == 0

    def test_agrees_with_analytic_model_at_high_stress(self):
        """The Monte-Carlo experiment and the PDF convolution model must agree."""
        analytic = GatedOscillatorBerModel(STRESSED, grid_step_ui=2e-3).ber()
        monte_carlo = simulate_ber(STRESSED, n_bits=200_000, rng=np.random.default_rng(1))
        low, high = ber_interval(monte_carlo.errors, monte_carlo.compared_bits, FOUR_SIGMA)
        assert low <= analytic <= high
        assert monte_carlo.ber == pytest.approx(analytic, rel=0.15)

    def test_agreement_under_pure_offset_stress(self):
        budget = CdrJitterBudget(frequency_offset=0.08)
        analytic = GatedOscillatorBerModel(budget, grid_step_ui=2e-3).ber()
        monte_carlo = simulate_ber(budget, n_bits=200_000, rng=np.random.default_rng(2))
        assert monte_carlo.ber == pytest.approx(analytic, rel=0.2)

    def test_improved_sampling_phase_reduces_errors(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.6, sj_frequency_hz=1.25e9,
                                 frequency_offset=0.02)
        nominal = simulate_ber(budget, n_bits=150_000, sampling_phase_ui=0.5,
                               rng=np.random.default_rng(3))
        improved = simulate_ber(budget, n_bits=150_000, sampling_phase_ui=0.375,
                                rng=np.random.default_rng(3))
        assert improved.errors < nominal.errors

    def test_reproducible_with_seed(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.7, sj_frequency_hz=1.25e9)
        a = simulate_ber(budget, n_bits=50_000, rng=np.random.default_rng(7))
        b = simulate_ber(budget, n_bits=50_000, rng=np.random.default_rng(7))
        assert a.errors == b.errors
