"""Tests for the gated-oscillator statistical BER model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.datapath.cid import geometric_run_distribution
from repro.datapath.nrz import JitterSpec, jitter_displacements_ui
from repro.statistical.ber_model import (
    IMPROVED_SAMPLING_PHASE_UI,
    NOMINAL_SAMPLING_PHASE_UI,
    CdrJitterBudget,
    GatedOscillatorBerModel,
)

GRID = 2.0e-3


class TestCdrJitterBudget:
    def test_table1_defaults(self):
        budget = CdrJitterBudget()
        assert budget.dj_ui_pp == pytest.approx(0.4)
        assert budget.rj_ui_rms == pytest.approx(0.021)
        assert budget.osc_sigma_ui_per_bit == pytest.approx(0.01 / np.sqrt(5.0))

    def test_with_sinusoidal_returns_copy(self):
        budget = CdrJitterBudget()
        stressed = budget.with_sinusoidal(0.2, 1.0e6)
        assert stressed.sj_amplitude_ui_pp == pytest.approx(0.2)
        assert budget.sj_amplitude_ui_pp == 0.0

    def test_with_frequency_offset(self):
        assert CdrJitterBudget().with_frequency_offset(0.01).frequency_offset == 0.01

    def test_frequency_offset_bounds(self):
        with pytest.raises(ValueError):
            CdrJitterBudget(frequency_offset=0.6)

    def test_relative_sj_low_frequency_is_tracked(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=1.0, sj_frequency_hz=1.0e3)
        assert budget.relative_sj_pp_over_gap(5.0) < 1e-4

    def test_relative_sj_worst_case_is_twice_amplitude(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.3,
                                 sj_frequency_hz=units.DEFAULT_BIT_RATE / 2.0)
        assert budget.relative_sj_pp_over_gap(1.0) == pytest.approx(0.6)

    def test_relative_sj_nulls_at_the_bit_rate(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=1.0, sj_frequency_hz=units.DEFAULT_BIT_RATE)
        assert budget.relative_sj_pp_over_gap(1.0) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        amplitude_ui_pp=st.floats(0.01, 1.0),
        frequency_over_rate=st.floats(1.0e-3, 1.0),
        gap_ui=st.integers(1, 12),
        phase_rad=st.floats(-np.pi, np.pi),
    )
    def test_relative_sj_is_the_stimulus_differential_swing(
            self, amplitude_ui_pp, frequency_over_rate, gap_ui, phase_rad):
        """The model's differential SJ is the peak-to-peak of the stimulus's
        SJ displacement difference between edges *gap_ui* apart, taken over
        one SJ period of start times (2001 of them, so the sampled extremes
        fall short of the true ones by under 2e-6 relative)."""
        frequency_hz = frequency_over_rate * units.DEFAULT_BIT_RATE
        budget = CdrJitterBudget(sj_amplitude_ui_pp=amplitude_ui_pp,
                                 sj_frequency_hz=frequency_hz)
        spec = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0, sj_amplitude_ui_pp=amplitude_ui_pp,
                          sj_frequency_hz=frequency_hz, sj_phase_rad=phase_rad)
        starts = np.linspace(0.0, 1.0 / frequency_hz, 2001)
        rng = np.random.default_rng(0)
        difference = (jitter_displacements_ui(starts + gap_ui * units.DEFAULT_UNIT_INTERVAL,
                                              spec, rng)
                      - jitter_displacements_ui(starts, spec, rng))
        swing = float(difference.max() - difference.min())
        assert swing == pytest.approx(budget.relative_sj_pp_over_gap(gap_ui),
                                      rel=1e-5, abs=1e-9)

    def test_paper_table1_factory(self):
        budget = CdrJitterBudget.paper_table1(0.1, 250.0e6, 0.01)
        assert budget.sj_amplitude_ui_pp == pytest.approx(0.1)
        assert budget.frequency_offset == pytest.approx(0.01)


class TestNominalBer:
    def test_table1_ber_is_far_below_target(self):
        """Fig. 9 claim: with Table 1 jitter alone the CDR is far below 1e-12."""
        model = GatedOscillatorBerModel(CdrJitterBudget(), grid_step_ui=GRID)
        assert model.ber() < 1.0e-15

    def test_no_jitter_gives_zero_errors(self):
        budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.0, osc_sigma_ui_per_bit=0.0)
        assert GatedOscillatorBerModel(budget, grid_step_ui=GRID).ber() == 0.0

    def test_breakdown_sums_to_total(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.4, sj_frequency_hz=1.0e9,
                                 frequency_offset=0.01)
        breakdown = GatedOscillatorBerModel(budget, grid_step_ui=GRID).ber_breakdown()
        assert sum(breakdown.per_run_length.values()) == pytest.approx(breakdown.ber, rel=1e-9)
        assert breakdown.ber <= breakdown.ber_left + breakdown.ber_right + 1e-15

    def test_long_runs_dominate_errors_under_offset(self):
        # Pure frequency offset: the accumulated error is largest at the end of
        # the longest run, so runs of length 5 dominate the error budget.
        budget = CdrJitterBudget(frequency_offset=0.09)
        breakdown = GatedOscillatorBerModel(budget, grid_step_ui=GRID).ber_breakdown()
        assert breakdown.dominant_run_length() == 5

    def test_ber_bounded_by_one(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=5.0, sj_frequency_hz=1.0e9,
                                 frequency_offset=0.2)
        assert GatedOscillatorBerModel(budget, grid_step_ui=GRID).ber() <= 1.0


class TestSinusoidalJitterBehaviour:
    def test_high_frequency_sj_is_worse_than_low_frequency(self):
        """The gated oscillator tracks slow jitter but not jitter near the bit rate."""
        low = CdrJitterBudget(sj_amplitude_ui_pp=0.5, sj_frequency_hz=1.0e5)
        high = CdrJitterBudget(sj_amplitude_ui_pp=0.5, sj_frequency_hz=1.0e9)
        ber_low = GatedOscillatorBerModel(low, grid_step_ui=GRID).ber()
        ber_high = GatedOscillatorBerModel(high, grid_step_ui=GRID).ber()
        assert ber_high > ber_low
        assert ber_low < 1.0e-12

    def test_ber_increases_with_sj_amplitude(self):
        bers = []
        for amplitude in (0.1, 0.3, 0.6):
            budget = CdrJitterBudget(sj_amplitude_ui_pp=amplitude, sj_frequency_hz=1.0e9)
            bers.append(GatedOscillatorBerModel(budget, grid_step_ui=GRID).ber())
        assert bers[0] <= bers[1] <= bers[2]
        assert bers[2] > bers[0]


class TestFrequencyOffsetBehaviour:
    def test_offset_degrades_ber(self):
        """Fig. 10: a 1 % frequency offset visibly degrades the BER."""
        stress = dict(sj_amplitude_ui_pp=0.35, sj_frequency_hz=1.0e9)
        without = GatedOscillatorBerModel(CdrJitterBudget(**stress), grid_step_ui=GRID).ber()
        with_offset = GatedOscillatorBerModel(
            CdrJitterBudget(**stress, frequency_offset=0.01), grid_step_ui=GRID).ber()
        assert with_offset > without

    def test_offset_sign_symmetry_is_broken_by_sampling_phase(self):
        # A slow oscillator (positive offset) drifts towards the late eye edge,
        # which is the vulnerable one; a fast oscillator is less harmful.
        stress = dict(sj_amplitude_ui_pp=0.35, sj_frequency_hz=1.0e9)
        slow = GatedOscillatorBerModel(
            CdrJitterBudget(**stress, frequency_offset=0.02), grid_step_ui=GRID).ber()
        fast = GatedOscillatorBerModel(
            CdrJitterBudget(**stress, frequency_offset=-0.02), grid_step_ui=GRID).ber()
        assert slow > fast


class TestImprovedSamplingPoint:
    def test_improved_tap_helps_under_frequency_offset(self):
        """Fig. 17: the T/8-earlier tap improves BER when the oscillator is slow."""
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.3, sj_frequency_hz=1.0e9,
                                 frequency_offset=0.01)
        nominal = GatedOscillatorBerModel(
            budget, sampling_phase_ui=NOMINAL_SAMPLING_PHASE_UI, grid_step_ui=GRID).ber()
        improved = GatedOscillatorBerModel(
            budget, sampling_phase_ui=IMPROVED_SAMPLING_PHASE_UI, grid_step_ui=GRID).ber()
        assert improved < nominal

    def test_sampling_phase_must_be_inside_bit(self):
        with pytest.raises(ValueError):
            GatedOscillatorBerModel(CdrJitterBudget(), sampling_phase_ui=0.0)
        with pytest.raises(ValueError):
            GatedOscillatorBerModel(CdrJitterBudget(), sampling_phase_ui=1.0)


class TestRunLengthSensitivity:
    def test_longer_cid_is_worse(self):
        """8b/10b (CID 5) versus PRBS7-like (CID 7) under frequency offset."""
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.3, sj_frequency_hz=1.0e9,
                                 frequency_offset=0.02)
        cid5 = GatedOscillatorBerModel(
            budget, run_lengths=geometric_run_distribution(5), grid_step_ui=GRID).ber()
        cid7 = GatedOscillatorBerModel(
            budget, run_lengths=geometric_run_distribution(7), grid_step_ui=GRID).ber()
        assert cid7 > cid5


class TestPhaseScan:
    def test_optimum_phase_is_earlier_than_centre_under_offset(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.3, sj_frequency_hz=1.0e9,
                                 frequency_offset=0.02)
        model = GatedOscillatorBerModel(budget, grid_step_ui=4.0e-3)
        best_phase, best_ber = model.optimum_sampling_phase(resolution_ui=0.05)
        assert best_phase < 0.5
        assert best_ber <= model.ber()

    def test_sweep_shape_reflects_asymmetric_eye(self):
        # The trigger (left) edge is clean by construction, so the BER wall is
        # on the late (right) side only — the asymmetry the paper's Figure 14
        # eye diagram shows.
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.2, sj_frequency_hz=1.0e9)
        model = GatedOscillatorBerModel(budget, grid_step_ui=4.0e-3)
        phases = np.array([0.1, 0.4, 0.9])
        bers = model.sweep_sampling_phase(phases)
        assert bers[2] > bers[1]
        assert bers[0] <= bers[1] + 1e-15

    def test_static_phase_error_shifts_operating_point(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.35, sj_frequency_hz=1.0e9,
                                 frequency_offset=0.01)
        clean = GatedOscillatorBerModel(budget, grid_step_ui=GRID).ber()
        skewed = GatedOscillatorBerModel(budget, grid_step_ui=GRID,
                                         static_phase_error_ui=0.15).ber()
        assert skewed > clean

    def test_vectorised_scan_matches_per_phase_models(self):
        """Hoisted phase scan must reproduce a model rebuilt at every phase."""
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.25, sj_frequency_hz=1.0e9,
                                 frequency_offset=0.015)
        model = GatedOscillatorBerModel(budget, grid_step_ui=GRID)
        phases = np.array([0.1, 0.3, 0.45, 0.6, 0.85])
        swept = model.sweep_sampling_phase(phases)
        rebuilt = np.array([
            GatedOscillatorBerModel(budget, sampling_phase_ui=float(phase),
                                    grid_step_ui=GRID).ber()
            for phase in phases
        ])
        assert swept == pytest.approx(rebuilt, rel=1e-9, abs=1e-300)

    def test_scan_allows_closed_interval_endpoints(self):
        # The constructor requires an interior operating phase, but scans and
        # margin bisection may probe the 0 / 1 UI boundaries themselves.
        model = GatedOscillatorBerModel(CdrJitterBudget(), grid_step_ui=GRID)
        bers = model.sweep_sampling_phase(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(bers))


class TestEyeMargin:
    def test_failing_operating_point_has_zero_margin(self):
        budget = CdrJitterBudget(sj_amplitude_ui_pp=0.35, sj_frequency_hz=1.0e9,
                                 frequency_offset=0.005)
        model = GatedOscillatorBerModel(budget, grid_step_ui=GRID)
        assert model.ber() > 1.0e-12
        assert model.eye_margin_ui(1.0e-12) == 0.0

    def test_margin_changes_smoothly_with_target_ber(self):
        """Regression: bisection must not quantise margins to a fixed step."""
        budget = CdrJitterBudget(dj_ui_pp=0.1, rj_ui_rms=0.035)
        model = GatedOscillatorBerModel(budget, grid_step_ui=GRID)
        targets = np.logspace(-14, -6, 9)
        margins = np.array([model.eye_margin_ui(float(t)) for t in targets])
        steps = np.diff(margins)
        # Strictly increasing with the target, in small smooth increments —
        # the old 0.005-UI walk produced identical or 0.005-quantised values.
        assert np.all(steps > 1.0e-3)
        assert np.all(steps < 0.05)
        assert steps.max() < 2.0 * steps.min()
        assert np.unique(np.round(margins, 6)).size == margins.size

    def test_margin_resolves_finer_than_legacy_step(self):
        budget = CdrJitterBudget(dj_ui_pp=0.1, rj_ui_rms=0.035)
        model = GatedOscillatorBerModel(budget, grid_step_ui=GRID)
        margin = model.eye_margin_ui(1.0e-12, tolerance_ui=1.0e-5)
        lattice = margin / 0.005
        assert abs(lattice - round(lattice)) > 1.0e-2

    def test_margin_credits_the_trigger_boundary(self):
        # Without oscillator jitter the trigger-side (left) eye wall sits at
        # exactly phase 0; the bisection credits it instead of stalling one
        # 0.005-UI step short.
        budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.005,
                                 osc_sigma_ui_per_bit=0.0)
        model = GatedOscillatorBerModel(budget, grid_step_ui=GRID)
        assert model.ber_at_phase(0.0) <= 1.0e-12
        assert model.eye_margin_ui(1.0e-12) > 0.94

    def test_jitter_free_margin_is_the_full_ui(self):
        budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.0,
                                 osc_sigma_ui_per_bit=0.0)
        model = GatedOscillatorBerModel(budget, grid_step_ui=GRID)
        assert model.eye_margin_ui(1.0e-12) == 1.0

    def test_margin_agrees_with_dense_bathtub(self):
        budget = CdrJitterBudget(dj_ui_pp=0.1, rj_ui_rms=0.035)
        model = GatedOscillatorBerModel(budget, grid_step_ui=GRID)
        margin = model.eye_margin_ui(1.0e-12, tolerance_ui=1.0e-5)
        phases = np.linspace(0.0, 1.0, 2001)
        passing = phases[model.sweep_sampling_phase(phases) <= 1.0e-12]
        assert margin == pytest.approx(passing.max() - passing.min(), abs=2e-3)
