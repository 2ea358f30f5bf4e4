"""Statistical eye solver: surface shape, metrics, and bit-true cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CdrChannelConfig
from repro.datapath.cid import measured_run_distribution
from repro.datapath.prbs import prbs_sequence
from repro.gates.ring import GccoParameters
from repro.link import (
    IdealChannel,
    LinkCdrChannel,
    LinkConfig,
    LinkTimebase,
    LinkPath,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    StatisticalEyeSolver,
    TxFfe,
    statistical_eye,
)
from repro.link.stateye import _cursor_pmfs, _cursor_shifts, _grid_half_bins
from repro.link.training import StatEyeObjective
from repro.statistical.ber_model import CdrJitterBudget


def _equalized_link(loss_db: float = 10.0, **overrides) -> LinkConfig:
    values = dict(
        channel=LossyLineChannel.for_loss_at_nyquist(loss_db),
        tx_ffe=TxFfe.de_emphasis(post_db=3.5),
        rx_ctle=RxCtle(peaking_db=6.0),
    )
    values.update(overrides)
    return LinkConfig(**values)


class TestSurfaceShape:
    def test_grid_dimensions(self):
        eye = statistical_eye(_equalized_link())
        spu = LinkConfig().timebase.samples_per_ui
        assert eye.phases_ui.shape == (spu,)
        assert eye.ber.shape == (spu, eye.thresholds.size)
        assert np.all((eye.ber >= 0.0) & (eye.ber <= 1.0))

    def test_ideal_channel_has_full_rails(self):
        # No ISI: the noise PDF is a delta, the rails sit at ±1, and every
        # threshold strictly inside them is error-free in amplitude.
        eye = statistical_eye(LinkConfig(channel=IdealChannel()))
        assert eye.main_cursor == pytest.approx(np.ones_like(eye.main_cursor))
        assert eye.vertical_opening(1.0e-12) > 1.8
        centre = np.argmin(np.abs(eye.thresholds))
        assert np.all(eye.amplitude_ber[:, centre] == 0.0)

    def test_isi_shrinks_vertical_opening(self):
        mild = statistical_eye(_equalized_link(6.0))
        harsh = statistical_eye(_equalized_link(16.0))
        assert harsh.vertical_opening(1.0e-12) < mild.vertical_opening(1.0e-12)

    def test_noise_pdf_is_normalised(self):
        eye = statistical_eye(_equalized_link())
        pdf = eye.noise_pdf(0.5)
        assert pdf.total_probability == pytest.approx(1.0, abs=1e-9)
        assert pdf.std() > 0.0

    def test_timing_walls_come_from_the_analytic_model(self):
        # With a frequency offset the timing term dominates near the late
        # eye edge — exactly the asymmetry the gated-oscillator model shows.
        budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.0,
                                 osc_sigma_ui_per_bit=0.0,
                                 frequency_offset=0.1)
        eye = statistical_eye(_equalized_link(), budget=budget)
        assert eye.timing_ber[-1] > eye.timing_ber[len(eye.timing_ber) // 2]

    def test_best_operating_point_is_inside_the_eye(self):
        eye = statistical_eye(_equalized_link())
        phase, ber = eye.best_operating_point()
        assert 0.0 < phase < 1.0
        assert ber <= eye.ber_at(0.9, 0.0)

    def test_best_operating_point_centres_an_open_plateau(self):
        # A wide-open eye floors at the same minimal BER over a span of
        # phases; the reported operating point must sit strictly inside
        # that plateau (margin both sides), not at its first phase.
        eye = statistical_eye(_equalized_link(6.0))
        phase, ber = eye.best_operating_point()
        column = int(np.argmin(np.abs(eye.thresholds)))
        plateau = eye.phases_ui[eye.ber[:, column] == ber]
        assert plateau.size > 2  # the scenario really is a plateau
        assert plateau.min() < phase < plateau.max()

    def test_contour_band_is_symmetricish_at_centre(self):
        eye = statistical_eye(_equalized_link())
        lower, upper = eye.contour(1.0e-12)
        centre = len(eye.phases_ui) // 2
        assert np.isfinite(lower[centre]) and np.isfinite(upper[centre])
        assert lower[centre] < 0.0 < upper[centre]

    def test_amplitude_noise_shrinks_opening(self):
        clean = statistical_eye(_equalized_link())
        noisy = statistical_eye(_equalized_link(), amplitude_noise_rms=0.05)
        assert noisy.vertical_opening(1.0e-12) < clean.vertical_opening(1.0e-12)


class TestEqualizationInteraction:
    def test_dfe_improves_heavily_lossy_eye(self):
        without = statistical_eye(_equalized_link(18.0))
        with_dfe = statistical_eye(_equalized_link(18.0, dfe=LmsDfe(n_taps=2)))
        assert with_dfe.vertical_opening(1.0e-9) \
            >= without.vertical_opening(1.0e-9)

    def test_unequalized_heavy_loss_closes_the_eye(self):
        eye = statistical_eye(LinkConfig(
            channel=LossyLineChannel.for_loss_at_nyquist(20.0)))
        assert eye.vertical_opening(1.0e-12) == 0.0


class TestCrossValidation:
    """Pin the statistical eye against the bit-true backends.

    The configuration drives timing errors with a deterministic oscillator
    frequency offset over a short PRBS7 pattern, where the bit-true
    backends count errors reliably in 20k bits.  The analytic model counts
    one error per sampling-overshoot event while the bit-true counter
    books the resulting dropped-bit slip as roughly two mismatches, so the
    agreement criterion is the acceptance band of a factor of two.
    """

    LOSS_DB = 10.0
    OFFSET = 0.12
    N_BITS = 20000
    SEED = 3

    def _measured_ber(self, backend: str) -> tuple[int, float]:
        link = _equalized_link(self.LOSS_DB)
        config = CdrChannelConfig(
            oscillator=GccoParameters(jitter_sigma_fraction=0.0),
            frequency_offset=self.OFFSET)
        channel = LinkCdrChannel(link, config=config, backend=backend)
        result = channel.run(prbs_sequence(7, self.N_BITS),
                             rng=np.random.default_rng(self.SEED),
                             pattern_period=127)
        measurement = result.ber()
        return measurement.errors, measurement.errors / measurement.compared_bits

    def _stateye_ber(self) -> float:
        pattern = prbs_sequence(7, 127)
        budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.0,
                                 osc_sigma_ui_per_bit=0.0,
                                 frequency_offset=self.OFFSET)
        eye = statistical_eye(
            _equalized_link(self.LOSS_DB), budget=budget,
            run_lengths=measured_run_distribution(pattern, max_run=7))
        return eye.ber_at(0.5, 0.0)

    def test_statistical_eye_matches_event_backend_within_2x(self):
        errors, measured = self._measured_ber("event")
        assert errors > 100  # enough statistics for a meaningful ratio
        predicted = self._stateye_ber()
        assert 0.5 * measured <= predicted <= 2.0 * measured

    def test_event_and_fast_backends_agree_behind_the_link(self):
        assert self._measured_ber("event") == self._measured_ber("fast")


class TestSolverDetails:
    def test_solver_accepts_prepared_path(self):
        path = LinkPath(_equalized_link())
        eye = StatisticalEyeSolver(path).solve()
        assert eye.ber.ndim == 2

    def test_cursor_matrix_shape(self):
        solver = StatisticalEyeSolver(_equalized_link(), span_ui=48)
        cursors = solver.cursor_matrix()
        assert cursors.shape == (48, LinkConfig().timebase.samples_per_ui)

    def test_voltage_resolution_controls_grid(self):
        coarse = StatisticalEyeSolver(_equalized_link(), voltage_step=0.02)
        fine = StatisticalEyeSolver(_equalized_link(), voltage_step=0.005)
        assert fine.solve().thresholds.size > coarse.solve().thresholds.size

    def test_default_budget_zeroes_deterministic_jitter(self):
        solver = StatisticalEyeSolver(_equalized_link())
        assert solver.budget.dj_ui_pp == 0.0
        assert solver.budget.rj_ui_rms == CdrJitterBudget().rj_ui_rms

    def test_noise_pdf_variance_matches_cursor_power(self):
        # The ISI distribution is a sum of independent ±c_k terms, so its
        # variance must equal sum(c_k^2) — fractional-shift splitting keeps
        # cursors far below the grid step contributing their exact power.
        solver = StatisticalEyeSolver(_equalized_link(14.0), voltage_step=0.01)
        cursors = solver.cursor_matrix()
        main_row = int(np.argmax(np.max(np.abs(cursors), axis=1)))
        isi = np.delete(cursors, main_row, axis=0)
        eye = solver.solve()
        for phase_index in (0, 16, 31):
            expected = float(np.sum(isi[:, phase_index] ** 2))
            pdf = eye.noise_pdf(eye.phases_ui[phase_index])
            assert pdf.variance() == pytest.approx(expected, rel=1e-6,
                                                   abs=1e-12)

    def test_sub_step_cursors_survive_a_coarse_grid(self):
        # Regression: nearest-bin rounding used to drop every cursor below
        # half a grid step, understating the noise on coarse grids.
        fine = StatisticalEyeSolver(_equalized_link(14.0),
                                    voltage_step=0.002).solve()
        coarse = StatisticalEyeSolver(_equalized_link(14.0),
                                      voltage_step=0.04).solve()
        assert coarse.noise_pdf(0.5).std() \
            == pytest.approx(fine.noise_pdf(0.5).std(), rel=0.1)


#: Cursor voltages (victim swing units) of every scale the solver meets:
#: zero, FFT residue below the snap, sub-step ISI tails and whole cursors.
CURSOR_VOLTAGES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0e-9),
    st.floats(0.0, 0.01),
    st.floats(-0.6, 0.6),
)


@st.composite
def cursor_populations(draw):
    """``(isi_rows, aggressor blocks, voltage_step)`` of one generated solve."""
    n_columns = draw(st.integers(1, 6))

    def block(max_rows):
        n_rows = draw(st.integers(0, max_rows))
        values = draw(st.lists(CURSOR_VOLTAGES, min_size=n_rows * n_columns,
                               max_size=n_rows * n_columns))
        return np.array(values, dtype=float).reshape(n_rows, n_columns)

    isi_rows = block(12)
    aggressors = [block(6) for _ in range(draw(st.integers(0, 2)))]
    step = draw(st.sampled_from([0.002, 0.01, 0.04]))
    return isi_rows, aggressors, step


class TestPmfMassConservation:
    """The grid rule leaves room for every cursor: no mass reaches the edge."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cursor_populations())
    def test_pmfs_sum_to_one_with_empty_edges(self, population):
        isi_rows, aggressors, step = population
        main_cursor = np.ones(isi_rows.shape[1])
        half_bins = _grid_half_bins(main_cursor, isi_rows, aggressors, step, 0.0)
        # Synchronous concatenation: every cursor block lands in one column.
        shifts = _cursor_shifts(np.concatenate((isi_rows, *aggressors)), step)
        pmfs = _cursor_pmfs(shifts, half_bins)
        assert np.all(np.abs(pmfs.sum(axis=1) - 1.0) <= 1.0e-12)
        assert not pmfs[:, 0].any()
        assert not pmfs[:, -1].any()

    def test_solved_noise_pmf_conserves_mass(self):
        eye = StatisticalEyeSolver(_equalized_link(14.0)).solve()
        assert np.all(np.abs(eye.noise_pmf.sum(axis=1) - 1.0) <= 1.0e-12)
        assert not eye.noise_pmf[:, 0].any()
        assert not eye.noise_pmf[:, -1].any()


class TestSolverValidation:
    @pytest.mark.parametrize("noise", [-0.01, float("nan"), float("inf")])
    def test_bad_amplitude_noise_is_rejected_at_construction(self, noise):
        # A negative value used to shrink the grid by ten "sigmas" and a
        # NaN failed only inside the solve.
        with pytest.raises(ValueError, match="amplitude_noise_rms"):
            StatisticalEyeSolver(LinkConfig(), amplitude_noise_rms=noise)


class TestOnePhaseEye:
    """Regression: a one-phase timebase used to crash ``phase_step_ui``."""

    LINK = LinkConfig(timebase=LinkTimebase(samples_per_ui=1))

    def test_solve_has_one_phase_spanning_the_ui(self):
        eye = statistical_eye(self.LINK)
        assert eye.phases_ui.tolist() == [0.5]
        assert eye.phase_step_ui == 1.0
        assert eye.horizontal_opening_ui() == 1.0

    def test_objective_scores_a_one_phase_link(self):
        score = StatEyeObjective(self.LINK).evaluate(None, None, None)
        assert score.horizontal_ui == 1.0
        assert score.best_phase_ui == 0.5
