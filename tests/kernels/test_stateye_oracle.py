"""Statistical-eye oracles: the per-phase interpolation and the contour scan.

The solver's amplitude term interpolates each phase's noise CDF at the
thresholds shifted down and up by the rail in **one** ``np.interp`` call
on both shifted grids, and :meth:`StatisticalEye.contour` finds every
row's first and last passing threshold with ``any``/``argmax`` over the
rows and the reversed rows.  The loops they replaced are kept here as the
oracles — ``_reference_amplitude_ber`` (two ``np.interp`` calls per
phase) and ``_reference_contour`` (one ``flatnonzero`` per phase row) —
and must be matched **byte for byte** on generated eyes, including
all-closed rows (NaN), a single passing column and rows that pass
everywhere.

The whole link-training study (four channel losses, 105 solves) is
pinned too: every solved surface and the grid's metrics, on an empty link
memo with the oracles and the pulse response without the memo
(``_reference_equalized_pulse_response``: a fresh channel × CTLE response
per call) patched in, equal the live code's on an empty memo and again on
the memo that run left warm.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro._validation import require_probability
from repro.experiments import MeasurementPlan, ParameterAxis, ScenarioSpec, StimulusSpec, run_grid
from repro.link import LinkConfig, LinkPath, StatisticalEye, StatisticalEyeSolver
from repro.link import stateye
from repro.link.channel import pulse_through_response
from repro.link.memo import clear_link_memo


def _reference_amplitude_ber(cdf, main_cursor, thresholds):
    """The oracle: one ``np.interp`` call per shifted grid and phase."""
    spu = main_cursor.size
    amplitude_ber = np.empty((spu, thresholds.size))
    for phase_index in range(spu):
        rail = main_cursor[phase_index]
        below_one = np.interp(
            thresholds - rail, thresholds, cdf[phase_index], left=0.0, right=1.0
        )
        below_zero = np.interp(
            thresholds + rail, thresholds, cdf[phase_index], left=0.0, right=1.0
        )
        amplitude_ber[phase_index] = 0.5 * (below_one + (1.0 - below_zero))
    return amplitude_ber


def _reference_contour(self, target_ber=1.0e-12):
    """The oracle: the passing threshold band of one phase row at a time."""
    require_probability("target_ber", target_ber)
    passing = self.ber <= target_ber
    lower = np.full(self.phases_ui.size, np.nan)
    upper = np.full(self.phases_ui.size, np.nan)
    for index in range(self.phases_ui.size):
        columns = np.flatnonzero(passing[index])
        if columns.size:
            lower[index] = self.thresholds[columns[0]]
            upper[index] = self.thresholds[columns[-1]]
    return lower, upper


def _reference_equalized_pulse_response(self, n_ui):
    """The oracle: channel × CTLE computed afresh, no memo."""
    config = self.config
    frequencies = config.timebase.frequencies_hz(config.timebase.n_samples(n_ui))
    response = config.channel.frequency_response(frequencies)
    if config.rx_ctle is not None:
        response = response * config.rx_ctle.frequency_response(frequencies)
    return pulse_through_response(response, config.timebase, n_ui)


def _bytes_equal(left, right) -> bool:
    left, right = np.asarray(left), np.asarray(right)
    return left.dtype == right.dtype and left.tobytes() == right.tobytes()


#: How a generated eye row passes the target: nowhere, in one column, in
#: every column, in one contiguous band, or in scattered columns.
ROW_KINDS = ("closed", "single", "all", "band", "scattered")


@st.composite
def eyes(draw):
    """A surface whose rows pass the target BER in every way a row can."""
    n_phases = draw(st.integers(1, 12))
    half_bins = draw(st.integers(0, 20))
    n_bins = 2 * half_bins + 1
    target = draw(st.sampled_from([1.0e-12, 1.0e-6, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    passing = np.zeros((n_phases, n_bins), dtype=bool)
    for row in passing:
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "single":
            row[draw(st.integers(0, n_bins - 1))] = True
        elif kind == "all":
            row[:] = True
        elif kind == "band":
            start = draw(st.integers(0, n_bins - 1))
            row[start : draw(st.integers(start + 1, n_bins))] = True
        elif kind == "scattered":
            row[:] = rng.random(n_bins) < 0.4
    # Passing cells at or below the target (some exactly on it), failing above.
    above = target + (1.0 - target) * (1.0 - rng.random(passing.shape))
    ber = np.where(passing, target * rng.random(passing.shape), above)
    ber[passing & (rng.random(passing.shape) < 0.2)] = target
    step = draw(st.sampled_from([0.01, 0.003, 0.25]))
    eye = StatisticalEye(
        phases_ui=(np.arange(n_phases) + 0.5) / n_phases,
        thresholds=np.arange(-half_bins, half_bins + 1, dtype=float) * step,
        ber=ber,
        timing_ber=np.zeros(n_phases),
        amplitude_ber=ber,
        main_cursor=np.zeros(n_phases),
        noise_pmf=np.zeros_like(ber),
    )
    return eye, target


@st.composite
def amplitude_inputs(draw):
    """``(cdf, main_cursor, thresholds)``: rails on, off and past the grid."""
    n_phases = draw(st.integers(1, 12))
    half_bins = draw(st.integers(1, 30))
    step = draw(st.sampled_from([0.01, 0.007, 0.5]))
    thresholds = np.arange(-half_bins, half_bins + 1, dtype=float) * step
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pmf = rng.random((n_phases, thresholds.size)) ** 3
    pmf[rng.random(pmf.shape) < 0.3] = 0.0
    pmf[:, half_bins] += 1.0e-3
    pmf /= pmf.sum(axis=1, keepdims=True)
    span = half_bins * step
    rails = rng.uniform(-2.5 * span, 2.5 * span, n_phases)
    on_grid = rng.random(n_phases) < 0.3
    rails[on_grid] = thresholds[rng.integers(0, thresholds.size, int(on_grid.sum()))]
    rails[rng.random(n_phases) < 0.1] = 0.0
    return np.cumsum(pmf, axis=1), rails, thresholds


class TestAmplitudeBerMatchesTwoCallLoop:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(inputs=amplitude_inputs())
    def test_generated_cdfs_match_reference(self, inputs):
        cdf, rails, thresholds = inputs
        assert _bytes_equal(
            stateye._amplitude_ber(cdf, rails, thresholds),
            _reference_amplitude_ber(cdf, rails, thresholds),
        )


class TestContourMatchesRowLoop:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=eyes())
    def test_generated_eyes_match_reference(self, case):
        eye, target = case
        for live, expected in zip(eye.contour(target), _reference_contour(eye, target)):
            assert _bytes_equal(live, expected)

    def test_closed_single_and_open_rows(self):
        thresholds = np.arange(-3, 4, dtype=float) * 0.1
        ber = np.ones((3, thresholds.size))
        ber[1, 4] = 1.0e-15  # one passing column
        ber[2] = 0.0  # every column passes
        eye = StatisticalEye(
            phases_ui=np.array([0.25, 0.5, 0.75]),
            thresholds=thresholds,
            ber=ber,
            timing_ber=np.zeros(3),
            amplitude_ber=ber,
            main_cursor=np.zeros(3),
            noise_pmf=np.zeros_like(ber),
        )
        lower, upper = eye.contour(1.0e-12)
        assert np.isnan(lower[0]) and np.isnan(upper[0])
        assert lower[1] == upper[1] == thresholds[4]
        assert (lower[2], upper[2]) == (thresholds[0], thresholds[-1])
        for live, expected in zip((lower, upper), _reference_contour(eye, 1.0e-12)):
            assert _bytes_equal(live, expected)

    @pytest.mark.parametrize("target_ber", [0.0, 1.0e-300, 1.0e-12, 1.0])
    def test_solved_eye_matches_reference(self, target_ber):
        eye = StatisticalEyeSolver(LinkConfig()).solve()
        for live, expected in zip(eye.contour(target_ber), _reference_contour(eye, target_ber)):
            assert _bytes_equal(live, expected)


#: The link-training study of the benchmark: four channel losses trained
#: with the default budget, 105 statistical-eye solves in all.
TRAINING_SPEC = ScenarioSpec(
    stimulus=StimulusSpec(kind="prbs", n_bits=4 * 127, prbs_order=7, seed=3),
    link=LinkConfig(),
    measurement=MeasurementPlan(train_equalizers=True),
)
TRAINING_AXES = [ParameterAxis("channel_loss_db", (8.0, 11.0, 14.0, 17.0))]
TRAINING_SOLVES = 105
SURFACES = (
    "phases_ui",
    "thresholds",
    "ber",
    "timing_ber",
    "amplitude_ber",
    "main_cursor",
    "noise_pmf",
)


def _training_study():
    """``(solved eyes, grid metrics JSON, link-memo counters)`` of one study run."""
    eyes_solved = []
    solve = StatisticalEyeSolver.solve

    def recording(self):
        eye = solve(self)
        eyes_solved.append(eye)
        return eye

    with pytest.MonkeyPatch.context() as patch, telemetry.trace() as tracer:
        patch.setattr(StatisticalEyeSolver, "solve", recording)
        result = run_grid(TRAINING_SPEC, TRAINING_AXES, seed=5, workers=1)
    counters = {name: value for name, value in tracer.counters.items() if name.startswith("link.")}
    return eyes_solved, result.to_json(), counters


class TestLinkTrainingStudy:
    def test_every_solve_matches_reference_cold_and_warm(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stateye, "_amplitude_ber", _reference_amplitude_ber)
            patch.setattr(StatisticalEye, "contour", _reference_contour)
            patch.setattr(LinkPath, "equalized_pulse_response", _reference_equalized_pulse_response)
            clear_link_memo()
            reference, reference_json, _ = _training_study()
        clear_link_memo()
        cold, cold_json, cold_counters = _training_study()
        warm, warm_json, warm_counters = _training_study()

        assert len(reference) == len(cold) == len(warm) == TRAINING_SOLVES
        assert cold_counters["link.channel_cache.misses"] > 0
        assert not [name for name in warm_counters if name.endswith(".misses")]
        for index, (expected, *others) in enumerate(zip(reference, cold, warm)):
            for eye in others:
                for name in SURFACES:
                    assert _bytes_equal(getattr(eye, name), getattr(expected, name)), (index, name)
        assert cold_json == reference_json
        assert warm_json == reference_json
