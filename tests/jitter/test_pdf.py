"""Tests for the numerical PDF algebra."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.jitter.pdf import (
    Pdf,
    convolve_pdfs,
    delta_pdf,
    dual_dirac_pdf,
    gaussian_pdf,
    sinusoidal_pdf,
    uniform_pdf,
)
from repro.jitter.pdf import _STEP_RTOL, _uniform_steps
from repro.statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel


def _allclose_steps(steps):
    """The former uniformity check, kept as the predicate's reference."""
    return bool(np.allclose(steps, steps[0], rtol=_STEP_RTOL, atol=0.0))


_INSIDE = 1.0 + 0.5 * _STEP_RTOL
_OUTSIDE = 1.0 + 2.0 * _STEP_RTOL

#: Grids on both sides of the spacing tolerance and with non-finite points.
SPACING_GRIDS = {
    "linspace": np.linspace(-3.0, 3.0, 601),
    "arange": np.arange(-400, 401) * 2.0e-3,
    "two_points": np.array([0.0, 0.25]),
    "tiny_step": np.arange(8) * 1.0e-300,
    "large_step": np.arange(8) * 1.0e300,
    "inside_rtol": np.cumsum([0.0, 1.0, 1.0, _INSIDE, 1.0]),
    "inside_rtol_below": np.cumsum([0.0, 1.0, 1.0, 2.0 - _INSIDE, 1.0]),
    "outside_rtol": np.cumsum([0.0, 1.0, 1.0, _OUTSIDE, 1.0]),
    "outside_rtol_below": np.cumsum([0.0, 1.0, 1.0, 2.0 - _OUTSIDE, 1.0]),
    "outside_rtol_first": np.cumsum([0.0, _OUTSIDE, 1.0, 1.0]),
    "non_uniform": np.array([0.0, 1.0, 3.0]),
    "nan_inside": np.array([0.0, 1.0, np.nan, 3.0]),
    "nan_first": np.array([np.nan, 1.0, 2.0]),
    "all_nan": np.full(3, np.nan),
    "inf_last": np.array([0.0, 1.0, np.inf]),
    "neg_inf_first": np.array([-np.inf, 0.0, 1.0]),
    "inf_both_ends_long": np.array([-np.inf, 0.0, 1.0, np.inf]),
}


class TestGridSpacingPredicate:
    @pytest.mark.parametrize("name", list(SPACING_GRIDS))
    def test_matches_allclose(self, name):
        steps = np.diff(SPACING_GRIDS[name])
        assert _uniform_steps(steps) == _allclose_steps(steps)

    @pytest.mark.parametrize("grid", [[-np.inf, 0.0, np.inf], [-np.inf, np.inf]])
    def test_rejects_infinite_step_grid_allclose_accepted(self, grid):
        # Deliberate divergence: allclose counts equal infinite steps as
        # close, but a grid with an infinite step supports no finite moment.
        steps = np.diff(np.array(grid))
        assert _allclose_steps(steps)
        assert not _uniform_steps(steps)
        with pytest.raises(ValueError, match="uniformly spaced"):
            Pdf(np.array(grid), np.ones(len(grid)))

    @pytest.mark.parametrize("name", [name for name in SPACING_GRIDS if "nan" in name])
    def test_pdf_rejects_nan_grids(self, name):
        grid = SPACING_GRIDS[name]
        with pytest.raises(ValueError):
            Pdf(grid, np.ones(grid.size))


class TestPdfConstruction:
    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError):
            Pdf(np.array([0.0, 1.0, 3.0]), np.array([1.0, 1.0, 1.0]))

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            Pdf(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 1.0]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Pdf(np.array([0.0, 1.0]), np.array([1.0]))

    def test_step_property(self):
        p = uniform_pdf(1.0, step=0.01)
        assert p.step == pytest.approx(0.01)


class TestConstructors:
    def test_delta_total_probability(self):
        assert delta_pdf(0.3).total_probability == pytest.approx(1.0, rel=1e-6)

    def test_uniform_moments(self):
        p = uniform_pdf(0.4, step=1e-3)
        assert p.mean() == pytest.approx(0.0, abs=1e-9)
        assert p.std() == pytest.approx(0.4 / np.sqrt(12.0), rel=1e-2)
        assert p.peak_to_peak() == pytest.approx(0.4, abs=0.01)

    def test_gaussian_moments(self):
        p = gaussian_pdf(0.021, step=1e-3)
        assert p.mean() == pytest.approx(0.0, abs=1e-9)
        assert p.std() == pytest.approx(0.021, rel=1e-2)

    def test_gaussian_tail_probability(self):
        p = gaussian_pdf(1.0, step=1e-3)
        # P(X > 3 sigma) ~ 1.35e-3
        assert p.probability_above(3.0) == pytest.approx(1.35e-3, rel=0.05)

    def test_sinusoidal_moments(self):
        p = sinusoidal_pdf(1.0, step=1e-3)
        # A sinusoid of pp 1.0 (amplitude 0.5) has rms 0.3536.
        assert p.std() == pytest.approx(0.5 / np.sqrt(2.0), rel=1e-2)
        assert p.probability_above(0.51) == pytest.approx(0.0, abs=1e-9)

    def test_sinusoidal_is_bathtub_shaped(self):
        p = sinusoidal_pdf(1.0, step=1e-3)
        centre_density = p.density[np.argmin(np.abs(p.grid))]
        edge_density = p.density[np.argmin(np.abs(p.grid - 0.45))]
        assert edge_density > centre_density

    @pytest.mark.parametrize("constructor, rms_over_pp", [
        (uniform_pdf, 1.0 / np.sqrt(12.0)),
        (sinusoidal_pdf, 1.0 / (2.0 * np.sqrt(2.0))),
        (dual_dirac_pdf, 0.5),
    ])
    def test_rms_shape_factor(self, constructor, rms_over_pp):
        """The rms of each bounded shape is a fixed fraction of its
        peak-to-peak width, resolved to 1e-3 on 2000 cells per width."""
        for peak_to_peak in (0.05, 0.4, 1.0):
            pdf = constructor(peak_to_peak, peak_to_peak / 2000.0)
            assert pdf.std() == pytest.approx(rms_over_pp * peak_to_peak, rel=1e-3)

    def test_dual_dirac_two_impulses(self):
        p = dual_dirac_pdf(0.2, step=1e-3)
        assert p.total_probability == pytest.approx(1.0, rel=1e-6)
        assert p.std() == pytest.approx(0.1, rel=0.05)

    @pytest.mark.parametrize("centre", [0.0, 0.137])
    @pytest.mark.parametrize("steps", range(1, 10))
    def test_dual_dirac_is_centred_at_any_step_count(self, steps, centre):
        """An odd step count puts each impulse on a tie between two grid
        points; the impulses still mirror each other about the centre."""
        step = 1e-3
        p = dual_dirac_pdf(steps * step, step=step, centre=centre)
        impulses = p.grid[p.density > 0.0]
        assert p.total_probability == pytest.approx(1.0, rel=1e-12)
        assert p.mean() == pytest.approx(centre, abs=1e-12)
        assert abs((impulses[-1] - impulses[0]) - steps * step) <= step * (1.0 + 1e-9)

    def test_zero_width_collapses_to_delta(self):
        assert uniform_pdf(0.0).std() == pytest.approx(0.0, abs=1e-6)
        assert sinusoidal_pdf(0.0).std() == pytest.approx(0.0, abs=1e-6)
        assert gaussian_pdf(0.0).std() == pytest.approx(0.0, abs=1e-6)


@st.composite
def symmetric_pdfs(draw):
    """``(pdf, centre)``: a uniform, Gaussian or sinusoidal PDF about its
    centre, or the convolution of two on one grid step."""
    step = draw(st.sampled_from([5e-4, 1e-3, 2e-3]))

    def shape():
        centre = draw(st.floats(-0.5, 0.5))
        kind = draw(st.sampled_from(["uniform", "gaussian", "sinusoidal"]))
        if kind == "gaussian":
            return gaussian_pdf(draw(st.floats(0.002, 0.1)), step, centre=centre), centre
        constructor = uniform_pdf if kind == "uniform" else sinusoidal_pdf
        return constructor(draw(st.floats(0.01, 0.8)), step, centre=centre), centre

    pdf, centre = shape()
    if draw(st.booleans()):
        other, other_centre = shape()
        pdf, centre = pdf.convolve(other), centre + other_centre
    return pdf, centre


class TestProbabilities:
    def test_probability_below_and_above_are_complementary(self):
        p = gaussian_pdf(0.1, step=1e-3)
        assert p.probability_below(0.05) + p.probability_above(0.05) == pytest.approx(1.0, abs=1e-6)

    def test_probability_below_far_left_is_zero(self):
        assert gaussian_pdf(0.1).probability_below(-10.0) == 0.0

    def test_probability_above_far_right_is_zero(self):
        assert gaussian_pdf(0.1).probability_above(10.0) == 0.0

    def test_uniform_cdf_midpoint(self):
        p = uniform_pdf(0.4, step=1e-3)
        assert p.probability_below(0.0) == pytest.approx(0.5, abs=1e-12)
        # 401 cells of 1e-3 carry the 0.4 UI span: 300.5 of them lie below 0.1.
        assert p.probability_below(0.1) == pytest.approx(300.5 / 401.0, abs=1e-12)

    def test_gaussian_tails_are_symmetric(self):
        from scipy.stats import norm

        p = gaussian_pdf(0.021, step=1e-3)
        assert p.probability_below(0.0) == pytest.approx(0.5, abs=1e-12)
        assert p.probability_below(-0.1) == pytest.approx(p.probability_above(0.1), rel=1e-12)
        assert p.probability_above(0.1) == pytest.approx(norm.sf(0.1 / 0.021), rel=0.01)

    @pytest.mark.parametrize("n_sigma", [1.0, 3.0, 5.0, 7.0])
    def test_gaussian_tails_match_the_normal_distribution(self, n_sigma):
        """At 200 cells per sigma the centred cells put both tails within
        1e-3 of ``Q(n_sigma)``; reading ``grid[i]`` as a cell's left edge
        moved them by ~2 % at 7 sigma."""
        from scipy.stats import norm

        p = gaussian_pdf(0.021, step=0.021 / 200.0)
        expected = norm.sf(n_sigma)
        assert p.probability_above(n_sigma * 0.021) == pytest.approx(expected, rel=1e-3)
        assert p.probability_below(-n_sigma * 0.021) == pytest.approx(expected, rel=1e-3)

    def test_delta_steps_at_its_value(self):
        p = delta_pdf(0.3, step=1e-3)
        assert p.probability_below(0.3) == pytest.approx(0.5, abs=1e-12)
        assert p.probability_below(0.3 - 0.5e-3) == 0.0
        assert p.probability_above(0.3 + 0.5e-3) == 0.0

    def test_dual_dirac_quartiles(self):
        """Each impulse holds half the mass, split evenly by its own position."""
        p = dual_dirac_pdf(0.2, step=1e-3)
        assert p.probability_below(-0.1) == pytest.approx(0.25, abs=1e-12)
        assert p.probability_below(0.0) == pytest.approx(0.5, abs=1e-12)
        assert p.probability_above(0.1) == pytest.approx(0.25, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(symmetric_pdfs(), st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=8))
    def test_probability_below_is_monotone(self, case, thresholds):
        pdf, _ = case
        below = [pdf.probability_below(t) for t in sorted(thresholds)]
        assert all(0.0 <= value <= 1.0 for value in below)
        assert np.all(np.diff(below) >= 0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(symmetric_pdfs(), st.floats(-0.5, 0.5), st.floats(-1.0, 1.0))
    def test_shift_and_mirror_move_the_tails(self, case, offset, threshold):
        """``X + c`` reads X's tails at ``t - c``; ``-X`` swaps them."""
        pdf, _ = case
        assert pdf.shifted(offset).probability_below(threshold + offset) == pytest.approx(
            pdf.probability_below(threshold), abs=1e-12)
        assert pdf.mirrored().probability_below(-threshold) == pytest.approx(
            pdf.probability_above(threshold), abs=1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(symmetric_pdfs(), st.floats(0.0, 1.0))
    # Half the span just under 500 cells: masking on ``grid - centre`` kept
    # the boundary cell on one side only.
    @example((uniform_pdf(0.49999999999999994, 5e-4, centre=0.35645609035302345),
              0.35645609035302345), 0.0)
    def test_tails_mirror_about_the_centre(self, case, offset):
        """Every constructor centres a cell on each grid point, so a PDF
        symmetric about ``c`` has ``P(X < c - t) == P(X > c + t)`` and
        ``P(X < c) == 1/2``.

        ``c`` is the grid's midpoint: a convolution steps its grid by the
        difference of two input points, so its midpoint drifts from the
        sum of the centres by ~1e-13 UI, which the tails would see.
        """
        pdf, centre = case
        middle = 0.5 * (pdf.grid[0] + pdf.grid[-1])
        assert middle == pytest.approx(centre, abs=1e-9)
        assert pdf.probability_below(middle) == pytest.approx(0.5, abs=1e-12)
        assert pdf.probability_below(middle - offset) == pytest.approx(
            pdf.probability_above(middle + offset), abs=1e-12)


class TestTransformations:
    def test_shift_moves_mean(self):
        p = gaussian_pdf(0.05).shifted(0.3)
        assert p.mean() == pytest.approx(0.3, abs=1e-3)

    def test_scale_changes_std(self):
        p = gaussian_pdf(0.05).scaled(2.0)
        assert p.std() == pytest.approx(0.1, rel=0.02)

    def test_negative_scale_mirrors(self):
        p = uniform_pdf(0.2, centre=0.1).scaled(-1.0)
        assert p.mean() == pytest.approx(-0.1, abs=2e-3)

    def test_scale_zero_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pdf(0.05).scaled(0.0)

    def test_mirror_preserves_std(self):
        p = gaussian_pdf(0.07)
        assert p.mirrored().std() == pytest.approx(p.std(), rel=1e-6)


class TestConvolution:
    def test_convolution_adds_means(self):
        a = gaussian_pdf(0.02, centre=0.1)
        b = uniform_pdf(0.2, centre=-0.05)
        c = convolve_pdfs(a, b)
        assert c.mean() == pytest.approx(0.05, abs=2e-3)

    def test_convolution_adds_variances(self):
        a = gaussian_pdf(0.03)
        b = gaussian_pdf(0.04)
        c = a.convolve(b)
        assert c.std() == pytest.approx(0.05, rel=0.02)

    def test_convolution_normalised(self):
        c = uniform_pdf(0.4).convolve(gaussian_pdf(0.02))
        assert c.total_probability == pytest.approx(1.0, rel=1e-6)

    def test_gaussian_convolution_matches_analytic_tail(self):
        c = gaussian_pdf(0.03).convolve(gaussian_pdf(0.04))
        from scipy.stats import norm
        assert c.probability_above(0.2) == pytest.approx(norm.sf(0.2 / 0.05), rel=0.05)

    def test_mixed_resolution_convolution(self):
        a = gaussian_pdf(0.03, step=1e-3)
        b = gaussian_pdf(0.04, step=2e-3)
        assert a.convolve(b).std() == pytest.approx(0.05, rel=0.03)

    @given(st.floats(min_value=0.01, max_value=0.2),
           st.floats(min_value=0.01, max_value=0.2))
    @settings(max_examples=20, deadline=None)
    def test_variance_additivity_property(self, sigma_a, sigma_b):
        a = gaussian_pdf(sigma_a, step=2e-3)
        b = uniform_pdf(sigma_b, step=2e-3)
        combined = a.convolve(b)
        expected = np.sqrt(a.variance() + b.variance())
        assert combined.std() == pytest.approx(expected, rel=0.05)


class TestResampling:
    def test_resample_preserves_shape(self):
        p = gaussian_pdf(0.05, step=1e-3)
        grid = np.arange(-0.5, 0.5, 2e-3)
        q = p.resampled(grid)
        assert q.std() == pytest.approx(p.std(), rel=0.05)
        assert q.total_probability == pytest.approx(1.0, rel=1e-6)


def _recording_built(built: list):
    """A ``Pdf._built`` that records every Pdf it returns."""
    unchecked = Pdf._built.__func__

    def recording(cls, grid, density):
        pdf = unchecked(cls, grid, density)
        built.append(pdf)
        return pdf

    return classmethod(recording)


def _assert_revalidates(pdf: Pdf) -> None:
    checked = Pdf(pdf.grid, pdf.density)
    assert checked.grid.dtype == pdf.grid.dtype and checked.density.dtype == pdf.density.dtype
    assert checked.grid.tobytes() == pdf.grid.tobytes()
    assert checked.density.tobytes() == pdf.density.tobytes()


class TestBuiltPdfsRevalidate:
    """The unchecked ``Pdf._built`` returns what the public ``Pdf(...)`` would.

    Convolution and normalisation skip the public checks; every Pdf they
    build must pass them and come back byte for byte (the non-negative
    clip a no-op).  The shape constructors keep the checks, because their
    grids come from the caller's centre and step.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dj=st.one_of(st.just(0.0), st.floats(0.01, 0.6)),
        rj=st.one_of(st.just(0.0), st.floats(0.001, 0.05)),
        sj=st.one_of(st.just(0.0), st.floats(0.02, 1.5)),
        sj_frequency_hz=st.floats(1.0e6, 1.25e9),
        step=st.sampled_from([1.0e-3, 2.0e-3, 5.0e-3]),
    )
    def test_every_timing_model_pdf_revalidates(self, dj, rj, sj, sj_frequency_hz, step):
        budget = CdrJitterBudget(
            dj_ui_pp=dj, rj_ui_rms=rj, sj_amplitude_ui_pp=sj, sj_frequency_hz=sj_frequency_hz
        )
        built: list[Pdf] = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Pdf, "_built", _recording_built(built))
            GatedOscillatorBerModel(budget, grid_step_ui=step).ber_at_phases(
                np.linspace(0.05, 0.95, 7)
            )
        # A budget with no jitter at all is one delta: nothing to convolve.
        assert built or dj == rj == sj == 0.0
        for pdf in built:
            _assert_revalidates(pdf)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        width=st.one_of(st.just(0.0), st.floats(0.005, 0.5)),
        centre=st.floats(-2.0, 2.0),
        step=st.sampled_from([1.0e-3, 2.0e-3, 1.0e-2]),
    )
    def test_constructors_off_centre_revalidate(self, width, centre, step):
        built: list[Pdf] = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Pdf, "_built", _recording_built(built))
            delta_pdf(centre, step)
            uniform_pdf(width, step, centre=centre)
            gaussian = gaussian_pdf(0.1 * width, step, centre=centre)
            gaussian.convolve(uniform_pdf(width, 2.0 * step, centre=-centre))
        assert built
        for pdf in built:
            _assert_revalidates(pdf)

    @pytest.mark.parametrize("centre", [float("nan"), float("inf"), -float("inf"), 1.0e20])
    def test_constructors_reject_a_centre_without_a_grid(self, centre):
        # A NaN or infinite centre is rejected by name before any grid
        # arithmetic; at 1e20 the step is lost to rounding, and the grid
        # checks still catch it.
        finite = np.isfinite(centre)
        constructors = [
            ("value", lambda: delta_pdf(centre)),
            ("centre", lambda: uniform_pdf(0.2, centre=centre)),
            ("centre", lambda: gaussian_pdf(0.02, centre=centre)),
            ("centre", lambda: sinusoidal_pdf(0.2, centre=centre)),
            ("centre", lambda: dual_dirac_pdf(0.2, centre=centre)),
        ]
        for name, build in constructors:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError) as raised:
                    build()
            if not finite:
                assert str(raised.value).startswith(f"{name} must be finite")
