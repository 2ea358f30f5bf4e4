"""Timing-model oracle: the per-run-length edge-pair PDF chain.

:class:`GatedOscillatorBerModel` builds the gap-independent
``delta ⊛ uniform(DJ) ⊛ gaussian(√2·RJ)`` prefix of its end-of-run
boundary PDFs once per model and convolves only the sinusoidal term per
run length.  The chain it replaced — the whole sequence rebuilt for every
run length — is kept here as ``_reference_edge_pair_pdf`` and patched
into the model class; ``ber_at_phases``, ``ber_breakdown`` and
``eye_margin_ui`` must match it **byte for byte** on generated jitter
budgets (DJ, RJ, SJ and oscillator jitter each zero or positive, SJ
frequencies, frequency offsets) and generated run-length distributions.

The dual-Dirac DDJ fit that feeds a training candidate's timing budget
is pinned the same way: its one four-probability ``np.quantile`` call and
cached tail z-values against the four-call, per-call-``norm.ppf`` form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.datapath.cid import RunLengthDistribution
from repro.jitter.decomposition import decompose_dual_dirac
from repro.jitter.pdf import delta_pdf, gaussian_pdf, sinusoidal_pdf, uniform_pdf
from repro.statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel

PHASES_UI = np.linspace(0.02, 0.98, 17)


def _floats_equal(left, right) -> bool:
    return np.asarray(left, dtype=float).tobytes() == np.asarray(right, dtype=float).tobytes()


def _pdf_bytes(pdf) -> bytes:
    return pdf.grid.tobytes() + pdf.density.tobytes()


def _reference_edge_pair_pdf(self, gap_ui):
    """The oracle: the whole edge-pair chain, rebuilt for every gap."""
    budget = self.budget
    step = self.grid_step_ui
    pdf = delta_pdf(0.0, step)
    if budget.dj_ui_pp > 0.0:
        pdf = pdf.convolve(uniform_pdf(budget.dj_ui_pp, step))
    if budget.rj_ui_rms > 0.0:
        pdf = pdf.convolve(gaussian_pdf(budget.rj_ui_rms * math.sqrt(2.0), step))
    relative_sj = budget.relative_sj_pp_over_gap(gap_ui)
    if relative_sj > 0.0:
        pdf = pdf.convolve(sinusoidal_pdf(relative_sj, step))
    return pdf


def _zero_or(strategy):
    return st.one_of(st.just(0.0), strategy)


@st.composite
def budgets(draw):
    return CdrJitterBudget(
        dj_ui_pp=draw(_zero_or(st.floats(0.01, 0.5))),
        rj_ui_rms=draw(_zero_or(st.floats(0.002, 0.04))),
        sj_amplitude_ui_pp=draw(_zero_or(st.floats(0.02, 1.5))),
        sj_frequency_hz=draw(st.floats(1.0e6, 1.25e9)),
        osc_sigma_ui_per_bit=draw(_zero_or(st.floats(0.001, 0.02))),
        frequency_offset=draw(st.floats(-0.03, 0.03)),
    )


@st.composite
def run_length_distributions(draw):
    weights = draw(st.lists(_zero_or(st.floats(0.05, 1.0)), min_size=1, max_size=7))
    if not any(weights):
        weights[-1] = 1.0
    total = sum(weights)
    return RunLengthDistribution(tuple(weight / total for weight in weights))


def _models(budget, run_lengths, step):
    """``(model, reference)``: the same timing model, current and oracle chain."""
    model = GatedOscillatorBerModel(budget, run_lengths=run_lengths, grid_step_ui=step)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GatedOscillatorBerModel, "_edge_pair_pdf", _reference_edge_pair_pdf)
        reference = GatedOscillatorBerModel(budget, run_lengths=run_lengths, grid_step_ui=step)
        # Fill the reference cache while the oracle is patched in.
        reference.ber_breakdown()
    return model, reference


class TestTimingModelBitIdentity:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(budgets(), run_length_distributions(), st.sampled_from([2.0e-3, 5.0e-3]))
    def test_generated_budgets_match_reference_chain(self, budget, run_lengths, step):
        model, reference = _models(budget, run_lengths, step)
        assert _floats_equal(model.ber_at_phases(PHASES_UI), reference.ber_at_phases(PHASES_UI))
        fast, slow = model.ber_breakdown(), reference.ber_breakdown()
        assert _floats_equal(
            (fast.ber, fast.ber_right, fast.ber_left), (slow.ber, slow.ber_right, slow.ber_left)
        )
        assert list(fast.per_run_length) == list(slow.per_run_length)
        per_run = [list(result.per_run_length.values()) for result in (fast, slow)]
        assert _floats_equal(*per_run)
        assert _floats_equal(model.eye_margin_ui(), reference.eye_margin_ui())

    def test_sinusoidal_jitter_keeps_per_run_length_pdfs_apart(self):
        """With SJ the prefix is shared but every run length gets its own term."""
        budget = CdrJitterBudget(dj_ui_pp=0.1, sj_amplitude_ui_pp=0.3)
        model, reference = _models(budget, None, 2.0e-3)
        pdfs = [_pdf_bytes(model._boundary_pdf(k)) for k in range(1, 6)]
        assert pdfs == [_pdf_bytes(reference._boundary_pdf(k)) for k in range(1, 6)]
        assert len(set(pdfs)) == len(pdfs)

    def test_without_sinusoidal_jitter_run_lengths_share_one_pdf(self):
        model = GatedOscillatorBerModel(CdrJitterBudget(dj_ui_pp=0.0))
        model.ber_breakdown()
        assert len({id(pdf) for pdf in model._boundary_pdf_cache.values()}) == 1


def _reference_dual_dirac(samples, tail_quantile):
    """The fit as it was: four quantile calls and ``norm.ppf`` per call."""
    q_lo_a = np.quantile(samples, tail_quantile)
    q_lo_b = np.quantile(samples, 4.0 * tail_quantile)
    q_hi_a = np.quantile(samples, 1.0 - tail_quantile)
    q_hi_b = np.quantile(samples, 1.0 - 4.0 * tail_quantile)
    z_a = stats.norm.ppf(tail_quantile)
    z_b = stats.norm.ppf(4.0 * tail_quantile)
    denom = z_a - z_b
    sigma_left = (q_lo_a - q_lo_b) / denom
    mu_left = q_lo_a - sigma_left * z_a
    sigma_right = (q_hi_a - q_hi_b) / (-denom)
    mu_right = q_hi_a + sigma_right * z_a
    sigma_left = max(float(sigma_left), 0.0)
    sigma_right = max(float(sigma_right), 0.0)
    dj = max(float(mu_right - mu_left), 0.0)
    return dj, float(0.5 * (sigma_left + sigma_right)), float(samples.mean())


class TestDualDiracFitBitIdentity:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(100, 3000),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["normal", "bimodal", "tiled"]),
        st.sampled_from([0.005, 0.001, 0.02, 0.0999]),
    )
    def test_generated_populations_match_four_call_form(self, size, seed, kind, tail):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.0, 0.03, size)
        if kind == "bimodal":
            samples += rng.choice([-0.1, 0.1], size)
        elif kind == "tiled":
            # The link layer fits a tiled displacement table: many ties.
            samples = np.tile(np.round(samples[:37], 3), size // 37 + 3)
        fit = decompose_dual_dirac(samples, tail)
        assert _floats_equal(
            (fit.dj_pp_ui, fit.rj_rms_ui, fit.mean_ui), _reference_dual_dirac(samples, tail)
        )
