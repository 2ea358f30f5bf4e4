"""Golden bit-identity pins: every hot loop must match its reference.

The pinned numpy loops on :class:`repro.link.LmsDfe`
(``_adapt_reference``, ``_adapt_decision_directed``,
``_error_propagation_reference``) and the :meth:`Simulator.step` loop
are the semantic reference; the scalar DFE recursions behind
``LmsDfe.adapt``/``error_propagation`` and the drain loop inside
``Simulator.run_until`` must reproduce them **byte for byte** on pinned
PRBS7 configurations — adapted taps, per-epoch errors, decision-error
diagnostics, error-propagation bursts, event counts and full
trained-link sweeps at any worker count.  The statistical eye's
grouped cursor-PMF kernel is pinned the same way against the
one-PMF-at-a-time two-point convolution chain kept here as its oracle:
on generated shift matrices, on whole solves and on a training run.
Whole-channel comparisons monkeypatch the reference loop in.  These
tests byte-compare arrays (``.tobytes()``), not approximately.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs_sequence
from repro.events.kernel import Simulator
from repro.experiments import ParameterAxis, ScenarioSpec, StimulusSpec, run_grid
from repro.link import (
    CrosstalkSpec,
    DfeAdaptation,
    ErrorPropagation,
    LinkConfig,
    LinkPath,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    StatisticalEyeSolver,
    TxFfe,
)
from repro.link import stateye
from repro.link.equalization import _lms_data_aided
from repro.link.isi import nrz_symbol_levels
from repro.link.training import LinkTrainer, TrainingBudget

PRBS7_BITS = prbs_sequence(7)
PRBS7_LEVELS = nrz_symbol_levels(PRBS7_BITS)
#: The pinned "received waveform": PRBS7 levels plus deterministic
#: pseudo-ISI perturbations — enough structure for non-trivial adaptation.
PRBS7_SAMPLES = PRBS7_LEVELS + np.random.default_rng(1234).normal(0.0, 0.18, PRBS7_LEVELS.size)


def _bytes_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.dtype == right.dtype and left.tobytes() == right.tobytes()


def _reference_adapt(self, ui_samples, symbols):
    """``LmsDfe.adapt`` on the pinned numpy loops."""
    samples = np.asarray(ui_samples, dtype=float).ravel()
    levels = np.asarray(symbols, dtype=float).ravel()
    if self.decision_directed:
        return self._adapt_decision_directed(samples, levels)
    return self._adapt_reference(samples, levels)


def _reference_run_until(self, stop_time_s):
    """``Simulator.run_until`` (no event budget) as a plain :meth:`Simulator.step` loop."""
    executed = 0
    while self._queue and self._queue[0][0] <= stop_time_s:
        self.step()
        executed += 1
    self._now = max(self._now, stop_time_s)
    return executed


def _scalar_data_aided(dfe, ui_samples, symbols):
    """The scalar data-aided recursion called directly, outside ``adapt``."""
    weights, error_rms = _lms_data_aided(
        ui_samples, symbols, dfe.n_taps, dfe.step_size, dfe.n_epochs)
    return DfeAdaptation(weights=weights, error_rms_per_epoch=error_rms)


#: The two ways into the data-aided loop: the scalar recursion itself
#: ("python") and the public ``LmsDfe.adapt`` that routes to it ("auto").
DATA_AIDED_ENTRIES = {
    "python": _scalar_data_aided,
    "auto": LmsDfe.adapt,
}


class TestDfeAdaptationBitIdentity:
    @pytest.mark.parametrize("entry", list(DATA_AIDED_ENTRIES))
    @pytest.mark.parametrize("n_taps", [1, 2, 3, 5])
    def test_data_aided_matches_reference(self, entry, n_taps):
        dfe = LmsDfe(n_taps=n_taps, step_size=0.02, n_epochs=25)
        reference = dfe._adapt_reference(PRBS7_SAMPLES, PRBS7_LEVELS)
        fast = DATA_AIDED_ENTRIES[entry](dfe, PRBS7_SAMPLES, PRBS7_LEVELS)
        assert _bytes_equal(fast.weights, reference.weights)
        assert _bytes_equal(fast.error_rms_per_epoch, reference.error_rms_per_epoch)
        assert fast.decision_error_rate_per_epoch is None

    @pytest.mark.parametrize("n_taps", [1, 2, 4])
    def test_decision_directed_matches_reference(self, n_taps):
        dfe = LmsDfe(n_taps=n_taps, step_size=0.015, n_epochs=30,
                     decision_directed=True)
        reference = dfe._adapt_decision_directed(PRBS7_SAMPLES, PRBS7_LEVELS)
        fast = dfe.adapt(PRBS7_SAMPLES, PRBS7_LEVELS)
        assert _bytes_equal(fast.weights, reference.weights)
        assert _bytes_equal(fast.error_rms_per_epoch, reference.error_rms_per_epoch)
        assert _bytes_equal(fast.decision_error_rate_per_epoch,
                            reference.decision_error_rate_per_epoch)

    def test_default_kernel_is_bit_identical_to_reference(self):
        """The default ``LmsDfe()`` line-up (40 epochs) on the adapt loop."""
        dfe = LmsDfe()
        default = dfe.adapt(PRBS7_SAMPLES, PRBS7_LEVELS)
        reference = dfe._adapt_reference(PRBS7_SAMPLES, PRBS7_LEVELS)
        assert _bytes_equal(default.weights, reference.weights)
        assert _bytes_equal(default.error_rms_per_epoch, reference.error_rms_per_epoch)


def _reference_burst(weights, error_index=0, horizon=None):
    """``LmsDfe.error_propagation`` on the pinned reference recursion."""
    weights = np.asarray(weights, dtype=float)
    samples = LmsDfe._ideal_postcursor_waveform(PRBS7_LEVELS, weights)
    steps = 8 * weights.size if horizon is None else horizon
    wrong, deviation = LmsDfe._error_propagation_reference(
        samples, PRBS7_LEVELS, weights, error_index % PRBS7_LEVELS.size, steps)
    return ErrorPropagation(wrong_decisions=wrong, deviation_per_ui=deviation)


class TestErrorPropagationBitIdentity:
    @pytest.mark.parametrize("weights", [
        (0.3,),
        (0.3, -0.15),
        (0.45, -0.2, 0.1),
    ])
    def test_burst_matches_reference(self, weights):
        dfe = LmsDfe(n_taps=len(weights))
        reference = _reference_burst(weights, error_index=5)
        fast = dfe.error_propagation(np.array(weights), PRBS7_LEVELS, error_index=5)
        assert _bytes_equal(fast.wrong_decisions, reference.wrong_decisions)
        assert _bytes_equal(fast.deviation_per_ui, reference.deviation_per_ui)
        assert fast.burst_length == reference.burst_length
        assert fast.decays == reference.decays

    def test_unstable_weights_match_reference(self):
        """Past the stability boundary the burst rings — still bit-identical."""
        dfe = LmsDfe(n_taps=2)
        weights = np.array([1.2, 0.6])
        reference = _reference_burst(weights, horizon=64)
        fast = dfe.error_propagation(weights, PRBS7_LEVELS, horizon=64)
        assert _bytes_equal(fast.wrong_decisions, reference.wrong_decisions)
        assert _bytes_equal(fast.deviation_per_ui, reference.deviation_per_ui)


class TestEventKernelBitIdentity:
    @staticmethod
    def _runs(monkeypatch, config, seed):
        """(drain run, step-loop run) of one behavioural channel."""
        bits = prbs_sequence(7, 220)
        fast = BehavioralCdrChannel(config).run(bits, rng=np.random.default_rng(seed))
        monkeypatch.setattr(Simulator, "run_until", _reference_run_until)
        reference = BehavioralCdrChannel(config).run(bits, rng=np.random.default_rng(seed))
        return fast, reference

    def test_behavioral_channel_matches_reference_drain(self, monkeypatch):
        fast, reference = self._runs(monkeypatch, None, 7)
        assert _bytes_equal(fast.sampled_bits, reference.sampled_bits)
        assert _bytes_equal(fast.sample_times_s, reference.sample_times_s)
        assert fast.ber().errors == reference.ber().errors
        assert fast.ber().compared_bits == reference.ber().compared_bits

    def test_jittered_channel_matches_reference_drain(self, monkeypatch):
        config = CdrChannelConfig(gate_jitter_sigma_fraction=0.01)
        fast, reference = self._runs(monkeypatch, config, 11)
        assert _bytes_equal(fast.sampled_bits, reference.sampled_bits)
        assert _bytes_equal(fast.sample_times_s, reference.sample_times_s)


LINK = LinkConfig(
    channel=LossyLineChannel.for_loss_at_nyquist(6.0, LinkConfig().timebase.bit_rate_hz),
    tx_ffe=TxFfe.de_emphasis(post_db=2.0),
    rx_ctle=RxCtle(peaking_db=4.0),
    dfe=LmsDfe(n_taps=2, step_size=0.02, n_epochs=30),
)

DECISION_DIRECTED_LINK = replace(
    LINK, dfe=LmsDfe(n_taps=2, step_size=0.015, n_epochs=30, decision_directed=True))


class TestTrainedLinkBitIdentity:
    @staticmethod
    def _edges(link, monkeypatch):
        """(scalar-loop edges, reference-loop edges) of one trained link."""
        bits = prbs_sequence(7, 254)
        fast = LinkPath(link).transmit(bits, pattern_period=127)
        monkeypatch.setattr(LmsDfe, "adapt", _reference_adapt)
        reference = LinkPath(link).transmit(bits, pattern_period=127)
        return fast.edge_times_s, reference.edge_times_s

    def test_link_edge_stream_matches_reference(self, monkeypatch):
        fast, reference = self._edges(LINK, monkeypatch)
        assert _bytes_equal(fast, reference)

    def test_decision_directed_link_matches_reference(self, monkeypatch):
        fast, reference = self._edges(DECISION_DIRECTED_LINK, monkeypatch)
        assert _bytes_equal(fast, reference)

    def test_trained_link_sweep_at_any_worker_count(self, monkeypatch):
        """Full link sweep: scalar loops == reference, worker-invariant."""
        spec = ScenarioSpec(
            stimulus=StimulusSpec(n_bits=254),
            jitter=JitterSpec(rj_ui_rms=0.01),
            link=LINK,
        )
        axis = ParameterAxis("sj_amplitude_ui_pp", (0.0, 0.2))
        serial = run_grid(spec, [axis], seed=9, workers=1)
        pooled = run_grid(spec, [axis], seed=9, workers=2)
        assert _bytes_equal(serial.metric("errors"), pooled.metric("errors"))
        assert _bytes_equal(serial.metric("compared"), pooled.metric("compared"))

        # Rerun in-process on the pinned reference loops: the scalar
        # recursion must not have changed a single bit of the sweep.
        monkeypatch.setattr(LmsDfe, "adapt", _reference_adapt)
        reference = run_grid(spec, [axis], seed=9, workers=1)
        assert _bytes_equal(serial.metric("errors"), reference.metric("errors"))
        assert _bytes_equal(serial.metric("compared"), reference.metric("compared"))


class TestVectorizedTapArithmetic:
    """Satellite regression pins: the vectorized tap paths equal the old loops."""

    FFE = TxFfe.de_emphasis(pre_db=1.5, post_db=3.5)

    def test_apply_to_symbols_matches_roll_loop(self):
        symbols = PRBS7_LEVELS
        expected = np.zeros_like(symbols)
        for offset, tap in enumerate(self.FFE.taps):
            expected += tap * np.roll(symbols, offset - self.FFE.main_cursor)
        assert _bytes_equal(self.FFE.apply_to_symbols(symbols), expected)

    def test_frequency_response_matches_tap_loop(self):
        frequencies = np.linspace(1.0e8, 1.0e10, 37)
        unit_interval = 1.0 / 2.5e9
        expected = np.zeros(frequencies.shape, dtype=complex)
        for offset, tap in enumerate(self.FFE.taps):
            delay = (offset - self.FFE.main_cursor) * unit_interval
            expected += tap * np.exp(-2j * np.pi * frequencies * delay)
        assert _bytes_equal(
            self.FFE.frequency_response(frequencies, unit_interval), expected)

    def test_normalization_sum_matches_python_sum(self):
        ffe = TxFfe(taps=(-0.12, 0.9, -0.2), main_cursor=1).normalized()
        assert sum(abs(tap) for tap in ffe.taps) == pytest.approx(1.0, abs=1e-12)

    def test_feedback_waveform_matches_roll_loop(self):
        dfe = LmsDfe(n_taps=3)
        weights = np.array([0.25, -0.1, 0.05])
        expected = np.zeros(PRBS7_LEVELS.size)
        for offset, weight in enumerate(weights, start=1):
            expected += weight * np.roll(PRBS7_LEVELS, offset)
        expected = np.repeat(expected, 8)
        assert _bytes_equal(dfe.feedback_waveform(PRBS7_LEVELS, weights, 8), expected)

    def test_empty_weights_feedback_is_zero(self):
        dfe = LmsDfe(n_taps=1)
        waveform = dfe.feedback_waveform(PRBS7_LEVELS, np.array([]), 4)
        assert waveform.shape == (PRBS7_LEVELS.size * 4,)
        assert not waveform.any()


def _shifted(pmf, bins):
    """*pmf* translated by *bins* grid cells (mass beyond the edge drops)."""
    if bins == 0:
        return pmf
    result = np.zeros_like(pmf)
    if bins > 0:
        result[bins:] = pmf[:-bins]
    else:
        result[:bins] = pmf[-bins:]
    return result


def _two_point_convolve(pmf, shift_bins):
    """Convolve *pmf* with ``0.5·δ(+c) + 0.5·δ(−c)``, ``c = shift_bins`` cells.

    The off-grid impulse is split across bins ``m`` and ``m+1`` with the
    second-moment-preserving weight ``w = (c² − m²) / (2m + 1)``.
    """
    if shift_bins == 0.0:
        return pmf
    whole = int(np.floor(shift_bins))
    weight = (shift_bins * shift_bins - whole * whole) / (2.0 * whole + 1.0)
    result = np.zeros_like(pmf)
    for bins, mass in ((whole, 1.0 - weight), (whole + 1, weight)):
        if mass <= 0.0:
            continue
        result += (0.5 * mass) * (_shifted(pmf, bins) + _shifted(pmf, -bins))
    return result


def _reference_cursor_pmfs(shifts, n_bins, centre):
    """The cursor-PMF oracle: one column at a time, one cursor at a time."""
    pmfs = np.zeros((shifts.shape[1], n_bins))
    for column in range(shifts.shape[1]):
        pmf = np.zeros(n_bins)
        pmf[centre] = 1.0
        for shift in shifts[:, column]:
            pmf = _two_point_convolve(pmf, float(shift))
        pmfs[column] = pmf
    return pmfs


#: Cursor shifts (grid cells) of every kind the kernel must handle: zero,
#: exact integers, sub-bin residue and general off-grid values.
SHIFTS = st.one_of(
    st.just(0.0),
    st.integers(0, 6).map(float),
    st.floats(0.0, 1.0e-3),
    st.floats(0.0, 7.5),
)


@st.composite
def shift_matrices(draw):
    """``(shifts, n_bins, centre)``; the grid may be smaller than the support."""
    n_cursors = draw(st.integers(0, 9))
    n_columns = draw(st.integers(1, 7))
    size = n_cursors * n_columns
    values = draw(st.lists(SHIFTS, min_size=size, max_size=size))
    shifts = np.array(values, dtype=float).reshape(n_cursors, n_columns)
    n_bins = draw(st.integers(1, 48))
    centre = draw(st.integers(0, n_bins - 1))
    return shifts, n_bins, centre


class TestCursorPmfKernelBitIdentity:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shift_matrices())
    def test_generated_shift_matrices_match_reference(self, case):
        shifts, n_bins, centre = case
        fast = stateye._cursor_pmfs(shifts, n_bins, centre)
        assert _bytes_equal(fast, _reference_cursor_pmfs(shifts, n_bins, centre))

    def test_mixed_integer_shifts_in_one_row(self):
        """One cursor row whose columns span four integer shifts."""
        shifts = np.array(
            [
                [0.0, 0.4, 1.0, 1.7, 3.25, 0.4],
                [2.5, 0.0, 0.0, 2.5, 0.01, 5.0],
                [1.0e-6, 3.0, 0.9999999999999999, 0.5, 0.0, 2.0],
            ]
        )
        fast = stateye._cursor_pmfs(shifts, 31, 15)
        assert _bytes_equal(fast, _reference_cursor_pmfs(shifts, 31, 15))

    def test_truncating_grid_matches_reference(self):
        """Support far wider than the grid: mass drops at both edges alike."""
        shifts = np.full((6, 3), 4.6)
        fast = stateye._cursor_pmfs(shifts, 9, 2)
        reference = _reference_cursor_pmfs(shifts, 9, 2)
        assert _bytes_equal(fast, reference)
        assert reference.sum() < 3.0


_STATEYE_CHANNEL = LossyLineChannel.for_loss_at_nyquist(12.0, LinkConfig().timebase.bit_rate_hz)

#: The solve configurations pinned against the oracle: every path through
#: the cursor-PMF stage (victim ISI, trained DFE, asynchronous aggressor
#: averaging, synchronous aggressor concatenation, Gaussian noise).
STATEYE_CASES = {
    "default": (LinkConfig(), {}),
    "ffe_ctle": (
        LinkConfig(
            channel=_STATEYE_CHANNEL,
            tx_ffe=TxFfe.de_emphasis(post_db=3.0),
            rx_ctle=RxCtle(peaking_db=6.0),
        ),
        {},
    ),
    "dfe": (LinkConfig(channel=_STATEYE_CHANNEL, dfe=LmsDfe(n_taps=3)), {}),
    "async_crosstalk": (
        LinkConfig(channel=_STATEYE_CHANNEL, crosstalk=CrosstalkSpec.uniform(2, 0.05)),
        {},
    ),
    "sync_crosstalk": (
        LinkConfig(channel=_STATEYE_CHANNEL, crosstalk=CrosstalkSpec.single_next(0.08)),
        {"aggressor_phase": "synchronous"},
    ),
    "amplitude_noise": (LinkConfig(channel=_STATEYE_CHANNEL), {"amplitude_noise_rms": 0.01}),
}


class TestStatisticalEyeBitIdentity:
    @pytest.mark.parametrize("case", list(STATEYE_CASES))
    def test_solve_matches_reference_chain(self, case, monkeypatch):
        link, options = STATEYE_CASES[case]
        fast = StatisticalEyeSolver(link, **options).solve()
        monkeypatch.setattr(stateye, "_cursor_pmfs", _reference_cursor_pmfs)
        reference = StatisticalEyeSolver(link, **options).solve()
        for name in ("noise_pmf", "ber", "amplitude_ber", "timing_ber"):
            assert _bytes_equal(getattr(fast, name), getattr(reference, name)), name

    def test_training_matches_reference_chain(self, monkeypatch):
        training = TrainingBudget(
            tx_post_db=(0.0, 3.5), ctle_peaking_db=(3.0, 6.0), refine_rounds=1
        )
        link = LinkConfig(channel=_STATEYE_CHANNEL)
        fast = LinkTrainer(link, training=training).train()
        monkeypatch.setattr(stateye, "_cursor_pmfs", _reference_cursor_pmfs)
        reference = LinkTrainer(link, training=training).train()
        assert fast == reference
