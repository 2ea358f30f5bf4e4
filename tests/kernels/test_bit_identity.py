"""Golden bit-identity pins: every hot loop must match its reference.

The pinned numpy DFE loops kept here as oracles (``_adapt_reference``,
``_adapt_decision_directed``, ``_error_propagation_reference``) and the
:meth:`Simulator.step` loop are the semantic reference; the scalar DFE
recursions behind ``LmsDfe.adapt``/``error_propagation`` and the one
event drain behind ``Simulator.run_until`` must reproduce them **byte
for byte** on pinned
PRBS7 configurations — adapted taps, per-epoch errors, decision-error
diagnostics, error-propagation bursts, event counts and full
trained-link sweeps at any worker count.  The statistical eye's
grouped cursor-PMF kernel is pinned the same way against the
one-PMF-at-a-time two-point convolution chain kept here as its oracle:
on generated shift matrices, on whole solves and on a training run.  The
fast path's gated-ring recurrence is pinned against the closure-based
three-way merge loop it replaced (``_ring_recurrence_reference``): on
generated EDET streams, jittered and not, including the ``rng`` draws it
consumes and the clock values derived from its times, on long streams
whose settled gate-high spans the bulk step takes and whose unsettled
ones it hands to the scalar loop and back, and on whole
``FastCdrChannel`` runs.  Whole-channel
comparisons monkeypatch the reference loop in, on an empty link memo, and
assert it ran — a memoized displacement table would skip it.  These tests
byte-compare arrays (``.tobytes()``), not approximately.  The event
kernel's own oracle — the reference transport queue, gates and scalar
draws — lives in ``test_event_kernel_oracle.py``.
"""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs_sequence
from repro.events.kernel import Simulator
from repro.experiments import ParameterAxis, ScenarioSpec, StimulusSpec, run_grid
from repro.fastpath import FastCdrChannel
from repro.fastpath import engine as fast_engine
from repro.gates.ring import GccoParameters
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
from repro.link.equalization import _DEVIATION_SNAP, _lms_data_aided
from repro.link.isi import nrz_symbol_levels
from repro.link.memo import clear_link_memo
from repro.link.training import LinkTrainer, TrainingBudget

PRBS7_BITS = prbs_sequence(7)
PRBS7_LEVELS = nrz_symbol_levels(PRBS7_BITS)
#: The pinned "received waveform": PRBS7 levels plus deterministic
#: pseudo-ISI perturbations — enough structure for non-trivial adaptation.
PRBS7_SAMPLES = PRBS7_LEVELS + np.random.default_rng(1234).normal(0.0, 0.18, PRBS7_LEVELS.size)


def _bytes_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.dtype == right.dtype and left.tobytes() == right.tobytes()


def _adapt_reference(dfe: LmsDfe, samples: np.ndarray, levels: np.ndarray) -> DfeAdaptation:
    """Pinned pure-python data-aided recursion — the semantic reference.

    The operation order here is load-bearing: ``_lms_data_aided`` must
    perform these IEEE-754 operations in this exact order so its results
    stay bit-for-bit identical.
    """
    weights = np.zeros(dfe.n_taps)
    error_rms = np.zeros(dfe.n_epochs)
    for epoch in range(dfe.n_epochs):
        squared = 0.0
        for k in range(samples.size):
            history = levels[(k - 1 - np.arange(dfe.n_taps)) % levels.size]
            feedback = 0.0
            for weight, tap in zip(weights, history):
                feedback += weight * tap
            error = (samples[k] - feedback) - levels[k]
            weights += dfe.step_size * error * history
            squared += error * error
        error_rms[epoch] = math.sqrt(squared / samples.size)
    return DfeAdaptation(weights=weights, error_rms_per_epoch=error_rms)


def _adapt_decision_directed(
    dfe: LmsDfe, samples: np.ndarray, levels: np.ndarray
) -> DfeAdaptation:
    """Pinned blind LMS: history and error reference are slicer decisions.

    The decision register is bootstrapped by slicing the raw samples
    (the zero-weight corrected waveform) and persists across epochs,
    so the recursion sees exactly what a free-running receiver would.
    Operation order is load-bearing (see :func:`_adapt_reference`).
    """
    decisions = np.where(samples >= 0.0, 1.0, -1.0)
    weights = np.zeros(dfe.n_taps)
    error_rms = np.zeros(dfe.n_epochs)
    decision_errors = np.zeros(dfe.n_epochs)
    for epoch in range(dfe.n_epochs):
        squared = 0.0
        wrong = 0
        for k in range(samples.size):
            history = decisions[(k - 1 - np.arange(dfe.n_taps)) % decisions.size]
            feedback = 0.0
            for weight, tap in zip(weights, history):
                feedback += weight * tap
            corrected = samples[k] - feedback
            decision = 1.0 if corrected >= 0.0 else -1.0
            decisions[k] = decision
            error = corrected - decision
            weights += dfe.step_size * error * history
            squared += error * error
            wrong += decision != levels[k]
        error_rms[epoch] = math.sqrt(squared / samples.size)
        decision_errors[epoch] = wrong / samples.size
    return DfeAdaptation(
        weights=weights,
        error_rms_per_epoch=error_rms,
        decision_error_rate_per_epoch=decision_errors,
    )


def _error_propagation_reference(
    samples: np.ndarray,
    levels: np.ndarray,
    weights: np.ndarray,
    start: int,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pinned slicer/feedback recursion after the forced error.

    Operation order is load-bearing (see :func:`_adapt_reference`).
    """
    decisions = levels.copy()
    decisions[start] = -levels[start]
    wrong = np.zeros(steps, dtype=bool)
    deviation = np.zeros(steps)
    for step in range(1, steps + 1):
        k = (start + step) % levels.size
        history = decisions[(k - 1 - np.arange(weights.size)) % levels.size]
        feedback = 0.0
        for weight, tap in zip(weights, history):
            feedback += weight * tap
        corrected = samples[k] - feedback
        decision = 1.0 if corrected >= 0.0 else -1.0
        decisions[k] = decision
        wrong[step - 1] = decision != levels[k]
        gap = abs(corrected - levels[k])
        deviation[step - 1] = gap if gap > _DEVIATION_SNAP else 0.0
    return wrong, deviation


def _reference_adapt(self, ui_samples, symbols):
    """``LmsDfe.adapt`` on the pinned numpy loops."""
    samples = np.asarray(ui_samples, dtype=float).ravel()
    levels = np.asarray(symbols, dtype=float).ravel()
    if self.decision_directed:
        return _adapt_decision_directed(self, samples, levels)
    return _adapt_reference(self, samples, levels)


def _patch_reference_adapt(monkeypatch) -> list:
    """Route ``LmsDfe.adapt`` to the pinned loops from an empty link memo.

    Returns the list of configurations the reference loop ran for, so a
    test can assert the oracle was exercised rather than served a
    memoized table.
    """
    calls = []

    def reference_adapt(self, ui_samples, symbols):
        calls.append(self)
        return _reference_adapt(self, ui_samples, symbols)

    monkeypatch.setattr(LmsDfe, "adapt", reference_adapt)
    clear_link_memo()
    return calls


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
        reference = _adapt_reference(dfe, PRBS7_SAMPLES, PRBS7_LEVELS)
        fast = DATA_AIDED_ENTRIES[entry](dfe, PRBS7_SAMPLES, PRBS7_LEVELS)
        assert _bytes_equal(fast.weights, reference.weights)
        assert _bytes_equal(fast.error_rms_per_epoch, reference.error_rms_per_epoch)
        assert fast.decision_error_rate_per_epoch is None

    @pytest.mark.parametrize("n_taps", [1, 2, 4])
    def test_decision_directed_matches_reference(self, n_taps):
        dfe = LmsDfe(n_taps=n_taps, step_size=0.015, n_epochs=30,
                     decision_directed=True)
        reference = _adapt_decision_directed(dfe, PRBS7_SAMPLES, PRBS7_LEVELS)
        fast = dfe.adapt(PRBS7_SAMPLES, PRBS7_LEVELS)
        assert _bytes_equal(fast.weights, reference.weights)
        assert _bytes_equal(fast.error_rms_per_epoch, reference.error_rms_per_epoch)
        assert _bytes_equal(fast.decision_error_rate_per_epoch,
                            reference.decision_error_rate_per_epoch)

    def test_default_kernel_is_bit_identical_to_reference(self):
        """The default ``LmsDfe()`` line-up (40 epochs) on the adapt loop."""
        dfe = LmsDfe()
        default = dfe.adapt(PRBS7_SAMPLES, PRBS7_LEVELS)
        reference = _adapt_reference(dfe, PRBS7_SAMPLES, PRBS7_LEVELS)
        assert _bytes_equal(default.weights, reference.weights)
        assert _bytes_equal(default.error_rms_per_epoch, reference.error_rms_per_epoch)


def _reference_burst(weights, error_index=0, horizon=None):
    """``LmsDfe.error_propagation`` on the pinned reference recursion."""
    weights = np.asarray(weights, dtype=float)
    samples = LmsDfe._ideal_postcursor_waveform(PRBS7_LEVELS, weights)
    steps = 8 * weights.size if horizon is None else horizon
    wrong, deviation = _error_propagation_reference(
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
        calls = _patch_reference_adapt(monkeypatch)
        reference = LinkPath(link).transmit(bits, pattern_period=127)
        assert calls == [link.dfe], "the reference DFE loop never ran"
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
        calls = _patch_reference_adapt(monkeypatch)
        reference = run_grid(spec, [axis], seed=9, workers=1)
        assert calls, "the reference DFE loop never ran"
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


def _reference_cursor_pmfs(shifts, half_bins):
    """The cursor-PMF oracle: one column at a time, one cursor at a time.

    Every bin of the centred ``2·half_bins + 1`` grid is computed; nothing
    relies on mirror symmetry.
    """
    n_bins = 2 * half_bins + 1
    pmfs = np.zeros((shifts.shape[1], n_bins))
    for column in range(shifts.shape[1]):
        pmf = np.zeros(n_bins)
        pmf[half_bins] = 1.0
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
    """``(shifts, half_bins)``; the grid may be smaller or far wider than the support.

    ``half_bins`` 0–96 spans centred grids of 1–193 bins, against supports
    of up to 9 · 8 cells each side: some grids truncate mid-chain, most
    leave the kernel's per-row support bound well inside the grid.
    """
    n_cursors = draw(st.integers(0, 9))
    n_columns = draw(st.integers(1, 7))
    size = n_cursors * n_columns
    values = draw(st.lists(SHIFTS, min_size=size, max_size=size))
    shifts = np.array(values, dtype=float).reshape(n_cursors, n_columns)
    return shifts, draw(st.integers(0, 96))


def _training_like_shifts(n_rows=63, n_columns=32, seed=23):
    """A link-training-sized shift matrix: a wide first cursor, a decaying tail.

    The first row spreads 0–22 cells across the phases like a trained
    link's main post-cursor; the tail decays to sub-bin residue, with some
    rows exactly zero and some columns at exact integer shifts.
    """
    rng = np.random.default_rng(seed)
    envelope = 22.0 * np.exp(-np.arange(n_rows) / 2.5)[:, None] + 0.6
    shifts = envelope * rng.uniform(0.0, 1.0, (n_rows, n_columns))
    shifts[rng.uniform(size=n_rows) < 0.15] = 0.0
    shifts[rng.uniform(size=shifts.shape) < 0.05] = 1.0
    return shifts


class TestCursorPmfKernelBitIdentity:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shift_matrices())
    def test_generated_shift_matrices_match_reference(self, case):
        shifts, half_bins = case
        fast = stateye._cursor_pmfs(shifts, half_bins)
        assert _bytes_equal(fast, _reference_cursor_pmfs(shifts, half_bins))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shift_matrices())
    def test_reference_pmfs_are_bitwise_mirror_symmetric(self, case):
        """The property the half-grid kernel rests on, checked on the oracle."""
        reference = _reference_cursor_pmfs(*case)
        assert _bytes_equal(reference, np.ascontiguousarray(reference[:, ::-1]))

    def test_mixed_integer_shifts_in_one_row(self):
        """One cursor row whose columns span four integer shifts."""
        shifts = np.array(
            [
                [0.0, 0.4, 1.0, 1.7, 3.25, 0.4],
                [2.5, 0.0, 0.0, 2.5, 0.01, 5.0],
                [1.0e-6, 3.0, 0.9999999999999999, 0.5, 0.0, 2.0],
            ]
        )
        fast = stateye._cursor_pmfs(shifts, 15)
        assert _bytes_equal(fast, _reference_cursor_pmfs(shifts, 15))

    def test_truncating_grid_matches_reference(self):
        """Support far wider than the grid: mass drops at both edges alike.

        The shifts reach past the 5-bin grid and past the mirrored margin
        below its centre.
        """
        shifts = np.full((6, 3), 4.6)
        fast = stateye._cursor_pmfs(shifts, 2)
        reference = _reference_cursor_pmfs(shifts, 2)
        assert _bytes_equal(fast, reference)
        assert reference.sum() < 3.0

    def test_dead_rows_between_live_rows(self):
        """All-zero rows are skipped and leave the support bound where it was."""
        live = np.array([[2.5, 0.3, 4.0], [1.0, 0.0, 0.7], [3.2, 3.2, 0.01]])
        shifts = np.zeros((8, 3))
        shifts[[0, 3, 7]] = live
        for half_bins in (4, 12, 40):
            fast = stateye._cursor_pmfs(shifts, half_bins)
            assert _bytes_equal(fast, _reference_cursor_pmfs(shifts, half_bins))
            assert _bytes_equal(fast, stateye._cursor_pmfs(live, half_bins))

    def test_support_reaching_the_grid_edge_mid_chain(self):
        """The bound grows 4, 7, 10 cells, then clips at the 11-bin half grid."""
        shifts = np.array([[2.5, 2.0, 2.9]] * 6)
        fast = stateye._cursor_pmfs(shifts, 10)
        reference = _reference_cursor_pmfs(shifts, 10)
        assert _bytes_equal(fast, reference)
        assert _reference_cursor_pmfs(shifts[:3], 10).sum() == pytest.approx(3.0)
        assert reference.sum() < 3.0

    def test_link_training_sized_matrix(self):
        """63 cursors × 32 phases on a 461-bin grid, the support well inside it."""
        shifts = _training_like_shifts()
        fast = stateye._cursor_pmfs(shifts, 230)
        reference = _reference_cursor_pmfs(shifts, 230)
        assert _bytes_equal(fast, reference)
        assert not reference[:, :50].any()

    def test_negative_half_bins_is_rejected(self):
        with pytest.raises(ValueError, match="half_bins"):
            stateye._cursor_pmfs(np.ones((2, 3)), -1)


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


def _ring_recurrence_reference(
    edet_times,
    *,
    t_gate,
    t_feedback,
    t_stage,
    duration_s,
    n_stages,
    sigma,
    rng,
    improved_tap,
):
    """The gated-ring oracle: a three-way merge with ``delay``/``push0`` closures.

    Every event — EDET toggle, ring feedback or pending stage-0 apply — goes
    through the merge; jitter is drawn one ``delay()`` call at a time from
    4096-draw blocks of *rng*.
    """
    inf = float("inf")
    n_inverters = n_stages - 1
    improved_hops = n_stages - 2
    last_parity = n_inverters & 1
    improved_parity = improved_hops & 1

    edet = edet_times.tolist()
    n_edet = len(edet)
    i_edet = 0
    gate_level = 1

    p0_t, p0_v = [], []
    h0 = 0
    fb_t, fb_v = [], []
    hf = 0

    clock_t, clock_v = [], []

    v0 = 0
    v_last = (n_stages - 1) & 1

    jitter = sigma > 0.0 and rng is not None
    if jitter:
        buffer = rng.standard_normal(4096)
        buf_i = 0

        def draw():
            nonlocal buffer, buf_i
            if buf_i >= buffer.size:
                buffer = rng.standard_normal(4096)
                buf_i = 0
            value = buffer[buf_i]
            buf_i += 1
            return value

        def delay(base):
            scaled = base * (1.0 + sigma * draw())
            return scaled if scaled > 1.0e-15 else 1.0e-15
    else:
        def delay(base):
            return base

    def push0(time_s, value):
        # Transport semantics: cancel pending applies at or after time_s.
        nonlocal h0
        while len(p0_t) > h0 and p0_t[-1] >= time_s:
            p0_t.pop()
            p0_v.pop()
        p0_t.append(time_s)
        p0_v.append(value)

    push0(0.0 + delay(t_feedback), v_last & gate_level)

    while True:
        t_e = edet[i_edet] if i_edet < n_edet else inf
        t_0 = p0_t[h0] if h0 < len(p0_t) else inf
        t_f = fb_t[hf] if hf < len(fb_t) else inf

        if t_0 <= t_e and t_0 <= t_f:
            if t_0 > duration_s:
                break
            value = p0_v[h0]
            h0 += 1
            if value != v0:
                v0 = value
                time_s = t_0
                for hop in range(n_inverters):
                    time_s = time_s + delay(t_stage)
                    if improved_tap and hop == improved_hops - 1:
                        clock_t.append(time_s)
                        clock_v.append(value ^ improved_parity)
                new_last = value ^ last_parity
                if not improved_tap:
                    clock_t.append(time_s)
                    clock_v.append(1 - new_last)
                fb_t.append(time_s)
                fb_v.append(new_last)
        elif t_f <= t_e:
            if t_f > duration_s:
                break
            v_last = fb_v[hf]
            hf += 1
            push0(t_f + delay(t_feedback), v_last & gate_level)
        else:
            if t_e > duration_s or t_e == inf:
                break
            gate_level = 1 - gate_level
            i_edet += 1
            push0(t_e + delay(t_gate), v_last & gate_level)

    return clock_t, clock_v


#: Stage delay of the paper's 2.5 GHz four-stage ring.
STAGE_DELAY_S = 50.0e-12

#: Gaps between consecutive EDET toggles: coincident, closer than one stage
#: delay, and the free-running spans between data edges.
EDET_GAPS = st.one_of(
    st.just(0.0),
    st.floats(0.0, STAGE_DELAY_S),
    st.floats(STAGE_DELAY_S, 24.0 * STAGE_DELAY_S),
)


@st.composite
def ring_kwargs(draw, stage_counts=(4, 6), sigmas=(0.0, 0.01, 0.6, 3.0)):
    """Recurrence keyword arguments without ``duration_s``."""
    n_stages = draw(st.sampled_from(stage_counts))
    scale = draw(st.sampled_from([1.0, 1.03, 0.97]))
    stage = STAGE_DELAY_S * 4 / n_stages
    skew = draw(st.sampled_from([0.0, 5.0e-12, 1.6 * STAGE_DELAY_S]))
    return {
        "t_gate": (stage + skew) * scale,
        "t_feedback": (stage + 0.0) * scale,
        "t_stage": stage * scale,
        "n_stages": n_stages,
        "sigma": draw(st.sampled_from(sigmas)),
        "improved_tap": draw(st.booleans()),
    }


@st.composite
def ring_cases(draw):
    """``(edet_times, recurrence keyword arguments, rng seed)``."""
    gaps = draw(st.lists(EDET_GAPS, max_size=40))
    edet = draw(st.floats(0.0, 2.0e-9)) + np.cumsum(np.array(gaps, dtype=float))
    last = float(edet[-1]) if edet.size else 0.0
    if edet.size and draw(st.booleans()):
        # The toggle stream runs past the horizon.
        duration = draw(st.floats(0.0, 1.0)) * last
    else:
        duration = last + draw(st.floats(0.0, 4.0e-9))
    kwargs = {**draw(ring_kwargs()), "duration_s": duration}
    return edet, kwargs, draw(st.integers(0, 2**32 - 1))


@st.composite
def tie_cases(draw):
    """Generated cases plus EDET toggles placed exactly on ring event times.

    A run of the oracle on the generated toggles (same seed, so the same
    draws up to the first added toggle) gives the feedback times ``F``;
    added toggles land on ``F[k]`` (a feedback tie), ``F[k] + t_feedback``
    (an unjittered stage-0 apply tie) or ``F[k] + 1 fs`` (the apply time
    after a clipped jitter draw), in free-running and gated states alike.
    """
    edet, kwargs, seed = draw(ring_cases())
    feedback, _ = _ring_recurrence_reference(
        edet, rng=np.random.default_rng(seed), **{**kwargs, "improved_tap": False}
    )
    if not feedback:
        return edet, kwargs, seed
    indices = st.integers(0, len(feedback) - 1)
    offsets = st.sampled_from([0.0, kwargs["t_feedback"], 1.0e-15])
    picks = draw(st.lists(st.tuples(indices, offsets), min_size=1, max_size=4))
    ties = [feedback[index] + offset for index, offset in picks]
    return np.sort(np.concatenate((edet, ties))), kwargs, seed


@st.composite
def long_ring_cases(draw):
    """Long EDET streams: PRBS-like gate-high spans with unsettled ones mixed in.

    Every data edge makes a fall and, one EDET-low time later, a rise; the
    gate-high spans last a PRBS-like run of one to seven unit intervals.
    At random edges the pair is replaced by an unsettled one: a gate-high
    span shorter than a stage delay, coincident toggles, or a rise before
    the ring drains.  Toggles are then moved onto the oracle's feedback
    and stage-0 apply times, or one float step off them, and the horizon
    may cut inside a span.  The stream itself comes from a drawn seed, so
    hundreds of toggles cost one draw.
    """
    kwargs = draw(ring_kwargs(stage_counts=(4, 6, 5), sigmas=(0.0, 0.0, 0.0, 0.02)))
    stage = kwargs["t_stage"]
    unit = 2 * kwargs["n_stages"] * stage
    unsettled_rate = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_edges = draw(st.integers(100, 250))

    runs = np.minimum(stream.geometric(0.5, n_edges), 7)
    low = stream.uniform(0.55, 0.8, n_edges) * unit
    high = runs * unit - low
    kind = np.where(stream.random(n_edges) < unsettled_rate, stream.integers(1, 5, n_edges), 0)
    high = np.where(kind == 1, stream.uniform(0.0, stage, n_edges), high)
    high = np.where(kind == 2, 0.0, high)
    low = np.where(kind == 3, 0.0, low)
    low = np.where(kind == 4, stream.uniform(0.0, kwargs["n_stages"] * stage, n_edges), low)
    gaps = np.empty(2 * n_edges)
    gaps[0::2], gaps[1::2] = high, low
    edet = stream.uniform(0.0, 2.0e-9) + np.cumsum(gaps)

    if draw(st.booleans()):
        # The horizon cuts inside a span.
        cut = draw(st.integers(0, edet.size - 2))
        duration = edet[cut] + draw(st.floats(0.0, 1.0)) * (edet[cut + 1] - edet[cut])
    else:
        duration = float(edet[-1]) + 4.0e-9
    kwargs = {**kwargs, "duration_s": float(duration)}

    seed = draw(st.integers(0, 2**32 - 1))
    feedback, _ = _ring_recurrence_reference(
        edet, rng=np.random.default_rng(seed), **{**kwargs, "improved_tap": False}
    )
    for _ in range(draw(st.integers(0, 6)) if feedback else 0):
        time_s = feedback[draw(st.integers(0, len(feedback) - 1))]
        time_s += draw(st.sampled_from([0.0, kwargs["t_feedback"], 1.0e-15]))
        # One float step either side of the tie.
        time_s = np.nextafter(time_s, draw(st.sampled_from([time_s, -np.inf, np.inf])))
        index = int(np.searchsorted(edet, time_s))
        # Move the toggle before or after time_s onto it.
        index -= draw(st.booleans())
        if 0 <= index < edet.size:
            edet[index] = time_s
            edet.sort()
    return edet, kwargs, seed


def _falls_beside_feedback(kwargs, n_spans, seed):
    """EDET whose every fall lies one float step from a feedback time of its span.

    Each gate-high span free-runs from its start (the time-zero kick, then
    each rise plus ``t_gate``) with the recurrence's own sequential adds;
    its fall lands one float step before or after the feedback of a
    random stage-0 change, and the next rise follows once the ring has
    drained.  The bulk step's estimate of the span length is then off, one
    change too many or too few, for a third to a half of the spans.
    """
    stream = np.random.default_rng(seed)
    t_stage, t_feedback = kwargs["t_stage"], kwargs["t_feedback"]
    drain = kwargs["t_gate"] + kwargs["n_stages"] * t_stage
    edet = []
    change = 0.0 + t_feedback
    for _ in range(n_spans):
        for _ in range(stream.integers(0, 6)):
            for _ in range(kwargs["n_stages"] - 1):
                change = change + t_stage
            change = change + t_feedback
        feedback = change
        for _ in range(kwargs["n_stages"] - 1):
            feedback = feedback + t_stage
        fall = np.nextafter(feedback, stream.choice([-np.inf, np.inf]))
        rise = fall + drain * stream.uniform(1.05, 1.5)
        edet += [fall, rise]
        change = rise + kwargs["t_gate"]
    return np.array(edet)


class _SliceLog(np.ndarray):
    """Span times that log the slices taken from them: one per bulk step."""

    def __getitem__(self, key):
        self.log.append(key)
        return np.asarray(self)[key]


def _log_bulk_steps(monkeypatch) -> list:
    """Patch ``_settled_spans`` to log the recurrence's bulk steps; return the log."""
    log = []
    settled_spans = fast_engine._settled_spans

    def logged(edet, **kwargs):
        settled, offsets, times = settled_spans(edet, **kwargs)
        times = times.view(_SliceLog)
        times.log = log
        return settled, offsets, times

    monkeypatch.setattr(fast_engine, "_settled_spans", logged)
    return log


def _ring_pair(edet, kwargs, seed):
    """Run the recurrence and its oracle on equal seeds; check both agree.

    The oracle's clock values must be the alternating ones the channel
    derives from the times.
    """
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    clock_t = fast_engine._ring_recurrence(edet, rng=rng, **kwargs)
    ref_t, ref_v = _ring_recurrence_reference(edet, rng=reference_rng, **kwargs)
    _, clock_v = fast_engine._clock_levels(clock_t.size, kwargs["n_stages"], kwargs["improved_tap"])
    assert _bytes_equal(clock_t, np.asarray(ref_t, dtype=float))
    assert _bytes_equal(clock_v, np.asarray(ref_v, dtype=np.int64))
    # Same draws consumed: the next draw of each generator matches.
    assert rng.random() == reference_rng.random()
    return clock_t


class TestRingRecurrenceBitIdentity:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(ring_cases())
    def test_generated_edet_streams_match_reference(self, case):
        _ring_pair(*case)

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_free_run_past_one_draw_block(self, sigma):
        """A long free run with no toggles refills the draw buffer."""
        clock_t = _ring_pair(
            np.zeros(0),
            {
                "t_gate": STAGE_DELAY_S,
                "t_feedback": STAGE_DELAY_S,
                "t_stage": STAGE_DELAY_S,
                "duration_s": 300.0e-9,
                "n_stages": 4,
                "sigma": sigma,
                "improved_tap": False,
            },
            seed=3,
        )
        assert len(clock_t) > 4096 // 3

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tie_cases())
    def test_toggles_on_ring_event_times_match_reference(self, case):
        _ring_pair(*case)

    def test_long_streams_hand_off_between_bulk_and_scalar(self, monkeypatch):
        """Bulk and scalar steps alternate within runs and stay exact.

        A run with two or more bulk steps went bulk -> scalar -> bulk: each
        bulk step ends at the first unsettled span, which the scalar loop
        must then run.
        """
        log = _log_bulk_steps(monkeypatch)
        steps_per_case = []

        @settings(max_examples=80, deadline=None, derandomize=True)
        @given(long_ring_cases())
        def check(case):
            log.clear()
            _ring_pair(*case)
            steps_per_case.append(len(log))

        check()
        assert sum(steps >= 2 for steps in steps_per_case) >= 10, steps_per_case

    @pytest.mark.parametrize("skew", [0.0, 5.0e-12, 1.6 * STAGE_DELAY_S])
    @pytest.mark.parametrize("n_stages", [4, 6])
    @pytest.mark.parametrize("improved_tap", [False, True])
    def test_falls_one_step_from_feedback_match_reference(self, skew, n_stages, improved_tap):
        stage = STAGE_DELAY_S * 4 / n_stages
        kwargs = {
            "t_gate": stage + skew,
            "t_feedback": stage + 0.0,
            "t_stage": stage,
            "n_stages": n_stages,
            "sigma": 0.0,
            "improved_tap": improved_tap,
        }
        edet = _falls_beside_feedback(kwargs, n_spans=300, seed=n_stages)
        _ring_pair(edet, {**kwargs, "duration_s": float(edet[-1])}, seed=0)

    def test_paper_channel_settles_every_span(self, monkeypatch):
        """On the paper's channel the bulk step takes every gate-high span."""
        calls = []
        ring_recurrence = fast_engine._ring_recurrence

        def capture(edet_times, **kwargs):
            calls.append((edet_times, kwargs))
            return ring_recurrence(edet_times, **kwargs)

        monkeypatch.setattr(fast_engine, "_ring_recurrence", capture)
        FastCdrChannel().run(prbs_sequence(7, 400), rng=np.random.default_rng(5))
        [(edet_times, kwargs)] = calls
        del kwargs["sigma"], kwargs["rng"]
        settled, _, _ = fast_engine._settled_spans(edet_times, **kwargs)
        assert settled.size == edet_times.size // 2
        assert settled.all()


def _load_equivalence_corpus():
    """``CORPUS`` of ``tests/fastpath/test_equivalence.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "fastpath" / "test_equivalence.py"
    spec = importlib.util.spec_from_file_location("_fastpath_equivalence_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CORPUS


#: A jittered ring with gating-input skew, sampled on the improved tap.
JITTERED_SKEWED_IMPROVED = CdrChannelConfig(
    oscillator=GccoParameters(jitter_sigma_fraction=0.02, gating_input_skew_s=8.0e-12),
    improved_sampling=True,
    gate_jitter_sigma_fraction=0.02,
)

#: (label, config, jitter, transmitter ppm): two jittered rings plus the
#: zero-gate-jitter equivalence corpus.
RING_CHANNEL_CASES = [
    ("paper_nominal", CdrChannelConfig.paper_nominal(), JitterSpec(), 0.0),
    ("jittered_skewed_improved", JITTERED_SKEWED_IMPROVED, JitterSpec(sj_amplitude_ui_pp=0.2), 0.0),
    *_load_equivalence_corpus(),
]
RING_CHANNEL_IDS = [case[0] for case in RING_CHANNEL_CASES]


class TestFastChannelRingBitIdentity:
    @pytest.mark.parametrize("label,config,jitter,ppm", RING_CHANNEL_CASES, ids=RING_CHANNEL_IDS)
    def test_run_matches_reference_recurrence(self, label, config, jitter, ppm, monkeypatch):
        bits = prbs_sequence(7, 400)

        def run():
            return FastCdrChannel(config).run(
                bits, jitter=jitter, data_rate_offset_ppm=ppm, rng=np.random.default_rng(17)
            )

        fast = run()
        calls = []

        def reference_recurrence(edet_times, **kwargs):
            clock_t, clock_v = _ring_recurrence_reference(edet_times, **kwargs)
            stages, improved = kwargs["n_stages"], kwargs["improved_tap"]
            _, derived = fast_engine._clock_levels(len(clock_t), stages, improved)
            assert _bytes_equal(derived, np.asarray(clock_v, dtype=np.int64))
            calls.append(edet_times)
            return np.asarray(clock_t, dtype=float)

        monkeypatch.setattr(fast_engine, "_ring_recurrence", reference_recurrence)
        reference = run()
        assert len(calls) == 1, "the reference ring loop never ran"
        assert _bytes_equal(fast.sample_times_s, reference.sample_times_s)
        assert _bytes_equal(fast.sampled_bits, reference.sampled_bits)
        for name in ("edet", "clock", "dout"):
            edges = fast.trace(name).edges("any")
            assert _bytes_equal(edges, reference.trace(name).edges("any")), name
