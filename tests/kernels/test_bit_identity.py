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
generated EDET streams, including the clock values derived from its
times, on long streams
whose settled gate-high spans the bulk step takes and whose unsettled
ones it hands to the scalar loop and back, on streams at the settled-span
step's one-block bound and one change past it (each path counted), on
streams with no span, on zero to three toggles with the horizon on the
last, and on whole ``FastCdrChannel`` runs.  The sampler's DDIN lookup
is pinned against ``searchsorted(side="left")`` one below, at and one
above its size bound (samples on DDIN edges, before the first and after
the last, no edge at all), and a run long enough to rank against the
event kernel.  The settled-span step's column pass is pinned
against the row-major sorted blocks it replaced
(``_settled_spans_reference``): on runs of 30 to 80 identical digits,
whose tall rows finish in row-wise slabs, at one slab's bound and one
change past it, and with a feedback input slower than the gating input;
one pass on a 400 000-bit stream must hold no matrix of every span.
``ber()``'s timing alignment is pinned against the masked scatter it
replaced.  Whole-channel
comparisons monkeypatch the reference loop in, on an empty link memo, and
assert it ran — a memoized displacement table would skip it.  These tests
byte-compare arrays (``.tobytes()``), not approximately.  The event
kernel's own oracle — the reference transport queue, gates and scalar
draws — lives in ``test_event_kernel_oracle.py``.
"""

import contextlib
import importlib.util
import math
import signal
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cdr_channel import BehavioralCdrChannel, BehavioralSimulationResult
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec, NrzEdgeStream, generate_edge_times
from repro.datapath.prbs import prbs_sequence
from repro.events.kernel import Simulator
from repro.experiments import ParameterAxis, ScenarioSpec, StimulusSpec, run_grid
from repro.fastpath import FastCdrChannel
from repro.fastpath import engine as fast_engine
from repro.fastpath.traces import EdgeArrays
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
    improved_tap,
):
    """The gated-ring oracle: a three-way merge with a ``push0`` closure.

    Every event — EDET toggle, ring feedback or pending stage-0 apply — goes
    through the merge.
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

    def push0(time_s, value):
        # Transport semantics: cancel pending applies at or after time_s.
        nonlocal h0
        while len(p0_t) > h0 and p0_t[-1] >= time_s:
            p0_t.pop()
            p0_v.pop()
        p0_t.append(time_s)
        p0_v.append(value)

    push0(0.0 + t_feedback, v_last & gate_level)

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
                    time_s = time_s + t_stage
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
            push0(t_f + t_feedback, v_last & gate_level)
        else:
            if t_e > duration_s or t_e == inf:
                break
            gate_level = 1 - gate_level
            i_edet += 1
            push0(t_e + t_gate, v_last & gate_level)

    return clock_t, clock_v


#: Stage-0 changes per block of the settled-span oracle.
_REFERENCE_BLOCK_CHANGES = 1 << 12


def _settled_spans_reference(
    edet,
    *,
    t_gate,
    t_feedback,
    t_stage,
    duration_s,
    n_stages,
    improved_tap,
):
    """The settled-span oracle: row-major blocks, spans sorted into blocks.

    One ``np.add.accumulate(axis=1)`` row per span, every row of a block
    padded to its widest; when the spans do not fit one block they are
    sorted by their estimate into blocks of at most
    ``_REFERENCE_BLOCK_CHANGES`` changes and the blocks' taps gathered
    back into time order.
    """
    rises = edet[1::2]
    n_spans = int(rises.searchsorted(duration_s, side="right"))
    if n_spans == 0:
        return np.zeros(0, dtype=bool), np.zeros(1, dtype=np.int64), np.zeros(0)
    rises = rises[:n_spans]
    falls = edet[0:2 * n_spans:2]
    starts = np.empty(n_spans)
    starts[0] = 0.0 + t_feedback
    np.add(rises[:-1], t_gate, out=starts[1:])
    forced_at = falls + t_gate
    # The toggles are sorted, so every rise kept is within duration_s;
    # ties around a span leave it unsettled.
    around = falls < rises
    around[1:] &= rises[:-1] < falls[1:]

    n_inverters = n_stages - 1
    tap = n_stages - 2 if improved_tap else n_inverters
    # The forced fall's trip through the inverter chain.
    chain = [forced_at]
    for _hop in range(n_inverters):
        chain.append(chain[-1] + t_stage)

    period = n_inverters * t_stage + t_feedback
    estimate = np.maximum((falls - starts - n_inverters * t_stage) / period + 1.0, 0.0)

    def block(spans, j: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(settled, tap counts, tap times)`` of the spans *spans*, one row each."""
        rows = j.size
        fall, fall_at = falls[spans], forced_at[spans]

        # Row k: S_k, then t_stage x n_inverters, t_feedback, t_stage, ...
        # One change past the widest row leaves room for the forced fall.
        columns = (width + 1) * n_stages
        ring = np.empty((rows, columns))
        ring.fill(t_stage)
        if t_feedback != t_stage:
            ring[:, n_stages::n_stages] = t_feedback
        ring[:, 0] = starts[spans]
        ring = np.add.accumulate(ring, axis=1, out=ring).reshape(-1)

        # A_J, F_J and F_{J-1} (the previous row's last time when J = 0, unread).
        row_at = np.arange(0, rows * columns, columns)
        at_j = row_at + j * n_stages
        a_j = ring[at_j]
        f_j = ring[at_j + n_inverters]
        f_before = ring[at_j - 1]
        emit_j = a_j < fall_at
        n_changes = j + emit_j
        forced = n_changes & 1
        last_feedback = np.where(forced, chain[n_inverters][spans],
                                 np.where(emit_j, f_j, -np.inf))

        # On booleans, a <= b reads "a implies b": condition (ii).
        ok = (around[spans]
              & ((j == 0) | (f_before < fall)) & (fall < f_j)
              & (a_j != fall) & (a_j != fall_at)
              & (emit_j <= (fall_at < f_j + t_feedback))
              & (last_feedback < rises[spans]))

        # The forced fall's tap follows the row's last change; span k's
        # taps are then changes 0 .. count - 1 of row k at the tap.
        ring[at_j + (emit_j * n_stages + tap)] = chain[tap][spans]
        count = np.where(ok, n_changes + forced, 0)
        taps = ring.reshape(rows, width + 1, n_stages)[:, :, tap]
        return ok, count, taps[np.arange(width + 1) < count[:, None]]

    j = estimate.astype(np.int64)
    widest = int(j.max()) + 1
    offsets = np.zeros(n_spans + 1, dtype=np.int64)
    if n_spans * widest <= _REFERENCE_BLOCK_CHANGES:
        # One block: its rows are the spans in time order.
        settled, counts, times = block(slice(None), j, widest)
        np.add.accumulate(counts, out=offsets[1:])
        return settled, offsets, times

    # A 16-bit key sorts fast; the cumulative maximum below keeps block
    # widths right past its range.
    order = np.argsort(np.minimum(estimate, 0x7FFF).astype(np.int16), kind="stable")
    j = j[order]

    oks, n_taps, values = [], [], []
    first = 0
    while first < n_spans:
        # Rows hold changes 0..J: as many rows as fit
        # _REFERENCE_BLOCK_CHANGES at the block's widest row.
        changes = np.maximum.accumulate(j[first:first + _REFERENCE_BLOCK_CHANGES] + 1)
        rows = max(1, int(np.count_nonzero(
            changes * np.arange(1, changes.size + 1) <= _REFERENCE_BLOCK_CHANGES)))
        ok, count, taps = block(order[first:first + rows], j[first:first + rows],
                                int(changes[rows - 1]))
        oks.append(ok)
        n_taps.append(count)
        values.append(taps)
        first += rows

    # The blocks' taps are in sorted-span order: gather them into time order.
    settled = np.empty(n_spans, dtype=bool)
    settled[order] = np.concatenate(oks)
    sorted_counts = np.concatenate(n_taps)
    counts = np.empty(n_spans, dtype=np.int64)
    counts[order] = sorted_counts
    values = np.concatenate(values)
    sorted_starts = np.empty(n_spans, dtype=np.int64)
    sorted_starts[order] = np.cumsum(sorted_counts) - sorted_counts
    np.cumsum(counts, out=offsets[1:])
    times = values[np.repeat(sorted_starts - offsets[:-1], counts)
                   + np.arange(offsets[-1])]
    return settled, offsets, times


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
def ring_kwargs(draw):
    """Recurrence keyword arguments without ``duration_s``."""
    n_stages = draw(st.sampled_from((4, 6)))
    scale = draw(st.sampled_from([1.0, 1.03, 0.97]))
    stage = STAGE_DELAY_S * 4 / n_stages
    skew = draw(st.sampled_from([0.0, 5.0e-12, 1.6 * STAGE_DELAY_S]))
    return {
        "t_gate": (stage + skew) * scale,
        "t_feedback": (stage + 0.0) * scale,
        "t_stage": stage * scale,
        "n_stages": n_stages,
        "improved_tap": draw(st.booleans()),
    }


@st.composite
def ring_cases(draw):
    """``(edet_times, recurrence keyword arguments)``."""
    gaps = draw(st.lists(EDET_GAPS, max_size=40))
    edet = draw(st.floats(0.0, 2.0e-9)) + np.cumsum(np.array(gaps, dtype=float))
    last = float(edet[-1]) if edet.size else 0.0
    if edet.size and draw(st.booleans()):
        # The toggle stream runs past the horizon.
        duration = draw(st.floats(0.0, 1.0)) * last
    else:
        duration = last + draw(st.floats(0.0, 4.0e-9))
    return edet, {**draw(ring_kwargs()), "duration_s": duration}


@st.composite
def tie_cases(draw):
    """Generated cases plus EDET toggles placed exactly on ring event times.

    A run of the oracle on the generated toggles gives the feedback times
    ``F``; added toggles land on ``F[k]`` (a feedback tie),
    ``F[k] + t_feedback`` (a stage-0 apply tie) or ``F[k] + 1 fs`` (just
    past a feedback), in free-running and gated states alike.
    """
    edet, kwargs = draw(ring_cases())
    feedback, _ = _ring_recurrence_reference(edet, **{**kwargs, "improved_tap": False})
    if not feedback:
        return edet, kwargs
    indices = st.integers(0, len(feedback) - 1)
    offsets = st.sampled_from([0.0, kwargs["t_feedback"], 1.0e-15])
    picks = draw(st.lists(st.tuples(indices, offsets), min_size=1, max_size=4))
    ties = [feedback[index] + offset for index, offset in picks]
    return np.sort(np.concatenate((edet, ties))), kwargs


@st.composite
def long_ring_cases(draw, cid_runs=False):
    """Long EDET streams: PRBS-like gate-high spans with unsettled ones mixed in.

    Every data edge makes a fall and, one EDET-low time later, a rise; the
    gate-high spans last a PRBS-like run of one to seven unit intervals.
    At random edges the pair is replaced by an unsettled one: a gate-high
    span shorter than a stage delay, coincident toggles, or a rise before
    the ring drains.  Toggles are then moved onto the oracle's feedback
    and stage-0 apply times, or one float step off them, and the horizon
    may cut inside a span.  The stream itself comes from a drawn seed, so
    hundreds of toggles cost one draw.  With *cid_runs*, a drawn share of
    the runs last 30 to 80 unit intervals (consecutive identical digits),
    so only a few spans are still running at the end of the column pass,
    and the feedback delay may differ from the stage delay.
    """
    kwargs = draw(feedback_kwargs() if cid_runs else ring_kwargs())
    stage = kwargs["t_stage"]
    unit = 2 * kwargs["n_stages"] * stage
    unsettled_rate = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_edges = draw(st.integers(100, 250))

    runs = np.minimum(stream.geometric(0.5, n_edges), 7)
    if cid_runs:
        long_rate = draw(st.sampled_from([0.02, 0.05, 0.1]))
        runs = np.where(stream.random(n_edges) < long_rate, stream.integers(30, 81, n_edges), runs)
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

    feedback, _ = _ring_recurrence_reference(edet, **{**kwargs, "improved_tap": False})
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
    return edet, kwargs


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


#: ``(n_spans, widest)`` with ``n_spans * widest`` exactly at the one-block
#: bound of ``_settled_spans``, and one change over it (4097 = 17 x 241).
AT_BLOCK_BOUND = ((256, 16), (512, 8), (128, 32), (1024, 4))
OVER_BLOCK_BOUND = ((241, 17), (17, 241))


def _edet_for_estimates(kwargs, estimates, early, stream):
    """EDET whose span ``k`` has the estimate ``estimates[k]``.

    Each span's fall lies half a ring period past the feedback that makes
    its estimate ``J``, so rounding cannot move the estimate.  Where
    *early* is set, the next rise comes before the forced fall's
    feedback, which leaves that span to the scalar loop.
    """
    t_stage, t_feedback, t_gate = kwargs["t_stage"], kwargs["t_feedback"], kwargs["t_gate"]
    n_inverters = kwargs["n_stages"] - 1
    period = n_inverters * t_stage + t_feedback
    drained = t_gate + n_inverters * t_stage
    lows = drained * np.where(early, stream.uniform(0.2, 0.9, early.size),
                              stream.uniform(1.05, 1.5, early.size))
    edet = []
    start = 0.0 + t_feedback
    for estimate, low in zip(np.asarray(estimates).tolist(), lows.tolist()):
        fall = start + n_inverters * t_stage + (estimate - 0.5) * period
        rise = fall + low
        edet += [fall, rise]
        start = rise + t_gate
    return np.array(edet)


@st.composite
def feedback_kwargs(draw):
    """Recurrence keyword arguments whose feedback delay may differ from
    the stage delay."""
    kwargs = draw(ring_kwargs())
    kwargs["t_feedback"] = kwargs["t_stage"] * draw(st.sampled_from([1.0, 1.1, 0.93]))
    return kwargs


@st.composite
def block_bound_cases(draw):
    """EDET whose spans put ``n_spans * widest`` at the one-block bound or one
    change over it: ``(edet, recurrence kwargs, fits one block)``.

    One span takes the widest ``J``; at a drawn rate a span is left to the
    scalar loop (:func:`_edet_for_estimates`).
    """
    kwargs = draw(feedback_kwargs())
    one_block = draw(st.booleans())
    n_spans, widest = draw(st.sampled_from(AT_BLOCK_BOUND if one_block else OVER_BLOCK_BOUND))
    stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    estimates = stream.integers(0, widest, n_spans)
    estimates[stream.integers(n_spans)] = widest - 1
    early = stream.random(n_spans) < draw(st.sampled_from([0.0, 0.05]))
    edet = _edet_for_estimates(kwargs, estimates, early, stream)
    duration = edet[-1] + draw(st.floats(0.0, 4.0e-9))
    return edet, {**kwargs, "duration_s": duration}, one_block


@st.composite
def slab_bound_cases(draw):
    """EDET whose tall spans fill the column pass's first row-wise slab
    exactly, or one change past it: ``(edet, kwargs, slabs)``.

    At least 65 short spans take ``J = s`` and up to ``_TALL_ROWS`` tall
    spans a larger ``J``, so ``T`` tall rows are left at change ``s + 1``
    and a slab holds ``k = _SLAB_CELLS // (T * n_stages)`` changes; the
    widest tall span takes ``J = s + k`` (one slab) or ``s + k + 1`` (two).
    """
    kwargs = draw(feedback_kwargs())
    stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    short = draw(st.integers(0, 3))
    n_tall = draw(st.sampled_from([fast_engine._TALL_ROWS, 40]))
    per_slab = fast_engine._SLAB_CELLS // (n_tall * kwargs["n_stages"])
    slabs = draw(st.sampled_from([1, 2]))
    tallest = short + per_slab + slabs - 1
    tall = stream.integers(short + 1, tallest + 1, n_tall)
    tall[0] = tallest
    estimates = np.concatenate((np.full(65, short), stream.integers(0, short + 1, 40), tall))
    estimates = stream.permutation(estimates)
    early = stream.random(estimates.size) < draw(st.sampled_from([0.0, 0.05]))
    edet = _edet_for_estimates(kwargs, estimates, early, stream)
    return edet, {**kwargs, "duration_s": float(edet[-1])}, slabs


@st.composite
def spanless_cases(draw):
    """EDET with toggles but no rise within the horizon: no span to settle."""
    gaps = draw(st.lists(EDET_GAPS, min_size=1, max_size=6))
    edet = 1.0e-12 + draw(st.floats(0.0, 2.0e-9)) + np.cumsum(np.array([0.0, *gaps]))
    duration = draw(st.floats(0.0, 1.0, exclude_max=True)) * float(edet[1])
    return edet, {**draw(ring_kwargs()), "duration_s": duration}


@st.composite
def few_toggle_cases(draw, n_toggles, horizon):
    """``(edet_times, kwargs)``: *n_toggles* EDET toggles, the horizon
    ``"before"``, ``"on"`` or ``"past"`` the last one.

    Every read past the last toggle must find ``+inf``: a horizon on the
    last toggle executes it, one past it leaves the ring free-running with
    no toggle left.
    """
    gaps = draw(st.lists(EDET_GAPS, min_size=n_toggles, max_size=n_toggles))
    edet = draw(st.floats(0.0, 2.0e-9)) + np.cumsum(np.array(gaps, dtype=float))
    last = float(edet[-1]) if edet.size else draw(st.floats(0.0, 2.0e-9))
    if horizon == "before":
        duration = draw(st.floats(0.0, 1.0, exclude_max=True)) * last
    elif horizon == "on":
        duration = last
    else:
        duration = last + draw(st.floats(0.0, 8.0e-9, exclude_min=True))
    return edet, {**draw(ring_kwargs()), "duration_s": duration}


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the block once it has run *seconds*: a recurrence that reads a
    finite time past the last toggle toggles the gate there for ever."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _NumpyLog:
    """Numpy, as the engine sees it, logging each sort, each 2-D ``empty``
    and each ``bincount``: of the ``_settled_spans`` paths, only the column
    pass sorts, and its tall rows take one 2-D slab each; of the sampler's
    DDIN lookups, only the rank counts."""

    def __init__(self, log: list) -> None:
        self._log = log

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self._log.append("argsort")
        return np.argsort(*args, **kwargs)

    def bincount(self, *args, **kwargs):
        self._log.append("bincount")
        return np.bincount(*args, **kwargs)

    def empty(self, shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 2:
            self._log.append("matrix")
        return np.empty(shape, *args, **kwargs)


def _log_block_paths(monkeypatch) -> list:
    """Patch the engine to log the path of each ``_settled_spans`` call:
    ``"no span"``, ``"one block"`` or ``"columns"`` followed by one
    ``"slab"`` per row-wise slab of its tall rows; return the log."""
    log, calls = [], []
    monkeypatch.setattr(fast_engine, "np", _NumpyLog(calls))
    settled_spans = fast_engine._settled_spans

    def logged(edet, **kwargs):
        calls.clear()
        settled, offsets, times = settled_spans(edet, **kwargs)
        if settled.size == 0:
            log.append("no span")
        elif "argsort" in calls:
            log.append(("columns", *["slab"] * calls.count("matrix")))
        else:
            log.append("one block")
        return settled, offsets, times

    monkeypatch.setattr(fast_engine, "_settled_spans", logged)
    return log


def _settled_pair(edet, kwargs):
    """``_settled_spans`` and its sorted-block oracle agree byte for byte."""
    live = fast_engine._settled_spans(edet, **kwargs)
    reference = _settled_spans_reference(edet, **kwargs)
    for array, expected in zip(live, reference):
        assert _bytes_equal(array, expected)


def _derived_clock_values(count):
    """The values the channel gives *count* clock-tap times: a toggle
    stream from the tap's initial level, as its clock trace builds it."""
    times = np.zeros(count)
    trace = EdgeArrays(times, initial_value=fast_engine._CLOCK_INITIAL).build("clock")
    return trace.as_arrays()[1][1:]


def _ring_pair(edet, kwargs):
    """Run the recurrence and its oracle; check both agree.

    The oracle's clock values must be the alternating ones the channel
    derives from the times, and the times must never decrease: the
    channel takes the executed taps as a prefix and its rising edges as
    every other tap from the first.
    """
    clock_t = fast_engine._ring_recurrence(edet, **kwargs)
    ref_t, ref_v = _ring_recurrence_reference(edet, **kwargs)
    assert _bytes_equal(clock_t, np.asarray(ref_t, dtype=float))
    assert _bytes_equal(_derived_clock_values(clock_t.size), np.asarray(ref_v, dtype=np.int64))
    assert np.all(clock_t[1:] >= clock_t[:-1])
    return clock_t


class TestRingRecurrenceBitIdentity:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(ring_cases())
    def test_generated_edet_streams_match_reference(self, case):
        _ring_pair(*case)

    @pytest.mark.parametrize("improved_tap", [False, True])
    def test_long_free_run_without_toggles(self, improved_tap):
        """With no toggles the ring free-runs to the horizon, on either tap."""
        clock_t = _ring_pair(
            np.zeros(0),
            {
                "t_gate": STAGE_DELAY_S,
                "t_feedback": STAGE_DELAY_S,
                "t_stage": STAGE_DELAY_S,
                "duration_s": 300.0e-9,
                "n_stages": 4,
                "improved_tap": improved_tap,
            },
        )
        assert len(clock_t) > 1000

    @pytest.mark.parametrize("horizon", ["before", "on", "past"])
    @pytest.mark.parametrize("n_toggles", range(4))
    def test_zero_to_three_toggles_match_reference(self, n_toggles, horizon):
        """The toggles are read in place, ``+inf`` past the last: with 0 to
        3 toggles and the horizon before, on or past the last one."""

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(few_toggle_cases(n_toggles, horizon))
        def check(case):
            edet, kwargs = case
            with _deadline(5.0):
                _ring_pair(edet, kwargs)

        check()

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

    def test_both_block_paths_at_the_block_bound(self, monkeypatch):
        """Up to ``n_spans * widest == _BLOCK_CHANGES`` every span fits one
        block in time order; one change over, the column pass takes them.
        Both paths match the sorted-block oracle and the recurrence's."""
        log = _log_block_paths(monkeypatch)
        one_block_paths = []

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(block_bound_cases())
        def check(case):
            edet, kwargs, one_block = case
            log.clear()
            _ring_pair(edet, kwargs)
            _settled_pair(edet, kwargs)
            assert (log[0] == "one block") if one_block else (log[0][0] == "columns")
            one_block_paths.append(one_block)

        check()
        assert one_block_paths.count(True) >= 10 and one_block_paths.count(False) >= 10, \
            one_block_paths

    def test_column_pass_on_long_runs_of_identical_digits(self, monkeypatch):
        """Runs of 30 to 80 unit intervals leave only a few spans running,
        which the column pass finishes in row-wise slabs.  It matches the
        sorted-block oracle, and the recurrence its oracle, ties included."""
        log = _log_block_paths(monkeypatch)
        paths = []

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(long_ring_cases(cid_runs=True))
        def check(case):
            log.clear()
            _ring_pair(*case)
            _settled_pair(*case)
            paths.append(log[0])

        check()
        assert sum(path[0] == "columns" and "slab" in path for path in paths) >= 20, paths

    def test_tall_rows_at_the_slab_bound(self, monkeypatch):
        """The tall rows fill one row-wise slab exactly, or one change past
        it: one slab or two, both matching the oracles."""
        log = _log_block_paths(monkeypatch)
        counts = []

        @settings(max_examples=12, deadline=None, derandomize=True)
        @given(slab_bound_cases())
        def check(case):
            edet, kwargs, slabs = case
            log.clear()
            _ring_pair(edet, kwargs)
            _settled_pair(edet, kwargs)
            assert log[0] == ("columns", *["slab"] * slabs)
            counts.append(slabs)

        check()
        assert counts.count(1) >= 3 and counts.count(2) >= 3, counts

    def test_no_span_within_the_horizon(self, monkeypatch):
        """Toggles, but no rise at or before the horizon: no span, no block."""
        log = _log_block_paths(monkeypatch)

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(spanless_cases())
        def check(case):
            edet, kwargs = case
            log.clear()
            _ring_pair(edet, kwargs)
            assert log == ["no span"]
            settled, offsets, times = fast_engine._settled_spans(edet, **kwargs)
            assert settled.size == 0 and times.size == 0 and offsets.tolist() == [0]

        check()

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
            "improved_tap": improved_tap,
        }
        edet = _falls_beside_feedback(kwargs, n_spans=300, seed=n_stages)
        _ring_pair(edet, {**kwargs, "duration_s": float(edet[-1])})

    @pytest.mark.parametrize("n_stages", [4, 6])
    @pytest.mark.parametrize("improved_tap", [False, True])
    def test_falls_just_past_a_slower_feedback_match_reference(self, n_stages, improved_tap):
        """A feedback input slower than the gating input: a fall one float
        step past ``F_{J-1}`` lets the fall's apply cancel ``A_J``, so the
        column pass holds a change past the span's count.  800 spans take
        the column pass."""
        stage = STAGE_DELAY_S * 4 / n_stages
        kwargs = {
            "t_gate": stage,
            "t_feedback": stage * 1.1,
            "t_stage": stage,
            "n_stages": n_stages,
            "improved_tap": improved_tap,
        }
        edet = _falls_beside_feedback(kwargs, n_spans=800, seed=n_stages)
        kwargs["duration_s"] = float(edet[-1])
        _ring_pair(edet, kwargs)
        _settled_pair(edet, kwargs)

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
        settled, _, _ = fast_engine._settled_spans(edet_times, **kwargs)
        assert settled.size == edet_times.size // 2
        assert settled.all()


def _traced_settled_spans(edet, kwargs):
    """``(peak bytes, returned bytes)`` of one ``_settled_spans`` call."""
    tracemalloc.start()
    try:
        returned = fast_engine._settled_spans(edet, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(array.nbytes for array in returned)


#: What one settled-span pass may hold besides a fixed slab: a few
#: per-span arrays and one column per change, within this many times the
#: bytes it returns.  A (changes x spans) matrix of every span takes
#: about 15 times them on PRBS7.
RETURNED_BYTES_FACTOR = 4


class TestSettledSpanMemory:
    def test_long_prbs7_stream_holds_no_matrix_of_every_span(self):
        """400 000 jitter-free PRBS7 bits: about 200 000 spans."""
        config = CdrChannelConfig()
        stream = generate_edge_times(
            prbs_sequence(7, 400_000),
            bit_rate_hz=config.bit_rate_hz,
            jitter=JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0, sj_amplitude_ui_pp=0.0),
            start_time_s=4 * config.unit_interval_s,
            rng=np.random.default_rng(0),
        )
        _, edet = fast_engine._edge_detector(stream.edge_times_s, config)
        kwargs = {
            **fast_engine._ring_delays(config),
            "duration_s": float(edet[-1]) + 4 * config.unit_interval_s,
            "n_stages": config.oscillator.n_stages,
            "improved_tap": config.improved_sampling,
        }
        peak, returned = _traced_settled_spans(edet, kwargs)
        assert returned > 5_000_000
        assert peak <= RETURNED_BYTES_FACTOR * returned + 8 * fast_engine._SLAB_CELLS

    def test_long_runs_of_identical_digits_stay_within_the_slab(self):
        """Sixty spans of about 1 000 changes and one of 100 000: the tall
        rows finish in slabs, never one matrix of their widest."""
        kwargs = {
            "t_gate": STAGE_DELAY_S,
            "t_feedback": STAGE_DELAY_S,
            "t_stage": STAGE_DELAY_S,
            "n_stages": 4,
            "improved_tap": False,
        }
        stream = np.random.default_rng(3)
        estimates = np.concatenate((stream.integers(900, 1100, 60), [100_000]))
        edet = _edet_for_estimates(kwargs, estimates, np.zeros(estimates.size, dtype=bool), stream)
        kwargs["duration_s"] = float(edet[-1])
        peak, returned = _traced_settled_spans(edet, kwargs)
        assert peak <= RETURNED_BYTES_FACTOR * returned + 8 * fast_engine._SLAB_CELLS


def _load_equivalence_corpus():
    """``CORPUS`` of ``tests/fastpath/test_equivalence.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "fastpath" / "test_equivalence.py"
    spec = importlib.util.spec_from_file_location("_fastpath_equivalence_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CORPUS


#: (label, config, jitter, transmitter ppm): the equivalence corpus.
RING_CHANNEL_CASES = _load_equivalence_corpus()
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
            derived = _derived_clock_values(len(clock_t))
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


#: What a DDIN lookup case must show, at each sample count: a sample on a
#: DDIN edge, samples before the first edge and after the last, edges
#: before the first sample and after the last, and no edge at all.
SAMPLER_FEATURES = {"tie", "samples before", "samples after", "edges before",
                    "edges after", "no edge"}


@st.composite
def sampler_cases(draw, n_samples):
    """``(ddin_times, sample_times, features)`` with *n_samples* samples.

    Samples and DDIN edges sit on one 1 ps grid, several to a point, so
    edges fall exactly on samples; the edges inside the samples' span
    cover a drawn part of it, and a few may lie outside it.
    """
    stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = 1.0e-12
    first, end = 100, 100 + 2 * n_samples
    sample_times = np.sort(stream.integers(first, end, n_samples)) * step
    if draw(st.integers(0, 3)) == 0:
        ddin_times = np.zeros(0)
    else:
        low = draw(st.integers(first - 50, end))
        high = draw(st.integers(low, end + 50))
        inside = stream.integers(low, high + 1, draw(st.integers(1, n_samples)))
        before = stream.integers(0, first, draw(st.integers(0, 2)))
        after = stream.integers(end, end + 100, draw(st.integers(0, 2)))
        ddin_times = np.sort(np.concatenate((before, inside, after))) * step
    features = set()
    if ddin_times.size == 0:
        features.add("no edge")
    else:
        features.update(name for name, shown in (
            ("tie", np.isin(ddin_times, sample_times).any()),
            ("samples before", sample_times[0] <= ddin_times[0]),
            ("samples after", sample_times[-1] > ddin_times[-1]),
            ("edges before", ddin_times[0] < sample_times[0]),
            ("edges after", ddin_times[-1] > sample_times[-1]),
        ) if shown)
    return ddin_times, sample_times, features


class TestSamplerLookupBitIdentity:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_lookup_matches_searchsorted_at_the_size_bound(self, offset, monkeypatch):
        """One below, at and one above ``_SEARCH_SAMPLES`` the lookup gives
        ``searchsorted(side="left")``'s integers; only above it does it rank."""
        n_samples = fast_engine._SEARCH_SAMPLES + offset
        log = []
        monkeypatch.setattr(fast_engine, "np", _NumpyLog(log))
        seen = set()

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(sampler_cases(n_samples))
        def check(case):
            ddin_times, sample_times, features = case
            log.clear()
            index = fast_engine._ddin_index(ddin_times, sample_times)
            assert _bytes_equal(index, ddin_times.searchsorted(sample_times, side="left"))
            assert log == (["bincount"] if offset > 0 else [])
            seen.update(features)

        check()
        assert seen == SAMPLER_FEATURES, sorted(SAMPLER_FEATURES - seen)

    @pytest.mark.parametrize("label", ["clean", "heavy", "improved_tap"])
    def test_long_run_takes_the_rank_and_matches_the_event_kernel(self, label, monkeypatch):
        """1200 bits sample more than ``_SEARCH_SAMPLES`` times: the fast
        run ranks, and its decisions and traces are the event kernel's."""
        [(_, config, jitter, ppm)] = [case for case in RING_CHANNEL_CASES if case[0] == label]
        bits = prbs_sequence(7, 1200)

        def run(channel):
            return channel.run(bits, jitter=jitter, data_rate_offset_ppm=ppm,
                               rng=np.random.default_rng(29))

        event = run(BehavioralCdrChannel(config))
        sizes = []
        ddin_index = fast_engine._ddin_index

        def logged(ddin_times, sample_times):
            sizes.append(sample_times.size)
            return ddin_index(ddin_times, sample_times)

        monkeypatch.setattr(fast_engine, "_ddin_index", logged)
        fast = run(FastCdrChannel(config))
        [n_samples] = sizes
        assert n_samples > fast_engine._SEARCH_SAMPLES
        assert _bytes_equal(fast.sample_times_s, event.sample_times_s)
        assert _bytes_equal(fast.sampled_bits, event.sampled_bits)
        for name in ("ddin", "edet", "clock", "dout"):
            edges = fast.trace(name).edges("any")
            assert _bytes_equal(edges, event.trace(name).edges("any")), name


def _reference_aligned_comparison(result):
    """The previous timing alignment: mask the in-range decisions, then scatter."""
    n_bits = int(result.transmitted_bits.size)
    indices, values = result.decisions_per_bit()
    decided = np.full(n_bits, -1, dtype=np.int64)
    in_range = (indices >= 0) & (indices < n_bits)
    decided[indices[in_range]] = values[in_range]
    usable = slice(1, n_bits - 1)
    return result.transmitted_bits[usable].astype(np.int64), decided[usable]


@st.composite
def decision_results(draw):
    """Results with decisions in any order, before, inside and after the
    stream, several to a bit."""
    stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_bits = draw(st.integers(1, 60))
    bit_period = 4.0e-10
    bits = stream.integers(0, 2, n_bits).astype(np.uint8)
    start = draw(st.sampled_from([0.0, 1.6e-9]))
    n_decisions = draw(st.integers(0, 2 * n_bits + 4))
    times = start + stream.uniform(-3.0, n_bits + 3.0, n_decisions) * bit_period
    if draw(st.booleans()):
        times.sort()
    return BehavioralSimulationResult(
        config=CdrChannelConfig(),
        transmitted_bits=bits,
        stream=NrzEdgeStream(bits, np.zeros(0), np.zeros(0, dtype=np.int64), bit_period,
                             start_time_s=start),
        recorder=None,
        sample_times_s=times,
        sampled_bits=stream.integers(0, 2, n_decisions).astype(np.uint8),
        duration_s=start + (n_bits + 4) * bit_period,
    )


class TestBerAlignmentBitIdentity:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(decision_results())
    def test_alignment_matches_the_masked_scatter(self, result):
        """``ber()`` and ``error_events()`` read the same per-bit decisions
        as the masked scatter they replaced; the last decision in a bit wins."""
        expected, decided = result._aligned_comparison()
        reference_expected, reference_decided = _reference_aligned_comparison(result)
        assert _bytes_equal(decided, reference_decided)
        assert np.array_equal(expected, reference_expected)
        mask = reference_decided != reference_expected
        assert result.ber().errors == int(np.count_nonzero(mask))
        assert result.ber().compared_bits == reference_expected.size
        starts = np.flatnonzero(np.diff(np.concatenate(([False], mask)).astype(np.int8)) == 1)
        assert result.error_events() == starts.size
