"""Link equalization: TX FFE (de-emphasis), RX CTLE, and an LMS-adapted DFE.

Three standard serial-link equalizer stages, kept behavioural:

* :class:`TxFfe` — a symbol-spaced feed-forward filter applied to the
  transmitted symbols (transmit de-emphasis).  Taps are normalised to unit
  peak power (``sum |c_k| = 1``), the usual transmitter swing constraint.
* :class:`RxCtle` — a continuous-time linear equalizer: one zero and two
  poles, parameterized by the path bandwidth, the peaking frequency and the
  peaking magnitude (the construction PyBERT's ``make_ctle`` uses),
  normalised to unity DC gain so *peaking_db* is boost above DC.
* :class:`LmsDfe` — a one-tap-per-UI decision-feedback equalizer adapted by
  the sign-sign-free LMS recursion over the (periodic) training pattern,
  the adaptive-equalizer idiom of QAMpy's DSP layer.  Its feedback is
  rendered as a piecewise-constant waveform subtracted from the received
  trace, so the downstream threshold-crossing extraction sees its effect.
  Adaptation is **data-aided** by default (the training bits are known);
  ``decision_directed=True`` switches the recursion to slicer decisions —
  the non-data-aided mode a deployed receiver runs — and the adaptation
  then reports decision-error diagnostics per epoch.  Because a DFE feeds
  its *decisions* back, a wrong decision perturbs the next ``n_taps``
  corrections; :meth:`LmsDfe.error_propagation` models that burst (a
  forced slicer error must decay, not ring).

The per-sample recursions behind :meth:`LmsDfe.adapt` and
:meth:`LmsDfe.error_propagation` run on unboxed Python floats; the pinned
numpy loops (``LmsDfe._adapt_reference`` and friends) stay beside them
as the oracles they reproduce bit for bit.

All three are frozen dataclasses and pickle across the sweep runner's
process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .._validation import require_non_negative, require_positive, require_positive_int

__all__ = ["TxFfe", "RxCtle", "LmsDfe", "DfeAdaptation", "ErrorPropagation"]

#: Corrected-sample deviations below this are floating-point residue of the
#: feedback arithmetic, not propagated error — snapped to exact zero so
#: :attr:`ErrorPropagation.decays` can test for a fully cleared register.
_DEVIATION_SNAP = 1.0e-9


def _circular_shift_rows(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Stack ``np.roll(values, s)`` for every shift as rows of one gather.

    ``np.roll(x, s)[i] == x[(i - s) % n]``, so a single fancy-index gather
    replaces a per-shift roll loop (one temporary instead of one per tap).
    Row order preserves the historical per-tap accumulation order.
    """
    positions = np.arange(values.size)
    return values[(positions - np.asarray(shifts)[:, None]) % values.size]


# The DFE recursions are inherently sequential (every step reads the
# previous step's decisions and weights), so they cannot become array
# expressions without changing semantics.  What these loops drop is the
# per-sample numpy overhead of the pinned reference loops on LmsDfe (an
# index allocation, a fancy-index gather and boxed scalar arithmetic per
# sample): they run the identical IEEE-754 operations in the identical
# order on plain Python floats, so their results are bit-for-bit equal
# (gated by ``tests/kernels/test_bit_identity.py``) at about a tenth of
# the cost.


def _lms_data_aided(
    samples: np.ndarray, levels: np.ndarray, n_taps: int, step_size: float, n_epochs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Data-aided LMS → ``(weights, error_rms_per_epoch)``; see ``LmsDfe._adapt_reference``."""
    sample_list = samples.tolist()
    level_list = levels.tolist()
    n = len(sample_list)
    taps = range(n_taps)
    # The training history is static in data-aided mode: precompute every
    # sample's circular feedback register once, outside the epoch loop.
    history = [tuple(level_list[(k - 1 - j) % n] for j in taps) for k in range(n)]
    weights = [0.0] * n_taps
    error_rms = np.zeros(n_epochs)
    for epoch in range(n_epochs):
        squared = 0.0
        for k in range(n):
            row = history[k]
            acc = 0.0
            for j in taps:
                acc += weights[j] * row[j]
            error = (sample_list[k] - acc) - level_list[k]
            gain = step_size * error
            for j in taps:
                weights[j] += gain * row[j]
            squared += error * error
        error_rms[epoch] = math.sqrt(squared / n)
    return np.array(weights), error_rms


def _lms_decision_directed(
    samples: np.ndarray, levels: np.ndarray, n_taps: int, step_size: float, n_epochs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blind LMS → ``(weights, error_rms, decision_error_rate)``.

    Mirrors ``LmsDfe._adapt_decision_directed``: the decision register is
    the live ``decisions`` list itself (bootstrapped by slicing the raw
    samples), so the circular history read for sample ``k`` sees this
    epoch's decisions below ``k`` and the previous epoch's (or the
    bootstrap's) above it.
    """
    sample_list = samples.tolist()
    level_list = levels.tolist()
    n = len(sample_list)
    taps = range(n_taps)
    decisions = [1.0 if value >= 0.0 else -1.0 for value in sample_list]
    weights = [0.0] * n_taps
    row = [0.0] * n_taps
    error_rms = np.zeros(n_epochs)
    decision_errors = np.zeros(n_epochs)
    for epoch in range(n_epochs):
        squared = 0.0
        wrong = 0
        for k in range(n):
            base = k - 1
            acc = 0.0
            for j in taps:
                value = decisions[(base - j) % n]
                row[j] = value
                acc += weights[j] * value
            corrected = sample_list[k] - acc
            decision = 1.0 if corrected >= 0.0 else -1.0
            decisions[k] = decision
            error = corrected - decision
            gain = step_size * error
            for j in taps:
                weights[j] += gain * row[j]
            squared += error * error
            wrong += decision != level_list[k]
        error_rms[epoch] = math.sqrt(squared / n)
        decision_errors[epoch] = wrong / n
    return np.array(weights), error_rms, decision_errors


def _feedback_burst(
    waveform: np.ndarray, levels: np.ndarray, weights: np.ndarray, start: int, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Slicer/feedback stepping after a forced error at *start*.

    → ``(wrong_decisions, deviation_per_ui)``; see
    ``LmsDfe._error_propagation_reference``.
    """
    sample_list = waveform.tolist()
    level_list = levels.tolist()
    weight_list = weights.tolist()
    n = len(level_list)
    taps = range(len(weight_list))
    decisions = list(level_list)
    decisions[start] = -level_list[start]
    wrong = np.zeros(steps, dtype=bool)
    deviation = np.zeros(steps)
    for step in range(1, steps + 1):
        k = (start + step) % n
        base = k - 1
        acc = 0.0
        for j in taps:
            acc += weight_list[j] * decisions[(base - j) % n]
        corrected = sample_list[k] - acc
        decision = 1.0 if corrected >= 0.0 else -1.0
        decisions[k] = decision
        wrong[step - 1] = decision != level_list[k]
        gap = abs(corrected - level_list[k])
        deviation[step - 1] = gap if gap > _DEVIATION_SNAP else 0.0
    return wrong, deviation


@dataclass(frozen=True)
class TxFfe:
    """Symbol-spaced transmit feed-forward equalizer (de-emphasis).

    Attributes
    ----------
    taps:
        FIR coefficients at UI spacing, pre-cursor first.
    main_cursor:
        Index of the main tap inside *taps* (taps before it are
        pre-cursors, after it post-cursors).
    """

    taps: tuple[float, ...] = (1.0,)
    main_cursor: int = 0

    def __post_init__(self) -> None:
        if not self.taps:
            raise ValueError("TxFfe needs at least one tap")
        if not 0 <= self.main_cursor < len(self.taps):
            raise ValueError("main_cursor must index into taps")
        if float(np.abs(np.asarray(self.taps, dtype=float)).sum()) <= 0.0:
            raise ValueError("TxFfe taps must not all be zero")

    @classmethod
    def de_emphasis(cls, pre_db: float = 0.0, post_db: float = 3.5) -> "TxFfe":
        """Build a classic (pre, main, post) de-emphasis filter.

        *pre_db* / *post_db* are the de-emphasis depths: the ratio (in dB)
        between the full swing and the swing of a repeated bit.  Taps are
        normalised to unit peak power.
        """
        require_non_negative("pre_db", pre_db)
        require_non_negative("post_db", post_db)
        # De-emphasis depth d dB <=> tap magnitude (1 - r) / 2 with
        # r = 10^(-d/20) the steady-state/peak swing ratio.
        pre = 0.5 * (1.0 - 10.0 ** (-pre_db / 20.0))
        post = 0.5 * (1.0 - 10.0 ** (-post_db / 20.0))
        taps = (-pre, 1.0 - pre - post, -post)
        if pre == 0.0:
            return cls(taps=taps[1:], main_cursor=0).normalized()
        return cls(taps=taps, main_cursor=1).normalized()

    def normalized(self) -> "TxFfe":
        """Return a copy scaled so ``sum |c_k| = 1`` (unit peak swing)."""
        scale = float(np.abs(np.asarray(self.taps, dtype=float)).sum())
        return replace(self, taps=tuple(tap / scale for tap in self.taps))

    def apply_to_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Filter a (circular) symbol sequence with the tap vector.

        The sequence is treated as one period of a repeating pattern, so
        the convolution wraps — consistent with the circular ISI
        superposition in :mod:`repro.link.isi`.
        """
        symbols = np.asarray(symbols, dtype=float)
        if symbols.size == 0:
            return np.zeros_like(symbols)
        taps = np.asarray(self.taps, dtype=float)
        shifted = _circular_shift_rows(symbols, np.arange(taps.size) - self.main_cursor)
        # Leading zero row + ordered axis-0 reduce == the historical
        # zeros-then-accumulate tap loop, term for term.
        rows = np.concatenate([np.zeros((1, symbols.size)), taps[:, None] * shifted])
        return np.add.reduce(rows, axis=0)

    def frequency_response(self, frequencies_hz: np.ndarray, unit_interval_s: float) -> np.ndarray:
        """Complex response of the symbol-spaced FIR at the given frequencies."""
        require_positive("unit_interval_s", unit_interval_s)
        frequency = np.asarray(frequencies_hz, dtype=float)
        taps = np.asarray(self.taps, dtype=float)
        delays = (np.arange(taps.size) - self.main_cursor) * unit_interval_s
        rotation = -2j * math.pi * frequency
        phases = np.exp(np.multiply.outer(delays, rotation))
        terms = taps.reshape(taps.shape + (1,) * frequency.ndim) * phases
        rows = np.concatenate([np.zeros((1,) + frequency.shape, dtype=complex), terms])
        return np.add.reduce(rows, axis=0)


@dataclass(frozen=True)
class RxCtle:
    """Receiver continuous-time linear equalizer (peaking filter).

    One zero, two poles:

        ``H(s) = -(p1 p2 / z) (s - z) / ((s - p1)(s - p2))``

    with ``p1`` at the peaking frequency, ``p2`` at the signal-path
    bandwidth and the zero placed ``peaking_db`` below ``p1``.  The DC gain
    is exactly one, so the response *boosts* frequencies near the peaking
    frequency by up to ~*peaking_db* — re-opening an ISI-closed eye.  With
    ``peaking_db = 0`` the response degenerates to the plain one-pole
    bandwidth roll-off of the unequalized path.
    """

    peaking_db: float = 6.0
    peak_frequency_hz: float = 1.25e9
    bandwidth_hz: float = 7.5e9

    def __post_init__(self) -> None:
        require_non_negative("peaking_db", self.peaking_db)
        require_positive("peak_frequency_hz", self.peak_frequency_hz)
        require_positive("bandwidth_hz", self.bandwidth_hz)
        if self.bandwidth_hz <= self.peak_frequency_hz:
            raise ValueError("bandwidth_hz must exceed peak_frequency_hz")

    def with_peaking(self, peaking_db: float) -> "RxCtle":
        """Return a copy with a different peaking magnitude."""
        return replace(self, peaking_db=peaking_db)

    def frequency_response(self, frequencies_hz: np.ndarray) -> np.ndarray:
        s = 2j * math.pi * np.asarray(frequencies_hz, dtype=float)
        p1 = -2.0 * math.pi * self.peak_frequency_hz
        p2 = -2.0 * math.pi * self.bandwidth_hz
        zero = p1 / (10.0 ** (self.peaking_db / 20.0))
        return -(p1 * p2 / zero) * (s - zero) / ((s - p1) * (s - p2))


@dataclass(frozen=True)
class DfeAdaptation:
    """Converged state of an LMS DFE adaptation run.

    ``decision_error_rate_per_epoch`` is recorded only by decision-directed
    adaptation (``None`` for data-aided runs): the fraction of slicer
    decisions per epoch that disagreed with the transmitted symbols — the
    convergence diagnostic of the non-data-aided mode.
    """

    weights: np.ndarray
    error_rms_per_epoch: np.ndarray
    decision_error_rate_per_epoch: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        """True when the final epoch no longer reduced the error meaningfully."""
        errors = self.error_rms_per_epoch
        if errors.size < 2:
            return False
        return bool(errors[-1] <= errors[-2] * 1.05)

    @property
    def final_decision_error_rate(self) -> float:
        """Decision error rate of the last epoch (NaN for data-aided runs)."""
        rates = self.decision_error_rate_per_epoch
        if rates is None or rates.size == 0:
            return float("nan")
        return float(rates[-1])


@dataclass(frozen=True)
class ErrorPropagation:
    """Response of the DFE feedback loop to one forced slicer error.

    A decision error feeds back through the tap weights and perturbs the
    next ``n_taps`` corrected samples by ``2·w_i``; when those
    perturbations stay inside the decision margin the burst dies as soon
    as the error leaves the feedback register, otherwise secondary errors
    extend it (and weights past the stability boundary ring forever).

    Attributes
    ----------
    wrong_decisions:
        Per-UI flags after the forced error: ``True`` where the slicer
        decided wrongly (secondary errors — the forced one is excluded).
    deviation_per_ui:
        ``|corrected − ideal|`` of every post-error UI; exactly zero once
        the feedback register holds only correct decisions again.
    """

    wrong_decisions: np.ndarray = field(repr=False)
    deviation_per_ui: np.ndarray = field(repr=False)

    @property
    def burst_length(self) -> int:
        """Number of UIs until the last secondary decision error (0 = none)."""
        wrong = np.flatnonzero(self.wrong_decisions)
        return int(wrong[-1]) + 1 if wrong.size else 0

    @property
    def decays(self) -> bool:
        """True when the burst dies before the horizon and feedback clears."""
        return bool(
            self.burst_length < self.wrong_decisions.size and self.deviation_per_ui[-1] == 0.0
        )


@dataclass(frozen=True)
class LmsDfe:
    """Decision-feedback equalizer with LMS tap adaptation.

    The DFE subtracts, over each unit interval, a weighted sum of the
    previous symbol decisions from the received waveform — cancelling
    post-cursor ISI that linear equalization cannot remove without noise
    amplification.  Taps are adapted on the periodic training pattern:

        ``e_k = (y_k - sum_i w_i d_{k-i}) - d_k``
        ``w_i <- w_i + mu * e_k * d_{k-i}``

    where ``d_k`` is the transmitted symbol in the default data-aided
    mode, and the **slicer decision** ``sign(corrected sample)`` when
    ``decision_directed=True`` — the blind mode a deployed receiver
    actually runs, where early wrong decisions both corrupt the feedback
    and mis-steer the gradient.  Decision-directed adaptation records the
    per-epoch decision error rate against the (known, diagnostics-only)
    transmitted symbols.

    Both adaptation modes and the error-propagation recursion run the
    scalar loops of this module, which are bit-for-bit identical to the
    pinned reference loops kept below as test oracles.
    """

    n_taps: int = 2
    step_size: float = 0.02
    n_epochs: int = 40
    decision_directed: bool = False

    def __post_init__(self) -> None:
        require_positive_int("n_taps", self.n_taps)
        require_positive("step_size", self.step_size)
        require_positive_int("n_epochs", self.n_epochs)

    def adapt(self, ui_samples: np.ndarray, symbols: np.ndarray) -> DfeAdaptation:
        """LMS-adapt the feedback taps on one period of training data.

        Parameters
        ----------
        ui_samples:
            Received waveform sampled once per UI (at the bit centres).
        symbols:
            The transmitted symbol levels (±1), same length, treated as
            circular (one period of the repeating pattern).  In
            decision-directed mode they steer nothing — the recursion runs
            on slicer decisions — and only score the per-epoch decision
            error rate.
        """
        samples = np.asarray(ui_samples, dtype=float).ravel()
        levels = np.asarray(symbols, dtype=float).ravel()
        if samples.shape != levels.shape:
            raise ValueError("ui_samples and symbols must have equal length")
        if samples.size <= self.n_taps:
            raise ValueError("need more than n_taps training symbols")
        if self.decision_directed:
            weights, error_rms, decision_errors = _lms_decision_directed(
                samples, levels, self.n_taps, self.step_size, self.n_epochs
            )
            return DfeAdaptation(
                weights=weights,
                error_rms_per_epoch=error_rms,
                decision_error_rate_per_epoch=decision_errors,
            )
        weights, error_rms = _lms_data_aided(
            samples, levels, self.n_taps, self.step_size, self.n_epochs
        )
        return DfeAdaptation(weights=weights, error_rms_per_epoch=error_rms)

    def _adapt_reference(self, samples: np.ndarray, levels: np.ndarray) -> DfeAdaptation:
        """Pinned pure-python data-aided recursion — the semantic reference.

        The operation order here is load-bearing: :func:`_lms_data_aided`
        must perform these IEEE-754 operations in this exact order so its
        results stay bit-for-bit identical (gated by
        ``tests/kernels/test_bit_identity.py``).
        """
        weights = np.zeros(self.n_taps)
        error_rms = np.zeros(self.n_epochs)
        for epoch in range(self.n_epochs):
            squared = 0.0
            for k in range(samples.size):
                history = levels[(k - 1 - np.arange(self.n_taps)) % levels.size]
                feedback = 0.0
                for weight, tap in zip(weights, history):
                    feedback += weight * tap
                error = (samples[k] - feedback) - levels[k]
                weights += self.step_size * error * history
                squared += error * error
            error_rms[epoch] = math.sqrt(squared / samples.size)
        return DfeAdaptation(weights=weights, error_rms_per_epoch=error_rms)

    def _adapt_decision_directed(self, samples: np.ndarray, levels: np.ndarray) -> DfeAdaptation:
        """Pinned blind LMS: history and error reference are slicer decisions.

        The decision register is bootstrapped by slicing the raw samples
        (the zero-weight corrected waveform) and persists across epochs,
        so the recursion sees exactly what a free-running receiver would.
        Operation order is load-bearing (see :meth:`_adapt_reference`).
        """
        decisions = np.where(samples >= 0.0, 1.0, -1.0)
        weights = np.zeros(self.n_taps)
        error_rms = np.zeros(self.n_epochs)
        decision_errors = np.zeros(self.n_epochs)
        for epoch in range(self.n_epochs):
            squared = 0.0
            wrong = 0
            for k in range(samples.size):
                history = decisions[(k - 1 - np.arange(self.n_taps)) % decisions.size]
                feedback = 0.0
                for weight, tap in zip(weights, history):
                    feedback += weight * tap
                corrected = samples[k] - feedback
                decision = 1.0 if corrected >= 0.0 else -1.0
                decisions[k] = decision
                error = corrected - decision
                weights += self.step_size * error * history
                squared += error * error
                wrong += decision != levels[k]
            error_rms[epoch] = math.sqrt(squared / samples.size)
            decision_errors[epoch] = wrong / samples.size
        return DfeAdaptation(
            weights=weights,
            error_rms_per_epoch=error_rms,
            decision_error_rate_per_epoch=decision_errors,
        )

    def error_propagation(
        self,
        weights: np.ndarray,
        symbols: np.ndarray,
        *,
        error_index: int = 0,
        horizon: int | None = None,
    ) -> ErrorPropagation:
        """Force one slicer error and track the feedback burst it causes.

        The loop runs on the ideal post-cursor waveform the *weights*
        cancel exactly (``y_k = s_k + sum_i w_i s_{k-i}``), so with a
        clean feedback register every decision is correct and every
        corrected sample equals the symbol — any deviation afterwards is
        purely the propagated error.  The decision at *error_index* is
        forced wrong, then the slicer runs free for *horizon* UIs
        (default ``8 * n_taps``, circular symbol indexing).
        """
        weights = np.asarray(weights, dtype=float).ravel()
        levels = np.asarray(symbols, dtype=float).ravel()
        if levels.size <= weights.size:
            raise ValueError("need more than len(weights) symbols")
        steps = 8 * self.n_taps if horizon is None else horizon
        require_positive_int("horizon", steps)
        samples = self._ideal_postcursor_waveform(levels, weights)
        start = error_index % levels.size
        wrong, deviation = _feedback_burst(samples, levels, weights, start, steps)
        return ErrorPropagation(wrong_decisions=wrong, deviation_per_ui=deviation)

    @staticmethod
    def _ideal_postcursor_waveform(levels: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``y_k = s_k + sum_i w_i s_{k-i}`` — the waveform the weights cancel.

        The symbol row leads and the reduce runs in tap order, matching
        the historical per-tap accumulation loop term for term.
        """
        if weights.size == 0:
            return levels.copy()
        shifted = _circular_shift_rows(levels, np.arange(1, weights.size + 1))
        rows = np.concatenate([levels[None, :], weights[:, None] * shifted])
        return np.add.reduce(rows, axis=0)

    @staticmethod
    def _error_propagation_reference(
        samples: np.ndarray,
        levels: np.ndarray,
        weights: np.ndarray,
        start: int,
        steps: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pinned slicer/feedback recursion after the forced error.

        Operation order is load-bearing (see :meth:`_adapt_reference`).
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

    def feedback_waveform(
        self, symbols: np.ndarray, weights: np.ndarray, samples_per_ui: int
    ) -> np.ndarray:
        """Piecewise-constant feedback to subtract from the received trace.

        Over unit interval ``k`` the DFE subtracts
        ``sum_i w_i s_{k-i}`` (circular symbol indexing), rendered here on
        the waveform grid so edge extraction sees the corrected trace.
        """
        require_positive_int("samples_per_ui", samples_per_ui)
        levels = np.asarray(symbols, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if weights.size == 0:
            return np.repeat(np.zeros(levels.size), samples_per_ui)
        shifted = _circular_shift_rows(levels, np.arange(1, weights.size + 1))
        rows = np.concatenate([np.zeros((1, levels.size)), weights[:, None] * shifted])
        return np.repeat(np.add.reduce(rows, axis=0), samples_per_ui)
