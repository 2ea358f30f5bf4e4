"""Statistical eye solver: pulse-response cursor PDFs × the analytic BER model.

Bit-true simulation cannot reach the paper's 1e-12 BER target — counting
ten errors there needs ~1e13 bits.  The statistical (StatEye/PyBERT-class)
approach gets there analytically:

1. **Cursor enumeration** — the victim's full single-bit response (TX FFE ×
   channel × RX CTLE, minus the trained DFE feedback) is sampled at every
   candidate sampling phase inside the unit interval; every cursor except
   the main one contributes ``±c_k`` to the sampled voltage depending on
   the (equiprobable) neighbouring bit.
2. **Voltage-PDF convolution** — the per-cursor two-point distributions are
   convolved on a fixed voltage grid (the amplitude-domain analogue of the
   time-domain PDF calculus in :mod:`repro.jitter.pdf`), giving the exact
   ISI amplitude distribution at each phase.  One kernel,
   :func:`_cursor_pmfs`, convolves every phase at once: the phases'
   cursors form the columns of a shift matrix, and each cursor row is one
   slice operation over all columns at the row's most common integer bin
   shift (the few other columns are redone one at a time) on padded
   ping-pong buffers.  The grid is centred and every step is a symmetric
   two-point convolution, so each PMF is bitwise mirror-symmetric: the
   kernel computes only the bins from the centre to the upper edge,
   reading below the centre through a mirrored margin, and mirrors the
   result once at the end.  Of those it computes, per row, only the bins
   the ISI support has reached so far — on link training about a third
   of the half grid, which is sized for the main cursor's rail as well;
   the bins past the support are ``+0.0`` and would compute to ``+0.0``.
   It performs each computed bin's float operations of the
   one-PMF-at-a-time convolution chain, so its output is bit-identical
   to that chain.  The solve records this stage as the
   ``stateye.pmf`` span and the timing model (step 4) as
   ``stateye.timing``.
3. **Crosstalk superposition** — each FEXT/NEXT aggressor
   (:mod:`repro.link.crosstalk`) contributes its own independent cursor
   set, convolved into the same PDF.  An aggressor's transmitter runs on
   its *own* clock, so by default its cursor PDF is averaged over a
   uniform phase offset within the UI (``aggressor_phase="asynchronous"``);
   ``"synchronous"`` keeps the legacy victim-phase sampling as an opt-in.
4. **Timing × amplitude combination** — the amplitude error probability
   (wrong side of the decision threshold) is combined with the
   gated-oscillator timing error probability
   (:class:`repro.statistical.GatedOscillatorBerModel` at the same
   sampling phase — one cached model serves the whole phase scan) into the
   ``BER(phase, threshold)`` surface.

The result is a :class:`StatisticalEye`: the full surface plus contour
extraction and horizontal/vertical eye openings at a target BER — the
million-point BER-contour workload bit-by-bit simulation cannot touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import telemetry
from .._validation import (
    require_non_negative,
    require_positive,
    require_positive_int,
    require_probability,
)
from ..datapath.cid import RunLengthDistribution
from ..jitter.pdf import Pdf
from ..statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel
from .isi import superpose_circular
from .path import LinkConfig, LinkPath

__all__ = [
    "AGGRESSOR_PHASE_MODES",
    "StatisticalEye",
    "StatisticalEyeSolver",
    "statistical_eye",
]

#: Aggressor sampling-phase statistics: ``"asynchronous"`` (default)
#: averages each aggressor's cursor PDF over a uniform phase offset within
#: the UI; ``"synchronous"`` samples it at the victim phase (legacy).
AGGRESSOR_PHASE_MODES = ("asynchronous", "synchronous")

#: Default pulse-response span (UI) of the solver — shared with the
#: link-training layer, whose DFE adaptation replays the solver's
#: training pattern length.
DEFAULT_SPAN_UI = 64


#: Cursor magnitudes below this (in victim-swing units) are numerical FFT
#: residue, not ISI — snapped to zero like the edge extractor's ``snap_ui``.
_CURSOR_SNAP = 1.0e-9


def _grid_half_bins(
    main_cursor: np.ndarray,
    isi_rows: np.ndarray,
    aggressors: list[np.ndarray],
    step: float,
    amplitude_noise_rms: float,
) -> int:
    """Half-width (cells) of a voltage grid no cursor PMF can spill off.

    The grid spans the worst-case sum of every cursor magnitude, the rail
    and ten noise sigmas.  Fractional-shift splitting can push each cursor
    one bin past its magnitude, so it is padded by one cell per cursor
    term, plus four: the outermost bins of every cursor PMF stay empty.
    """
    # Count only cursor terms that can shift mass at all — an all-zero
    # row (e.g. a zero-amplitude aggressor) must leave the grid, and
    # therefore the solved eye, bit-identical.
    n_cursor_terms = int(np.count_nonzero(np.max(np.abs(isi_rows), axis=1))) + sum(
        int(np.count_nonzero(np.max(np.abs(rows), axis=1))) for rows in aggressors
    )
    worst_case = (
        np.max(np.abs(main_cursor))
        + float(np.sum(np.max(np.abs(isi_rows), axis=1), initial=0.0))
        + sum(float(np.sum(np.max(np.abs(rows), axis=1))) for rows in aggressors)
        + 10.0 * amplitude_noise_rms
    )
    return int(np.ceil(worst_case / step)) + n_cursor_terms + 4


def _cursor_shifts(cursors: np.ndarray, step: float) -> np.ndarray:
    """Cursor magnitudes in grid cells, numerically-zero cursors snapped to 0.

    Snapping the FFT residue of clean channels (same idiom as the edge
    extractor's ``snap_ui``) lets an ideal channel solve to an exactly
    error-free amplitude eye.
    """
    magnitudes = np.abs(cursors)
    magnitudes[magnitudes < _CURSOR_SNAP] = 0.0
    return magnitudes / step


def _cursor_pmfs(shifts: np.ndarray, half_bins: int) -> np.ndarray:
    """Convolve every column of a cursor-shift matrix into one PMF row each.

    *shifts* is ``(n_cursors, n_columns)``: column ``j`` lists, in
    convolution order, the non-negative cursor magnitudes of one PMF in
    grid cells.  Row ``j`` of the ``(n_columns, 2·half_bins + 1)`` result
    starts as a unit mass at the centre bin ``half_bins`` and is convolved
    with the two-point distribution ``0.5·δ(+c) + 0.5·δ(−c)`` of every
    cursor ``c`` in turn.

    An off-grid impulse is split across the two adjacent bins with the
    weight chosen to preserve its **second moment** exactly (the pair is
    symmetric, so the mean is zero by construction): with ``c`` between
    bins ``m`` and ``m+1``, weight ``w = (c² − m²) / (2m + 1)`` gives
    ``(1−w)·m² + w·(m+1)² = c²``.  Cursors far below the grid step thus
    contribute their exact mean-square spread instead of being rounded
    away, and the total ISI variance is exact on any grid.  Each step is
    ``0.5·(1−w)·(p[i−m] + p[i+m]) + 0.5·w·(p[i−m−1] + p[i+m+1])`` per bin.

    Every PMF is bitwise mirror-symmetric about the centre: it starts
    symmetric, each step reads the same pair of bins at ``centre ± d``
    (IEEE addition commutes), and the grid drops mass alike at both
    edges.  So only bins ``centre … edge`` are computed.  They live
    bins-major in two ping-pong ``(pad + half_bins + 1 + pad, n_columns)``
    buffers, ``pad = max m + 1``: below the centre sits a ``pad``-cell
    margin refreshed as the mirror image of the computed bins after each
    row, and past the edge ``pad`` zero cells that are never written, so
    mass shifted off the grid drops.  One cursor row is one slice
    operation over all columns at the row's most common ``m`` (lowest on
    ties); the few columns with another ``m`` are then recomputed one at a
    time at their own.  The rows to skip (all shifts zero), each row's
    common ``m`` and its off-``m`` columns are found for all rows in one
    vectorised pass.

    Each row computes only the bins ``0 … bound − 1`` of its **support
    bound**: ``1 + Σ (max over columns of m + 1)`` over the live rows up
    to and including it, clipped to the ``half_bins + 1`` half grid.  A
    step reads at most ``m + 1`` bins away, so no PMF holds mass at or
    past its row's bound.  Both buffers start at ``+0.0`` there, and the
    bounds only grow, so every skipped bin still holds ``+0.0`` — the
    value recomputing it would give: ``0.5·(1−w)·(0 + 0) + 0.5·w·(0 + 0)``
    is ``+0.0`` for any finite ``w``, as the two weights sum to ``0.5``
    and so are never both negative.  The grid's half-width
    also covers the main cursor's rail and one padding cell per cursor,
    so over link training's solves the bound averages about a third of it.

    Every computed bin sees exactly the float operations of the
    one-PMF-at-a-time chain (a zero shift gives ``0.5·(p + p) = p`` and a
    zero weight adds ``+0``), so the result is bit-identical to it.
    """
    if half_bins < 0:
        raise ValueError(f"half_bins must be >= 0, got {half_bins!r}")
    n_rows, n_columns = shifts.shape
    whole = np.floor(shifts)
    weights = (shifts * shifts - whole * whole) / (2.0 * whole + 1.0)
    near = 0.5 * (1.0 - weights)
    far = 0.5 * weights
    whole = whole.astype(np.intp)
    pad = int(whole.max(initial=0)) + 1
    n_half = half_bins + 1

    # Per-row bookkeeping in one pass: the most common integer shift of
    # every row, the (row, m) groups of columns at another shift, and the
    # live rows (a row of zero shifts convolves every column with δ(0)).
    counts = np.bincount(
        (np.arange(n_rows)[:, None] * pad + whole).ravel(), minlength=n_rows * pad
    ).reshape(n_rows, pad)
    common = counts.argmax(axis=1)
    live = shifts.any(axis=1)
    # The support bound after each row: a row reaching at most m + 1 cells
    # widens it by that much, and the unit mass starts on one bin.
    reach = np.where(live, whole.max(axis=1, initial=0) + 1, 0)
    bounds = np.minimum(1 + np.cumsum(reach), n_half)
    off_rows, off_columns = np.nonzero((whole != common[:, None]) & live[:, None])
    others: dict[int, list[tuple[int, int]]] = {}
    for row, column, m in zip(
        off_rows.tolist(), off_columns.tolist(), whole[off_rows, off_columns].tolist()
    ):
        others.setdefault(row, []).append((column, m))

    current = np.zeros((n_half + 2 * pad, n_columns))
    current[pad] = 1.0
    following = np.zeros_like(current)
    spare = np.empty((n_half, n_columns))

    def convolve(source, m, near_row, far_row, out, scratch):
        n, low, high = len(out), pad - m, pad + m
        np.add(source[low : low + n], source[high : high + n], out=out)
        out *= near_row
        np.add(source[low - 1 : low - 1 + n], source[high + 1 : high + 1 + n], out=scratch)
        scratch *= far_row
        out += scratch

    rows = np.flatnonzero(live)
    for row, n, m in zip(rows.tolist(), bounds[rows].tolist(), common[rows].tolist()):
        target = following[pad : pad + n]
        convolve(current, m, near[row], far[row], target, spare[:n])
        for column, column_m in others.get(row, ()):
            convolve(
                current[:, column],
                column_m,
                near[row, column],
                far[row, column],
                target[:, column],
                spare[:n, 0],
            )
        following[:pad] = following[2 * pad : pad : -1]
        current, following = following, current
    pmfs = np.empty((n_columns, 2 * half_bins + 1))
    pmfs[:, half_bins:] = current[pad : pad + n_half].T
    pmfs[:, :half_bins] = pmfs[:, : half_bins : -1]
    return pmfs


def _amplitude_ber(cdf: np.ndarray, main_cursor: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Amplitude error probability at every (phase, threshold).

    A transmitted one (rail ``+main_cursor``) errs when its ISI noise,
    with CDF row *cdf[phase]* on *thresholds*, falls below
    ``threshold - rail``; a transmitted zero when it rises above
    ``threshold + rail`` (equiprobable bits).  Each phase interpolates
    both shifted grids in one ``np.interp`` call; numpy evaluates every
    point on its own, so this equals one call per grid.
    """
    n_bins = thresholds.size
    rails = main_cursor[:, None]
    shifted = np.concatenate((thresholds - rails, thresholds + rails), axis=1)
    below = np.empty_like(shifted)
    for phase_index, row in enumerate(shifted):
        below[phase_index] = np.interp(row, thresholds, cdf[phase_index], left=0.0, right=1.0)
    return 0.5 * (below[:, :n_bins] + (1.0 - below[:, n_bins:]))


@dataclass(frozen=True)
class StatisticalEye:
    """The solved statistical eye: a BER(phase, threshold) surface.

    Attributes
    ----------
    phases_ui:
        Sampling phases inside the unit interval (midpoint grid samples).
    thresholds:
        Decision-threshold voltage grid (victim swing units, 0 = slicer
        midpoint).
    ber:
        ``(len(phases_ui), len(thresholds))`` total BER surface —
        amplitude and timing error mechanisms combined (union bound,
        clipped at 1).
    timing_ber:
        Phase-only timing error probability (the analytic CDR model).
    amplitude_ber:
        Amplitude-only error probability surface.
    main_cursor:
        Main-cursor voltage at each phase (the eye rail position).
    noise_pmf:
        Per-phase probability mass of the ISI + crosstalk (+ Gaussian
        amplitude noise) voltage distribution on :attr:`thresholds`.
    """

    phases_ui: np.ndarray
    thresholds: np.ndarray
    ber: np.ndarray
    timing_ber: np.ndarray
    amplitude_ber: np.ndarray
    main_cursor: np.ndarray
    noise_pmf: np.ndarray = field(repr=False)

    @property
    def phase_step_ui(self) -> float:
        """Spacing of the phase scan (the whole UI for a one-phase eye)."""
        if self.phases_ui.size < 2:
            return 1.0
        return float(self.phases_ui[1] - self.phases_ui[0])

    def noise_pdf(self, phase_ui: float) -> Pdf:
        """ISI + crosstalk voltage distribution at the phase nearest *phase_ui*.

        Returned as a :class:`repro.jitter.pdf.Pdf` on the voltage grid, so
        the whole time-domain PDF calculus (moments, tail probabilities,
        further convolution) applies to the amplitude domain too.
        """
        index = int(np.argmin(np.abs(self.phases_ui - float(phase_ui))))
        step = float(self.thresholds[1] - self.thresholds[0])
        return Pdf(self.thresholds, self.noise_pmf[index] / step)

    def ber_at(self, phase_ui: float = 0.5, threshold: float = 0.0) -> float:
        """Total BER at one (sampling phase, decision threshold) point."""
        index = int(np.argmin(np.abs(self.phases_ui - float(phase_ui))))
        return float(np.interp(float(threshold), self.thresholds, self.ber[index]))

    def best_operating_point(self, threshold: float = 0.0) -> tuple[float, float]:
        """``(phase_ui, ber)`` of the minimum-BER phase at *threshold*.

        A wide-open eye floors at the same minimum over a whole phase
        span; the reported phase is the centre of the longest such
        plateau (first one on ties — deterministic), so pointing a CDR at
        it leaves margin on both sides instead of sampling at the edge.
        """
        column = int(np.argmin(np.abs(self.thresholds - float(threshold))))
        values = self.ber[:, column]
        minimum = float(values.min())
        at_minimum = np.flatnonzero(values == minimum)
        runs = np.split(at_minimum, np.flatnonzero(np.diff(at_minimum) > 1) + 1)
        plateau = max(runs, key=len)
        index = int(plateau[len(plateau) // 2])
        return float(self.phases_ui[index]), minimum

    def contour(self, target_ber: float = 1.0e-12) -> tuple[np.ndarray, np.ndarray]:
        """Eye contour at *target_ber*: per phase, the passing threshold band.

        Returns ``(lower, upper)`` threshold arrays over :attr:`phases_ui`;
        ``NaN`` where no threshold meets the target (closed eye).
        """
        require_probability("target_ber", target_ber)
        passing = self.ber <= target_ber
        last_column = self.thresholds.size - 1
        first = passing.argmax(axis=1)
        last = last_column - passing[:, ::-1].argmax(axis=1)
        is_open = passing.any(axis=1)
        lower = np.where(is_open, self.thresholds[first], np.nan)
        upper = np.where(is_open, self.thresholds[last], np.nan)
        return lower, upper

    def horizontal_opening_ui(self, target_ber: float = 1.0e-12, threshold: float = 0.0) -> float:
        """Width (UI) of the phase span meeting *target_ber* at *threshold*."""
        require_probability("target_ber", target_ber)
        column = int(np.argmin(np.abs(self.thresholds - float(threshold))))
        passing = self.ber[:, column] <= target_ber
        return float(np.count_nonzero(passing)) * self.phase_step_ui

    def vertical_opening(self, target_ber: float = 1.0e-12, phase_ui: float | None = None) -> float:
        """Height (voltage) of the threshold band meeting *target_ber*.

        At the phase nearest *phase_ui*, or the widest band over all
        phases when *phase_ui* is ``None``; zero for a closed eye.
        """
        lower, upper = self.contour(target_ber)
        heights = np.where(np.isnan(lower), 0.0, upper - lower)
        if phase_ui is None:
            return float(heights.max()) if heights.size else 0.0
        index = int(np.argmin(np.abs(self.phases_ui - float(phase_ui))))
        return float(heights[index])


class StatisticalEyeSolver:
    """Builds the statistical eye of one link configuration.

    Parameters
    ----------
    link:
        The victim link (:class:`LinkConfig` or a prepared
        :class:`LinkPath`); its crosstalk population, when present,
        contributes aggressor cursor PDFs.
    budget:
        Jitter environment of the timing (CDR) term.  Defaults to Table 1
        with ``dj_ui_pp = 0`` — deterministic jitter *emerges* from the ISI
        cursor PDF here, so the budget should carry only non-ISI terms
        (random, sinusoidal, oscillator, frequency offset).  Pass
        :meth:`repro.link.LinkPath.jitter_budget` output instead to fold
        the dual-Dirac DDJ fit into the timing walls as well (conservative:
        ISI then counts in both domains).
    run_lengths:
        Line-code run-length statistics of the timing model (default: the
        model's 8b/10b worst case).
    span_ui:
        Pulse-response span; must cover the channel settling tail.
    voltage_step:
        Voltage-grid resolution of the cursor PDF convolution.
    amplitude_noise_rms:
        Optional Gaussian amplitude noise (thermal/reference) convolved
        into every phase's PDF.
    grid_step_ui:
        Time-domain grid resolution of the analytic BER model.
    aggressor_phase:
        ``"asynchronous"`` (default) — each aggressor transmits on its own
        clock, so its cursor PDF is averaged over a uniform phase offset
        within the UI; ``"synchronous"`` — legacy behaviour, aggressor
        cursors sampled at the victim phase.
    timing_model:
        Optional pre-built :class:`GatedOscillatorBerModel` supplying the
        timing term.  The link-training objective shares one model across
        every candidate lineup this way (the timing environment does not
        depend on the equalizers); when given, *budget*, *run_lengths*
        and *grid_step_ui* are ignored for the timing term.
    """

    def __init__(
        self,
        link: LinkConfig | LinkPath | None = None,
        *,
        budget: CdrJitterBudget | None = None,
        run_lengths: RunLengthDistribution | None = None,
        span_ui: int = DEFAULT_SPAN_UI,
        voltage_step: float = 0.01,
        amplitude_noise_rms: float = 0.0,
        grid_step_ui: float = 2.0e-3,
        aggressor_phase: str = "asynchronous",
        timing_model: GatedOscillatorBerModel | None = None,
    ) -> None:
        self.path = link if isinstance(link, LinkPath) else LinkPath(link)
        self.budget = budget if budget is not None else replace(CdrJitterBudget(), dj_ui_pp=0.0)
        self.run_lengths = run_lengths
        self.span_ui = require_positive_int("span_ui", span_ui)
        self.voltage_step = require_positive("voltage_step", voltage_step)
        self.amplitude_noise_rms = require_non_negative("amplitude_noise_rms", amplitude_noise_rms)
        self.grid_step_ui = require_positive("grid_step_ui", grid_step_ui)
        if aggressor_phase not in AGGRESSOR_PHASE_MODES:
            raise ValueError(
                f"unknown aggressor_phase {aggressor_phase!r}; expected one "
                f"of {list(AGGRESSOR_PHASE_MODES)}"
            )
        self.aggressor_phase = aggressor_phase
        self.timing_model = timing_model

    # -- cursor extraction ----------------------------------------------------

    def full_pulse_response(self) -> np.ndarray:
        """Victim single-bit response through every linear stage (incl. DFE).

        TX FFE applies in the symbol domain, channel × CTLE through the
        cached equalized pulse response, and a configured DFE subtracts its
        *trained* tap weights over the corresponding post-cursor unit
        intervals (its feedback is piecewise-constant per UI, so the
        subtraction is exact for the adapted weights).
        """
        config = self.path.config
        spu = config.timebase.samples_per_ui
        impulse = np.zeros(self.span_ui)
        impulse[0] = 1.0
        symbols = impulse if config.tx_ffe is None else config.tx_ffe.apply_to_symbols(impulse)
        pulse = self.path.equalized_pulse_response(self.span_ui)
        full = superpose_circular(symbols, pulse, spu)
        if config.dfe is not None:
            weights = self._trained_dfe_weights()
            for offset, weight in enumerate(weights, start=1):
                if offset >= self.span_ui:
                    break
                full[offset * spu : (offset + 1) * spu] -= weight
        return full

    def _trained_dfe_weights(self) -> np.ndarray:
        """Adapt the configured DFE on a PRBS training pattern of the span."""
        from ..datapath.prbs import prbs_sequence

        self.path.received_pattern_waveform(prbs_sequence(7, self.span_ui))
        adaptation = self.path.last_dfe_adaptation
        if adaptation is None:  # pragma: no cover - guarded by config.dfe
            return np.zeros(0)
        return np.asarray(adaptation.weights, dtype=float)

    def cursor_matrix(self) -> np.ndarray:
        """``(span_ui, samples_per_ui)`` victim cursor samples.

        Row ``k`` holds unit interval ``k`` of the full pulse response;
        column ``i`` is one candidate sampling phase (midpoint grid).
        """
        spu = self.path.config.timebase.samples_per_ui
        return self.full_pulse_response().reshape(self.span_ui, spu)

    def aggressor_cursor_matrices(self) -> list[np.ndarray]:
        """Per-aggressor ``(span_ui, samples_per_ui)`` cursor samples."""
        spu = self.path.config.timebase.samples_per_ui
        return [
            pulse.reshape(self.span_ui, spu)
            for pulse in self.path.aggressor_pulse_responses(self.span_ui)
        ]

    # -- solution --------------------------------------------------------------

    def solve(self) -> StatisticalEye:
        """Compute the full BER(phase, threshold) statistical eye."""
        spu = self.path.config.timebase.samples_per_ui
        cursors = self.cursor_matrix()
        aggressors = self.aggressor_cursor_matrices()

        main_row = int(np.argmax(np.max(np.abs(cursors), axis=1)))
        main_cursor = cursors[main_row].copy()
        isi_rows = np.delete(cursors, main_row, axis=0)

        step = self.voltage_step
        half_bins = _grid_half_bins(
            main_cursor, isi_rows, aggressors, step, self.amplitude_noise_rms
        )
        thresholds = np.arange(-half_bins, half_bins + 1, dtype=float) * step

        gaussian = None
        if self.amplitude_noise_rms > 0.0:
            weights = np.exp(-0.5 * (thresholds / self.amplitude_noise_rms) ** 2)
            gaussian = weights / weights.sum()

        tracer = telemetry.ACTIVE
        with tracer.span("stateye.pmf"):
            # Aggressors whose cursor rows are all zero shift no probability
            # mass in either phase mode — skipping them keeps zero-amplitude
            # populations bit-identical to the crosstalk-free solve.
            live_aggressors = [
                rows for rows in aggressors if np.count_nonzero(np.max(np.abs(rows), axis=1))
            ]
            # The averaged PMFs are phase-independent, so the whole population
            # pre-combines into one convolution kernel outside the phase loop.
            aggressor_kernel = None
            if self.aggressor_phase == "asynchronous":
                for rows in live_aggressors:
                    pmf = self._phase_averaged_pmf(rows, step, half_bins)
                    aggressor_kernel = (
                        pmf
                        if aggressor_kernel is None
                        else np.convolve(aggressor_kernel, pmf, mode="same")
                    )

            # Column i lists the cursors seen at sampling phase i: the victim's
            # ISI, then (synchronous mode) every live aggressor's.
            phase_cursors = isi_rows
            if self.aggressor_phase == "synchronous":
                phase_cursors = np.concatenate((isi_rows, *live_aggressors))
            noise_pmf = _cursor_pmfs(_cursor_shifts(phase_cursors, step), half_bins)
            for kernel in (aggressor_kernel, gaussian):
                if kernel is not None:
                    for pmf in noise_pmf:
                        pmf[:] = np.convolve(pmf, kernel, mode="same")

        amplitude_ber = _amplitude_ber(np.cumsum(noise_pmf, axis=1), main_cursor, thresholds)

        phases_ui = (np.arange(spu) + 0.5) / spu
        with tracer.span("stateye.timing"):
            model = self.timing_model
            if model is None:
                model = GatedOscillatorBerModel(
                    self.budget,
                    run_lengths=self.run_lengths,
                    grid_step_ui=self.grid_step_ui,
                )
            timing_ber = model.ber_at_phases(phases_ui)

        total = np.clip(timing_ber[:, None] + amplitude_ber, 0.0, 1.0)
        return StatisticalEye(
            phases_ui=phases_ui,
            thresholds=thresholds,
            ber=total,
            timing_ber=timing_ber,
            amplitude_ber=amplitude_ber,
            main_cursor=main_cursor,
            noise_pmf=noise_pmf,
        )

    def _phase_averaged_pmf(self, rows: np.ndarray, step: float, half_bins: int) -> np.ndarray:
        """One aggressor's cursor PMF averaged over a uniform in-UI offset.

        The aggressor's transmitter is asynchronous to the victim, so the
        phase offset between their unit intervals is uniform over the UI.
        On the circular span grid an offset of ``j`` cells permutes the
        sampled cursor multiset to column ``(i + j) mod spu`` of the
        cursor matrix — the offset average is therefore the
        column-averaged PDF, identical at every victim phase ``i``.
        Amplitude error probability is linear in the noise PMF and
        independent aggressors combine by convolution, so averaging at
        the PDF level (a mixture over offsets) is exact, not an
        approximation.
        """
        average = np.zeros(2 * half_bins + 1)
        for pmf in _cursor_pmfs(_cursor_shifts(rows, step), half_bins):
            average += pmf
        return average / rows.shape[1]


def statistical_eye(link: LinkConfig | LinkPath | None = None, **parameters) -> StatisticalEye:
    """Convenience wrapper: solve the statistical eye of *link* in one call."""
    return StatisticalEyeSolver(link, **parameters).solve()
