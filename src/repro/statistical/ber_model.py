"""Statistical BER model of the gated-oscillator CDR.

This is the Python equivalent of the paper's Matlab statistical model
(section 3.1): it combines deterministic, random, sinusoidal and oscillator
jitter distributions with the frequency offset accumulated over consecutive
identical digits (CID) and returns the bit error ratio analytically — well
below the 1e-12 target, where Monte-Carlo simulation is hopeless.

Model
-----

The gated oscillator is re-phased by every incoming data transition.  Consider
a run of ``k`` identical bits started by a transition (the *trigger*):

* The recovered sampling edge for the ``i``-th bit of the run sits at

      S_i = (i - 1 + phi_s) * (1 + eps) + G_i        [UI after the trigger]

  where ``phi_s`` is the sampling phase (0.5 for the nominal tap, 0.375 for
  the improved tap shifted T/8 earlier), ``eps`` the relative period error of
  the oscillator versus the incoming data, and ``G_i`` the oscillator jitter
  accumulated over ``i`` bit periods of free running (Gaussian with sigma
  growing as sqrt(i)).

* The run is bounded on the left by the trigger itself (zero relative jitter —
  the paper routes data through the edge-detector delay line precisely so that
  trigger jitter is common-mode) and on the right, ``k`` UI later, by the next
  transition, displaced by the *relative* data jitter between the two edges:
  independent DJ and RJ on each edge plus the differential sinusoidal jitter
  whose amplitude is ``2 * A * |sin(pi * f_sj * k / f_bit)|``.

* A bit error occurs when the sampling edge leaves the run: ``S_i < 0``
  (samples the previous, different bit) or ``S_i > k + J_end`` (samples the
  next, different bit).

The BER is the average of those probabilities over the run-length/position
statistics of the line code (worst case CID = 5 for 8b/10b, longer for PRBS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .. import units
from .._validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)
from ..datapath.cid import RunLengthDistribution, geometric_run_distribution
from ..jitter.pdf import (
    DEFAULT_GRID_STEP_UI,
    Pdf,
    delta_pdf,
    gaussian_pdf,
    sinusoidal_pdf,
    uniform_pdf,
)
from .qfunc import q_function

__all__ = [
    "NOMINAL_SAMPLING_PHASE_UI",
    "IMPROVED_SAMPLING_PHASE_UI",
    "CdrJitterBudget",
    "GatedOscillatorBerModel",
    "BerBreakdown",
]

#: Nominal sampling phase: the recovered clock rises T/2 after the trigger.
NOMINAL_SAMPLING_PHASE_UI = 0.5

#: Improved sampling phase: the inverted third-stage tap is T/8 earlier (paper §3.3b).
IMPROVED_SAMPLING_PHASE_UI = 0.375


@dataclass(frozen=True)
class CdrJitterBudget:
    """Jitter and frequency-error environment of the statistical model.

    Default values reproduce Table 1 of the paper.

    Attributes
    ----------
    dj_ui_pp:
        Deterministic jitter on each data edge, peak-to-peak (uniform PDF).
    rj_ui_rms:
        Random jitter on each data edge, rms (Gaussian PDF).
    sj_amplitude_ui_pp:
        Sinusoidal jitter peak-to-peak amplitude (swept in JTOL experiments).
    sj_frequency_hz:
        Sinusoidal jitter frequency.
    osc_sigma_ui_per_bit:
        Oscillator jitter accumulated per bit period of free running, rms, in
        UI.  The paper budgets 0.01 UI rms at CID = 5, i.e. 0.01 / sqrt(5) per
        bit period.
    frequency_offset:
        Relative frequency error between the oscillator and the incoming data
        (positive = oscillator slow, period longer than the bit period).
    bit_rate_hz:
        Channel data rate (used only to relate SJ frequency to the bit rate).
    """

    dj_ui_pp: float = 0.4
    rj_ui_rms: float = 0.021
    sj_amplitude_ui_pp: float = 0.0
    sj_frequency_hz: float = 100.0e6
    osc_sigma_ui_per_bit: float = 0.01 / math.sqrt(5.0)
    frequency_offset: float = 0.0
    bit_rate_hz: float = units.DEFAULT_BIT_RATE

    def __post_init__(self) -> None:
        require_non_negative("dj_ui_pp", self.dj_ui_pp)
        require_non_negative("rj_ui_rms", self.rj_ui_rms)
        require_non_negative("sj_amplitude_ui_pp", self.sj_amplitude_ui_pp)
        require_positive("sj_frequency_hz", self.sj_frequency_hz)
        require_non_negative("osc_sigma_ui_per_bit", self.osc_sigma_ui_per_bit)
        require_in_range("frequency_offset", self.frequency_offset, -0.5, 0.5)
        require_positive("bit_rate_hz", self.bit_rate_hz)

    @classmethod
    def paper_table1(
        cls,
        sj_amplitude_ui_pp: float = 0.0,
        sj_frequency_hz: float = 100.0e6,
        frequency_offset: float = 0.0,
    ) -> "CdrJitterBudget":
        """Return the Table 1 budget with the swept stressors filled in."""
        return cls(
            sj_amplitude_ui_pp=sj_amplitude_ui_pp,
            sj_frequency_hz=sj_frequency_hz,
            frequency_offset=frequency_offset,
        )

    def with_sinusoidal(
        self, amplitude_ui_pp: float, frequency_hz: float | None = None
    ) -> "CdrJitterBudget":
        """Return a copy with the sinusoidal-jitter stressor replaced."""
        return replace(
            self,
            sj_amplitude_ui_pp=amplitude_ui_pp,
            sj_frequency_hz=self.sj_frequency_hz if frequency_hz is None else frequency_hz,
        )

    def with_frequency_offset(self, frequency_offset: float) -> "CdrJitterBudget":
        """Return a copy with the oscillator frequency offset replaced."""
        return replace(self, frequency_offset=frequency_offset)

    def sj_frequency_normalised(self) -> float:
        """Sinusoidal jitter frequency normalised to the data rate."""
        return self.sj_frequency_hz / self.bit_rate_hz

    def relative_sj_pp_over_gap(self, gap_ui: float) -> float:
        """Differential SJ peak-to-peak amplitude between two edges *gap_ui* apart."""
        phase_gap = math.pi * self.sj_frequency_normalised() * gap_ui
        return 2.0 * self.sj_amplitude_ui_pp * abs(math.sin(phase_gap))


@dataclass(frozen=True)
class BerBreakdown:
    """Detailed result of a BER evaluation.

    Attributes
    ----------
    ber:
        Total bit error ratio.
    ber_right:
        Contribution of sampling past the end-of-run transition.
    ber_left:
        Contribution of sampling before the run-start transition.
    per_run_length:
        ``{k: BER contribution of runs of length k}`` (already weighted by the
        probability of a bit belonging to such a run).
    """

    ber: float
    ber_right: float
    ber_left: float
    per_run_length: dict[int, float] = field(default_factory=dict)

    def dominant_run_length(self) -> int:
        """Run length contributing the most errors."""
        if not self.per_run_length:
            return 0
        return max(self.per_run_length, key=self.per_run_length.get)


class GatedOscillatorBerModel:
    """Analytic BER model of a gated-oscillator CDR channel.

    Parameters
    ----------
    budget:
        Jitter / frequency environment (defaults to Table 1).
    sampling_phase_ui:
        Phase of the recovered sampling edge after the trigger transition, in
        UI.  0.5 for the nominal topology (Figure 7), 0.375 for the improved
        topology (Figure 15).
    run_lengths:
        Run-length distribution of the line code.  Defaults to the worst-case
        8b/10b distribution (CID limited to 5).
    grid_step_ui:
        Resolution of the numerical PDF grid.
    static_phase_error_ui:
        Constant sampling-phase error (gate-delay mismatch not compensated by
        the dummy gates); added to the sampling phase.
    """

    def __init__(
        self,
        budget: CdrJitterBudget | None = None,
        *,
        sampling_phase_ui: float = NOMINAL_SAMPLING_PHASE_UI,
        run_lengths: RunLengthDistribution | None = None,
        grid_step_ui: float = DEFAULT_GRID_STEP_UI,
        static_phase_error_ui: float = 0.0,
    ) -> None:
        self.budget = budget or CdrJitterBudget()
        self.sampling_phase_ui = require_in_range(
            "sampling_phase_ui", sampling_phase_ui, 0.0, 1.0, inclusive=False
        )
        self.run_lengths = run_lengths or geometric_run_distribution(max_run=5)
        self.grid_step_ui = require_positive("grid_step_ui", grid_step_ui)
        self.static_phase_error_ui = float(static_phase_error_ui)
        #: Lazily built ``{run length: boundary Pdf}`` cache.  The edge-pair
        #: PDFs depend only on the jitter budget and the run length — never on
        #: the sampling phase — so phase scans (bathtubs, eye margins, the
        #: statistical eye solver) reuse them instead of re-convolving per probe.
        #: Run lengths share one gap-independent DJ ⊛ RJ prefix; without SJ
        #: every entry is that same prefix object.
        self._boundary_pdf_cache: dict[int, Pdf] = {}
        self._edge_prefix_pdf: Pdf | None = None

    # -- internal building blocks ------------------------------------------

    def _edge_pair_pdf(self, gap_ui: float) -> Pdf:
        """Distribution of the end-of-run edge displacement relative to the trigger.

        Deterministic jitter is pattern-correlated (inter-symbol interference /
        duty-cycle distortion), so — following the paper's Table 1 convention —
        its uniform PDF bounds the *relative* displacement between the two
        edges and enters once.  Random jitter is independent per edge and
        enters with sqrt(2) times its per-edge sigma; sinusoidal jitter enters
        through its differential amplitude over the *gap_ui* separation.

        The ``delta ⊛ uniform(DJ) ⊛ gaussian(√2·RJ)`` prefix does not depend
        on the gap, so it is built once per model; only the SJ term, when
        present, is convolved per gap.  Each gap's PDF is the result of the
        same convolution sequence as building the whole chain per gap.
        """
        budget = self.budget
        step = self.grid_step_ui
        pdf = self._edge_prefix_pdf
        if pdf is None:
            pdf = delta_pdf(0.0, step)
            if budget.dj_ui_pp > 0.0:
                pdf = pdf.convolve(uniform_pdf(budget.dj_ui_pp, step))
            if budget.rj_ui_rms > 0.0:
                rj_diff = gaussian_pdf(budget.rj_ui_rms * math.sqrt(2.0), step)
                pdf = pdf.convolve(rj_diff)
            self._edge_prefix_pdf = pdf
        relative_sj = budget.relative_sj_pp_over_gap(gap_ui)
        if relative_sj > 0.0:
            pdf = pdf.convolve(sinusoidal_pdf(relative_sj, step))
        return pdf

    def _boundary_pdf(self, run_length: int) -> Pdf:
        """Cached end-of-run boundary PDF for runs of *run_length* bits."""
        pdf = self._boundary_pdf_cache.get(run_length)
        if pdf is None:
            pdf = self._edge_pair_pdf(float(run_length))
            self._boundary_pdf_cache[run_length] = pdf
        return pdf

    def _sampling_means_ui(
        self, positions: np.ndarray, phases_ui: np.ndarray | None = None
    ) -> np.ndarray:
        """Mean sampling instant of each run *position* (UI after the trigger).

        With *phases_ui* given, returns a ``(n_phases, n_positions)`` grid —
        the phase-vectorised form the bathtub/eye scans broadcast over.
        """
        if phases_ui is None:
            phi = self.sampling_phase_ui + self.static_phase_error_ui
            return (positions - 1 + phi) * (1.0 + self.budget.frequency_offset)
        phi = phases_ui[:, None] + self.static_phase_error_ui
        return (positions[None, :] - 1 + phi) * (1.0 + self.budget.frequency_offset)

    def _sampling_sigmas_ui(self, positions: np.ndarray) -> np.ndarray:
        """RMS accumulated oscillator jitter at each run position's sampling edge."""
        return self.budget.osc_sigma_ui_per_bit * np.sqrt(positions.astype(float))

    def _right_error_probabilities(
        self, means: np.ndarray, positions: np.ndarray, run_length: int, boundary_pdf: Pdf
    ) -> np.ndarray:
        """Right-overshoot probability; *means* may carry a leading phase axis."""
        sigmas = self._sampling_sigmas_ui(positions)
        # Error when  mean + G > run_length + J_end  <=>  G - J_end > run_length - mean.
        margins = float(run_length) - means
        grid = boundary_pdf.grid
        density = boundary_pdf.density
        if self.budget.osc_sigma_ui_per_bit > 0.0:
            tails = q_function((margins[..., None] + grid) / sigmas[:, None])
        else:
            tails = (grid < -margins[..., None]).astype(float)
        probabilities = np.sum(density * tails, axis=-1) * boundary_pdf.step
        return np.clip(probabilities, 0.0, 1.0)

    def _left_error_probabilities(self, means: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Before-run-start probability; *means* may carry a leading phase axis."""
        if self.budget.osc_sigma_ui_per_bit <= 0.0:
            return (means < 0.0).astype(float)
        return np.asarray(q_function(means / self._sampling_sigmas_ui(positions)), dtype=float)

    # -- public API ----------------------------------------------------------

    def ber_breakdown(self) -> BerBreakdown:
        """Evaluate the BER and return its decomposition by mechanism and run length.

        The position loop inside each run length is vectorised: every run of
        length ``k`` shares one boundary PDF, and the per-position overshoot
        integrals collapse to one ``(k, grid)`` broadcast against it.
        """
        joint = self.run_lengths.position_in_run_weights()
        max_run = self.run_lengths.max_run

        total = 0.0
        total_right = 0.0
        total_left = 0.0
        per_run: dict[int, float] = {}

        for k in range(1, max_run + 1):
            boundary_pdf = self._boundary_pdf(k)
            positions = np.arange(1, k + 1)
            weights = joint[k - 1, :k]
            means = self._sampling_means_ui(positions)
            p_right = self._right_error_probabilities(means, positions, k, boundary_pdf)
            p_left = self._left_error_probabilities(means, positions)
            p_bit = np.minimum(1.0, p_right + p_left)
            active = weights > 0.0
            run_contribution = float(np.sum(weights[active] * p_bit[active]))
            total_right += float(np.sum(weights[active] * p_right[active]))
            total_left += float(np.sum(weights[active] * p_left[active]))
            per_run[k] = run_contribution
            total += run_contribution

        return BerBreakdown(
            ber=float(min(total, 1.0)),
            ber_right=float(min(total_right, 1.0)),
            ber_left=float(min(total_left, 1.0)),
            per_run_length=per_run,
        )

    def ber(self) -> float:
        """Total bit error ratio under the configured conditions."""
        return self.ber_breakdown().ber

    def ber_at_phases(self, phases_ui: np.ndarray) -> np.ndarray:
        """BER at every sampling phase in *phases_ui* with one shared setup.

        The boundary PDFs and run-length statistics are phase-independent;
        only the sampling means shift with the phase.  All phases therefore
        share the cached per-run-length PDFs and collapse to one
        ``(n_phases, positions, grid)`` broadcast per run length — a phase
        scan costs barely more than a single-point evaluation, instead of
        rebuilding the full model per probe.
        """
        phases_ui = np.atleast_1d(np.asarray(phases_ui, dtype=float))
        joint = self.run_lengths.position_in_run_weights()
        max_run = self.run_lengths.max_run
        totals = np.zeros(phases_ui.shape, dtype=float)
        for k in range(1, max_run + 1):
            boundary_pdf = self._boundary_pdf(k)
            positions = np.arange(1, k + 1)
            weights = joint[k - 1, :k]
            means = self._sampling_means_ui(positions, phases_ui)
            p_right = self._right_error_probabilities(means, positions, k, boundary_pdf)
            p_left = self._left_error_probabilities(means, positions)
            p_bit = np.minimum(1.0, p_right + p_left)
            totals += p_bit @ weights
        return np.minimum(totals, 1.0)

    def ber_at_phase(self, phase_ui: float) -> float:
        """BER with the sampling phase moved to *phase_ui* (same budget/code)."""
        return float(self.ber_at_phases(np.array([float(phase_ui)]))[0])

    def eye_margin_ui(self, target_ber: float = 1.0e-12, *, tolerance_ui: float = 1.0e-4) -> float:
        """Horizontal eye margin: how much the sampling phase can move before BER > target.

        Returns the width (UI) of the sampling-phase interval around the
        configured phase for which the BER stays at or below *target_ber*;
        zero if the configured point itself already fails.  Each eye edge is
        located by bisection to *tolerance_ui* (reusing the cached boundary
        PDFs — only the sampling means move with the phase), so the margin
        varies smoothly with *target_ber* and can credit the full 0 / 1 UI
        span instead of stalling one fixed step short of it.
        """
        require_positive("target_ber", target_ber)
        require_positive("tolerance_ui", tolerance_ui)
        if self.ber() > target_ber:
            return 0.0

        def passes(phase: float) -> bool:
            return self.ber_at_phase(phase) <= target_ber

        if passes(0.0):
            left = 0.0
        else:
            low, high = 0.0, self.sampling_phase_ui  # low fails, high passes
            while high - low > tolerance_ui:
                middle = 0.5 * (low + high)
                if passes(middle):
                    high = middle
                else:
                    low = middle
            left = high
        if passes(1.0):
            right = 1.0
        else:
            low, high = self.sampling_phase_ui, 1.0  # low passes, high fails
            while high - low > tolerance_ui:
                middle = 0.5 * (low + high)
                if passes(middle):
                    low = middle
                else:
                    high = middle
            right = low
        return float(right - left)

    def sweep_sampling_phase(self, phases_ui: np.ndarray) -> np.ndarray:
        """Return the BER for each sampling phase in *phases_ui* (bathtub curve)."""
        return self.ber_at_phases(np.asarray(phases_ui, dtype=float))

    def optimum_sampling_phase(self, resolution_ui: float = 0.01) -> tuple[float, float]:
        """Return ``(best_phase_ui, best_ber)`` over a phase scan at *resolution_ui*."""
        require_positive("resolution_ui", resolution_ui)
        phases = np.arange(resolution_ui, 1.0, resolution_ui)
        bers = self.sweep_sampling_phase(phases)
        index = int(np.argmin(bers))
        return float(phases[index]), float(bers[index])
