"""Statistical-eye training objective: a cached, phase-aware lineup cost.

Link training needs to rank hundreds of candidate equalizer lineups per
channel; bit-true simulation cannot score any of them at the BER targets
that matter (see :mod:`repro.link.stateye`), and re-solving the timing
term per candidate would waste the one part of the eye that equalizers
cannot change.  :class:`StatEyeObjective` therefore wraps
:class:`~repro.link.stateye.StatisticalEyeSolver` into a cost function
with two invariants:

* **cached** — every solved lineup is memoised by its (hashable) equalizer
  stages, so the grid phase and the coordinate-descent phase of the search
  never pay twice for the same point, and only cache *misses* count
  against the training budget;
* **phase-aware** — the score is taken from the full BER(phase, threshold)
  surface: the horizontal opening at the slicer midpoint, the widest
  vertical opening over all sampling phases, and the BER at the best
  operating phase (which the score records, so a trained lineup knows
  where its CDR should sample).

By default the objective also folds each candidate's **data-dependent
jitter** (the dual-Dirac fit of its edge displacements,
:meth:`repro.link.LinkPath.jitter_budget`) into the timing walls.
Without it, an over-peaked CTLE wins on vertical opening while quietly
displacing edges — a lineup a real bit-true receiver times *worse* on;
folding is the repository's established conservative hand-off (ISI then
counts in both domains).  With ``fold_ddj=False`` the objective scores
the amplitude domain only, and one
:class:`~repro.statistical.ber_model.GatedOscillatorBerModel` is built
lazily and shared across every candidate, since the timing environment
is then equalizer-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ... import telemetry
from ..._validation import require_in_range, require_non_negative, require_positive
from ...datapath.cid import RunLengthDistribution
from ...datapath.prbs import prbs_sequence
from ...statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel
from ..equalization import LmsDfe, RxCtle, TxFfe
from ..path import LinkConfig, LinkPath
from ..stateye import StatisticalEye, StatisticalEyeSolver

__all__ = ["EyeScore", "StatEyeObjective"]

#: BER below this contributes no further score — the -log10 term saturates.
_BER_FLOOR = 1.0e-30

#: :class:`StatisticalEyeSolver` keywords a caller may set through
#: ``solver_options``; the timing environment is the objective's own.
_SOLVER_OPTIONS = ("span_ui", "voltage_step", "amplitude_noise_rms", "aggressor_phase")


@dataclass(frozen=True)
class EyeScore:
    """Phase-aware figure of merit of one equalizer lineup.

    Attributes
    ----------
    horizontal_ui / vertical:
        Eye openings at the objective's target BER: the phase span passing
        at the slicer midpoint, and the widest threshold band over all
        sampling phases (the statistical-eye metrics the acceptance tests
        pin).
    ber:
        Total BER at the best operating phase (midpoint threshold).
    ber_nominal:
        Total BER at the nominal 0.5 UI sampling phase — the number the
        bit-true cross-check compares against.
    best_phase_ui:
        The minimum-BER sampling phase, recorded so a trained lineup
        carries its preferred CDR operating point.
    score:
        The scalar the search maximises: openings first, with a small
        saturating ``-log10(BER)`` term so closed-eye candidates still
        rank by how close they are to opening.
    """

    horizontal_ui: float
    vertical: float
    ber: float
    ber_nominal: float
    best_phase_ui: float
    score: float


class StatEyeObjective:
    """Score equalizer lineups on one channel via the statistical eye.

    Parameters
    ----------
    link:
        The channel environment being trained: its channel model,
        crosstalk population and timebase are kept, while the equalizer
        stages are replaced per candidate.
    budget / run_lengths / grid_step_ui:
        Timing environment handed to the shared
        :class:`GatedOscillatorBerModel` (same semantics as
        :class:`~repro.link.stateye.StatisticalEyeSolver`).
    target_ber:
        BER at which the eye openings are extracted.
    horizontal_weight:
        Weight of the horizontal opening (UI) against the vertical opening
        (victim-swing units) in the scalar score.
    ber_weight:
        Weight of the saturating ``-log10(BER)`` tiebreak term that ranks
        closed-eye candidates.
    fold_ddj:
        Fold each candidate's dual-Dirac DDJ fit into its timing budget
        (default).  ``False`` scores the amplitude domain only and shares
        one timing model across all candidates.
    ddj_pattern_bits:
        Pattern whose edge displacements feed the DDJ fit (default: one
        PRBS7 period, the repository's reference stimulus).
    solver_options:
        Extra keyword arguments forwarded to every
        :class:`StatisticalEyeSolver` (``span_ui``, ``voltage_step``,
        ``amplitude_noise_rms``, ``aggressor_phase``).

    Raises
    ------
    ValueError
        At construction, for a non-positive or non-finite *grid_step_ui*,
        an unknown *solver_options* key or a value the solver rejects.
    """

    def __init__(
        self,
        link: LinkConfig | None = None,
        *,
        budget: CdrJitterBudget | None = None,
        run_lengths: RunLengthDistribution | None = None,
        target_ber: float = 1.0e-12,
        horizontal_weight: float = 1.0,
        ber_weight: float = 0.01,
        fold_ddj: bool = True,
        ddj_pattern_bits: np.ndarray | None = None,
        grid_step_ui: float = 2.0e-3,
        solver_options: dict | None = None,
    ) -> None:
        self.link = link if link is not None else LinkConfig()
        self.budget = budget
        self.run_lengths = run_lengths
        require_in_range("target_ber", target_ber, 0.0, 1.0, inclusive=False)
        self.target_ber = target_ber
        require_non_negative("horizontal_weight", horizontal_weight)
        require_non_negative("ber_weight", ber_weight)
        self.horizontal_weight = horizontal_weight
        self.ber_weight = ber_weight
        self.fold_ddj = fold_ddj
        self.ddj_pattern_bits = (
            prbs_sequence(7, 127)
            if ddj_pattern_bits is None
            else np.asarray(ddj_pattern_bits, dtype=np.uint8).ravel()
        )
        self.grid_step_ui = require_positive("grid_step_ui", grid_step_ui)
        self.solver_options = dict(solver_options or {})
        unknown = sorted(set(self.solver_options) - set(_SOLVER_OPTIONS))
        if unknown:
            raise ValueError(
                f"unknown solver_options {unknown}; expected some of {list(_SOLVER_OPTIONS)}"
            )
        # The solver's own checks, run once here so a bad spec is rejected
        # before any candidate is scored.
        StatisticalEyeSolver(self.link, **self.solver_options)
        self._timing_model: GatedOscillatorBerModel | None = None
        self._cache: dict[tuple, EyeScore] = {}
        self._evaluations = 0

    @property
    def evaluations(self) -> int:
        """Number of statistical-eye solves so far (cache hits are free)."""
        return self._evaluations

    def lineup_config(
        self, tx_ffe: TxFfe | None, rx_ctle: RxCtle | None, dfe: LmsDfe | None
    ) -> LinkConfig:
        """The candidate's full link configuration on this objective's channel."""
        return self.link.with_equalization(tx_ffe=tx_ffe, rx_ctle=rx_ctle, dfe=dfe)

    def _base_budget(self) -> CdrJitterBudget:
        if self.budget is not None:
            return self.budget
        # Match the solver's default: deterministic jitter emerges from
        # the ISI cursor PDF, so the base budget carries none.
        from dataclasses import replace

        return replace(CdrJitterBudget(), dj_ui_pp=0.0)

    def _shared_timing_model(self) -> GatedOscillatorBerModel:
        if self._timing_model is None:
            self._timing_model = GatedOscillatorBerModel(
                self._base_budget(),
                run_lengths=self.run_lengths,
                grid_step_ui=self.grid_step_ui,
            )
        return self._timing_model

    def solve(
        self, tx_ffe: TxFfe | None, rx_ctle: RxCtle | None, dfe: LmsDfe | None
    ) -> StatisticalEye:
        """Solve the candidate's statistical eye (uncached, full surface)."""
        path = LinkPath(self.lineup_config(tx_ffe, rx_ctle, dfe))
        if not self.fold_ddj:
            return StatisticalEyeSolver(
                path,
                timing_model=self._shared_timing_model(),
                **self.solver_options,
            ).solve()
        budget = path.jitter_budget(self.ddj_pattern_bits, base_budget=self._base_budget())
        return StatisticalEyeSolver(
            path,
            budget=budget,
            run_lengths=self.run_lengths,
            grid_step_ui=self.grid_step_ui,
            **self.solver_options,
        ).solve()

    def evaluate(
        self, tx_ffe: TxFfe | None, rx_ctle: RxCtle | None, dfe: LmsDfe | None
    ) -> EyeScore:
        """Score one candidate lineup, memoised by its equalizer stages."""
        key = (tx_ffe, rx_ctle, dfe)
        tracer = telemetry.ACTIVE
        cached = self._cache.get(key)
        if cached is not None:
            if tracer:
                tracer.count("stateye.objective_cache.hits")
            return cached
        if tracer:
            tracer.count("stateye.objective_cache.misses")
        with tracer.span("stateye.solve"):
            eye = self.solve(tx_ffe, rx_ctle, dfe)
        self._evaluations += 1
        score = self.score_eye(eye)
        self._cache[key] = score
        return score

    def score_eye(self, eye: StatisticalEye) -> EyeScore:
        """Reduce a solved surface to the phase-aware scalar score."""
        horizontal = eye.horizontal_opening_ui(self.target_ber)
        vertical = eye.vertical_opening(self.target_ber)
        best_phase, ber = eye.best_operating_point()
        score = (
            vertical
            + self.horizontal_weight * horizontal
            + self.ber_weight * min(30.0, -math.log10(max(ber, _BER_FLOOR)))
        )
        return EyeScore(
            horizontal_ui=horizontal,
            vertical=vertical,
            ber=ber,
            ber_nominal=eye.ber_at(0.5, 0.0),
            best_phase_ui=best_phase,
            score=score,
        )
