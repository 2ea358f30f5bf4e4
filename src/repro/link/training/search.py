"""Deterministic, budget-capped search over the de-emphasis × peaking plane.

The search mirrors what a real link-training handshake does (PyBERT's
TX/RX co-optimization): sweep a coarse grid of TX-FFE de-emphasis and
RX-CTLE peaking values against an eye metric, then refine around the best
point.  Here the metric is the cached statistical-eye objective
(:class:`~repro.link.training.objective.StatEyeObjective`), the
refinement is coordinate descent with geometrically shrinking steps, and
every step is deterministic: candidates are visited in a fixed order, a
move needs a *strictly* better score, and nothing draws randomness — so
the same channel always trains to the same :class:`TrainedLineup`, on any
sweep worker.

The trained lineup carries the same ``label`` / ``tx_ffe`` / ``rx_ctle``
/ ``dfe`` surface as :class:`repro.experiments.EqualizerLineup`, so it
drops straight onto an ``"equalization"`` parameter axis, and
:meth:`TrainedLineup.apply` grafts it onto any :class:`LinkConfig`.
:meth:`LinkTrainer.cross_check` closes the loop with a bit-true run
through the existing CDR backends, pinning the statistical objective
against counted errors.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from ... import telemetry
from ..._validation import require_non_negative, require_positive_int
from ...analysis.ber_counter import BerMeasurement
from ...datapath.cid import RunLengthDistribution
from ...datapath.prbs import prbs_sequence, sequence_period
from ...statistical.ber_model import CdrJitterBudget
from ..equalization import DfeAdaptation, LmsDfe, RxCtle, TxFfe
from ..path import LinkCdrChannel, LinkConfig, LinkPath
from ..stateye import DEFAULT_SPAN_UI
from .objective import EyeScore, StatEyeObjective

__all__ = [
    "TrainingBudget",
    "TrainedLineup",
    "TrainingCrossCheck",
    "LinkTrainer",
    "train_link",
]


@dataclass(frozen=True)
class TrainingBudget:
    """Shape and cost cap of one link-training search (picklable axis unit).

    Attributes
    ----------
    tx_post_db / ctle_peaking_db:
        The coarse grid: TX-FFE post-cursor de-emphasis depths and RX-CTLE
        peaking magnitudes (dB), visited row-major.
    refine_rounds:
        Coordinate-descent rounds around the coarse winner; each round
        probes ``± step`` on both axes and then shrinks the step by
        *refine_shrink*.  Zero disables refinement (pure grid search).
    refine_shrink:
        Step-shrink factor per refinement round (0 < shrink < 1).
    max_evaluations:
        Hard cap on statistical-eye solves spent *searching*; the fixed
        baseline's seed solve is not counted and cache hits are free.
        The search stops cleanly at the cap with the best lineup found so
        far (the ``training_budget`` sweep axis varies exactly this knob).
    """

    tx_post_db: tuple[float, ...] = (0.0, 2.0, 3.5, 6.0)
    ctle_peaking_db: tuple[float, ...] = (0.0, 3.0, 6.0, 9.0)
    refine_rounds: int = 3
    refine_shrink: float = 0.5
    max_evaluations: int = 48

    def __post_init__(self) -> None:
        object.__setattr__(self, "tx_post_db", tuple(float(v) for v in self.tx_post_db))
        object.__setattr__(self, "ctle_peaking_db", tuple(float(v) for v in self.ctle_peaking_db))
        if not self.tx_post_db or not self.ctle_peaking_db:
            raise ValueError("coarse grid axes must not be empty")
        for name, values in (
            ("tx_post_db", self.tx_post_db), ("ctle_peaking_db", self.ctle_peaking_db)
        ):
            for value in values:
                require_non_negative(name, value)
        require_non_negative("refine_rounds", self.refine_rounds)
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValueError("refine_shrink must lie strictly in (0, 1)")
        require_positive_int("max_evaluations", self.max_evaluations)

    def with_max_evaluations(self, max_evaluations: int) -> "TrainingBudget":
        """Return a copy with the evaluation cap replaced (the sweep axis)."""
        from dataclasses import replace

        return replace(self, max_evaluations=int(max_evaluations))

    def initial_step(self, values: tuple[float, ...]) -> float:
        """First refinement step of one axis: half the mean grid spacing."""
        if len(values) < 2:
            return 1.0
        return 0.5 * (max(values) - min(values)) / (len(values) - 1)


@dataclass(frozen=True)
class TrainedLineup:
    """The converged result of one link-training run.

    Exposes the :class:`repro.experiments.EqualizerLineup` attribute
    surface (``label`` / ``tx_ffe`` / ``rx_ctle`` / ``dfe``), so it can be
    placed directly on an ``"equalization"`` parameter axis or converted
    with ``EqualizerLineup.from_trained``.

    Attributes
    ----------
    tx_post_db / ctle_peaking_db:
        The trained coordinates in the search plane; ``None`` when the
        link's own fixed lineup beat every searched candidate and was
        kept (its stages need not lie in the de-emphasis × peaking
        plane at all).
    eye:
        Phase-aware score of the trained lineup.
    coarse_tx_post_db / coarse_ctle_peaking_db / coarse_eye:
        The best *fixed* lineup of the coarse grid — the baseline the
        refinement must beat (the acceptance criterion compares these).
    dfe_weights:
        Adapted feedback tap weights of the trained configuration (empty
        tuple when no DFE is configured).
    dfe_adaptation:
        Full adaptation record (convergence + decision-error diagnostics
        in decision-directed mode); ``None`` without a DFE.
    n_evaluations:
        Total statistical-eye solves spent (baseline seed + search; the
        search share is capped by the budget).
    """

    label: str
    tx_ffe: TxFfe | None
    rx_ctle: RxCtle | None
    dfe: LmsDfe | None
    tx_post_db: float | None
    ctle_peaking_db: float | None
    eye: EyeScore
    coarse_tx_post_db: float
    coarse_ctle_peaking_db: float
    coarse_eye: EyeScore
    dfe_weights: tuple[float, ...]
    n_evaluations: int
    dfe_adaptation: DfeAdaptation | None = field(default=None, repr=False, compare=False)

    def apply(self, link: LinkConfig) -> LinkConfig:
        """Graft the trained equalizer stages onto *link* (channel kept)."""
        return link.with_equalization(tx_ffe=self.tx_ffe, rx_ctle=self.rx_ctle, dfe=self.dfe)


@dataclass(frozen=True)
class TrainingCrossCheck:
    """Bit-true validation of a trained lineup against its objective.

    ``predicted_ber`` is the statistical eye's total BER at the nominal
    0.5 UI sampling phase.  The bit-true run reports both the raw bit
    mismatches (``errors`` / ``measured_ber``) and the *error events*
    (``error_events`` — contiguous mismatch bursts): a sampling overshoot
    books ~2 adjacent mismatches while the analytic model counts one
    event, so the agreement band compares per-event rates.
    """

    errors: int
    error_events: int
    compared_bits: int
    predicted_ber: float
    backend: str

    @property
    def measured_ber(self) -> float:
        """Measured bit mismatches per compared bit."""
        return BerMeasurement(self.errors, self.compared_bits).ber

    @property
    def event_rate(self) -> float:
        """Measured error events per compared bit."""
        if self.compared_bits == 0:
            return float("nan")
        return self.error_events / self.compared_bits

    @property
    def ratio(self) -> float:
        """predicted BER / measured event rate (inf when nothing measured)."""
        if self.error_events > 0:
            return self.predicted_ber / self.event_rate
        return float("inf")

    def within(self, band: float = 2.0) -> bool:
        """True when the two views agree within a factor of *band*.

        *band* is a model-gap band, not a sampling interval: the runs it
        judges are deterministic (no random jitter, a periodic PRBS), so
        no binomial interval describes them; a sampled BER takes
        :func:`~repro.analysis.ber_counter.ber_interval` instead.
        With zero counted events the run can only bound the rate from
        above, so agreement then means the prediction sits below *band*
        times the resolution limit of the run (one event).  A run that
        compared no bits at all measured nothing and never agrees.
        """
        if self.compared_bits == 0:
            return False
        if self.error_events == 0:
            return self.predicted_ber <= band / self.compared_bits
        return self.event_rate / band <= self.predicted_ber <= self.event_rate * band


#: :class:`StatEyeObjective` arguments the trainer passes itself; the rest
#: of its keywords are what a caller may add through ``objective_options``.
_TRAINER_OBJECTIVE_ARGUMENTS = ("link", "budget", "run_lengths", "target_ber")
_OBJECTIVE_OPTIONS = tuple(
    name
    for name in inspect.signature(StatEyeObjective).parameters
    if name not in _TRAINER_OBJECTIVE_ARGUMENTS
)


class LinkTrainer:
    """Train TX-FFE / RX-CTLE / DFE for one channel environment.

    Parameters
    ----------
    link:
        The channel environment (channel model, crosstalk, timebase).  Its
        own equalizer stages are *not* part of the search — they define
        the fixed baseline that :meth:`score_fixed` reports.
    training:
        Search shape and budget (default :class:`TrainingBudget`).
    dfe:
        DFE specification adapted inside every candidate (``None``
        disables the stage; pass ``LmsDfe(decision_directed=True)`` for
        blind adaptation).  Defaults to the link's own DFE stage.
    budget / run_lengths / target_ber / objective_options:
        Forwarded to :class:`StatEyeObjective`.

    Raises
    ------
    ValueError
        At construction, for an *objective_options* key the objective
        does not take or one that repeats a trainer argument (``budget``,
        ``run_lengths``, ``target_ber``, ``link``), and for anything the
        objective itself rejects.
    """

    def __init__(
        self,
        link: LinkConfig | None = None,
        *,
        training: TrainingBudget | None = None,
        dfe: LmsDfe | None = None,
        budget: CdrJitterBudget | None = None,
        run_lengths: RunLengthDistribution | None = None,
        target_ber: float = 1.0e-12,
        objective_options: dict | None = None,
    ) -> None:
        self.link = link if link is not None else LinkConfig()
        self.training = training if training is not None else TrainingBudget()
        self.dfe = dfe if dfe is not None else self.link.dfe
        objective_options = dict(objective_options or {})
        for key in objective_options:
            if key in _TRAINER_OBJECTIVE_ARGUMENTS:
                raise ValueError(
                    f"objective_options key {key!r} collides with the trainer's own "
                    f"{key!r} argument; pass it to LinkTrainer directly"
                )
            if key not in _OBJECTIVE_OPTIONS:
                raise ValueError(
                    f"unknown objective_options key {key!r}; expected some of "
                    f"{list(_OBJECTIVE_OPTIONS)}"
                )
        self.objective = StatEyeObjective(
            self.link,
            budget=budget,
            run_lengths=run_lengths,
            target_ber=target_ber,
            **objective_options,
        )
        # The CTLE's peak frequency / bandwidth come from the link's own
        # stage when it has one, so training only moves the peaking knob.
        self._base_ctle = self.link.rx_ctle if self.link.rx_ctle is not None else RxCtle()
        # Evaluations already spent when the search proper starts (the
        # baseline seed solve is exempt from the budget); set by train().
        self._search_base = 0

    # -- candidate construction ------------------------------------------------

    def candidate_stages(
        self, tx_post_db: float, ctle_peaking_db: float
    ) -> tuple[TxFfe | None, RxCtle | None, LmsDfe | None]:
        """The equalizer stages at one point of the search plane.

        Zero de-emphasis means *no* FFE stage (not a degenerate one-tap
        filter), matching the ablation sweeps' "unequalized" lineups.
        """
        tx_ffe = TxFfe.de_emphasis(post_db=tx_post_db) if tx_post_db > 0.0 else None
        rx_ctle = self._base_ctle.with_peaking(ctle_peaking_db)
        return tx_ffe, rx_ctle, self.dfe

    def _evaluate(self, tx_post_db: float, ctle_peaking_db: float) -> EyeScore:
        tracer = telemetry.ACTIVE
        if tracer:
            tracer.count("training.search_iterations")
        return self.objective.evaluate(*self.candidate_stages(tx_post_db, ctle_peaking_db))

    def _exhausted(self) -> bool:
        return self.objective.evaluations - self._search_base >= self.training.max_evaluations

    # -- the search ------------------------------------------------------------

    def train(self) -> TrainedLineup:
        """Coarse grid + coordinate descent; returns the trained lineup.

        The link's own fixed lineup is scored first (seeding the objective
        cache, outside the search budget) and kept when nothing searched
        beats it, so training never returns a lineup that scores below the
        baseline it started from — even when the baseline lies outside the
        de-emphasis × peaking plane or the budget is too tight to reach
        it.
        """
        tracer = telemetry.ACTIVE
        if not tracer:
            return self._train()
        with tracer.span("training.train"):
            lineup = self._train()
        tracer.count("training.runs")
        return lineup

    def _train(self) -> TrainedLineup:
        plan = self.training
        baseline = self.score_fixed()
        self._search_base = self.objective.evaluations

        best: tuple[float, float, EyeScore] | None = None
        for tx_post_db in plan.tx_post_db:
            for ctle_peaking_db in plan.ctle_peaking_db:
                if best is not None and self._exhausted():
                    break
                score = self._evaluate(tx_post_db, ctle_peaking_db)
                if best is None or score.score > best[2].score:
                    best = (tx_post_db, ctle_peaking_db, score)
        assert best is not None  # the grid is never empty
        coarse = best

        step_tx = plan.initial_step(plan.tx_post_db)
        step_ctle = plan.initial_step(plan.ctle_peaking_db)
        for _ in range(plan.refine_rounds):
            for axis in (0, 1):
                step = step_tx if axis == 0 else step_ctle
                for direction in (-1.0, +1.0):
                    if self._exhausted():
                        break
                    candidate = [best[0], best[1]]
                    candidate[axis] = max(0.0, candidate[axis] + direction * step)
                    score = self._evaluate(candidate[0], candidate[1])
                    if score.score > best[2].score:
                        best = (candidate[0], candidate[1], score)
            step_tx *= plan.refine_shrink
            step_ctle *= plan.refine_shrink

        if baseline.score > best[2].score:
            return self._finalise_stages(
                "trained(baseline kept)",
                self.link.tx_ffe,
                self.link.rx_ctle,
                self.link.dfe,
                None,
                None,
                baseline,
                coarse,
            )
        tx_ffe, rx_ctle, dfe = self.candidate_stages(best[0], best[1])
        label = f"trained(post={best[0]:g}dB, peak={best[1]:g}dB)"
        return self._finalise_stages(label, tx_ffe, rx_ctle, dfe, best[0], best[1], best[2], coarse)

    def _finalise_stages(
        self,
        label: str,
        tx_ffe: TxFfe | None,
        rx_ctle: RxCtle | None,
        dfe: LmsDfe | None,
        tx_post_db: float | None,
        ctle_peaking_db: float | None,
        eye: EyeScore,
        coarse: tuple[float, float, EyeScore],
    ) -> TrainedLineup:
        """Adapt the winning lineup's DFE and assemble the result.

        The adaptation replays exactly what the statistical-eye solver
        trained on (a PRBS7 pattern over the solver span), so the
        recorded weights are the ones behind the winning score.
        """
        weights: tuple[float, ...] = ()
        adaptation = None
        if dfe is not None:
            path = LinkPath(self.objective.lineup_config(tx_ffe, rx_ctle, dfe))
            span = self.objective.solver_options.get("span_ui", DEFAULT_SPAN_UI)
            path.received_pattern_waveform(prbs_sequence(7, span))
            adaptation = path.last_dfe_adaptation
            if adaptation is not None:
                weights = tuple(float(w) for w in adaptation.weights)
        return TrainedLineup(
            label=label,
            tx_ffe=tx_ffe,
            rx_ctle=rx_ctle,
            dfe=dfe,
            tx_post_db=tx_post_db,
            ctle_peaking_db=ctle_peaking_db,
            eye=eye,
            coarse_tx_post_db=coarse[0],
            coarse_ctle_peaking_db=coarse[1],
            coarse_eye=coarse[2],
            dfe_weights=weights,
            n_evaluations=self.objective.evaluations,
            dfe_adaptation=adaptation,
        )

    # -- baselines and validation ---------------------------------------------

    def score_fixed(self) -> EyeScore:
        """Score of the link's own (fixed, hand-picked) equalizer lineup."""
        return self.objective.evaluate(self.link.tx_ffe, self.link.rx_ctle, self.link.dfe)

    def cross_check(
        self,
        trained: TrainedLineup,
        *,
        config=None,
        jitter=None,
        n_bits: int = 20000,
        prbs_order: int = 7,
        seed: int = 3,
        backend: str = "auto",
    ) -> TrainingCrossCheck:
        """Bit-true cross-check of the trained lineup through a CDR backend.

        The trained link drives the selected backend over a PRBS stream
        and the counted BER is compared with the statistical objective's
        prediction at the nominal sampling phase.  The caller is
        responsible for keeping *config* and *jitter* consistent with the
        objective's timing budget (same frequency offset / oscillator
        jitter / residual RJ), exactly as the stateye cross-validation
        tests do.
        """
        channel = LinkCdrChannel(trained.apply(self.link), config=config, backend=backend)
        result = channel.run(
            prbs_sequence(prbs_order, n_bits),
            jitter=jitter,
            rng=np.random.default_rng(seed),
            pattern_period=sequence_period(prbs_order),
        )
        measurement = result.ber()
        return TrainingCrossCheck(
            errors=int(measurement.errors),
            error_events=result.error_events(),
            compared_bits=int(measurement.compared_bits),
            predicted_ber=trained.eye.ber_nominal,
            backend=channel.backend,
        )


def train_link(link: LinkConfig | None = None, **parameters) -> TrainedLineup:
    """Convenience wrapper: train *link*'s equalizers in one call."""
    return LinkTrainer(link, **parameters).train()
