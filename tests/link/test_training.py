"""Link-training subsystem: objective caching, search, determinism, cross-check.

The acceptance configuration is the pinned lossy PRBS7 channel of
``tests/link/test_stateye.py`` (10 dB at Nyquist); the cross-check stress
adds the deterministic oscillator frequency offset under which the
bit-true backends count errors reliably.
"""

import numpy as np
import pytest

from repro.core.config import CdrChannelConfig
from repro.datapath.cid import measured_run_distribution
from repro.datapath.prbs import prbs_sequence
from repro.gates.ring import GccoParameters
from repro.link import (
    LinkConfig,
    LinkTrainer,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    StatEyeObjective,
    TrainingBudget,
    TxFfe,
    train_link,
)
from repro.statistical.ber_model import CdrJitterBudget

PINNED_LOSS_DB = 10.0
CROSS_CHECK_OFFSET = 0.15

#: Bad ``objective_options`` only the trainer can reject: a misspelt key
#: (the objective's own signature would raise ``TypeError``) and a key the
#: trainer already passes (``budget=None`` is valid on the objective).
TRAINER_ONLY_BAD_OPTIONS = [
    ({"grid_stp": 0.002}, "grid_stp"),
    ({"budget": None}, "budget"),
]


def pinned_link(**overrides) -> LinkConfig:
    values = dict(channel=LossyLineChannel.for_loss_at_nyquist(PINNED_LOSS_DB))
    values.update(overrides)
    return LinkConfig(**values)


def offset_budget() -> CdrJitterBudget:
    return CdrJitterBudget(
        dj_ui_pp=0.0,
        rj_ui_rms=0.0,
        osc_sigma_ui_per_bit=0.0,
        frequency_offset=CROSS_CHECK_OFFSET,
    )


class TestObjective:
    def test_cache_makes_repeat_evaluations_free(self):
        objective = StatEyeObjective(pinned_link())
        stages = (TxFfe.de_emphasis(post_db=3.5), RxCtle(peaking_db=6.0), None)
        first = objective.evaluate(*stages)
        assert objective.evaluations == 1
        assert objective.evaluate(*stages) == first
        assert objective.evaluations == 1

    def test_equalization_scores_above_no_equalization(self):
        objective = StatEyeObjective(pinned_link())
        bare = objective.evaluate(None, None, None)
        equalized = objective.evaluate(
            TxFfe.de_emphasis(post_db=3.5), RxCtle(peaking_db=6.0), None)
        assert equalized.score > bare.score

    def test_score_is_phase_aware(self):
        objective = StatEyeObjective(pinned_link(), budget=offset_budget())
        score = objective.evaluate(None, RxCtle(peaking_db=6.0), None)
        assert 0.0 < score.best_phase_ui < 1.0
        assert score.ber <= score.ber_nominal

    def test_fold_ddj_penalises_displaced_edges(self):
        # An under-equalized lineup leaves real data-dependent jitter on
        # its edges; folding it into the timing walls must cost score
        # *strictly* (a regression that drops the fold would tie).
        stages = (None, RxCtle(peaking_db=3.0), None)
        folded = StatEyeObjective(pinned_link(), fold_ddj=True)
        amplitude_only = StatEyeObjective(pinned_link(), fold_ddj=False)
        assert folded.evaluate(*stages).score \
            < amplitude_only.evaluate(*stages).score

    def test_validation(self):
        with pytest.raises(ValueError):
            StatEyeObjective(pinned_link(), target_ber=0.0)
        with pytest.raises(ValueError):
            StatEyeObjective(pinned_link(), horizontal_weight=-1.0)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"grid_step_ui": 0.0}, "grid_step_ui"),
            ({"grid_step_ui": float("nan")}, "grid_step_ui"),
            ({"solver_options": {"voltage_stp": 0.01}}, "voltage_stp"),
            ({"solver_options": {"budget": CdrJitterBudget()}}, "budget"),
            ({"solver_options": {"voltage_step": 0.0}}, "voltage_step"),
            ({"solver_options": {"span_ui": 0}}, "span_ui"),
            ({"solver_options": {"aggressor_phase": "sync"}}, "aggressor_phase"),
            ({"solver_options": {"amplitude_noise_rms": -0.01}}, "amplitude_noise_rms"),
            ({"solver_options": {"amplitude_noise_rms": float("nan")}}, "amplitude_noise_rms"),
            *TRAINER_ONLY_BAD_OPTIONS,
        ],
    )
    def test_bad_spec_is_rejected_at_construction(self, options, message):
        """Rejected before any solve, not at every sweep point's first evaluate."""
        if (options, message) not in TRAINER_ONLY_BAD_OPTIONS:
            with pytest.raises(ValueError, match=message):
                StatEyeObjective(pinned_link(), **options)
        with pytest.raises(ValueError, match=message):
            LinkTrainer(pinned_link(), objective_options=options)

    def test_valid_solver_options_are_forwarded(self):
        objective = StatEyeObjective(
            pinned_link(), solver_options={"voltage_step": 0.02, "span_ui": 32}
        )
        eye = objective.solve(None, None, None)
        assert eye.thresholds[1] - eye.thresholds[0] == pytest.approx(0.02)


class TestTrainingBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingBudget(tx_post_db=())
        with pytest.raises(ValueError):
            TrainingBudget(refine_shrink=1.0)
        with pytest.raises(ValueError):
            TrainingBudget(max_evaluations=0)

    def test_with_max_evaluations(self):
        budget = TrainingBudget().with_max_evaluations(7)
        assert budget.max_evaluations == 7

    def test_initial_step_is_half_mean_spacing(self):
        budget = TrainingBudget(ctle_peaking_db=(0.0, 3.0, 6.0, 9.0))
        assert budget.initial_step(budget.ctle_peaking_db) == pytest.approx(1.5)
        assert budget.initial_step((4.0,)) == 1.0


class TestTraining:
    def test_trained_lineup_beats_best_coarse_fixed_lineup(self):
        trained = train_link(pinned_link())
        assert trained.eye.score > trained.coarse_eye.score
        assert trained.eye.vertical >= trained.coarse_eye.vertical
        assert trained.eye.horizontal_ui >= trained.coarse_eye.horizontal_ui

    def test_training_is_deterministic(self):
        first = train_link(pinned_link())
        second = train_link(pinned_link())
        assert first == second

    def test_budget_caps_evaluations(self):
        # The baseline seed solve is exempt, so the total is cap + 1.
        training = TrainingBudget(max_evaluations=5)
        trained = train_link(pinned_link(), training=training)
        assert trained.n_evaluations <= 6

    def test_capped_search_still_returns_a_lineup(self):
        # Budget 1: the baseline seed plus exactly one searched candidate.
        trained = train_link(pinned_link(),
                             training=TrainingBudget(max_evaluations=1))
        assert trained.n_evaluations == 2
        assert trained.eye.score >= trained.coarse_eye.score

    def test_baseline_kept_when_search_cannot_beat_it(self):
        # A well-equalized link with a search space that only contains
        # (near-)unequalized candidates: the fixed baseline must win and
        # be returned unchanged, with out-of-plane (None) coordinates.
        link = pinned_link(tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                           rx_ctle=RxCtle(peaking_db=6.0))
        training = TrainingBudget(tx_post_db=(0.0,), ctle_peaking_db=(0.0,),
                                  refine_rounds=0, max_evaluations=1)
        trained = train_link(link, training=training)
        assert trained.label == "trained(baseline kept)"
        assert trained.tx_post_db is None
        assert trained.ctle_peaking_db is None
        assert trained.tx_ffe == link.tx_ffe
        assert trained.rx_ctle == link.rx_ctle
        assert trained.eye.score > trained.coarse_eye.score
        # The kept-baseline representation keeps the determinism contract.
        assert train_link(link, training=training) == trained

    def test_refinement_can_leave_the_coarse_grid(self):
        trained = train_link(pinned_link())
        grid = set(TrainingBudget().ctle_peaking_db)
        assert trained.ctle_peaking_db not in grid

    def test_dfe_weights_recorded(self):
        trained = train_link(pinned_link(), dfe=LmsDfe(n_taps=2))
        assert len(trained.dfe_weights) == 2
        assert trained.dfe_adaptation is not None
        assert trained.dfe_adaptation.converged

    def test_decision_directed_dfe_trains_too(self):
        trained = train_link(pinned_link(),
                             dfe=LmsDfe(n_taps=2, decision_directed=True))
        assert len(trained.dfe_weights) == 2
        assert trained.dfe_adaptation.final_decision_error_rate == 0.0

    def test_trained_lineup_drops_into_a_link_config(self):
        trained = train_link(pinned_link())
        config = trained.apply(pinned_link())
        assert config.rx_ctle == trained.rx_ctle
        assert config.tx_ffe == trained.tx_ffe
        assert config.channel == pinned_link().channel

    def test_training_reopens_a_closed_eye(self):
        link = LinkConfig(channel=LossyLineChannel.for_loss_at_nyquist(18.0))
        objective = StatEyeObjective(link)
        closed = objective.evaluate(None, None, None)
        trained = train_link(link)
        assert closed.vertical == 0.0
        assert trained.eye.vertical > 0.0

    def test_score_fixed_reports_the_links_own_lineup(self):
        link = pinned_link(tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                           rx_ctle=RxCtle(peaking_db=6.0))
        trainer = LinkTrainer(link)
        fixed = trainer.score_fixed()
        direct = trainer.objective.evaluate(link.tx_ffe, link.rx_ctle, None)
        assert fixed == direct


class TestCrossCheck:
    """Bit-true validation on the pinned channel under a 15 % offset."""

    def _trainer(self) -> LinkTrainer:
        return LinkTrainer(
            pinned_link(),
            budget=offset_budget(),
            run_lengths=measured_run_distribution(prbs_sequence(7, 127),
                                                  max_run=7),
        )

    def _config(self) -> CdrChannelConfig:
        return CdrChannelConfig(
            oscillator=GccoParameters(jitter_sigma_fraction=0.0),
            frequency_offset=CROSS_CHECK_OFFSET)

    def test_cross_check_within_established_2x_band(self):
        trainer = self._trainer()
        trained = trainer.train()
        check = trainer.cross_check(trained, config=self._config(),
                                    n_bits=20000, seed=3)
        assert check.errors > 100  # enough statistics for a meaningful ratio
        assert check.within(2.0)

    def test_backends_agree_behind_the_trained_link(self):
        trainer = self._trainer()
        trained = trainer.train()
        checks = [
            trainer.cross_check(trained, config=self._config(),
                                n_bits=6000, seed=3, backend=backend)
            for backend in ("event", "fast")
        ]
        assert checks[0].errors == checks[1].errors
        assert checks[0].error_events == checks[1].error_events

    def test_zero_error_run_bounds_the_prediction(self):
        # A clean configuration makes no errors; the check then passes
        # exactly when the prediction sits below the resolution limit.
        trainer = LinkTrainer(pinned_link())
        trained = trainer.train()
        check = trainer.cross_check(trained, n_bits=4000, seed=3)
        assert check.errors == 0
        assert check.within(2.0)
        assert check.ratio == float("inf")
