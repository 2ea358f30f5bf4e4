"""Generic engine behaviour: grids, searches, backend resolution, plans."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.experiments import (
    MeasurementPlan,
    ParameterAxis,
    ScenarioSpec,
    StimulusSpec,
    ToleranceSearch,
    resolve_grid,
    run_grid,
    run_tolerance_search,
    simulate_scenario,
)
from repro.experiments import engine
from repro.experiments.spec import apply_axis
from repro.link import LinkConfig, RxCtle, TxFfe
# Importing repro.sweep.faults also registers the "inject_fault" axis.
from repro.sweep.faults import FaultyStimulus, InjectedFault

MILD = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01)
BASE = ScenarioSpec(stimulus=StimulusSpec(n_bits=400), jitter=MILD)
AMPLITUDE_AXIS = ParameterAxis("sj_amplitude_ui_pp", (0.1, 1.0))
FREQUENCY_AXIS = ParameterAxis("sj_frequency_hz", (2.5e6, 7.5e8))


def _reference_resolve_grid(spec, axes):
    """The previous resolution, kept as the oracle: every grid point applies
    every axis value to the base spec, over the nested cartesian product."""
    axes = tuple(axes)
    points = []
    for combination in itertools.product(*(axis.values for axis in axes)):
        point = spec
        for axis, value in zip(axes, combination):
            point = apply_axis(point, axis.name, value)
        points.append(point)
    return points


LINK_BASE = ScenarioSpec(
    stimulus=StimulusSpec(n_bits=64),
    link=LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5), rx_ctle=RxCtle(peaking_db=6.0)),
    jitter=JitterSpec(sj_frequency_hz=5.0e6),
)

#: Axis values the generated grids draw from: link, SJ and fault axes.
AXIS_VALUES = {
    "channel_loss_db": (4.0, 6.0, 9.5),
    "ctle_peaking_db": (3.0, 6.0),
    "aggressor_amplitude": (0.0, 0.02),
    "sj_amplitude_ui_pp": (0.0, 0.1, 0.3),
    "sj_frequency_hz": (2.5e6, 1.0e8),
    "inject_fault": (False, True),
}


@st.composite
def grid_axes(draw):
    """0–3 axes; values may repeat within an axis, and an axis may repeat."""
    axes = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(AXIS_VALUES)))
        values = draw(st.lists(st.sampled_from(AXIS_VALUES[name]), min_size=1, max_size=3))
        axes.append(ParameterAxis(name, tuple(values)))
    return tuple(axes)


class TestResolveGrid:
    def test_row_major_product(self):
        points = resolve_grid(BASE, (AMPLITUDE_AXIS, FREQUENCY_AXIS))
        assert len(points) == 4
        assert points[0].jitter.sj_amplitude_ui_pp == 0.1
        assert points[0].jitter.sj_frequency_hz == 2.5e6
        assert points[1].jitter.sj_frequency_hz == 7.5e8  # inner axis fastest
        assert points[2].jitter.sj_amplitude_ui_pp == 1.0

    def test_no_axes_is_single_point(self):
        assert resolve_grid(BASE, ()) == [BASE]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_axes())
    def test_matches_the_nested_product_point_for_point(self, axes):
        points = resolve_grid(LINK_BASE, axes)
        expected = _reference_resolve_grid(LINK_BASE, axes)
        assert len(points) == len(expected) == int(np.prod([len(a) for a in axes]))
        for point, reference in zip(points, expected):
            assert point == reference
            assert repr(point) == repr(reference)
            assert type(point.stimulus) is type(reference.stimulus)

    def test_applies_each_axis_value_once_per_prefix(self, monkeypatch):
        calls = []

        def counting(spec, name, value):
            calls.append(name)
            return apply_axis(spec, name, value)

        monkeypatch.setattr(engine, "apply_axis", counting)
        losses = ParameterAxis("channel_loss_db", (4.0, 6.0, 9.5))
        points = resolve_grid(LINK_BASE, (losses, AMPLITUDE_AXIS))
        assert len(points) == 6
        assert calls.count("channel_loss_db") == 3
        assert calls.count("sj_amplitude_ui_pp") == 6
        # Points that share a loss share the link it produced.
        assert points[0].link is points[1].link

    def test_run_grid_json_is_unchanged(self, monkeypatch):
        axes = (
            ParameterAxis("channel_loss_db", (4.0, 6.0)),
            ParameterAxis("sj_amplitude_ui_pp", (0.0, 0.2, 0.2)),
        )
        from dataclasses import replace

        # Eye metrics differ at every point, so a reordered grid shows.
        spec = replace(LINK_BASE, measurement=MeasurementPlan(eye=True))
        current = run_grid(spec, axes, seed=4, workers=1).to_json()
        monkeypatch.setattr(engine, "resolve_grid", _reference_resolve_grid)
        assert run_grid(spec, axes, seed=4, workers=1).to_json() == current


class TestStimulusMemo:
    def test_bits_are_made_once_and_read_only(self):
        stimulus = StimulusSpec(n_bits=300, prbs_order=9, seed=5)
        bits = engine._stimulus_bits(stimulus)
        assert engine._stimulus_bits(stimulus) is bits
        assert engine._stimulus_bits(StimulusSpec(n_bits=300, prbs_order=9, seed=5)) is bits
        np.testing.assert_array_equal(bits, stimulus.bits())
        assert bits.dtype == stimulus.bits().dtype
        assert not bits.flags.writeable
        with pytest.raises(ValueError):
            bits[0] = 1

    def test_results_carry_the_read_only_bits(self):
        result = simulate_scenario(BASE, np.random.default_rng(0))
        assert not result.transmitted_bits.flags.writeable
        assert result.ber().compared_bits > 0

    def test_memo_is_bounded(self):
        for n_bits in range(10, 10 + 2 * engine._STIMULUS_MEMO_SIZE):
            engine._stimulus_bits(StimulusSpec(n_bits=n_bits))
        assert len(engine._STIMULUS_BITS) <= engine._STIMULUS_MEMO_SIZE

    def test_a_raising_stimulus_is_never_cached(self):
        faulty = FaultyStimulus(n_bits=64, fail=True)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                engine._stimulus_bits(faulty)
        assert faulty not in engine._STIMULUS_BITS

    def test_faulty_stimulus_fails_in_the_worker_on_every_attempt(self):
        # The second run is what a resume re-runs: the point fails again.
        axes = [ParameterAxis("inject_fault", (False, True))]
        spec = ScenarioSpec(stimulus=StimulusSpec(n_bits=200))
        for _ in range(2):
            result = run_grid(spec, axes, seed=0, workers=1, failure_policy="collect")
            (failure,) = result.failures
            assert failure.index == 1
            assert failure.exception_type == "InjectedFault"
            assert [audit.mode for audit in result.audit] == ["serial", "serial"]
            assert result.metric("compared")[0] > 0


class TestRunGrid:
    def test_matches_manual_simulation(self):
        """The engine is exactly per-point simulation on spawned seeds."""
        result = run_grid(BASE, [FREQUENCY_AXIS], seed=3, workers=1)
        children = np.random.SeedSequence(3).spawn(2)
        for index, point in enumerate(resolve_grid(BASE, (FREQUENCY_AXIS,))):
            manual = simulate_scenario(
                point, np.random.default_rng(children[index])).ber()
            assert result.metric("errors")[index] == manual.errors
            assert result.metric("compared")[index] == manual.compared_bits

    def test_deterministic_across_worker_counts(self):
        serial = run_grid(BASE, [AMPLITUDE_AXIS, FREQUENCY_AXIS],
                          seed=5, workers=1)
        pooled = run_grid(BASE, [AMPLITUDE_AXIS, FREQUENCY_AXIS],
                          seed=5, workers=3)
        np.testing.assert_array_equal(serial.metric("errors"),
                                      pooled.metric("errors"))

    def test_grid_shape_follows_axes(self):
        result = run_grid(BASE, [AMPLITUDE_AXIS, FREQUENCY_AXIS],
                          seed=0, workers=1)
        assert result.shape == (2, 2)
        assert result.metric("errors").shape == (2, 2)
        assert len(result.point_backends) == 4

    def test_auto_resolves_fastest_on_clean_config(self):
        result = run_grid(BASE, [FREQUENCY_AXIS], seed=0, workers=1)
        assert result.backend == "auto"
        assert result.point_backends == ("fast", "fast")

    def test_auto_resolves_event_under_gate_jitter(self):
        spec = ScenarioSpec(
            stimulus=StimulusSpec(n_bits=200),
            jitter=MILD,
            config=CdrChannelConfig(gate_jitter_sigma_fraction=0.01),
        )
        result = run_grid(spec, [FREQUENCY_AXIS], seed=0, workers=1)
        assert result.point_backends == ("event", "event")

    def test_simulate_scenario_enforces_capabilities(self):
        """Even a pre-resolved backend override cannot silently diverge."""
        spec = ScenarioSpec(
            stimulus=StimulusSpec(n_bits=200),
            config=CdrChannelConfig(gate_jitter_sigma_fraction=0.01),
        )
        with pytest.raises(ValueError, match="per-gate-delay-jitter"):
            simulate_scenario(spec, np.random.default_rng(0), backend="fast")

    def test_forced_fast_under_gate_jitter_fails_before_running(self):
        spec = ScenarioSpec(
            stimulus=StimulusSpec(n_bits=200),
            config=CdrChannelConfig(gate_jitter_sigma_fraction=0.01),
            backend="fast",
        )
        with pytest.raises(ValueError, match="per-gate-delay-jitter"):
            run_grid(spec, [FREQUENCY_AXIS], seed=0, workers=1)

    def test_mixed_resolution_per_point(self):
        """An axis that turns gate jitter on flips the resolved backend."""
        from dataclasses import replace

        from repro.experiments import register_axis
        from repro.experiments.spec import AXIS_APPLICATORS

        @register_axis("gate_jitter_sigma_fraction")
        def _apply(spec, value):
            return replace(spec, config=replace(
                spec.config, gate_jitter_sigma_fraction=float(value)))

        try:
            result = run_grid(
                ScenarioSpec(stimulus=StimulusSpec(n_bits=200), jitter=MILD),
                [ParameterAxis("gate_jitter_sigma_fraction", (0.0, 0.01))],
                seed=0, workers=1)
            assert result.point_backends == ("fast", "event")
        finally:
            del AXIS_APPLICATORS["gate_jitter_sigma_fraction"]

    def test_backends_agree_through_the_engine(self):
        from dataclasses import replace
        fast = run_grid(replace(BASE, backend="fast"),
                        [FREQUENCY_AXIS], seed=2, workers=1)
        event = run_grid(replace(BASE, backend="event"),
                         [FREQUENCY_AXIS], seed=2, workers=1)
        np.testing.assert_array_equal(fast.metric("errors"),
                                      event.metric("errors"))

    def test_eye_measurement_plan(self):
        from dataclasses import replace
        spec = replace(BASE, measurement=MeasurementPlan(eye=True))
        result = run_grid(spec, [FREQUENCY_AXIS], seed=0, workers=1)
        assert result.metric("eye_opening_ui").shape == (2,)
        assert np.all(result.metric("eye_opening_ui") > 0.0)
        assert np.all(result.metric("n_crossings") > 0)

    def test_retain_results_plan(self):
        from dataclasses import replace
        spec = replace(BASE, measurement=MeasurementPlan(retain="results"))
        result = run_grid(spec, [FREQUENCY_AXIS], seed=0, workers=1)
        assert result.details is not None and len(result.details) == 2
        assert result.details[0].ber().errors == result.metric("errors")[0]

    def test_result_round_trips(self):
        from repro.experiments import SweepResult
        result = run_grid(BASE, [AMPLITUDE_AXIS, FREQUENCY_AXIS],
                          seed=1, workers=1)
        assert SweepResult.from_json(result.to_json()).equals(result)


class TestStatisticalEyeMeasurement:
    @staticmethod
    def _linked_spec(**overrides) -> ScenarioSpec:
        from repro.link import LinkConfig, LossyLineChannel, RxCtle, TxFfe

        values = dict(
            stimulus=StimulusSpec(n_bits=400),
            jitter=MILD,
            link=LinkConfig(
                channel=LossyLineChannel.for_loss_at_nyquist(10.0),
                tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                rx_ctle=RxCtle(peaking_db=6.0)),
            measurement=MeasurementPlan(statistical_eye=True),
        )
        values.update(overrides)
        return ScenarioSpec(**values)

    def test_metrics_recorded_per_point(self):
        result = run_grid(
            self._linked_spec(),
            [ParameterAxis("aggressor_amplitude", (0.0, 0.3))],
            seed=0, workers=1)
        assert result.metric("stateye_ber").shape == (2,)
        assert result.metric("stateye_horizontal_ui")[0] \
            >= result.metric("stateye_horizontal_ui")[1]
        assert result.metric("stateye_vertical")[0] \
            > result.metric("stateye_vertical")[1]

    def test_requires_a_link_front_end(self):
        spec = ScenarioSpec(stimulus=StimulusSpec(n_bits=200), jitter=MILD,
                            measurement=MeasurementPlan(statistical_eye=True))
        with pytest.raises(ValueError, match="link front"):
            run_grid(spec, [FREQUENCY_AXIS], seed=0, workers=1)

    def test_measurement_serializes_through_sweep_result(self):
        from repro.experiments import SweepResult
        result = run_grid(
            self._linked_spec(),
            [ParameterAxis("aggressor_amplitude", (0.0, 0.4))],
            seed=0, workers=1)
        restored = SweepResult.from_json(result.to_json())
        np.testing.assert_array_equal(restored.metric("stateye_vertical"),
                                      result.metric("stateye_vertical"))

    def test_direct_measurement_helper(self):
        from repro.experiments import statistical_eye_measurement
        metrics = statistical_eye_measurement(self._linked_spec())
        assert set(metrics) == {"stateye_ber", "stateye_horizontal_ui",
                                "stateye_vertical"}
        assert metrics["stateye_vertical"] > 0.0

    def test_zero_sj_frequency_injects_no_sinusoidal_jitter(self):
        # sin(2π·0·t) displaces nothing in the bit-true path, so the
        # statistical budget must drop the SJ amplitude with it.
        from dataclasses import replace as dc_replace

        from repro.experiments import statistical_eye_measurement

        base = self._linked_spec(jitter=None)
        degenerate = statistical_eye_measurement(dc_replace(
            base, jitter=JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0,
                                    sj_amplitude_ui_pp=0.5,
                                    sj_frequency_hz=0.0)))
        clean = statistical_eye_measurement(dc_replace(
            base, jitter=JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0)))
        assert degenerate == clean

    def test_budget_tracks_scenario_oscillator_jitter(self):
        # A noiseless scenario oscillator (the default) must not inject the
        # Table 1 oscillator jitter into the statistical-eye metrics, and a
        # jittery oscillator must narrow the timing eye.
        from dataclasses import replace as dc_replace

        from repro.experiments import statistical_eye_measurement
        from repro.gates.ring import GccoParameters

        clean_spec = self._linked_spec(jitter=None)
        clean = statistical_eye_measurement(clean_spec)
        jittery = statistical_eye_measurement(dc_replace(
            clean_spec,
            config=CdrChannelConfig(
                oscillator=GccoParameters(jitter_sigma_fraction=0.05))))
        assert clean["stateye_horizontal_ui"] \
            > jittery["stateye_horizontal_ui"] > 0.0


class TestLinkTrainingMeasurement:
    @staticmethod
    def _training_spec(**overrides) -> ScenarioSpec:
        from repro.experiments import TrainingBudget
        from repro.link import LinkConfig, LossyLineChannel, RxCtle, TxFfe

        values = dict(
            stimulus=StimulusSpec(n_bits=300),
            link=LinkConfig(
                channel=LossyLineChannel.for_loss_at_nyquist(12.0),
                tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                rx_ctle=RxCtle(peaking_db=6.0)),
            measurement=MeasurementPlan(train_equalizers=True),
            training=TrainingBudget(tx_post_db=(0.0, 3.5),
                                    ctle_peaking_db=(3.0, 9.0),
                                    refine_rounds=1,
                                    max_evaluations=8),
        )
        values.update(overrides)
        return ScenarioSpec(**values)

    def test_metrics_recorded_per_point(self):
        result = run_grid(
            self._training_spec(),
            [ParameterAxis("channel_loss_db", (8.0, 16.0))],
            seed=0, workers=1)
        assert result.metric("trained_vertical").shape == (2,)
        # The baseline seeds the search, so the trained score never sits
        # below the fixed lineup's (and here the openings track it).
        assert np.all(result.metric("trained_score")
                      >= result.metric("fixed_score"))
        assert np.all(result.metric("trained_vertical")
                      >= result.metric("fixed_vertical"))
        # Budget 8 searched solves + the exempt baseline seed.
        assert np.all(result.metric("training_evaluations") <= 9)

    def test_requires_a_link_front_end(self):
        spec = ScenarioSpec(stimulus=StimulusSpec(n_bits=200),
                            measurement=MeasurementPlan(train_equalizers=True))
        with pytest.raises(ValueError, match="link front"):
            run_grid(spec, [FREQUENCY_AXIS], seed=0, workers=1)

    def test_training_budget_axis_caps_evaluations(self):
        result = run_grid(
            self._training_spec(training=None),
            [ParameterAxis("training_budget", (2, 6))],
            seed=0, workers=1)
        evaluations = result.metric("training_evaluations")
        assert evaluations[0] <= 3  # 2 searched + the baseline seed
        assert evaluations[1] <= 7
        assert evaluations[1] > evaluations[0]

    def test_deterministic_across_worker_counts(self):
        axis = [ParameterAxis("channel_loss_db", (8.0, 16.0))]
        serial = run_grid(self._training_spec(), axis, seed=2, workers=1)
        pooled = run_grid(self._training_spec(), axis, seed=2, workers=2)
        for key in ("trained_vertical", "trained_tx_post_db",
                    "trained_ctle_peaking_db", "errors"):
            np.testing.assert_array_equal(serial.metric(key),
                                          pooled.metric(key))

    def test_dfe_taps_recorded_when_configured(self):
        from dataclasses import replace

        from repro.link import LmsDfe

        spec = self._training_spec()
        spec = replace(spec, link=replace(spec.link, dfe=LmsDfe(n_taps=2)))
        from repro.experiments import link_training_measurement
        metrics = link_training_measurement(spec)
        assert "trained_dfe_tap1" in metrics and "trained_dfe_tap2" in metrics

    def test_measurement_serializes_through_sweep_result(self):
        from repro.experiments import SweepResult
        result = run_grid(
            self._training_spec(),
            [ParameterAxis("channel_loss_db", (8.0,))],
            seed=0, workers=1)
        restored = SweepResult.from_json(result.to_json())
        np.testing.assert_array_equal(restored.metric("trained_vertical"),
                                      result.metric("trained_vertical"))


class TestToleranceSearch:
    def test_search_finds_larger_low_frequency_tolerance(self):
        result = run_tolerance_search(
            BASE,
            [ParameterAxis("sj_frequency_hz", (2.5e5, 7.5e8))],
            ToleranceSearch(maximum=4.0, target_errors=1),
            seed=5, workers=1)
        low, near_rate = result.metric("sj_amplitude_ui_pp")
        assert low > near_rate

    def test_deterministic_across_worker_counts(self):
        search = ToleranceSearch(maximum=2.0, target_errors=1)
        axis = [ParameterAxis("sj_frequency_hz", (2.5e6,))]
        serial = run_tolerance_search(BASE, axis, search, seed=5, workers=1)
        pooled = run_tolerance_search(BASE, axis, search, seed=5, workers=2)
        np.testing.assert_array_equal(serial.metric("sj_amplitude_ui_pp"),
                                      pooled.metric("sj_amplitude_ui_pp"))

    def test_metadata_records_search_settings(self):
        result = run_tolerance_search(
            BASE, [ParameterAxis("sj_frequency_hz", (2.5e6,))],
            ToleranceSearch(maximum=1.0, target_errors=2), seed=0, workers=1)
        assert result.metadata["search_axis"] == "sj_amplitude_ui_pp"
        assert result.metadata["maximum"] == 1.0
        assert result.metadata["target_errors"] == 2

    def test_invalid_search_settings_rejected(self):
        with pytest.raises(ValueError):
            ToleranceSearch(maximum=0.0)
        with pytest.raises(ValueError):
            ToleranceSearch(resolution=-1.0)


class TestProvenanceStamping:
    def test_run_grid_stamps_a_manifest(self):
        from repro.telemetry.manifest import RunManifest

        result = run_grid(BASE, [FREQUENCY_AXIS], seed=3, workers=1)
        manifest = RunManifest.from_dict(result.metadata["manifest"])
        assert manifest.backend == "fast"
        assert manifest.seed == 3
        assert manifest.content_key  # the study's content hash

    def test_manifest_survives_the_json_round_trip(self):
        from repro.experiments import SweepResult

        result = run_grid(BASE, [FREQUENCY_AXIS], seed=3, workers=1)
        restored = SweepResult.from_json(result.to_json())
        assert restored.metadata["manifest"] == result.metadata["manifest"]

    def test_checkpoint_header_carries_the_same_manifest(self, tmp_path):
        import json

        checkpoint = tmp_path / "grid.jsonl"
        result = run_grid(
            BASE, [FREQUENCY_AXIS], seed=3, workers=1, checkpoint=checkpoint
        )
        header = json.loads(checkpoint.read_text().splitlines()[0])
        assert header["manifest"] == result.metadata["manifest"]
        assert list(tmp_path.iterdir()) == [checkpoint]

    def test_tolerance_search_stamps_a_manifest(self):
        from repro.telemetry.manifest import RunManifest

        result = run_tolerance_search(
            BASE, [ParameterAxis("sj_frequency_hz", (2.5e6,))],
            ToleranceSearch(maximum=1.0, target_errors=2), seed=0, workers=1)
        manifest = RunManifest.from_dict(result.metadata["manifest"])
        assert manifest.seed == 0
        assert manifest.content_key
