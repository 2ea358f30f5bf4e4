"""The public sweeps are thin, bit-identical wrappers over the engine.

Two layers of protection:

* **golden pins** — error/tolerance numbers captured on ``main`` *before*
  the sweeps were rewritten; any numeric drift in the refactored pipeline
  fails these;
* **wrapper == spec** — each wrapper is re-expressed as a hand-built
  :class:`~repro.experiments.ScenarioSpec` study (property-style, over a
  couple of parameter draws) and must match the engine output exactly,
  proving the wrappers add nothing but argument marshalling.
"""


import numpy as np
import pytest

from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.experiments import (
    EqualizerLineup,
    LaneSpec,
    ParameterAxis,
    ScenarioSpec,
    StimulusSpec,
    ToleranceSearch,
    run_grid,
    run_tolerance_search,
)
from repro.link import LinkConfig, LmsDfe, LossyLineChannel, RxCtle, TxFfe
from repro.sweep import (
    ber_vs_channel_loss_sweep,
    ber_vs_ctle_peaking_sweep,
    ber_vs_frequency_offset_sweep,
    ber_vs_sj_sweep,
    equalization_ablation_sweep,
    jitter_tolerance_sweep,
    multichannel_sweep,
)
from repro.core.multichannel import MultiChannelConfig, MultiChannelReceiver

MILD = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01, sj_phase_rad=np.pi / 2)


def _spec(n_bits, jitter, config=None, link=None, backend="fast"):
    return ScenarioSpec(
        stimulus=StimulusSpec(n_bits=n_bits, prbs_order=7),
        jitter=jitter,
        config=config or CdrChannelConfig(),
        link=link,
        backend=backend,
    )


class TestGoldenPins:
    """Numbers captured on main before the refactor — must never move."""

    def test_ber_vs_sj(self):
        result = ber_vs_sj_sweep(
            np.array([2.5e6, 7.5e8]), np.array([0.1, 1.0]),
            base_jitter=MILD, n_bits=600, backend="fast", seed=7, workers=1)
        assert result.metrics["errors"].tolist() == [[0, 0], [36, 73]]
        assert result.metrics["compared"].tolist() == [[598, 598], [598, 598]]

    def test_ber_vs_frequency_offset(self):
        result = ber_vs_frequency_offset_sweep(
            np.array([0.0, 0.02, 0.05]), jitter=MILD, n_bits=600,
            seed=2, workers=1)
        assert result.metrics["errors"].tolist() == [0, 1, 1]

    def test_jitter_tolerance(self):
        result = jitter_tolerance_sweep(
            np.array([2.5e5, 7.5e8]), base_jitter=MILD, n_bits=400,
            seed=5, workers=1, max_amplitude_ui_pp=4.0, target_errors=1)
        np.testing.assert_allclose(result.metrics["sj_amplitude_ui_pp"],
                                   [3.45, 0.35], atol=1e-12)

    def test_multichannel(self):
        result = multichannel_sweep(n_bits=400, jitter=MILD, seed=11,
                                    workers=1)
        assert result.metrics["errors"].tolist() == [0, 0, 1, 1]
        pinned = [-0.0014625340953382492, -0.001551991370356369,
                  0.003831199674245071, -0.0006884534163383483]
        np.testing.assert_allclose(
            result.metadata["frequency_offsets"], pinned, rtol=1e-12)
        receiver = MultiChannelReceiver(
            MultiChannelConfig(),
            rng=np.random.default_rng(np.random.SeedSequence(11)))
        np.testing.assert_allclose(
            receiver.channel_frequency_offsets(), pinned, rtol=1e-12)

    def test_ber_vs_channel_loss(self):
        result = ber_vs_channel_loss_sweep(
            np.array([6.0, 14.0]), n_bits=500, seed=3, workers=1)
        assert result.metrics["errors"].tolist() == [0, 3]

    def test_ber_vs_ctle_peaking(self):
        result = ber_vs_ctle_peaking_sweep(
            np.array([0.0, 6.0]), loss_db=14.0, n_bits=500, seed=3,
            workers=1)
        assert result.metrics["errors"].tolist() == [7, 0]

    def test_equalization_ablation(self):
        result = equalization_ablation_sweep(
            14.0, n_bits=500, seed=3, workers=1, dfe=LmsDfe())
        assert result.axes[0].labels == ("unequalized", "ffe", "ctle",
                                         "ffe+ctle", "ffe+ctle+dfe")
        assert result.metrics["errors"].tolist() == [6, 0, 0, 0, 0]


@pytest.mark.parametrize("seed,n_bits", [(7, 500), (21, 350)])
class TestWrapperEqualsSpec:
    """Each wrapper must equal its hand-built declarative study exactly."""

    def test_ber_vs_sj(self, seed, n_bits):
        frequencies = np.array([2.5e6, 7.5e8])
        amplitudes = np.array([0.1, 1.0])
        wrapper = ber_vs_sj_sweep(frequencies, amplitudes, base_jitter=MILD,
                                  n_bits=n_bits, seed=seed, workers=1)
        spec_run = run_grid(
            _spec(n_bits, MILD.with_sinusoidal(0.0, 0.0)),
            [ParameterAxis("sj_amplitude_ui_pp", amplitudes),
             ParameterAxis("sj_frequency_hz", frequencies)],
            seed=seed, workers=1)
        np.testing.assert_array_equal(
            wrapper.metrics["errors"], spec_run.metric("errors"))
        np.testing.assert_array_equal(
            wrapper.metrics["compared"], spec_run.metric("compared"))

    def test_ber_vs_frequency_offset(self, seed, n_bits):
        offsets = np.array([0.0, 0.03])
        wrapper = ber_vs_frequency_offset_sweep(
            offsets, jitter=MILD, n_bits=n_bits, seed=seed, workers=1)
        spec_run = run_grid(
            _spec(n_bits, MILD),
            [ParameterAxis("frequency_offset", offsets)],
            seed=seed, workers=1)
        np.testing.assert_array_equal(
            wrapper.metrics["errors"], spec_run.metric("errors"))

    def test_jitter_tolerance(self, seed, n_bits):
        frequencies = np.array([2.5e6, 7.5e8])
        wrapper = jitter_tolerance_sweep(
            frequencies, base_jitter=MILD, n_bits=n_bits, seed=seed,
            workers=1, max_amplitude_ui_pp=2.0, target_errors=1)
        spec_run = run_tolerance_search(
            _spec(n_bits, MILD.with_sinusoidal(0.0, 0.0)),
            [ParameterAxis("sj_frequency_hz", frequencies)],
            ToleranceSearch(maximum=2.0, resolution=0.05, target_errors=1),
            seed=seed, workers=1)
        np.testing.assert_array_equal(
            wrapper.metrics["sj_amplitude_ui_pp"],
            spec_run.metric("sj_amplitude_ui_pp"))

    def test_multichannel(self, seed, n_bits):
        config = MultiChannelConfig()
        wrapper = multichannel_sweep(config, n_bits=n_bits, jitter=MILD,
                                     seed=seed, workers=1)
        receiver = MultiChannelReceiver(
            config, rng=np.random.default_rng(np.random.SeedSequence(seed)))
        offsets = receiver.channel_frequency_offsets()
        receiver.lane_skews_ui()  # consumed in the same order as the wrapper
        lanes = tuple(
            LaneSpec(index=i, frequency_offset=float(offsets[i]),
                     stimulus_seed=i + 1)
            for i in range(config.n_channels))
        spec_run = run_grid(
            _spec(n_bits, MILD, config=config.channel),
            [ParameterAxis("lane", lanes)],
            seed=seed, workers=1)
        np.testing.assert_array_equal(wrapper.metrics["errors"],
                                      spec_run.metric("errors"))

    def test_ber_vs_channel_loss(self, seed, n_bits):
        losses = np.array([6.0, 16.0])
        link = LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5))
        wrapper = ber_vs_channel_loss_sweep(
            losses, link=link, n_bits=n_bits, seed=seed, workers=1)
        jitter = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.021,
                            sj_amplitude_ui_pp=0.0)
        spec_run = run_grid(
            _spec(n_bits, jitter, link=link),
            [ParameterAxis("channel_loss_db", losses)],
            seed=seed, workers=1)
        np.testing.assert_array_equal(
            wrapper.metrics["errors"], spec_run.metric("errors"))

    def test_ber_vs_ctle_peaking(self, seed, n_bits):
        peakings = np.array([0.0, 6.0])
        wrapper = ber_vs_ctle_peaking_sweep(
            peakings, loss_db=14.0, n_bits=n_bits, seed=seed, workers=1)
        link = LinkConfig().with_channel(
            LossyLineChannel.for_loss_at_nyquist(
                14.0, LinkConfig().timebase.bit_rate_hz))
        jitter = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.021,
                            sj_amplitude_ui_pp=0.0)
        spec_run = run_grid(
            _spec(n_bits, jitter, link=link),
            [ParameterAxis("ctle_peaking_db", peakings)],
            seed=seed, workers=1)
        np.testing.assert_array_equal(
            wrapper.metrics["errors"], spec_run.metric("errors"))

    def test_equalization_ablation(self, seed, n_bits):
        wrapper = equalization_ablation_sweep(
            14.0, n_bits=n_bits, seed=seed, workers=1)
        template = LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                              rx_ctle=RxCtle(peaking_db=6.0))
        link = template.with_channel(LossyLineChannel.for_loss_at_nyquist(
            14.0, template.timebase.bit_rate_hz))
        jitter = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.021,
                            sj_amplitude_ui_pp=0.0)
        lineups = (
            EqualizerLineup("unequalized"),
            EqualizerLineup("ffe", tx_ffe=template.tx_ffe),
            EqualizerLineup("ctle", rx_ctle=template.rx_ctle),
            EqualizerLineup("ffe+ctle", tx_ffe=template.tx_ffe,
                            rx_ctle=template.rx_ctle),
        )
        spec_run = run_grid(
            _spec(n_bits, jitter, link=link),
            [ParameterAxis("equalization", lineups)],
            seed=seed, workers=1)
        np.testing.assert_array_equal(wrapper.metrics["errors"],
                                      spec_run.metric("errors"))


class TestWrapperSurface:
    """The wrappers expose the engine result without re-running anything."""

    def test_result_round_trips(self):
        result = ber_vs_frequency_offset_sweep(
            np.array([0.0, 0.02]), jitter=MILD, n_bits=300, seed=2,
            workers=1)
        from repro.experiments import SweepResult
        assert isinstance(result, SweepResult)
        assert SweepResult.from_json(result.to_json()).equals(result)

    @pytest.mark.parametrize("sweep", [
        lambda values: ber_vs_frequency_offset_sweep(
            values * 0.01, jitter=MILD, n_bits=300, seed=2, workers=1),
        lambda values: ber_vs_channel_loss_sweep(
            values * 4.0, n_bits=300, seed=3, workers=1),
        lambda values: ber_vs_ctle_peaking_sweep(
            values * 3.0, loss_db=14.0, n_bits=300, seed=3, workers=1),
    ], ids=["frequency_offset", "channel_loss", "ctle_peaking"])
    def test_one_axis_sweeps_are_one_dimensional(self, sweep):
        result = sweep(np.arange(3.0))
        assert len(result.axes) == 1
        assert result.metrics["errors"].shape == (3,)
        assert result.ber.shape == (3,)

    def test_auto_backend_through_wrapper(self):
        result = ber_vs_frequency_offset_sweep(
            np.array([0.0]), jitter=MILD, n_bits=300, seed=2, workers=1,
            backend="auto")
        assert result.backend == "auto"
        assert result.point_backends == ("fast",)

    def test_forced_fast_with_gate_jitter_raises(self):
        config = CdrChannelConfig(gate_jitter_sigma_fraction=0.01)
        with pytest.raises(ValueError, match="per-gate-delay-jitter"):
            ber_vs_frequency_offset_sweep(
                np.array([0.0]), config=config, jitter=MILD, n_bits=300,
                seed=2, workers=1, backend="fast")

    def test_auto_with_gate_jitter_runs_on_event(self):
        config = CdrChannelConfig(gate_jitter_sigma_fraction=0.01)
        result = ber_vs_frequency_offset_sweep(
            np.array([0.0]), config=config, jitter=MILD, n_bits=300,
            seed=2, workers=1, backend="auto")
        assert result.point_backends == ("event",)
