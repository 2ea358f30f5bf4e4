"""Link-driven CDR runs: backend equivalence, sweeps, statistics, specs."""

import numpy as np
import pytest

from repro.datapath import JitterSpec, prbs_sequence
from repro.link import (
    LinkCdrChannel,
    LinkConfig,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    TxFfe,
    stream_eye_diagram,
)
from repro.specs import infiniband_rx_eye_mask
from repro.statistical.ber_model import GatedOscillatorBerModel
from repro.sweep import (
    ber_vs_channel_loss_sweep,
    ber_vs_ctle_peaking_sweep,
    equalization_ablation_sweep,
)

RESIDUAL = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.01)


def _equalized(channel) -> LinkConfig:
    return LinkConfig(channel=channel,
                      tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                      rx_ctle=RxCtle(peaking_db=6.0))


class TestLinkCdrChannel:
    def test_backends_identical_behind_link(self):
        bits = prbs_sequence(7, 1200)
        link = _equalized(LossyLineChannel.for_loss_at_nyquist(12.0))
        results = {}
        for backend in ("fast", "event"):
            result = LinkCdrChannel(link, backend=backend).run(
                bits, jitter=RESIDUAL, rng=np.random.default_rng(2),
                pattern_period=127)
            results[backend] = result
        fast, event = results["fast"], results["event"]
        assert np.array_equal(fast.sample_times_s, event.sample_times_s)
        assert np.array_equal(fast.sampled_bits, event.sampled_bits)
        assert fast.ber().errors == event.ber().errors

    def test_equalization_reopens_closed_eye(self):
        bits = prbs_sequence(7, 1500)
        channel = LossyLineChannel.for_loss_at_nyquist(16.0)
        raw = LinkCdrChannel(LinkConfig(channel=channel)).run(
            bits, jitter=RESIDUAL, rng=np.random.default_rng(3),
            pattern_period=127)
        equalized = LinkCdrChannel(_equalized(channel)).run(
            bits, jitter=RESIDUAL, rng=np.random.default_rng(3),
            pattern_period=127)
        assert raw.ber().errors > 0
        assert equalized.ber().errors < raw.ber().errors

    def test_ideal_link_matches_direct_stimulus(self):
        from repro.fastpath import FastCdrChannel

        bits = prbs_sequence(7, 800)
        jitter = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01)
        via_link = LinkCdrChannel(LinkConfig(), backend="fast").run(
            bits, jitter=jitter, rng=np.random.default_rng(9))
        direct = FastCdrChannel().run(
            bits, jitter=jitter, rng=np.random.default_rng(9))
        assert np.array_equal(via_link.sampled_bits, direct.sampled_bits)
        assert np.array_equal(via_link.sample_times_s, direct.sample_times_s)


class TestLinkSweeps:
    def test_loss_sweep_deterministic_across_workers(self):
        losses = np.array([6.0, 12.0, 16.0])
        serial = ber_vs_channel_loss_sweep(losses, n_bits=600, seed=4, workers=1)
        parallel = ber_vs_channel_loss_sweep(losses, n_bits=600, seed=4, workers=3)
        assert np.array_equal(serial.metrics["errors"], parallel.metrics["errors"])
        assert np.array_equal(serial.metrics["compared"], parallel.metrics["compared"])

    def test_loss_sweep_backend_equivalence(self):
        losses = np.array([8.0, 16.0])
        fast = ber_vs_channel_loss_sweep(losses, n_bits=600, seed=4,
                                         workers=1, backend="fast")
        event = ber_vs_channel_loss_sweep(losses, n_bits=600, seed=4,
                                          workers=1, backend="event")
        assert np.array_equal(fast.metrics["errors"], event.metrics["errors"])

    def test_loss_sweep_degrades_monotonically(self):
        losses = np.array([6.0, 14.0, 18.0])
        result = ber_vs_channel_loss_sweep(losses, n_bits=1500, seed=0, workers=1)
        errors = result.metrics["errors"]
        assert errors[0] == 0
        assert errors[1] < errors[2]
        assert errors[2] > 0

    def test_equalized_sweep_beats_raw(self):
        losses = np.array([14.0, 17.0])
        raw = ber_vs_channel_loss_sweep(losses, n_bits=1200, seed=1, workers=1)
        equalized = ber_vs_channel_loss_sweep(
            losses, link=_equalized(LossyLineChannel()), n_bits=1200,
            seed=1, workers=1)
        assert equalized.metrics["errors"].sum() < raw.metrics["errors"].sum()

    def test_ctle_peaking_sweep_improves_from_zero(self):
        result = ber_vs_ctle_peaking_sweep(
            np.array([0.0, 6.0]), loss_db=15.0, n_bits=1200, seed=2, workers=1)
        errors = result.metrics["errors"]
        assert errors[0] > errors[1]

    def test_ablation_orders_lineups(self):
        result = equalization_ablation_sweep(
            15.0, n_bits=1200, seed=2, workers=1, dfe=LmsDfe())
        assert set(result.axes[0].labels) == {"unequalized", "ffe", "ctle",
                                              "ffe+ctle", "ffe+ctle+dfe"}
        errors = result.metrics["errors"]
        assert errors[0] == errors.max()
        assert errors[3] <= errors[0]


class TestStatisticalHandoff:
    def test_ddj_decomposition_tracks_loss(self):
        bits = prbs_sequence(9)
        from repro.link import LinkPath

        mild = LinkPath(LinkConfig(
            channel=LossyLineChannel.for_loss_at_nyquist(4.0)))
        harsh = LinkPath(LinkConfig(
            channel=LossyLineChannel.for_loss_at_nyquist(12.0)))
        fit_mild = mild.ddj_decomposition(bits)
        fit_harsh = harsh.ddj_decomposition(bits)
        assert fit_harsh.dj_pp_ui > fit_mild.dj_pp_ui
        assert fit_mild.dj_pp_ui >= 0.0

    def test_jitter_budget_feeds_analytic_model(self):
        bits = prbs_sequence(9)
        from repro.link import LinkPath

        mild = LinkPath(LinkConfig(
            channel=LossyLineChannel.for_loss_at_nyquist(4.0)))
        harsh = LinkPath(LinkConfig(
            channel=LossyLineChannel.for_loss_at_nyquist(12.0)))
        ber_mild = GatedOscillatorBerModel(mild.jitter_budget(bits)).ber()
        ber_harsh = GatedOscillatorBerModel(harsh.jitter_budget(bits)).ber()
        assert ber_harsh >= ber_mild


class TestEyeMaskCompliance:
    def test_equalization_restores_mask_compliance(self):
        bits = prbs_sequence(7, 1000)
        channel = LossyLineChannel.for_loss_at_nyquist(16.0)
        mask = infiniband_rx_eye_mask()

        raw_stream = LinkCdrChannel(LinkConfig(channel=channel)).run(
            bits, jitter=RESIDUAL, rng=np.random.default_rng(6),
            pattern_period=127).stream
        eq_stream = LinkCdrChannel(_equalized(channel)).run(
            bits, jitter=RESIDUAL, rng=np.random.default_rng(6),
            pattern_period=127).stream

        raw_opening = stream_eye_diagram(raw_stream).eye_opening_ui()
        eq_opening = stream_eye_diagram(eq_stream).eye_opening_ui()
        assert eq_opening > raw_opening
        assert not mask.passes(raw_opening)
        assert mask.passes(eq_opening)

    def test_mask_geometry(self):
        mask = infiniband_rx_eye_mask()
        assert mask.minimum_opening_ui == pytest.approx(0.30)
        assert mask.margin_ui(0.5) == pytest.approx(0.20)
        with pytest.raises(ValueError):
            type(mask)(x1_ui=0.6)
