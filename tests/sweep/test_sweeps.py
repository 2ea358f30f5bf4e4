"""Behaviour of the time-domain sweeps and their backend switch."""

import numpy as np
import pytest

from repro.datapath.nrz import JitterSpec
from repro.sweep import (
    ber_vs_aggressor_sweep,
    ber_vs_frequency_offset_sweep,
    ber_vs_sj_sweep,
    jitter_tolerance_sweep,
    link_training_sweep,
    make_channel,
    multichannel_sweep,
)

MILD = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01, sj_phase_rad=np.pi / 2)
FREQS = np.array([2.5e6, 7.5e8])
AMPS = np.array([0.1, 1.0])


class TestBackendSwitch:
    def test_make_channel_backends(self):
        from repro.core.cdr_channel import BehavioralCdrChannel
        from repro.fastpath import FastCdrChannel
        assert isinstance(make_channel(backend="event"), BehavioralCdrChannel)
        assert isinstance(make_channel(backend="fast"), FastCdrChannel)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_channel(backend="warp")

    def test_backends_count_identical_errors(self):
        """Zero-gate-jitter configs: both backends give the same error counts."""
        fast = ber_vs_sj_sweep(FREQS, AMPS, base_jitter=MILD, n_bits=600,
                               backend="fast", seed=7, workers=1)
        event = ber_vs_sj_sweep(FREQS, AMPS, base_jitter=MILD, n_bits=600,
                                backend="event", seed=7, workers=1)
        np.testing.assert_array_equal(fast.metrics["errors"], event.metrics["errors"])
        np.testing.assert_array_equal(fast.metrics["compared"], event.metrics["compared"])


class TestBerSurfaces:
    def test_surface_shape_and_counts(self):
        result = ber_vs_sj_sweep(FREQS, AMPS, base_jitter=MILD, n_bits=500,
                                 seed=0, workers=1)
        assert result.metrics["errors"].shape == (AMPS.size, FREQS.size)
        assert np.all(result.metrics["compared"] > 400)
        assert np.all(result.metrics["errors"] >= 0)

    def test_worker_count_does_not_change_results(self):
        serial = ber_vs_sj_sweep(FREQS, AMPS, base_jitter=MILD, n_bits=500,
                                 seed=3, workers=1)
        pooled = ber_vs_sj_sweep(FREQS, AMPS, base_jitter=MILD, n_bits=500,
                                 seed=3, workers=3)
        np.testing.assert_array_equal(serial.metrics["errors"], pooled.metrics["errors"])

    def test_large_near_rate_sj_errors(self):
        """1.0 UIpp SJ at 0.3 fb must break a 500-bit run; 0.1 UIpp must not."""
        result = ber_vs_sj_sweep(np.array([7.5e8]), np.array([0.1, 1.0]),
                                 base_jitter=MILD, n_bits=500, seed=1, workers=1)
        assert result.metrics["errors"][1, 0] > result.metrics["errors"][0, 0]

    def test_frequency_offset_sweep_degrades_with_offset(self):
        result = ber_vs_frequency_offset_sweep(
            np.array([0.0, 0.05]), jitter=MILD, n_bits=600, seed=2, workers=1)
        errors = result.metrics["errors"]
        assert errors.shape == (2,)
        assert errors[1] >= errors[0]

    def test_ber_property(self):
        result = ber_vs_frequency_offset_sweep(
            np.array([0.0]), jitter=MILD, n_bits=400, seed=2, workers=1)
        assert result.ber.shape == (1,)
        assert 0.0 <= result.ber[0] <= 1.0


class TestJitterTolerance:
    def test_low_frequency_tolerance_exceeds_near_rate(self):
        """The gated oscillator tolerates slow jitter far better than fast."""
        result = jitter_tolerance_sweep(
            np.array([2.5e5, 7.5e8]), base_jitter=MILD, n_bits=400,
            seed=5, workers=1, max_amplitude_ui_pp=4.0, target_errors=1)
        low, near_rate = result.metrics["sj_amplitude_ui_pp"]
        assert low > near_rate

    def test_deterministic_across_workers(self):
        kwargs = dict(base_jitter=MILD, n_bits=300, seed=5,
                      max_amplitude_ui_pp=2.0, target_errors=1)
        serial = jitter_tolerance_sweep(np.array([2.5e6]), workers=1, **kwargs)
        pooled = jitter_tolerance_sweep(np.array([2.5e6]), workers=2, **kwargs)
        np.testing.assert_array_equal(serial.metrics["sj_amplitude_ui_pp"],
                                      pooled.metrics["sj_amplitude_ui_pp"])


class TestMultichannel:
    def test_lane_counts_and_determinism(self):
        result = multichannel_sweep(n_bits=400, jitter=MILD, seed=11, workers=1)
        again = multichannel_sweep(n_bits=400, jitter=MILD, seed=11, workers=2)
        assert result.metrics["errors"].shape == (4,)
        np.testing.assert_array_equal(result.metrics["errors"], again.metrics["errors"])
        assert (result.metadata["frequency_offsets"]
                == again.metadata["frequency_offsets"])
        aggregate = (result.metrics["errors"].sum()
                     / result.metrics["compared"].sum())
        assert 0.0 <= aggregate <= 1.0

    def test_backends_agree(self):
        fast = multichannel_sweep(n_bits=400, jitter=MILD, seed=11,
                                  workers=1, backend="fast")
        event = multichannel_sweep(n_bits=400, jitter=MILD, seed=11,
                                   workers=1, backend="event")
        np.testing.assert_array_equal(fast.metrics["errors"], event.metrics["errors"])


class TestAggressorSweep:
    AMPLITUDES = np.array([0.0, 0.2, 0.4])

    def test_bit_true_and_statistical_views_track(self):
        result = ber_vs_aggressor_sweep(self.AMPLITUDES, n_bits=1000,
                                        seed=7, workers=1)
        # Bit-true errors are non-decreasing and the statistical eye
        # openings non-increasing as the aggressor strengthens.
        assert result.metrics["errors"][0] <= result.metrics["errors"][-1]
        assert np.all(np.diff(result.metrics["stateye_vertical"]) <= 0.0)
        assert np.all(np.diff(result.metrics["stateye_horizontal_ui"]) <= 0.0)
        # The strongest aggressor visibly disturbs both views.
        assert result.metrics["errors"][-1] > 0
        assert result.metrics["stateye_vertical"][-1] < result.metrics["stateye_vertical"][0]

    def test_deterministic_across_workers(self):
        serial = ber_vs_aggressor_sweep(self.AMPLITUDES, n_bits=600,
                                        seed=3, workers=1)
        pooled = ber_vs_aggressor_sweep(self.AMPLITUDES, n_bits=600,
                                        seed=3, workers=2)
        np.testing.assert_array_equal(serial.metrics["errors"], pooled.metrics["errors"])
        np.testing.assert_array_equal(serial.metrics["stateye_ber"], pooled.metrics["stateye_ber"])

    def test_backends_agree(self):
        fast = ber_vs_aggressor_sweep(self.AMPLITUDES, n_bits=600, seed=3,
                                      workers=1, backend="fast")
        event = ber_vs_aggressor_sweep(self.AMPLITUDES, n_bits=600, seed=3,
                                       workers=1, backend="event")
        np.testing.assert_array_equal(fast.metrics["errors"], event.metrics["errors"])
        np.testing.assert_array_equal(fast.metrics["stateye_ber"], event.metrics["stateye_ber"])

    def test_result_round_trips(self):
        from repro.experiments import SweepResult
        result = ber_vs_aggressor_sweep(self.AMPLITUDES, n_bits=600,
                                        seed=3, workers=1)
        restored = SweepResult.from_json(result.to_json())
        assert restored.equals(result)
        assert restored.metadata["loss_db"] == 10.0


class TestLinkTrainingSweep:
    LOSSES = np.array([10.0, 16.0])

    def _sweep(self, **overrides):
        from repro.experiments import TrainingBudget

        values = dict(n_bits=600, seed=3, workers=1,
                      training=TrainingBudget(tx_post_db=(0.0, 3.5),
                                              ctle_peaking_db=(3.0, 9.0),
                                              refine_rounds=1,
                                              max_evaluations=8))
        values.update(overrides)
        return link_training_sweep(self.LOSSES, **values)

    def test_trained_never_scores_below_fixed(self):
        result = self._sweep()
        assert np.all(result.metrics["trained_vertical"] >= result.metrics["fixed_vertical"])
        # The harsh loss point is where training visibly helps.
        assert result.metrics["trained_vertical"][-1] > result.metrics["fixed_vertical"][-1]

    def test_trained_coordinates_and_costs_recorded(self):
        result = self._sweep()
        assert result.metrics["trained_ctle_peaking_db"].shape == self.LOSSES.shape
        # Budget 8 searched solves plus the exempt baseline seed.
        assert np.all(result.metrics["training_evaluations"] <= 9)
        assert np.all(result.metrics["training_evaluations"] >= 2)

    def test_deterministic_across_workers(self):
        serial = self._sweep(workers=1)
        pooled = self._sweep(workers=2)
        np.testing.assert_array_equal(serial.metrics["errors"], pooled.metrics["errors"])
        np.testing.assert_array_equal(serial.metrics["trained_vertical"],
                                      pooled.metrics["trained_vertical"])
        np.testing.assert_array_equal(serial.metrics["trained_ctle_peaking_db"],
                                      pooled.metrics["trained_ctle_peaking_db"])

    def test_result_round_trips(self):
        from repro.experiments import SweepResult

        result = self._sweep()
        restored = SweepResult.from_json(result.to_json())
        assert restored.equals(result)
        assert restored.metadata["target_ber"] == 1.0e-12
