"""Tests for bit-error counting and alignment."""

import numpy as np
import pytest

from repro.analysis.ber_counter import BerMeasurement, align_and_count, count_errors


class TestCountErrors:
    def test_identical_streams(self):
        result = count_errors([1, 0, 1, 1], [1, 0, 1, 1])
        assert result.errors == 0
        assert result.compared_bits == 4
        assert result.ber == 0.0

    def test_counts_mismatches(self):
        result = count_errors([1, 0, 1, 1], [1, 1, 1, 0])
        assert result.errors == 2
        assert result.ber == pytest.approx(0.5)

    def test_unequal_lengths_compare_prefix(self):
        result = count_errors([1, 0, 1, 1, 0], [1, 0])
        assert result.compared_bits == 2

    def test_empty(self):
        result = count_errors([], [])
        assert result.compared_bits == 0
        assert np.isnan(result.ber)


class TestAlignAndCount:
    def test_latency_offset_found(self):
        rng = np.random.default_rng(0)
        tx = rng.integers(0, 2, size=200)
        rx = tx[3:]  # receiver output lags by 3 bits
        result = align_and_count(tx, rx, skip_head=0)
        assert result.errors == 0
        assert result.alignment_offset == 3

    def test_leading_stale_samples_handled(self):
        # Start-up decisions before the data arrives add leading receive bits.
        rng = np.random.default_rng(1)
        tx = rng.integers(0, 2, size=200)
        rx = np.concatenate([[0, 0], tx])
        result = align_and_count(tx, rx, skip_head=0)
        assert result.errors == 0
        assert result.alignment_offset == -2

    def test_skip_head_excludes_acquisition(self):
        tx = np.ones(100, dtype=np.uint8)
        rx = tx.copy()
        rx[:5] = 0  # acquisition errors
        result = align_and_count(tx, rx, skip_head=8)
        assert result.errors == 0

    def test_real_errors_counted(self):
        rng = np.random.default_rng(2)
        tx = rng.integers(0, 2, size=500)
        rx = tx.copy()
        error_positions = [50, 100, 400]
        for position in error_positions:
            rx[position] ^= 1
        result = align_and_count(tx, rx, skip_head=0)
        assert result.errors == 3

    def test_empty_inputs(self):
        result = align_and_count([], [])
        assert result.compared_bits == 0


class TestConfidence:
    def test_zero_error_upper_bound(self):
        result = BerMeasurement(errors=0, compared_bits=1000)
        assert result.confidence_upper_bound(0.95) == pytest.approx(3.0e-3, rel=0.01)

    def test_nonzero_error_bound_above_estimate(self):
        result = BerMeasurement(errors=10, compared_bits=1000)
        assert result.confidence_upper_bound() > result.ber

    def test_nan_for_empty(self):
        assert np.isnan(BerMeasurement(errors=0, compared_bits=0).confidence_upper_bound())

    @pytest.mark.parametrize("errors", [0, 10])
    def test_bound_grows_with_confidence(self, errors):
        """Every confidence gets its own quantile (0.975 and 0.999 once fell back to 0.95)."""
        result = BerMeasurement(errors=errors, compared_bits=1000)
        bounds = [result.confidence_upper_bound(c) for c in (0.9, 0.95, 0.975, 0.999)]
        assert all(low < high for low, high in zip(bounds, bounds[1:])), bounds

    def test_nonzero_error_bound_uses_normal_quantile(self):
        result = BerMeasurement(errors=10, compared_bits=1000)
        spread = np.sqrt(0.01 * 0.99 / 1000)
        assert result.confidence_upper_bound(0.975) == pytest.approx(0.01 + 1.959964 * spread)
        assert result.confidence_upper_bound(0.999) == pytest.approx(0.01 + 3.090232 * spread)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_confidence_outside_unit_interval_is_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            BerMeasurement(errors=10, compared_bits=1000).confidence_upper_bound(confidence)
