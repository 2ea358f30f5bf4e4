"""Tests for bit-error counting and alignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ber_counter import (
    BerMeasurement,
    align_and_count,
    ber_interval,
    count_errors,
)


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

    def test_upper_bound_is_the_exact_one(self):
        """The normal approximation gave 0.01518 here; the exact bound is higher."""
        result = BerMeasurement(errors=10, compared_bits=1000)
        assert result.confidence_upper_bound() == pytest.approx(1.6903e-2, rel=1e-4)
        assert result.confidence_upper_bound(0.975) == ber_interval(10, 1000, 0.975)[1]

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_confidence_outside_unit_interval_is_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            BerMeasurement(errors=10, compared_bits=1000).confidence_upper_bound(confidence)


@st.composite
def _counts(draw):
    bits = draw(st.integers(min_value=1, max_value=100_000))
    return draw(st.integers(min_value=0, max_value=bits)), bits


_CONFIDENCES = st.floats(min_value=0.5, max_value=0.999_999)


class TestBerInterval:
    @pytest.mark.parametrize("confidence, high", [
        (0.95, 1.6956e-3),
        (0.975, 1.8383e-3),
        (0.999, 2.4117e-3),
    ])
    def test_exact_upper_bound_at_ten_errors(self, confidence, high):
        assert ber_interval(10, 10000, confidence)[1] == pytest.approx(high, rel=1e-4)

    def test_zero_errors_is_the_exact_zero_error_bound(self):
        low, high = ber_interval(0, 1000)
        assert low == 0.0
        assert high == pytest.approx(1.0 - 0.05 ** (1.0 / 1000), rel=1e-9)
        assert high == pytest.approx(2.9912e-3, rel=1e-4)

    def test_all_errors_reach_one(self):
        low, high = ber_interval(1000, 1000)
        assert high == 1.0
        assert low == pytest.approx(0.05 ** (1.0 / 1000), rel=1e-9)

    def test_no_bits_measured_nothing(self):
        assert all(math.isnan(bound) for bound in ber_interval(0, 0))

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_confidence_outside_unit_interval_is_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            ber_interval(10, 1000, confidence)

    @pytest.mark.parametrize("errors, bits", [(-1, 1000), (1001, 1000), (1, 0), (0, -1)])
    def test_errors_outside_the_bits_are_rejected(self, errors, bits):
        with pytest.raises(ValueError, match="errors"):
            ber_interval(errors, bits)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_counts(), _CONFIDENCES)
    def test_bounds_lie_in_unit_interval_and_contain_estimate(self, counts, confidence):
        errors, bits = counts
        low, high = ber_interval(errors, bits, confidence)
        assert 0.0 <= low <= errors / bits <= high <= 1.0
        assert (low == 0.0) == (errors == 0)
        assert (high == 1.0) == (errors == bits)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_counts(), _CONFIDENCES, _CONFIDENCES)
    def test_interval_widens_with_confidence(self, counts, first, second):
        errors, bits = counts
        lower, higher = sorted((first, second))
        low_narrow, high_narrow = ber_interval(errors, bits, lower)
        low_wide, high_wide = ber_interval(errors, bits, higher)
        assert low_wide <= low_narrow
        assert high_narrow <= high_wide
