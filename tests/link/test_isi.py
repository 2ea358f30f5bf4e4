"""Tests for the ISI superposition core (circular vs direct convolution)."""

import numpy as np
import pytest

from repro.link import (
    LinkTimebase,
    LossyLineChannel,
    nrz_symbol_levels,
    superpose_circular,
    upsample_symbols,
)


def superpose_linear(symbols, pulse, samples_per_ui):
    """Direct (non-circular) superposition via ``np.convolve`` — the oracle.

    Returns the full linear convolution of the impulse train with the
    pulse; the first ``len(pulse)`` samples carry the start-up transient
    that the circular form replaces with the steady-state wrap.
    """
    train = upsample_symbols(symbols, samples_per_ui)
    return np.convolve(train, np.asarray(pulse, dtype=float).ravel())


class TestUpsample:
    def test_impulse_train_placement(self):
        train = upsample_symbols(np.array([1.0, -1.0, 1.0]), 4)
        assert train.size == 12
        assert train[0] == 1.0 and train[4] == -1.0 and train[8] == 1.0
        assert np.count_nonzero(train) == 3


class TestCircularVsDirect:
    """The satellite requirement: vectorized circular superposition must
    reproduce direct ``np.convolve`` wherever the comparison is fair."""

    def test_matches_convolve_in_steady_state(self):
        # One period of a pattern, pulse shorter than the period: after the
        # pulse has settled, circular and linear superposition agree.
        rng = np.random.default_rng(11)
        timebase = LinkTimebase(samples_per_ui=16)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 64))
        pulse = LossyLineChannel.for_loss_at_nyquist(8.0, 2.5e9).pulse_response(
            timebase, n_ui=64)
        spu = timebase.samples_per_ui
        # Use the pulse's leading span only so the linear reference is exact.
        span = 32 * spu
        circular = superpose_circular(symbols, pulse[:span], spu)
        linear = superpose_linear(symbols, pulse[:span], spu)
        # Steady state of the linear result: once every pulse that matters
        # has launched (after `span` samples) and before the tail runs out.
        interior = slice(span, symbols.size * spu)
        assert circular[interior] == pytest.approx(linear[interior], abs=1e-9)

    def test_two_period_tiling_consistency(self):
        # Doubling the pattern must reproduce the single-period waveform in
        # both halves — the property the displacement-table reuse relies on.
        rng = np.random.default_rng(12)
        timebase = LinkTimebase(samples_per_ui=8)
        symbols = nrz_symbol_levels(rng.integers(0, 2, 48))
        pulse = LossyLineChannel.for_loss_at_nyquist(6.0, 2.5e9).pulse_response(
            timebase, n_ui=48)
        spu = timebase.samples_per_ui
        one = superpose_circular(symbols, pulse, spu)
        two = superpose_circular(np.tile(symbols, 2), np.concatenate(
            (pulse, np.zeros(pulse.size))), spu)
        assert two[:one.size] == pytest.approx(one, abs=1e-9)
        assert two[one.size:] == pytest.approx(one, abs=1e-9)

    def test_pulse_longer_than_period_folds(self):
        # A pulse tail longer than the pattern period wraps onto it; the
        # result equals convolving the infinitely repeated pattern.
        spu = 4
        symbols = np.array([1.0, -1.0, 1.0, 1.0])
        pulse = np.exp(-np.arange(3 * symbols.size * spu) / 7.0)
        circular = superpose_circular(symbols, pulse, spu)
        # Reference: linear convolution of four pattern repetitions.  The
        # pulse spans three periods, so the fourth period of the linear
        # result has seen every contribution and matches the steady state.
        linear = superpose_linear(np.tile(symbols, 4), pulse, spu)
        period = symbols.size * spu
        assert circular == pytest.approx(linear[3 * period:4 * period], abs=1e-9)


class TestFoldedPulse:
    """Regression for the vectorized pad-reshape-sum fold (was a Python loop)."""

    @staticmethod
    def _loop_fold(pulse, length):
        folded = np.zeros(length)
        for start in range(0, pulse.size, length):
            chunk = pulse[start:start + length]
            folded[:chunk.size] += chunk
        return folded

    @pytest.mark.parametrize("size", [16, 17, 31, 33, 95, 97, 160])
    def test_matches_loop_fold_for_any_length(self, size):
        # Sizes straddle multiples of the period (32): the ragged final
        # chunk must land on the leading bins only.
        from repro.link.isi import _folded_pulse

        rng = np.random.default_rng(size)
        pulse = rng.normal(size=size)
        assert _folded_pulse(pulse, 32) == pytest.approx(
            self._loop_fold(pulse, 32), abs=1e-12)

    def test_short_pulse_is_zero_padded(self):
        from repro.link.isi import _folded_pulse

        folded = _folded_pulse(np.array([1.0, 2.0]), 5)
        assert folded == pytest.approx([1.0, 2.0, 0.0, 0.0, 0.0])

    def test_fold_preserves_total_mass(self):
        from repro.link.isi import _folded_pulse

        pulse = np.exp(-np.arange(101) / 11.0)
        assert _folded_pulse(pulse, 8).sum() == pytest.approx(pulse.sum())


class TestIdealReconstruction:
    def test_ideal_channel_reproduces_nrz_waveform(self):
        from repro.link import IdealChannel

        timebase = LinkTimebase(samples_per_ui=8)
        bits = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
        levels = nrz_symbol_levels(bits)
        pulse = IdealChannel().pulse_response(timebase, n_ui=bits.size)
        waveform = superpose_circular(levels, pulse, timebase.samples_per_ui)
        expected = np.repeat(levels, timebase.samples_per_ui)
        assert waveform == pytest.approx(expected, abs=1e-9)
