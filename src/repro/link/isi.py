"""Fast pulse-response superposition — the received-waveform synthesis core.

A linear channel turns the transmitted symbol sequence ``s_k`` into

    ``y(t) = sum_k s_k * p(t - k * UI)``

where ``p`` is the single-bit (pulse) response.  For the periodic patterns
the sweeps transmit (PRBS), the steady-state waveform over one pattern
period is the **circular** superposition of the per-UI shifted pulse
copies; :func:`superpose_circular` evaluates it with one FFT
multiply–inverse pass, vectorized over the whole grid.
"""

from __future__ import annotations

import numpy as np

from .._validation import require_positive_int

__all__ = [
    "nrz_symbol_levels",
    "upsample_symbols",
    "superpose_circular",
]


def nrz_symbol_levels(bits: np.ndarray) -> np.ndarray:
    """Map 0/1 bits to the ±1 NRZ symbol levels the link waveform carries."""
    return 2.0 * np.asarray(bits, dtype=float).ravel() - 1.0


def upsample_symbols(symbols: np.ndarray, samples_per_ui: int) -> np.ndarray:
    """Impulse train: each symbol placed at the start of its unit interval."""
    require_positive_int("samples_per_ui", samples_per_ui)
    symbols = np.asarray(symbols, dtype=float).ravel()
    train = np.zeros(symbols.size * samples_per_ui)
    train[::samples_per_ui] = symbols
    return train


def _folded_pulse(pulse: np.ndarray, length: int) -> np.ndarray:
    """Wrap a pulse response onto a circular grid of *length* samples."""
    pulse = np.asarray(pulse, dtype=float).ravel()
    if pulse.size <= length:
        padded = np.zeros(length)
        padded[: pulse.size] = pulse
        return padded
    # Pad to a whole number of turns, then sum the turns in one pass.
    turns = -(-pulse.size // length)
    padded = np.zeros(turns * length)
    padded[: pulse.size] = pulse
    return padded.reshape(turns, length).sum(axis=0)


def superpose_circular(symbols: np.ndarray, pulse: np.ndarray, samples_per_ui: int) -> np.ndarray:
    """Steady-state received waveform of a repeating symbol pattern.

    Treats *symbols* as one period of an infinitely repeating pattern and
    returns one period of the received waveform: the circular convolution
    of the symbol impulse train with the pulse response, evaluated in the
    frequency domain.  A pulse longer than the period is folded onto it
    (exact for a periodic drive).
    """
    train = upsample_symbols(symbols, samples_per_ui)
    kernel = _folded_pulse(pulse, train.size)
    spectrum = np.fft.rfft(train) * np.fft.rfft(kernel)
    return np.fft.irfft(spectrum, train.size)

