"""Concrete behavioural CML gates (buffer, inverter, AND, XOR/XNOR).

All delay cells in the paper's design — the edge-detector delay line and the
ring-oscillator stages alike — are "identical current-mode logic two-input
gates" (section 2.2), so every gate here shares the :class:`~repro.gates.cml.CmlGate`
machinery and differs only in its evaluation function.
"""

from __future__ import annotations

import numpy as np

from ..events.signal import Signal
from .cml import CmlGate, CmlTiming

__all__ = [
    "BufferGate",
    "InverterGate",
    "And2Gate",
    "Xor2Gate",
    "Xnor2Gate",
]


class BufferGate(CmlGate):
    """Single-input delay cell (CML buffer)."""

    def __init__(self, name: str, data: Signal, output: Signal, timing: CmlTiming,
                 *, rng: np.random.Generator | None = None) -> None:
        super().__init__(name, [data], output, lambda v: v[0], timing, rng=rng)


class InverterGate(CmlGate):
    """Inverting delay cell (free output inversion of a differential buffer)."""

    def __init__(self, name: str, data: Signal, output: Signal, timing: CmlTiming,
                 *, rng: np.random.Generator | None = None) -> None:
        super().__init__(name, [data], output, lambda v: v[0], timing,
                         invert_output=True, rng=rng)


class And2Gate(CmlGate):
    """Two-input AND gate."""

    def __init__(self, name: str, in_a: Signal, in_b: Signal, output: Signal,
                 timing: CmlTiming, *, invert_output: bool = False,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(name, [in_a, in_b], output,
                         lambda v: v[0] & v[1], timing,
                         invert_output=invert_output, rng=rng)


class Xor2Gate(CmlGate):
    """Two-input XOR gate — the edge detector's comparison element."""

    def __init__(self, name: str, in_a: Signal, in_b: Signal, output: Signal,
                 timing: CmlTiming, *, invert_output: bool = False,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(name, [in_a, in_b], output,
                         lambda v: v[0] ^ v[1], timing,
                         invert_output=invert_output, rng=rng)


class Xnor2Gate(Xor2Gate):
    """Two-input XNOR gate (XOR with the differential output swapped).

    The edge detector uses this polarity: its output EDET is normally high and
    pulses low for the delay-line duration after every data transition.
    """

    def __init__(self, name: str, in_a: Signal, in_b: Signal, output: Signal,
                 timing: CmlTiming, *, rng: np.random.Generator | None = None) -> None:
        super().__init__(name, in_a, in_b, output, timing, invert_output=True, rng=rng)
