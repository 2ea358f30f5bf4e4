"""Cascaded CML delay line (the edge detector's delay element).

The edge detector derives its pulse width from a delay line made of the same
two-input CML cells as the ring oscillator, so its delay tracks the oscillator
period over process, voltage and temperature — the property that makes the
``T/2 < tau < T`` window of section 3.3a realisable.
"""

from __future__ import annotations

import numpy as np

from ..events.kernel import Simulator
from ..events.signal import Signal
from .cml import CmlTiming
from .logic import BufferGate

__all__ = ["DelayLine"]


class DelayLine:
    """A chain of identical CML buffer cells.

    Parameters
    ----------
    simulator, name:
        Event kernel and instance name.
    data:
        Input signal.
    n_cells:
        Number of cascaded cells; total nominal delay is
        ``n_cells * timing.nominal_delay_s``.
    timing:
        Per-cell timing (delay, jitter, skew).
    """

    def __init__(self, simulator: Simulator, name: str, data: Signal, n_cells: int,
                 timing: CmlTiming, *, rng: np.random.Generator | None = None) -> None:
        if n_cells < 1:
            raise ValueError("a delay line needs at least one cell")
        self.simulator = simulator
        self.name = name
        self.timing = timing
        self.n_cells = n_cells
        rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator

        self.taps: list[Signal] = []
        self.cells: list[BufferGate] = []
        previous = data
        for index in range(n_cells):
            tap = Signal(simulator, f"{name}.tap{index}", initial=previous.value)
            cell = BufferGate(f"{name}.cell{index}", previous, tap, timing, rng=rng)
            self.taps.append(tap)
            self.cells.append(cell)
            previous = tap

    @property
    def output(self) -> Signal:
        """Output of the last cell."""
        return self.taps[-1]

    @property
    def nominal_delay_s(self) -> float:
        """Total nominal delay of the line (without jitter or scaling)."""
        return self.n_cells * self.timing.nominal_delay_s
