"""Sequential CML elements: level-sensitive latch and master-slave flip-flop.

The CDR sampler is a CML master-slave flip-flop clocked by the recovered
clock; it decides the received bit value, so its clock-to-Q delay and setup
behaviour matter for the timing verification the behavioural model performs.
"""

from __future__ import annotations

import numpy as np

from ..events.kernel import Simulator
from ..events.signal import Signal
from .cml import MIN_DELAY_S, CmlTiming

__all__ = ["CmlLatch", "CmlFlipFlop"]


def _jittered_delay(timing: CmlTiming, draw) -> float:
    """The nominal delay times ``1 + sigma * z``, floored at :data:`MIN_DELAY_S`."""
    delay = timing.nominal_delay_s
    sigma = timing.jitter_sigma_fraction
    if sigma > 0.0:
        delay = delay * (1.0 + sigma * draw())
    return max(delay, MIN_DELAY_S)


class CmlLatch:
    """Level-sensitive CML latch: transparent while ``enable`` is high.

    While transparent the output follows the data input with the gate delay;
    when ``enable`` falls the last captured value is held.  Jitter comes from
    the simulator's :class:`~repro.events.kernel.NormalStream` over *rng*, so
    a latch can share its generator with gates and flip-flops.
    """

    def __init__(self, name: str, data: Signal, enable: Signal, output: Signal,
                 timing: CmlTiming, *, rng: np.random.Generator | None = None) -> None:
        self.name = name
        self.data = data
        self.enable = enable
        self.output = output
        self.timing = timing
        self._rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator
        self._draw = output.simulator.normal_stream(self._rng).draw
        data.subscribe(self._on_event)
        enable.subscribe(self._on_event)

    def _on_event(self, _signal: Signal, _time_s: float) -> None:
        if int(self.enable.value) == 1:
            self.output.assign(int(self.data.value), _jittered_delay(self.timing, self._draw))


class CmlFlipFlop:
    """Rising-edge master-slave flip-flop built from two CML latches.

    The sampler of the CDR: on every rising clock edge the data value is
    transferred to the output after one clock-to-Q delay.  The flip-flop also
    records ``(time, value)`` pairs of its decisions, which is what the BER
    counter consumes.  Its clock-to-Q jitter draws through the simulator's
    :class:`~repro.events.kernel.NormalStream`, like the latch's.
    """

    def __init__(self, simulator: Simulator, name: str, data: Signal, clock: Signal,
                 output: Signal, timing: CmlTiming, *,
                 rng: np.random.Generator | None = None) -> None:
        self.simulator = simulator
        self.name = name
        self.data = data
        self.clock = clock
        self.output = output
        self.timing = timing
        self._rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator
        self._draw = simulator.normal_stream(self._rng).draw
        self.decisions: list[tuple[float, int]] = []
        self._master = Signal(simulator, f"{name}.master", initial=int(data.value))
        # Master latch is transparent while the clock is LOW, slave while HIGH,
        # giving a rising-edge-triggered flip-flop overall.
        clock.subscribe(self._on_clock)
        data.subscribe(self._on_data)

    def _on_data(self, _signal: Signal, _time_s: float) -> None:
        if int(self.clock.value) == 0:
            # Master transparent: track the input.
            self._master.assign(int(self.data.value), 0.0)

    def _on_clock(self, _signal: Signal, time_s: float) -> None:
        if int(self.clock.value) == 1:
            captured = int(self._master.value)
            self.decisions.append((time_s, captured))
            self.output.assign(captured, _jittered_delay(self.timing, self._draw))
        else:
            # Clock low: master becomes transparent again and tracks the data.
            self._master.assign(int(self.data.value), 0.0)

    def decision_times(self) -> np.ndarray:
        """Absolute times of the sampling decisions."""
        return np.array([t for t, _v in self.decisions], dtype=float)

    def decision_values(self) -> np.ndarray:
        """Sampled bit values, in decision order."""
        return np.array([v for _t, v in self.decisions], dtype=np.uint8)
