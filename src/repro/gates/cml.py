"""Base classes for behavioural current-mode-logic (CML) gates.

The whole CDR is built from fully differential CML two-input gates (paper
section 2.2).  At the behavioural level each gate is characterised by

* a nominal propagation delay,
* a *per-input* additional delay — the stacked differential pairs of a CML
  gate give the lower input a longer input-to-output delay than the upper one,
  the non-ideality that the VHDL model exposed as the edge-detector problem in
  section 3.3a,
* Gaussian delay jitter (fractional sigma), re-drawn for every output event,
  which models the thermal noise of the cell exactly as the VHDL model does
  with its ``awgn`` call,
* a rising/falling asymmetry (duty-cycle distortion) if desired.

Because the logic is differential, logical inversion is free (swap the output
wires); the behavioural models therefore expose an ``invert_output`` flag
rather than separate inverter cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .._validation import require_non_negative, require_positive
from ..events.signal import Signal

__all__ = ["CmlTiming", "CmlGate", "MIN_DELAY_S"]


@dataclass(frozen=True)
class CmlTiming:
    """Timing parameters of a behavioural CML gate.

    Attributes
    ----------
    nominal_delay_s:
        Input-to-output propagation delay for the fastest input.
    input_skew_s:
        Extra delay per input index: input ``i`` has delay
        ``nominal_delay_s + input_skew_s[i]``.  Defaults to zero skew.
    jitter_sigma_fraction:
        Standard deviation of the Gaussian delay jitter as a fraction of the
        nominal delay (the VHDL model's ``cdr_gcco_jit_sigma``).
    rise_fall_mismatch_s:
        Extra delay applied to falling output transitions (duty-cycle
        distortion); negative values make falling edges faster.
    """

    nominal_delay_s: float
    input_skew_s: tuple[float, ...] = ()
    jitter_sigma_fraction: float = 0.0
    rise_fall_mismatch_s: float = 0.0

    def __post_init__(self) -> None:
        require_positive("nominal_delay_s", self.nominal_delay_s)
        require_non_negative("jitter_sigma_fraction", self.jitter_sigma_fraction)
        for index, skew in enumerate(self.input_skew_s):
            require_non_negative(f"input_skew_s[{index}]", skew)

    def delay_for_input(self, input_index: int) -> float:
        """Nominal delay seen from input *input_index* (no jitter applied)."""
        skew = 0.0
        if input_index < len(self.input_skew_s):
            skew = self.input_skew_s[input_index]
        return self.nominal_delay_s + skew

    def with_delay(self, nominal_delay_s: float) -> "CmlTiming":
        """Return a copy with a different nominal delay (same skew/jitter)."""
        return replace(self, nominal_delay_s=nominal_delay_s)


#: Floor of every gate delay, so a large negative jitter draw cannot
#: schedule an output before its cause.
MIN_DELAY_S = 1.0e-15


class _PackedInputs:
    """Several signals read as one: ``_value`` packs input ``i`` into bit ``i``."""

    __slots__ = ("_signals",)

    def __init__(self, signals: Sequence[Signal]) -> None:
        self._signals = tuple(signals)

    @property
    def _value(self) -> int:
        index = 0
        for bit, signal in enumerate(self._signals):
            index |= signal._value << bit
        return index


#: The rest of a one-input gate: a constant packed value of 0.
_NO_INPUTS = SimpleNamespace(_value=0)


class CmlGate:
    """Behavioural combinational CML gate.

    Subclasses (or callers) provide ``evaluate(values) -> 0/1``; the gate
    subscribes to its inputs, and on every input event schedules the new
    output value with the per-input delay, the optional rise/fall mismatch and
    a fresh Gaussian jitter draw — the same recipe as the VHDL processes of
    Figure 12.

    ``evaluate`` runs once per input combination at construction, into a
    truth table with the output inversion folded in; an input event and
    :meth:`settle` index that table with the raw input values (input ``i``
    is bit ``i`` of the index).  Input values must therefore be the Python
    ints 0 and 1 (or bools), as every gate output and
    :meth:`Signal.drive <repro.events.signal.Signal.drive>` produce; they
    are not coerced, so a float, a numpy boolean or an int above 1 is
    outside the contract.  The delays are precomputed per input and
    output value as ``delay_for_input(i) * delay_scale``, plus the rise/fall
    mismatch on falling outputs, so an event costs a table lookup, a jitter
    draw from the simulator's :class:`~repro.events.kernel.NormalStream`
    and one assignment.  The timing is therefore fixed at construction;
    ``delay_scale`` is the one delay knob that may change at run time.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[Signal],
        output: Signal,
        evaluate: Callable[[Sequence[int]], int],
        timing: CmlTiming,
        *,
        invert_output: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not inputs:
            raise ValueError(f"gate {name!r} needs at least one input")
        self.name = name
        self.inputs = list(inputs)
        self.output = output
        self.timing = timing
        self.invert_output = invert_output
        self._rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator
        self.event_count = 0
        n_inputs = len(self.inputs)
        invert = int(invert_output)
        self._table = tuple(
            (int(evaluate([(index >> bit) & 1 for bit in range(n_inputs)])) & 1) ^ invert
            for index in range(1 << n_inputs)
        )
        #: ``_delays[i][v]``: delay from input ``i`` to output value ``v``.
        self._delays = [[0.0, 0.0] for _ in range(n_inputs)]
        # The table index is ``first._value | rest._value << 1``: input 0,
        # then the other inputs as one packed value.
        self._first = self.inputs[0]
        if n_inputs == 1:
            self._rest = _NO_INPUTS
        elif n_inputs == 2:
            self._rest = self.inputs[1]
        else:
            self._rest = _PackedInputs(self.inputs[1:])
        self.delay_scale = 1.0
        self._listeners = [self._make_listener(index) for index in range(n_inputs)]
        for signal, listener in zip(self.inputs, self._listeners):
            signal.subscribe(listener)

    @property
    def delay_scale(self) -> float:
        """Multiplicative factor on every nominal delay (the ring's control current)."""
        return self._delay_scale

    @delay_scale.setter
    def delay_scale(self, scale: float) -> None:
        self._delay_scale = scale = float(scale)
        mismatch = self.timing.rise_fall_mismatch_s
        for index, delays in enumerate(self._delays):
            delay = self.timing.delay_for_input(index) * scale
            # In place: the listeners hold these lists.
            delays[:] = [delay + mismatch if mismatch else delay, delay]

    def _make_listener(self, input_index: int) -> Callable[[Signal, float], None]:
        """The input-*input_index* listener: look up, delay, draw, assign."""
        table = self._table
        first = self._first
        rest = self._rest
        delays = self._delays[input_index]
        sigma = self.timing.jitter_sigma_fraction
        draw = self.output.simulator.normal_stream(self._rng).draw if sigma > 0.0 else None
        assign = self.output.assign
        gate = self

        def on_input_event(_signal: Signal, _time_s: float) -> None:
            value = table[first._value | rest._value << 1]
            delay = delays[value]
            if draw is not None:
                delay = delay * (1.0 + sigma * draw())
            if delay < MIN_DELAY_S:
                delay = MIN_DELAY_S
            assign(value, delay)
            gate.event_count += 1

        return on_input_event

    # -- evaluation ----------------------------------------------------------

    def evaluate_now(self) -> None:
        """Schedule an output update as if input 0 had just changed.

        Used to kick feedback loops (ring oscillators) at time zero, when no
        external input event exists yet.
        """
        self._listeners[0](self.inputs[0], self.output.simulator.now)

    def settle(self) -> None:
        """Force the output to its combinational value immediately (initialisation)."""
        self.output.force(self._table[self._first._value | self._rest._value << 1])
