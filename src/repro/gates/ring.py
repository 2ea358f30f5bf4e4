"""Gate-level gated ring oscillator (the GCCO of paper Figures 7/12/15).

The oscillator is a four-stage differential CML ring.  The first stage is a
two-input AND of the ring feedback with the edge-detector output EDET (the
``trig`` input of the VHDL model); the remaining three stages are inverting
delay cells.  With three logical inversions around the loop the ring
oscillates at ``f = 1 / (2 * N * t_d)``; pulling EDET low freezes the first
stage, and the frozen state propagates to the output in half a period — the
re-phasing mechanism of the gated-oscillator CDR.

Two clock taps are exposed, each built on its first read (a tap nobody
reads costs no events):

* ``clock_nominal`` — the inverted fourth-stage output (Figure 7), rising
  T/2 after the trigger;
* ``clock_improved`` — the third-stage output taken with the opposite
  differential polarity (Figure 15), whose rising edge is one stage delay
  (T/8) earlier — the paper's improved sampling tap.

The per-stage delay is derived from a control frequency exactly like the VHDL
generic ``cdr_gcco_k`` / ``cdr_gcco_fc`` pair: ``t_d = 1 / (8 * f_osc)`` with
``f_osc = fc + k * (i_ctrl - ic0)``, and every stage draws fresh Gaussian
jitter per event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_non_negative, require_positive
from ..events.kernel import Simulator
from ..events.signal import Signal
from .cml import CmlTiming
from .logic import And2Gate, InverterGate

__all__ = ["GccoParameters", "GatedRingOscillator"]


@dataclass(frozen=True)
class GccoParameters:
    """Electrical parameters of the gated current-controlled oscillator.

    Mirrors the VHDL generics of Figure 12.

    Attributes
    ----------
    free_running_frequency_hz:
        Oscillation frequency at the control-current mid-point (``cdr_gcco_fc``).
    gain_hz_per_a:
        CCO gain (``cdr_gcco_k``).
    control_current_midpoint_a:
        Control-current mid-point (``cdr_gcco_cc0``).
    jitter_sigma_fraction:
        Per-stage Gaussian delay jitter, as a fraction of the stage delay
        (``cdr_gcco_jit_sigma``).
    n_stages:
        Number of ring stages (the paper uses four); even and at least four.
    gating_input_skew_s:
        Extra delay of the gating (EDET) input of the first stage relative to
        the ring feedback input — the stacked-pair delay mismatch that the
        dummy gates of Figure 7 compensate; keep at 0 to model perfect
        compensation.
    """

    free_running_frequency_hz: float = 2.5e9
    gain_hz_per_a: float = 2.0e12
    control_current_midpoint_a: float = 200.0e-6
    jitter_sigma_fraction: float = 0.0
    n_stages: int = 4
    gating_input_skew_s: float = 0.0

    def __post_init__(self) -> None:
        require_positive("free_running_frequency_hz", self.free_running_frequency_hz)
        require_non_negative("gain_hz_per_a", self.gain_hz_per_a)
        require_positive("control_current_midpoint_a", self.control_current_midpoint_a)
        require_non_negative("jitter_sigma_fraction", self.jitter_sigma_fraction)
        require_non_negative("gating_input_skew_s", self.gating_input_skew_s)
        if self.n_stages < 3:
            raise ValueError("the ring oscillator needs at least three stages")
        if self.n_stages % 2:
            # Stage 0 is a non-inverting AND, so the loop inverts n_stages - 1
            # times: an odd count makes that even and the ring latches.
            raise ValueError(
                f"n_stages must be even, got {self.n_stages}: the ring is an AND "
                "stage followed by n_stages - 1 inverters, so an odd count has an "
                "even number of inversions and latches instead of oscillating"
            )

    def frequency_at(self, control_current_a: float) -> float:
        """Oscillation frequency for a given control current."""
        frequency = self.free_running_frequency_hz + self.gain_hz_per_a * (
            control_current_a - self.control_current_midpoint_a
        )
        if frequency <= 0.0:
            raise ValueError(
                f"control current {control_current_a!r} A drives the oscillator "
                "frequency non-positive"
            )
        return frequency

    def stage_delay_at(self, control_current_a: float) -> float:
        """Per-stage delay for a given control current (``1 / (2 N f)``)."""
        return 1.0 / (2.0 * self.n_stages * self.frequency_at(control_current_a))


class GatedRingOscillator:
    """Gate-level behavioural model of the gated CCO.

    The clock taps :attr:`clock_nominal` and :attr:`clock_improved` are
    built on first read: the read creates the tap signal, subscribes its
    zero-delay follower to its stage and forces the tap to the stage's
    present value.  A channel samples one tap, so the other one never
    enters the event queue.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        gate_signal: Signal,
        parameters: GccoParameters | None = None,
        *,
        control_current_a: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.simulator = simulator
        self.name = name
        self.parameters = parameters or GccoParameters()
        self.gate_signal = gate_signal
        self._control_current_a = (
            self.parameters.control_current_midpoint_a
            if control_current_a is None else float(control_current_a)
        )
        rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator

        n_stages = self.parameters.n_stages
        # The CmlTiming carries the mid-point delay; the actual control current
        # is applied through every ring gate's delay_scale, which
        # set_control_current updates, so it can change at run time (CCO
        # behaviour).
        stage_delay = self.parameters.stage_delay_at(
            self.parameters.control_current_midpoint_a
        )

        #: Ring node signals; ``stages[i]`` is the output of stage ``i``.
        self.stages: list[Signal] = [
            Signal(simulator, f"{name}.stage{index}", initial=0) for index in range(n_stages)
        ]
        self._clock_nominal: Signal | None = None
        self._clock_improved: Signal | None = None

        timing_first = CmlTiming(
            nominal_delay_s=stage_delay,
            input_skew_s=(0.0, self.parameters.gating_input_skew_s),
            jitter_sigma_fraction=self.parameters.jitter_sigma_fraction,
        )
        timing_stage = CmlTiming(
            nominal_delay_s=stage_delay,
            jitter_sigma_fraction=self.parameters.jitter_sigma_fraction,
        )

        # Stage 0: AND of the ring feedback with the gating signal (EDET).
        self.first_stage = And2Gate(
            f"{name}.stage0_and",
            self.stages[-1],
            gate_signal,
            self.stages[0],
            timing_first,
            rng=rng,
        )
        # Stages 1..N-1: inverting delay cells.
        self.ring_gates = [self.first_stage]
        for index in range(1, n_stages):
            gate = InverterGate(
                f"{name}.stage{index}_inv",
                self.stages[index - 1],
                self.stages[index],
                timing_stage,
                rng=rng,
            )
            self.ring_gates.append(gate)
        self.set_control_current(self._control_current_a)

        # Kick the ring: force a consistent initial state so oscillation starts
        # as soon as the gating signal is high.
        self._initialise_ring()

    # -- taps ----------------------------------------------------------------

    @property
    def clock_nominal(self) -> Signal:
        """The inverted last-stage output (Figure 7), built on first read."""
        if self._clock_nominal is None:
            self._clock_nominal = self._build_tap("ck_nominal", self.stages[-1], inverted=True)
        return self._clock_nominal

    @property
    def clock_improved(self) -> Signal:
        """The second-to-last stage output (Figure 15), built on first read.

        Taking that stage with the opposite differential polarity to the
        nominal (inverted last-stage) tap places the rising sampling edge one
        stage delay (T/8) *earlier* in the bit — the paper's improved
        sampling point.  Differential inversion costs no extra gate.
        """
        if self._clock_improved is None:
            self._clock_improved = self._build_tap("ck_improved", self.stages[-2], inverted=False)
        return self._clock_improved

    def _build_tap(self, suffix: str, stage: Signal, *, inverted: bool) -> Signal:
        """A zero-delay follower of *stage*, forced to its present value.

        Differential inversion is free, so a tap costs no gate delay.  A tap
        nobody reads is never built, so it schedules no transactions.
        """
        tap = Signal(self.simulator, f"{self.name}.{suffix}", initial=1)
        flip = int(inverted)
        assign = tap.assign

        def follow(signal: Signal, _time_s: float) -> None:
            assign(signal._value ^ flip, 0.0)

        stage.subscribe(follow)
        tap.force(int(stage.value) ^ flip)
        return tap

    # -- control -------------------------------------------------------------

    @property
    def control_current_a(self) -> float:
        """Present control current."""
        return self._control_current_a

    def set_control_current(self, control_current_a: float) -> None:
        """Change the control current (takes effect on subsequent stage events)."""
        control_current_a = float(control_current_a)
        parameters = self.parameters
        # Validates too: stage_delay_at raises if the frequency is non-positive.
        scale = parameters.stage_delay_at(control_current_a) / parameters.stage_delay_at(
            parameters.control_current_midpoint_a
        )
        self._control_current_a = control_current_a
        for gate in self.ring_gates:
            gate.delay_scale = scale

    @property
    def oscillation_frequency_hz(self) -> float:
        """Oscillation frequency at the present control current."""
        return self.parameters.frequency_at(self._control_current_a)

    @property
    def stage_delay_s(self) -> float:
        """Per-stage delay at the present control current."""
        return self.parameters.stage_delay_at(self._control_current_a)

    @property
    def period_s(self) -> float:
        """Oscillation period at the present control current."""
        return 1.0 / self.oscillation_frequency_hz

    def _initialise_ring(self) -> None:
        """Force an alternating initial state so the ring starts oscillating."""
        # With stage0 = AND(stage3, gate): choose stage values 1,0,1,0 so the
        # loop is inconsistent and begins toggling immediately once gate = 1.
        for index, signal in enumerate(self.stages):
            signal.force(index % 2)
        # Schedule the first evaluation of every gate so the ring starts even
        # if no external event arrives.
        for gate in self.ring_gates:
            self.simulator.call_after(0.0, gate.evaluate_now)
