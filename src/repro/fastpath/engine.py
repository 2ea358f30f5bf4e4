"""Fast-path (vectorized) simulation of one gated-oscillator CDR channel.

:class:`FastCdrChannel` is a drop-in replacement for
:class:`~repro.core.cdr_channel.BehavioralCdrChannel`: same ``run``
signature, same :class:`~repro.core.cdr_channel.BehavioralSimulationResult`
output.  Instead of dispatching per-edge events through the
:mod:`repro.events` kernel, it exploits the structure of the fixed topology:

* With constant per-gate delays, VHDL transport assignment never cancels
  anything (every gate schedules outputs in increasing time order), so every
  combinational gate is a **pure delay plus value-change filter**.  The delay
  line, the XNOR edge detector and the dummy data gate therefore reduce to
  elementwise array shifts of the stimulus edge times — computed with the
  same floating-point operation order as the event kernel, so the resulting
  edge times are bit-for-bit identical.
* The edge-detector output EDET toggles at every event of either XNOR input
  (a single-input change always toggles an XOR), so its waveform is just the
  sorted merge of the data-edge and delayed-data-edge time arrays.
* The gated ring collapses to a recurrence on the **first stage only**: the
  inverter chain re-times stage-0 transitions by one stage delay each, so the
  feedback and both clock taps are shifted copies of the stage-0 change
  stream.  One closure-free loop, shared by jittered and jitter-free runs,
  merges three streams (EDET toggles, ring feedback, pending stage-0
  applies) and reproduces the kernel's scheduling — including transport
  cancellation, which *can* fire on stage 0 when a gating-input skew is
  configured — at a few machine operations per event instead of a heap
  transaction.  While the gate is high and nothing else is pending, the
  ring free-runs: the loop then steps feedback and stage-0 apply directly,
  skipping the merge, until the next EDET toggle or the run horizon.
* The decision flip-flop samples the delayed data at every rising clock
  edge, so the decisions are one ``searchsorted`` away.

With per-gate delay jitter enabled the same passes apply with per-event
Gaussian draws folded into the delays; the draw *order* differs from the
event kernel's, so jittered runs agree statistically but not sample-for-
sample (see PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from .._validation import require_positive_int
from ..core.cdr_channel import BehavioralSimulationResult
from ..core.config import CdrChannelConfig
from ..core.edge_detector import GATE_DELAY_S
from ..datapath.nrz import JitterSpec, NrzEdgeStream, generate_edge_times
from .traces import ArrayRecorder, EdgeArrays

__all__ = ["FastCdrChannel"]

_INF = float("inf")


def _jittered(times: np.ndarray, delay_s: float, sigma: float,
              rng: np.random.Generator | None) -> np.ndarray:
    """Shift *times* by one gate delay, with optional per-event Gaussian jitter."""
    if sigma > 0.0 and rng is not None and times.size:
        draws = delay_s * (1.0 + rng.normal(0.0, sigma, size=times.size))
        return times + np.maximum(draws, 1.0e-15)
    return times + delay_s


def _drop_coincident(times: np.ndarray, *companions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Drop pairs of exactly coincident events (they cancel via transport).

    Two stimulus edges at the identical float time toggle the data twice in
    the same instant; the second transport assignment cancels the first, so
    downstream gates see nothing.  Extremely rare (requires the jitter clip
    in :func:`generate_edge_times` to collapse two edges exactly).
    """
    if times.size < 2:
        return (times, *companions)
    equal = times[1:] == times[:-1]
    if not np.any(equal):
        return (times, *companions)
    keep = np.ones(times.size, dtype=bool)
    index = 0
    while index < times.size - 1:
        if keep[index] and times[index + 1] == times[index]:
            keep[index] = keep[index + 1] = False
            index += 2
        else:
            index += 1
    return (times[keep], *[c[keep] for c in companions])


def _ring_recurrence(
    edet_times: np.ndarray,
    *,
    t_gate: float,
    t_feedback: float,
    t_stage: float,
    duration_s: float,
    n_stages: int,
    sigma: float,
    rng: np.random.Generator | None,
    improved_tap: bool,
) -> tuple[list[float], list[int]]:
    """Run the gated-ring recurrence; return the selected clock-tap events.

    Three event sources are merged in time order, mirroring the kernel:

    * EDET toggles (precomputed, alternating from the initial high level),
    * ring-feedback events (last-stage transitions, i.e. stage-0 changes
      re-timed through ``n_stages - 1`` inverters),
    * pending stage-0 transport applies.

    At equal times a stage-0 apply runs first, then feedback, then the EDET
    toggle.  Each EDET or feedback event re-evaluates ``AND(feedback, EDET)``
    and schedules a stage-0 apply one (gating- or feedback-input) delay
    later, cancelling any pending apply at or after that time — exact
    transport semantics.  A stage-0 apply that actually changes the value
    emits the inverter-chain events and the clock-tap samples.

    While the ring free-runs — gate high, nothing else pending — the next
    two events are known: the change's own feedback, then the stage-0 apply
    it schedules.  The inner loop runs them directly, without the merge,
    until one would fall after the next EDET toggle or after *duration_s*.

    With ``sigma > 0`` every delay is scaled by ``1 + sigma·N(0, 1)``
    (clipped at 1 fs), drawn in event order from 4096-draw blocks of *rng*.
    """
    n_inverters = n_stages - 1
    # Tap positions along the chain (number of inversions in front of them).
    improved_hops = n_stages - 2
    tap_hop = improved_hops - 1 if improved_tap else -1
    last_parity = n_inverters & 1
    improved_parity = improved_hops & 1
    hops = range(n_inverters)

    edet = edet_times.tolist()
    edet.append(_INF)
    i_edet = 0
    t_e = edet[0]
    gate_level = 1

    clock_t: list[float] = []
    clock_v: list[int] = []

    v0 = 0
    v_last = last_parity

    jitter = sigma > 0.0 and rng is not None
    draws = rng.standard_normal(4096).tolist() if jitter else []
    i_draw = 0

    # Time zero: every ring gate is kicked via evaluate_now(); only the first
    # stage produces a change (the inverters are already consistent).
    if jitter:
        scaled = t_feedback * (1.0 + sigma * draws[0])
        i_draw = 1
        t_0 = 0.0 + (scaled if scaled > 1.0e-15 else 1.0e-15)
    else:
        t_0 = 0.0 + t_feedback

    # Pending stage-0 applies (parallel time/value lists, FIFO head pointer
    # h0, length n0) and feedback (last-stage) events (head hf, length nf);
    # t_0 and t_f cache the head times (inf when empty).
    p0_t = [t_0]
    p0_v = [v_last & gate_level]
    h0, n0 = 0, 1
    fb_t: list[float] = []
    fb_v: list[int] = []
    hf = nf = 0
    t_f = _INF

    while True:
        if t_0 <= t_e and t_0 <= t_f:
            if t_0 > duration_s:
                break
            value = p0_v[h0]
            time_s = t_0
            h0 += 1
            t_0 = p0_t[h0] if h0 < n0 else _INF
            if value == v0:
                continue
            # Free run: gate high, no other apply or feedback pending.  Ring
            # events up to the next toggle (ties included) and the run
            # horizon are then next in merge order.
            free = gate_level and t_0 == _INF and t_f == _INF
            horizon = t_e if t_e < duration_s else duration_s
            while True:
                v0 = value
                # Propagate through the inverter chain; record the tap.
                for hop in hops:
                    if jitter:
                        if i_draw == 4096:
                            draws = rng.standard_normal(4096).tolist()
                            i_draw = 0
                        scaled = t_stage * (1.0 + sigma * draws[i_draw])
                        i_draw += 1
                        time_s = time_s + (scaled if scaled > 1.0e-15 else 1.0e-15)
                    else:
                        time_s = time_s + t_stage
                    if hop == tap_hop:
                        clock_t.append(time_s)
                        clock_v.append(value ^ improved_parity)
                value ^= last_parity
                if not improved_tap:
                    # Nominal tap: inverted last stage.
                    clock_t.append(time_s)
                    clock_v.append(1 - value)
                if not (free and time_s <= horizon):
                    fb_t.append(time_s)
                    fb_v.append(value)
                    nf += 1
                    if hf == nf - 1:
                        t_f = time_s
                    break
                # This feedback event is next; it schedules the stage-0
                # apply of the same value (the gate is high).
                v_last = value
                if jitter:
                    if i_draw == 4096:
                        draws = rng.standard_normal(4096).tolist()
                        i_draw = 0
                    scaled = t_feedback * (1.0 + sigma * draws[i_draw])
                    i_draw += 1
                    time_s = time_s + (scaled if scaled > 1.0e-15 else 1.0e-15)
                else:
                    time_s = time_s + t_feedback
                # The apply rejoins the merge if it lands past the horizon
                # or changes nothing (an odd, latching ring).
                if time_s > horizon or value == v0:
                    p0_t.append(time_s)
                    p0_v.append(value)
                    n0 += 1
                    t_0 = time_s
                    break
        else:
            if t_f <= t_e:
                if t_f > duration_s:
                    break
                v_last = fb_v[hf]
                time_s = t_f
                hf += 1
                t_f = fb_t[hf] if hf < nf else _INF
                base = t_feedback
            else:
                if t_e > duration_s:
                    break
                gate_level = 1 - gate_level
                time_s = t_e
                i_edet += 1
                t_e = edet[i_edet]
                base = t_gate
            if jitter:
                if i_draw == 4096:
                    draws = rng.standard_normal(4096).tolist()
                    i_draw = 0
                scaled = base * (1.0 + sigma * draws[i_draw])
                i_draw += 1
                time_s = time_s + (scaled if scaled > 1.0e-15 else 1.0e-15)
            else:
                time_s = time_s + base
            # Transport semantics: cancel pending applies at or after time_s.
            while n0 > h0 and p0_t[n0 - 1] >= time_s:
                p0_t.pop()
                p0_v.pop()
                n0 -= 1
            p0_t.append(time_s)
            p0_v.append(v_last & gate_level)
            n0 += 1
            t_0 = p0_t[h0]

    return clock_t, clock_v


class FastCdrChannel:
    """Vectorized fast-path model of one CDR channel.

    Drop-in for :class:`~repro.core.cdr_channel.BehavioralCdrChannel`; on
    configurations without per-gate delay jitter the returned result is
    bit-for-bit identical to the event kernel's (same float sample times,
    same decisions, same traces).
    """

    #: Backend name used by the sweep layer.
    backend = "fast"

    def __init__(self, config: CdrChannelConfig | None = None) -> None:
        self.config = config or CdrChannelConfig()

    def run(
        self,
        bits: np.ndarray,
        *,
        jitter: JitterSpec | None = None,
        data_rate_offset_ppm: float = 0.0,
        rng: np.random.Generator | None = None,
        settle_bits: int = 4,
        stream: NrzEdgeStream | None = None,
    ) -> BehavioralSimulationResult:
        """Simulate the channel (see :meth:`_run`); traced as ``fastpath.run``."""
        tracer = telemetry.ACTIVE
        if not tracer:
            return self._run(
                bits,
                jitter=jitter,
                data_rate_offset_ppm=data_rate_offset_ppm,
                rng=rng,
                settle_bits=settle_bits,
                stream=stream,
            )
        with tracer.span("fastpath.run"):
            result = self._run(
                bits,
                jitter=jitter,
                data_rate_offset_ppm=data_rate_offset_ppm,
                rng=rng,
                settle_bits=settle_bits,
                stream=stream,
            )
        tracer.count("fastpath.runs")
        tracer.count("fastpath.bits", int(np.asarray(bits).size))
        return result

    def _run(
        self,
        bits: np.ndarray,
        *,
        jitter: JitterSpec | None = None,
        data_rate_offset_ppm: float = 0.0,
        rng: np.random.Generator | None = None,
        settle_bits: int = 4,
        stream: NrzEdgeStream | None = None,
    ) -> BehavioralSimulationResult:
        """Vectorized batch simulation; same contract as ``BehavioralCdrChannel.run``."""
        config = self.config
        bits = np.asarray(bits, dtype=np.uint8)
        require_positive_int("number of bits", int(bits.size))
        rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator

        # --- stimulus (identical draws to the event path) -------------------
        if stream is None:
            start_time = settle_bits * config.unit_interval_s
            stream = generate_edge_times(
                bits,
                bit_rate_hz=config.bit_rate_hz,
                jitter=jitter or JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0, sj_amplitude_ui_pp=0.0),
                data_rate_offset_ppm=data_rate_offset_ppm,
                start_time_s=start_time,
                rng=rng,
            )
        else:
            if not np.array_equal(stream.bits, bits):
                raise ValueError("bits must match the provided stream's bits")
            start_time = stream.start_time_s
        duration = start_time + stream.duration_s + 4.0 * config.unit_interval_s
        gate_sigma = config.gate_jitter_sigma_fraction
        gate_rng = rng if gate_sigma > 0.0 else None

        edge_times = stream.edge_times_s
        edge_values = stream.bits[stream.edge_bit_index].astype(np.int64)
        prop_times, prop_values = _drop_coincident(edge_times, edge_values)

        # --- edge detector: delay line, XNOR, dummy gate --------------------
        cell_delay = config.edge_detector_delay_s / config.edge_detector_cells
        line_times = prop_times
        for _cell in range(config.edge_detector_cells):
            line_times = _jittered(line_times, cell_delay, gate_sigma, gate_rng)
        ddin_times = _jittered(line_times, GATE_DELAY_S, gate_sigma, gate_rng)
        edet_side_a = _jittered(prop_times, GATE_DELAY_S, gate_sigma, gate_rng)
        edet_side_b = _jittered(line_times, GATE_DELAY_S, gate_sigma, gate_rng)
        edet_times = np.sort(np.concatenate((edet_side_a, edet_side_b)))

        # --- gated ring oscillator -----------------------------------------
        parameters = config.oscillator
        control_current = parameters.control_current_midpoint_a
        if parameters.gain_hz_per_a > 0.0:
            control_current = parameters.control_current_midpoint_a + (
                config.oscillator_frequency_hz
                - parameters.free_running_frequency_hz
            ) / parameters.gain_hz_per_a
        stage_delay = parameters.stage_delay_at(parameters.control_current_midpoint_a)
        scale = parameters.stage_delay_at(control_current) / stage_delay
        # Same op order as CmlTiming.delay_for_input followed by delay_scale.
        t_feedback = (stage_delay + 0.0) * scale
        t_gate = (stage_delay + parameters.gating_input_skew_s) * scale
        t_stage = stage_delay * scale

        clock_t, clock_v = _ring_recurrence(
            edet_times,
            t_gate=t_gate,
            t_feedback=t_feedback,
            t_stage=t_stage,
            duration_s=duration,
            n_stages=parameters.n_stages,
            sigma=parameters.jitter_sigma_fraction,
            rng=rng if parameters.jitter_sigma_fraction > 0.0 else None,
            improved_tap=config.improved_sampling,
        )
        clock_times = np.asarray(clock_t, dtype=float)
        clock_values = np.asarray(clock_v, dtype=np.int64)
        # Inverter-chain events past the run horizon never execute in the
        # event kernel (run_until stops there), so they produce no decision.
        horizon = clock_times <= duration
        clock_times = clock_times[horizon]
        clock_values = clock_values[horizon]

        # --- sampler: decide DDIN at every rising clock edge ----------------
        rising = clock_values == 1
        sample_times = clock_times[rising]
        indices = np.searchsorted(ddin_times, sample_times, side="left") - 1
        sampled = np.zeros(sample_times.size, dtype=np.uint8)
        in_range = indices >= 0
        sampled[in_range] = prop_values[indices[in_range]].astype(np.uint8)

        # --- traces (match the event recorder, clipped to the run horizon) --
        # The recorder builds each trace on first access.  The jittered DOUT
        # re-timing draws from rng, so it runs here, in draw order.
        initial_clock = (parameters.n_stages - 2) & 1 if config.improved_sampling \
            else 1 - ((parameters.n_stages - 1) & 1)
        dout_times, dout_values = self._dout_events(
            sample_times, sampled, config.sampler_delay_s, gate_sigma, gate_rng)
        recorder = ArrayRecorder({
            "din": EdgeArrays(edge_times, edge_values),
            "ddin": EdgeArrays(ddin_times, prop_values, horizon_s=duration),
            # EDET toggles at every edge, from its initial high level.
            "edet": EdgeArrays(edet_times, initial_value=1, horizon_s=duration),
            "clock": EdgeArrays(clock_times, clock_values, initial_value=initial_clock,
                                horizon_s=duration),
            "dout": EdgeArrays(dout_times, dout_values, horizon_s=duration),
        })

        valid = sample_times >= start_time
        return BehavioralSimulationResult(
            config=config,
            transmitted_bits=bits,
            stream=stream,
            recorder=recorder,
            sample_times_s=sample_times[valid],
            sampled_bits=sampled[valid],
            duration_s=duration,
        )

    @staticmethod
    def _dout_events(sample_times: np.ndarray, sampled: np.ndarray,
                     clock_to_q_s: float, sigma: float,
                     rng: np.random.Generator | None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """DOUT transitions: decisions re-timed by the clock-to-Q delay.

        The flip-flop assigns its output on every rising edge; only actual
        value changes produce events (the transport apply filters the rest).
        """
        if sample_times.size == 0:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        values = sampled.astype(np.int64)
        previous = np.concatenate(([0], values[:-1]))
        changed = values != previous
        times = _jittered(sample_times, clock_to_q_s, sigma, rng)
        return times[changed], values[changed]
