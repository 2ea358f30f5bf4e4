"""Behavioural (event-driven) simulation of one gated-oscillator CDR channel.

This is the Python counterpart of the paper's VHDL verification flow
(section 3.3): the full channel — jittered NRZ source, edge detector, gated
ring oscillator, decision flip-flop — is assembled from the gate-level models
and simulated event by event.  The result object exposes the recovered bits,
the bit-error measurement, the recovered-clock statistics and the
clock-aligned eye diagram (the paper's Figures 14 and 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import telemetry
from .._validation import require_positive_int
from ..analysis.ber_counter import BerMeasurement, align_and_count
from ..analysis.timing import measure_frequency
from ..datapath.nrz import JitterSpec, NrzEdgeStream, generate_edge_times
from ..events.kernel import Simulator
from ..events.signal import Signal
from ..events.waveform import Trace, WaveformRecorder
from ..gates.cml import CmlTiming
from ..gates.ring import GatedRingOscillator
from ..gates.storage import CmlFlipFlop
from .config import CdrChannelConfig
from .edge_detector import GATE_DELAY_S, EdgeDetector

if TYPE_CHECKING:
    from ..analysis.eye import EyeDiagram

__all__ = ["BehavioralSimulationResult", "BehavioralCdrChannel"]


@dataclass
class BehavioralSimulationResult:
    """Waveforms and measurements from one behavioural channel simulation."""

    config: CdrChannelConfig
    transmitted_bits: np.ndarray
    stream: NrzEdgeStream
    recorder: WaveformRecorder
    sample_times_s: np.ndarray
    sampled_bits: np.ndarray
    duration_s: float

    # -- traces ----------------------------------------------------------------

    def trace(self, name: str) -> Trace:
        """Return a recorded trace: ``din``, ``ddin``, ``edet``, ``clock``, ``dout``."""
        return self.recorder.trace(name)

    # -- measurements ------------------------------------------------------------

    @property
    def data_pipeline_delay_s(self) -> float:
        """Delay from the transmitter to the sampler data input (DDIN).

        Edge-detector delay line plus the dummy gate that re-times DDIN; used
        to map each sampling decision back to the transmitted bit it decides.
        """
        return self.config.edge_detector_delay_s + GATE_DELAY_S

    def decisions_per_bit(self) -> tuple[np.ndarray, np.ndarray]:
        """Map every sampling decision to a transmitted-bit index.

        Returns ``(bit_indices, values)``: the index of the transmitted bit
        each decision corresponds to (by timing) and the decided value.
        """
        if self.sample_times_s.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
        start = self.stream.start_time_s + self.data_pipeline_delay_s
        relative = (self.sample_times_s - start) / self.stream.bit_period_s
        indices = np.floor(relative).astype(np.int64)
        return indices, self.sampled_bits

    def ber(self) -> BerMeasurement:
        """Per-bit error measurement using timing-based alignment.

        Every sampling decision is attributed to the transmitted bit whose
        (delayed) unit interval it falls into; a bit decided wrongly, never
        decided (a missed sampling edge — the failure mode of long runs under
        frequency offset), or decided more than once with the wrong final
        value counts as one error.  This matches the per-bit semantics of the
        statistical model and is immune to the catastrophic misalignment a
        bit slip causes in sequence-alignment BER counting.  Timing-based
        attribution needs no alignment search, so unlike :meth:`sequence_ber`
        there is no ``max_offset`` parameter.
        """
        expected, got = self._aligned_comparison()
        errors = int(np.count_nonzero(got != expected))
        return BerMeasurement(errors=errors, compared_bits=int(expected.size))

    def _aligned_comparison(self) -> tuple[np.ndarray, np.ndarray]:
        """``(expected, decided)`` bit arrays of the timing-based alignment.

        A bit that got no decision reads -1 in *decided*.
        """
        n_bits = int(self.transmitted_bits.size)
        if n_bits == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        indices, values = self.decisions_per_bit()
        # Bit i's decision lands in slot i + 1; "clip" puts decisions before
        # or after the stream in the spare slots at either end.  Later
        # decisions overwrite earlier ones (double-clocking keeps the last).
        decided = np.full(n_bits + 2, -1, dtype=np.int64)
        indices += 1
        decided.put(indices, values, mode="clip")
        # Exclude the first and last bits, which may legitimately lack a
        # decision because of the pipeline latency at the stream boundaries.
        return self.transmitted_bits[1:n_bits - 1], decided[2:n_bits]

    def error_events(self) -> int:
        """Number of contiguous error bursts in the per-bit comparison.

        One sampling overshoot typically books *two* adjacent bit
        mismatches (the dropped/repeated bit plus its mis-timed
        neighbour), while the statistical model counts it as one error
        event — the known factor-of-two between the two views.  Counting
        bursts instead of bits recovers the per-event semantics, which is
        what the link-training cross-check compares against the
        statistical-eye prediction.
        """
        expected, got = self._aligned_comparison()
        mask = got != expected
        if mask.size == 0:
            return 0
        starts = np.flatnonzero(np.diff(np.concatenate(
            ([False], mask)).astype(np.int8)) == 1)
        return int(starts.size)

    def sequence_ber(self, max_offset: int = 8) -> BerMeasurement:
        """Classic BERT-style sequence-alignment error count (slip sensitive)."""
        return align_and_count(self.transmitted_bits, self.sampled_bits,
                               max_offset=max_offset)

    def missed_bits(self) -> int:
        """Number of transmitted bits that never received a sampling decision."""
        n_bits = int(self.transmitted_bits.size)
        indices, _values = self.decisions_per_bit()
        decided = np.zeros(n_bits, dtype=bool)
        in_range = (indices >= 0) & (indices < n_bits)
        decided[indices[in_range]] = True
        return int(np.count_nonzero(~decided[1:n_bits - 1]))

    def recovered_clock_frequency_hz(self) -> float:
        """Average recovered-clock frequency over the simulation."""
        edges = self.trace("clock").edges("rising")
        if edges.size < 2:
            raise ValueError("too few recovered clock edges to measure a frequency")
        return measure_frequency(edges)

    def eye_diagram(self, skip_start_ui: float = 8.0) -> EyeDiagram:
        """Clock-aligned eye diagram of the delayed data (paper Figures 14/16).

        The first *skip_start_ui* unit intervals of the data are excluded so
        that crossings recorded before the very first trigger re-phased the
        oscillator (acquisition) do not distort the eye statistics.
        """
        data_edges = self.trace("ddin").edges("any")
        clock_edges = self.trace("clock").edges("rising")
        cutoff = self.stream.start_time_s + skip_start_ui * self.config.unit_interval_s
        data_edges = data_edges[data_edges >= cutoff]
        clock_edges = clock_edges[clock_edges >= cutoff - self.config.unit_interval_s]
        from ..analysis.eye import EyeDiagram

        return EyeDiagram.from_edges(data_edges, clock_edges, self.config.unit_interval_s)

    def samples_per_bit(self) -> float:
        """Average number of sampling edges per transmitted bit (should be ~1)."""
        if self.transmitted_bits.size == 0:
            return float("nan")
        return self.sample_times_s.size / self.transmitted_bits.size

    def sampling_phase_ui(self) -> np.ndarray:
        """Sampling instants relative to the most recent DDIN transition, in UI.

        This is the quantity whose nominal value is 0.5 (or 0.375 with the
        improved tap); its spread shows the accumulated oscillator jitter.
        """
        data_edges = self.trace("ddin").edges("any")
        if data_edges.size == 0 or self.sample_times_s.size == 0:
            return np.zeros(0)
        indices = np.searchsorted(data_edges, self.sample_times_s, side="right") - 1
        valid = indices >= 0
        offsets = (self.sample_times_s[valid] - data_edges[indices[valid]])
        return offsets / self.config.unit_interval_s


class BehavioralCdrChannel:
    """Assembles and runs the event-driven model of one CDR channel."""

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
        """Simulate the channel (see :meth:`_run`); traced as ``kernel.run``."""
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
        with tracer.span("kernel.run"):
            result = self._run(
                bits,
                jitter=jitter,
                data_rate_offset_ppm=data_rate_offset_ppm,
                rng=rng,
                settle_bits=settle_bits,
                stream=stream,
            )
        tracer.count("kernel.runs")
        tracer.count("kernel.bits", int(np.asarray(bits).size))
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
        """Simulate the channel for the given transmitted bit sequence.

        Parameters
        ----------
        bits:
            Transmitted bit values.
        jitter:
            Data-edge jitter specification (defaults to no jitter; pass
            :data:`repro.core.config.PAPER_JITTER_SPEC` for Table 1).
        data_rate_offset_ppm:
            Transmitter frequency error in ppm (on top of the channel
            oscillator's own ``frequency_offset``).
        settle_bits:
            Idle unit intervals simulated before the first bit so the ring
            reaches steady oscillation.
        stream:
            Pre-built edge stream (e.g. from :class:`repro.link.LinkPath`).
            When given, *jitter*, *data_rate_offset_ppm* and *settle_bits*
            are ignored — the stream already encodes them — and *bits* must
            match ``stream.bits``.
        """
        config = self.config
        bits = np.asarray(bits, dtype=np.uint8)
        require_positive_int("number of bits", int(bits.size))
        rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator

        simulator = Simulator()
        recorder = WaveformRecorder()

        # --- stimulus -------------------------------------------------------
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
        data_in = Signal(simulator, "din", initial=int(stream.initial_level))
        # Batch stimulus injection: one self-rescheduling driver instead of a
        # closure plus heap entry per data edge.
        data_in.drive(stream.edge_times_s, stream.bits[stream.edge_bit_index])

        # --- channel hardware -------------------------------------------------
        edge_detector = EdgeDetector(
            simulator,
            data_in,
            total_delay_s=config.edge_detector_delay_s,
            n_cells=config.edge_detector_cells,
            jitter_sigma_fraction=config.gate_jitter_sigma_fraction,
            rng=rng,
        )

        oscillator_parameters = config.oscillator
        control_current = oscillator_parameters.control_current_midpoint_a
        if oscillator_parameters.gain_hz_per_a > 0.0:
            control_current = oscillator_parameters.control_current_midpoint_a + (
                config.oscillator_frequency_hz
                - oscillator_parameters.free_running_frequency_hz
            ) / oscillator_parameters.gain_hz_per_a
        oscillator = GatedRingOscillator(
            simulator,
            "gcco",
            edge_detector.output,
            oscillator_parameters,
            control_current_a=control_current,
            rng=rng,
        )
        clock = oscillator.clock_improved if config.improved_sampling else oscillator.clock_nominal

        data_out = Signal(simulator, "dout", initial=0)
        sampler = CmlFlipFlop(
            simulator,
            "sampler",
            edge_detector.delayed_data,
            clock,
            data_out,
            CmlTiming(nominal_delay_s=config.sampler_delay_s,
                      jitter_sigma_fraction=config.gate_jitter_sigma_fraction),
            rng=rng,
        )

        # --- recording --------------------------------------------------------
        recorder.watch(data_in, "din")
        recorder.watch(edge_detector.delayed_data, "ddin")
        recorder.watch(edge_detector.output, "edet")
        recorder.watch(clock, "clock")
        recorder.watch(data_out, "dout")

        # --- run ---------------------------------------------------------------
        duration = start_time + stream.duration_s + 4.0 * config.unit_interval_s
        simulator.run_until(duration)

        sample_times = sampler.decision_times()
        sampled_bits = sampler.decision_values()
        # Ignore decisions taken before the data started (ring start-up).
        valid = sample_times >= start_time
        return BehavioralSimulationResult(
            config=config,
            transmitted_bits=bits,
            stream=stream,
            recorder=recorder,
            sample_times_s=sample_times[valid],
            sampled_bits=sampled_bits[valid],
            duration_s=duration,
        )
