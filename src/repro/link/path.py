"""End-to-end link path: TX FFE → lossy channel → RX CTLE/DFE → edge stream.

:class:`LinkPath` ties the pieces of :mod:`repro.link` together and is the
object the sweep layer drives.  Its cost model (see PERFORMANCE.md) rests
on the process-wide memo of :mod:`repro.link.memo`, keyed by content, so
every path of an equal configuration — each sweep point, each training
candidate — shares:

* the **channel response** — one per ``(channel, timebase, grid length)``,
  whatever the equalizers;
* the **equalized pulse response** — one channel/CTLE FFT per
  ``(channel, rx_ctle, timebase, n_ui)``, whatever the TX FFE (it applies
  in the symbol domain); the crosstalk waveform is keyed the same way
  plus the aggressor population;
* the **pattern displacement table** — one circular ISI superposition plus
  crossing extraction per ``(LinkConfig, pattern)``, reused for every
  repetition of the pattern and every repeated ``transmit``.

``transmit`` then reduces to an ideal-edge construction plus two
vectorized displacement adds — the same cost as the channel-less path.

:class:`LinkCdrChannel` wraps a link path around either CDR backend
(``"event"`` or ``"fast"``), preserving their ``run`` contract, so every
existing analysis (BER counting, clock-aligned eye, recovered-clock
statistics) works on link-driven simulations unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .. import units
from .._validation import require_positive_int
from ..datapath.nrz import JitterSpec, NrzEdgeStream, ideal_edge_times, jitter_displacements_ui
from ..fastpath.backends import AUTO_BACKEND, make_channel, resolve_backend
from ..jitter.decomposition import JitterDecomposition, combine_deterministic, decompose_dual_dirac
from ..statistical.ber_model import CdrJitterBudget
from .channel import ChannelModel, IdealChannel, pulse_through_response
from .crosstalk import CrosstalkSpec
from .edges import circular_transition_positions, pattern_displacements_ui
from .equalization import DfeAdaptation, LmsDfe, RxCtle, TxFfe
from .isi import nrz_symbol_levels, superpose_circular
from .memo import memoized
from .timebase import LinkTimebase

if TYPE_CHECKING:
    from ..analysis.eye import EyeDiagram

__all__ = [
    "LinkConfig",
    "LinkPath",
    "LinkCdrChannel",
    "stream_eye_diagram",
]


@dataclass(frozen=True)
class LinkConfig:
    """Complete description of one link path (picklable sweep unit).

    Attributes
    ----------
    channel:
        The lossy channel model.
    tx_ffe / rx_ctle / dfe:
        Optional equalizer stages; ``None`` disables a stage (the
        equalization-ablation axis of the sweeps).
    crosstalk:
        Optional FEXT/NEXT aggressor population; each aggressor's own PRBS
        waveform is superposed onto the received victim waveform before
        edge extraction (``None`` or all-zero amplitudes leave the
        waveform bit-identical to the crosstalk-free path).
    timebase:
        Waveform sampling grid.
    settle_ui:
        Idle unit intervals before the first bit (matches the CDR engines'
        default ``settle_bits``).
    """

    channel: ChannelModel = field(default_factory=IdealChannel)
    tx_ffe: TxFfe | None = None
    rx_ctle: RxCtle | None = None
    dfe: LmsDfe | None = None
    crosstalk: CrosstalkSpec | None = None
    timebase: LinkTimebase = field(default_factory=LinkTimebase)
    settle_ui: int = 4

    def __post_init__(self) -> None:
        require_positive_int("settle_ui", self.settle_ui)

    def with_channel(self, channel: ChannelModel) -> "LinkConfig":
        """Return a copy with the channel model replaced."""
        return replace(self, channel=channel)

    def with_equalization(
        self,
        *,
        tx_ffe: TxFfe | None = None,
        rx_ctle: RxCtle | None = None,
        dfe: LmsDfe | None = None,
    ) -> "LinkConfig":
        """Return a copy with the equalizer line-up replaced."""
        return replace(self, tx_ffe=tx_ffe, rx_ctle=rx_ctle, dfe=dfe)

    def with_crosstalk(self, crosstalk: CrosstalkSpec | None) -> "LinkConfig":
        """Return a copy with the aggressor population replaced."""
        return replace(self, crosstalk=crosstalk)


class LinkPath:
    """Waveform-level link simulation producing CDR-ready edge streams."""

    def __init__(self, config: LinkConfig | None = None) -> None:
        self.config = config or LinkConfig()
        #: DFE training state behind the most recent displacement-table
        #: lookup (memoized alongside the table, so it tracks hits too).
        self.last_dfe_adaptation: DfeAdaptation | None = None

    # -- frequency/time-domain views ----------------------------------------

    def equalized_pulse_response(self, n_ui: int) -> np.ndarray:
        """Single-bit response through channel and CTLE on an *n_ui* grid.

        Memoized by ``(channel, rx_ctle, timebase, n_ui)``: every pattern of
        that length, every sweep trial and every TX-FFE candidate on this
        channel × CTLE pair reuses the same FFT work.  The channel's own
        response is memoized per grid, so CTLE candidates on one channel
        multiply in only their CTLE response.  It is the memo's first entry
        to go, so in a sweep that never reuses it (one CTLE per channel)
        it pushes out no pulse and no table.
        """
        config = self.config
        timebase = config.timebase
        count = timebase.n_samples(n_ui)

        def compute():
            frequencies = timebase.frequencies_hz(count)
            response = memoized(
                ("channel", config.channel, timebase, count),
                lambda: config.channel.frequency_response(frequencies),
                evict_first=True,
            )
            if config.rx_ctle is not None:
                response = response * config.rx_ctle.frequency_response(frequencies)
            return pulse_through_response(response, timebase, n_ui)

        return memoized(("pulse", config.channel, config.rx_ctle, timebase, n_ui), compute)

    def aggressor_pulse_responses(self, n_ui: int) -> list[np.ndarray]:
        """Coupled single-bit pulse of every aggressor at the victim sampler.

        Each pulse has traversed the aggressor's coupling path (FEXT rides
        the victim channel, NEXT couples straight in) and the victim's CTLE,
        on the shared circular grid — the cursor source for both the
        bit-true waveform superposition and the statistical eye solver.
        """
        config = self.config
        if config.crosstalk is None:
            return []
        frequencies = config.timebase.frequencies_hz(config.timebase.n_samples(n_ui))
        rx_ctle = config.rx_ctle
        rx_response = None if rx_ctle is None else rx_ctle.frequency_response(frequencies)
        return [
            aggressor.pulse_response(
                config.timebase, n_ui, victim_channel=config.channel, rx_response=rx_response
            )
            for aggressor in config.crosstalk.aggressors
        ]

    def crosstalk_waveform(self, n_ui: int) -> np.ndarray:
        """Summed steady-state aggressor waveform over one *n_ui* period.

        Every aggressor transmits its own decorrelated PRBS pattern (tiled
        to the victim pattern period, so the circular steady-state model
        stays exact); memoized by the pulse-response key plus the aggressors.
        """
        config = self.config

        def compute():
            waveform = np.zeros(config.timebase.n_samples(n_ui))
            if config.crosstalk is not None and not config.crosstalk.is_silent:
                pulses = self.aggressor_pulse_responses(n_ui)
                for aggressor, pulse in zip(config.crosstalk.aggressors, pulses):
                    levels = aggressor.symbol_levels(n_ui)
                    waveform += superpose_circular(levels, pulse, config.timebase.samples_per_ui)
            return waveform

        key = ("crosstalk", config.channel, config.rx_ctle, config.crosstalk, config.timebase, n_ui)
        return memoized(key, compute)

    # -- waveform synthesis ---------------------------------------------------

    def received_pattern_waveform(self, pattern_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Steady-state received waveform of one pattern repetition.

        Returns ``(time_axis_s, waveform)`` over one period (time axis
        starts at the pattern's first bit, midpoint convention).  The
        transmitted symbols pass through the FFE (circularly), the
        channel/CTLE pulse response superposes them, crosstalk aggressors
        add their coupled waveforms, and an optional DFE — trained
        data-aided on the pattern (crosstalk included, as a real adaptive
        receiver would) — subtracts its feedback.
        """
        config = self.config
        timebase = config.timebase
        bits = np.asarray(pattern_bits, dtype=np.uint8).ravel()
        require_positive_int("pattern length", int(bits.size))
        levels = nrz_symbol_levels(bits)
        symbols = levels if config.tx_ffe is None else config.tx_ffe.apply_to_symbols(levels)
        pulse = self.equalized_pulse_response(int(bits.size))
        waveform = superpose_circular(symbols, pulse, timebase.samples_per_ui)
        if config.crosstalk is not None and not config.crosstalk.is_silent:
            waveform = waveform + self.crosstalk_waveform(int(bits.size))
        self.last_dfe_adaptation = None
        if config.dfe is not None:
            spu = timebase.samples_per_ui
            centre_samples = waveform[spu // 2 :: spu]
            adaptation = config.dfe.adapt(centre_samples, levels)
            waveform = waveform - config.dfe.feedback_waveform(levels, adaptation.weights, spu)
            self.last_dfe_adaptation = adaptation
        return timebase.time_axis_s(int(bits.size)), waveform

    def pattern_displacements(self, pattern_bits: np.ndarray) -> np.ndarray:
        """Per-position edge-displacement table (UI) of a circular pattern.

        Memoized by ``(LinkConfig, pattern content)`` with its DFE
        adaptation — the second half of the cost model: long streams,
        repeated trials and sweep points on one link reuse one
        superposition + extraction.
        """
        bits = np.asarray(pattern_bits, dtype=np.uint8).ravel()

        def compute():
            time_axis, waveform = self.received_pattern_waveform(bits)
            unit_interval = self.config.timebase.unit_interval_s
            table = pattern_displacements_ui(time_axis, waveform, bits, unit_interval)
            return table, self.last_dfe_adaptation

        key = ("pattern", self.config, bits.tobytes())
        table, self.last_dfe_adaptation = memoized(key, compute)
        return table

    def ddj_population_ui(self, pattern_bits: np.ndarray) -> np.ndarray:
        """Data-dependent displacement of every pattern transition (UI)."""
        bits = np.asarray(pattern_bits, dtype=np.uint8).ravel()
        table = self.pattern_displacements(bits)
        return table[circular_transition_positions(bits)]

    # -- edge-stream construction --------------------------------------------

    def transmit(
        self,
        bits: np.ndarray,
        *,
        jitter: JitterSpec | None = None,
        data_rate_offset_ppm: float = 0.0,
        rng: np.random.Generator | None = None,
        start_time_s: float | None = None,
        pattern_period: int | None = None,
    ) -> NrzEdgeStream:
        """Produce the received edge stream for a transmitted bit sequence.

        Parameters
        ----------
        bits:
            Transmitted bits.  With *pattern_period* = ``P`` the sequence
            must tile the pattern ``bits[:P]`` (PRBS streams do), and the
            displacement table of the ``P``-bit pattern is reused for every
            repetition; otherwise the whole sequence is treated as one
            pattern period.
        jitter:
            Residual transmitter jitter (RJ/SJ/DJ) composed on top of the
            channel's data-dependent displacement, drawn exactly as the
            direct stimulus path draws it.
        data_rate_offset_ppm:
            Transmitter frequency error.
        start_time_s:
            Absolute time of the first bit boundary (default: the
            configured ``settle_ui`` idle interval).
        """
        timebase = self.config.timebase
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        require_positive_int("number of bits", int(bits.size))
        nominal_period = timebase.unit_interval_s
        actual_rate = timebase.bit_rate_hz * (1.0 + units.ppm_to_fraction(data_rate_offset_ppm))
        bit_period_s = 1.0 / actual_rate
        start = self.config.settle_ui * nominal_period if start_time_s is None else start_time_s

        edge_times, edge_bit_index = ideal_edge_times(
            bits, bit_period_s, start_time_s=start, initial_level=0
        )

        if pattern_period is None:
            pattern = bits
            period = int(bits.size)
        else:
            require_positive_int("pattern_period", pattern_period)
            period = min(pattern_period, int(bits.size))
            pattern = bits[:period]
            # bits tiles its first P bits when each bit repeats the one P before.
            if (bits[period:] != bits[:-period]).any():
                raise ValueError("bits do not tile the leading pattern_period bits")
        table = self.pattern_displacements(pattern)

        if edge_times.size:
            displacement_ui = table[edge_bit_index % period]
            if jitter is not None:
                rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator
                displacement_ui = displacement_ui + jitter_displacements_ui(edge_times, jitter, rng)
            edge_times = edge_times + displacement_ui * nominal_period
            edge_times = np.maximum.accumulate(edge_times)

        return NrzEdgeStream(
            bits=bits,
            edge_times_s=edge_times,
            edge_bit_index=edge_bit_index,
            bit_period_s=bit_period_s,
            start_time_s=start,
            initial_level=0,
        )

    # -- statistical-model hand-off -------------------------------------------

    def ddj_decomposition(
        self, pattern_bits: np.ndarray, minimum_samples: int = 200
    ) -> JitterDecomposition:
        """Dual-Dirac fit of the pattern's data-dependent jitter.

        The deterministic displacement population is tiled up to
        *minimum_samples* (tiling leaves its quantiles unchanged) so the
        tail-fit estimator has enough points, then handed to
        :func:`repro.jitter.decomposition.decompose_dual_dirac`.
        """
        population = self.ddj_population_ui(pattern_bits)
        if population.size == 0:
            raise ValueError("pattern has no transitions to decompose")
        repeats = -(-minimum_samples // population.size)
        return decompose_dual_dirac(np.tile(population, repeats))

    def jitter_budget(
        self, pattern_bits: np.ndarray, base_budget: CdrJitterBudget | None = None
    ) -> CdrJitterBudget:
        """Analytic-model budget with the link's DDJ folded into DJ.

        The channel's data-dependent jitter (dual-Dirac DJ of the pattern)
        adds deterministically to the base budget's DJ; random and
        sinusoidal terms pass through.  Feed the result to
        :class:`repro.statistical.GatedOscillatorBerModel` for sub-1e-12
        BER predictions of the link-driven receiver.
        """
        base = base_budget or CdrJitterBudget()
        fit = self.ddj_decomposition(pattern_bits)
        return replace(base, dj_ui_pp=combine_deterministic(base.dj_ui_pp, fit.dj_pp_ui))


class LinkCdrChannel:
    """A CDR backend fed through a link path — same ``run`` contract.

    The transmitted bits travel through the link (FFE, channel, CTLE/DFE,
    edge extraction) and the resulting edge stream drives the selected CDR
    backend unmodified.  On zero-gate-jitter configurations the two
    backends stay exactly equivalent behind the link, because they consume
    the identical pre-built stream.

    *backend* goes through :func:`repro.fastpath.backends.resolve_backend`:
    the default ``"auto"`` picks the event kernel on a jittered *config*
    and the fast path otherwise, and forcing ``"fast"`` on a jittered
    *config* raises a ``ValueError``.  ``self.backend`` holds the resolved
    concrete name.
    """

    def __init__(
        self, link: LinkConfig | LinkPath | None = None, config=None, backend: str = AUTO_BACKEND
    ) -> None:
        self.path = link if isinstance(link, LinkPath) else LinkPath(link)
        self.backend = resolve_backend(config, backend)
        self.cdr = make_channel(config, self.backend)

    def run(
        self,
        bits: np.ndarray,
        *,
        jitter: JitterSpec | None = None,
        data_rate_offset_ppm: float = 0.0,
        rng: np.random.Generator | None = None,
        pattern_period: int | None = None,
        settle_bits: int | None = None,
    ):
        """Simulate link + CDR; returns a ``BehavioralSimulationResult``.

        *settle_bits* defaults to the link's configured ``settle_ui``.
        """
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator
        settle = self.path.config.settle_ui if settle_bits is None else settle_bits
        stream = self.path.transmit(
            bits,
            jitter=jitter,
            data_rate_offset_ppm=data_rate_offset_ppm,
            rng=rng,
            start_time_s=settle * self.path.config.timebase.unit_interval_s,
            pattern_period=pattern_period,
        )
        return self.cdr.run(bits, rng=rng, stream=stream)


def stream_eye_diagram(stream: NrzEdgeStream, unit_interval_s: float | None = None) -> EyeDiagram:
    """Transmit-side eye of an edge stream against the ideal sampling clock.

    Every edge is referenced to the ideal mid-bit sampling instant, so the
    eye shows the link's total edge displacement (DDJ + residual jitter)
    before clock recovery — the waveform-level eye that
    :class:`repro.specs.ReceiverEyeMask` judges.
    """
    from ..analysis.eye import EyeDiagram

    unit_interval = stream.bit_period_s if unit_interval_s is None else unit_interval_s
    clock_edges = stream.start_time_s + (np.arange(stream.n_bits) + 0.5) * stream.bit_period_s
    return EyeDiagram.from_edges(stream.edge_times_s, clock_edges, unit_interval)
