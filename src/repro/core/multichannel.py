"""Multi-channel gated-oscillator receiver (paper Figure 6).

A multi-channel receiver combines

* one **shared PLL** locking a CCO to the bit rate and exporting its control
  current,
* ``n_channels`` independent CDR channels, each biasing a *matched* gated
  oscillator from a mirrored copy of that current — so every channel runs at
  (nearly) the incoming data rate without its own loop,
* per-channel lane skew (the reason each channel needs its own CDR at all),
* per-channel elastic buffers towards the common system clock.

Two evaluation paths are provided:

* :meth:`MultiChannelReceiver.statistical_report` — per-channel analytic BER
  using each channel's mismatch-induced frequency offset (fast, reaches
  1e-12);
* :meth:`MultiChannelReceiver.behavioural_run` — event-driven simulation of
  every channel on a common bit budget (slow, but produces waveforms and eyes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import units
from .._validation import require_non_negative, require_positive, require_positive_int
from ..analysis.ber_counter import BerMeasurement
from ..datapath.nrz import JitterSpec
from ..datapath.prbs import PrbsGenerator
from ..pll.pll import ChannelBiasMismatch, PllConfig, SharedPll
from ..statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel
from .cdr_channel import BehavioralSimulationResult
from .config import CdrChannelConfig

__all__ = [
    "MultiChannelConfig",
    "ChannelReport",
    "MultiChannelStatisticalReport",
    "MultiChannelBehaviouralReport",
    "MultiChannelReceiver",
]


@dataclass(frozen=True)
class MultiChannelConfig:
    """Configuration of the multi-channel receiver."""

    n_channels: int = 4
    bit_rate_hz: float = units.DEFAULT_BIT_RATE
    channel: CdrChannelConfig = field(default_factory=CdrChannelConfig)
    pll: PllConfig = field(default_factory=PllConfig)
    mismatch: ChannelBiasMismatch = field(default_factory=ChannelBiasMismatch)
    #: Maximum lane-to-lane skew (uniformly distributed), in UI.
    max_lane_skew_ui: float = 20.0
    #: Reference-clock error of the remote transmitter, in ppm.
    transmitter_offset_ppm: float = 0.0

    def __post_init__(self) -> None:
        require_positive_int("n_channels", self.n_channels)
        require_positive("bit_rate_hz", self.bit_rate_hz)
        require_non_negative("max_lane_skew_ui", self.max_lane_skew_ui)


@dataclass(frozen=True)
class ChannelReport:
    """Per-channel entry of a multi-channel report."""

    channel_index: int
    frequency_offset: float
    lane_skew_ui: float
    ber: float

    @property
    def frequency_offset_ppm(self) -> float:
        """Channel frequency offset in ppm."""
        return units.fraction_to_ppm(self.frequency_offset)


@dataclass(frozen=True)
class MultiChannelStatisticalReport:
    """Analytic per-channel BER report of the receiver."""

    channels: tuple[ChannelReport, ...]
    control_current_a: float
    target_ber: float

    @property
    def worst_ber(self) -> float:
        """Worst per-channel BER."""
        return max(channel.ber for channel in self.channels)

    @property
    def all_channels_pass(self) -> bool:
        """True when every channel meets the target BER."""
        return all(channel.ber <= self.target_ber for channel in self.channels)


@dataclass(frozen=True)
class MultiChannelBehaviouralReport:
    """Event-driven per-channel simulation results."""

    results: tuple[BehavioralSimulationResult, ...]
    measurements: tuple[BerMeasurement, ...]
    lane_skews_ui: tuple[float, ...]

    @property
    def total_errors(self) -> int:
        """Total errors across all channels."""
        return sum(measurement.errors for measurement in self.measurements)

    @property
    def total_bits(self) -> int:
        """Total compared bits across all channels."""
        return sum(measurement.compared_bits for measurement in self.measurements)

    @property
    def aggregate_ber(self) -> float:
        """Aggregate BER over all channels."""
        return BerMeasurement(self.total_errors, self.total_bits).ber


class MultiChannelReceiver:
    """The multi-channel receiver: shared PLL plus N gated-oscillator channels."""

    def __init__(self, config: MultiChannelConfig | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.config = config or MultiChannelConfig()
        self._rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator
        self._pll = SharedPll(self.config.pll)

    # -- shared bias distribution --------------------------------------------

    def shared_control_current_a(self) -> float:
        """Control current the shared PLL settles to."""
        return self._pll.locked_control_current_a()

    def channel_frequency_offsets(self) -> np.ndarray:
        """Per-channel relative frequency offsets (mismatch + transmitter ppm)."""
        config = self.config
        control_current = self.shared_control_current_a()
        offsets = config.mismatch.sample_channel_offsets(
            config.n_channels,
            control_current,
            config.pll.cco,
            rng=self._rng,
        )
        return offsets - units.ppm_to_fraction(config.transmitter_offset_ppm)

    def lane_skews_ui(self) -> np.ndarray:
        """Per-channel lane skew in UI (uniform in [0, max_lane_skew_ui])."""
        config = self.config
        if config.max_lane_skew_ui == 0.0:
            return np.zeros(config.n_channels)
        return self._rng.uniform(0.0, config.max_lane_skew_ui, size=config.n_channels)

    # -- statistical path -------------------------------------------------------

    def statistical_report(
        self,
        budget: CdrJitterBudget | None = None,
        *,
        target_ber: float = 1.0e-12,
        grid_step_ui: float = 2.0e-3,
    ) -> MultiChannelStatisticalReport:
        """Analytic BER of every channel under its own frequency offset."""
        config = self.config
        budget = budget or CdrJitterBudget(bit_rate_hz=config.bit_rate_hz)
        offsets = self.channel_frequency_offsets()
        skews = self.lane_skews_ui()

        channels = []
        for index in range(config.n_channels):
            model = GatedOscillatorBerModel(
                budget.with_frequency_offset(float(offsets[index])),
                sampling_phase_ui=config.channel.sampling_phase_ui,
                grid_step_ui=grid_step_ui,
            )
            channels.append(
                ChannelReport(
                    channel_index=index,
                    frequency_offset=float(offsets[index]),
                    lane_skew_ui=float(skews[index]),
                    ber=model.ber(),
                )
            )
        return MultiChannelStatisticalReport(
            channels=tuple(channels),
            control_current_a=self.shared_control_current_a(),
            target_ber=target_ber,
        )

    # -- behavioural path ----------------------------------------------------------

    def behavioural_run(
        self,
        n_bits: int = 2000,
        *,
        jitter: JitterSpec | None = None,
        prbs_order: int = 7,
        backend: str = "event",
    ) -> MultiChannelBehaviouralReport:
        """Time-domain simulation of every channel with independent PRBS data.

        *backend* goes through :func:`repro.fastpath.backends.make_channel`:
        ``"event"`` is the event-kernel reference (default), ``"fast"`` the
        vectorized fast path (identical results on zero-gate-jitter
        configs), and ``"auto"`` picks the event kernel on a jittered lane
        and the fast path otherwise.
        For parallel lane execution use :func:`repro.sweep.multichannel_sweep`.
        """
        config = self.config
        require_positive_int("n_bits", n_bits)
        offsets = self.channel_frequency_offsets()
        skews = self.lane_skews_ui()

        # Deferred import: repro.fastpath imports repro.core back, and
        # `import repro.fastpath` as the entry point would find this
        # module's names only after both packages finish initialising.
        from ..fastpath.backends import make_channel

        results: list[BehavioralSimulationResult] = []
        measurements: list[BerMeasurement] = []
        for index in range(config.n_channels):
            generator = PrbsGenerator(prbs_order, seed=(index + 1))
            bits = generator.bits(n_bits)
            channel_config = config.channel.with_frequency_offset(float(offsets[index]))
            channel = make_channel(channel_config, backend)
            result = channel.run(
                bits,
                jitter=jitter,
                rng=np.random.default_rng(1000 + index),
            )
            results.append(result)
            measurements.append(result.ber())
        return MultiChannelBehaviouralReport(
            results=tuple(results),
            measurements=tuple(measurements),
            lane_skews_ui=tuple(float(s) for s in skews),
        )
