"""Jittered NRZ edge-stream generation.

The CDR front end (after the paper's transimpedance amplifier and limiting
amplifier) sees a *binary* NRZ waveform; amplitude noise is neglected
("pre-amplification in the system delivers binary signals", section 3.3) and
all impairments are expressed as **timing jitter on the data edges** plus a
possible data-rate offset.

This module turns a bit sequence into the list of edge times the behavioural
and event-driven simulators consume, applying

* deterministic jitter (uniform PDF, ``dj_ui`` peak-to-peak),
* random jitter (Gaussian, ``rj_ui_rms``),
* sinusoidal jitter (``sj_amplitude_ui`` peak-to-peak at ``sj_frequency_hz``),
* a data-rate offset in ppm (transmitter reference error / spread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import units
from .._validation import require_non_negative, require_positive

__all__ = [
    "JitterSpec",
    "NrzEdgeStream",
    "generate_edge_times",
    "ideal_edge_times",
    "jitter_displacements_ui",
    "waveform_from_edges",
]


@dataclass(frozen=True)
class JitterSpec:
    """Jitter applied to the transmitted data edges (all values in UI).

    Defaults follow Table 1 of the paper (sinusoidal jitter is swept in the
    experiments, so it defaults to zero here).
    """

    dj_ui_pp: float = 0.4
    rj_ui_rms: float = 0.021
    sj_amplitude_ui_pp: float = 0.0
    sj_frequency_hz: float = 100.0e6
    sj_phase_rad: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative("dj_ui_pp", self.dj_ui_pp)
        require_non_negative("rj_ui_rms", self.rj_ui_rms)
        require_non_negative("sj_amplitude_ui_pp", self.sj_amplitude_ui_pp)
        require_non_negative("sj_frequency_hz", self.sj_frequency_hz)

    def total_deterministic_ui_pp(self) -> float:
        """Peak-to-peak bound of the bounded jitter components (DJ + SJ)."""
        return self.dj_ui_pp + self.sj_amplitude_ui_pp

    def with_sinusoidal(self, amplitude_ui_pp: float, frequency_hz: float,
                        phase_rad: float = 0.0) -> "JitterSpec":
        """Return a copy with the sinusoidal-jitter parameters replaced."""
        return JitterSpec(
            dj_ui_pp=self.dj_ui_pp,
            rj_ui_rms=self.rj_ui_rms,
            sj_amplitude_ui_pp=amplitude_ui_pp,
            sj_frequency_hz=frequency_hz,
            sj_phase_rad=phase_rad,
        )


@dataclass
class NrzEdgeStream:
    """A jittered NRZ data stream described by its transition times.

    Attributes
    ----------
    bits:
        The transmitted bit values.
    edge_times_s:
        Absolute time of the transition *into* each bit that differs from its
        predecessor.  ``edge_bit_index[i]`` gives the index of the bit that
        starts at ``edge_times_s[i]``.
    bit_period_s:
        The actual (possibly offset) transmitted bit period.
    """

    bits: np.ndarray
    edge_times_s: np.ndarray
    edge_bit_index: np.ndarray
    bit_period_s: float
    start_time_s: float = 0.0
    initial_level: int = 0

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        self.edge_times_s = np.asarray(self.edge_times_s, dtype=float)
        self.edge_bit_index = np.asarray(self.edge_bit_index, dtype=np.int64)
        if self.edge_times_s.shape != self.edge_bit_index.shape:
            raise ValueError("edge_times_s and edge_bit_index must have equal length")

    @property
    def n_bits(self) -> int:
        """Number of transmitted bits."""
        return int(self.bits.size)

    @property
    def duration_s(self) -> float:
        """Total transmitted duration."""
        return self.n_bits * self.bit_period_s

    def level_at(self, time_s: float) -> int:
        """Return the logic level of the waveform at absolute time *time_s*."""
        index = int(np.searchsorted(self.edge_times_s, time_s, side="right")) - 1
        if index < 0:
            return int(self.initial_level)
        return int(self.bits[self.edge_bit_index[index]])

    def sample(self, sample_times_s: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`level_at` for an array of sample times."""
        sample_times_s = np.asarray(sample_times_s, dtype=float)
        indices = np.searchsorted(self.edge_times_s, sample_times_s, side="right") - 1
        levels = np.empty(sample_times_s.shape, dtype=np.uint8)
        before = indices < 0
        levels[before] = self.initial_level
        valid = ~before
        levels[valid] = self.bits[self.edge_bit_index[indices[valid]]]
        return levels

    def ideal_bit_boundaries_s(self) -> np.ndarray:
        """Return the ideal (jitter-free) start time of every bit."""
        return self.start_time_s + np.arange(self.n_bits + 1) * self.bit_period_s


def ideal_edge_times(bits: np.ndarray | list[int], bit_period_s: float,
                     start_time_s: float = 0.0, initial_level: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Return (edge_times, edge_bit_index) of the jitter-free NRZ waveform."""
    bit_array = np.asarray(bits, dtype=np.uint8).ravel()
    require_positive("bit_period_s", bit_period_s)
    levels = np.concatenate(([np.uint8(initial_level)], bit_array))
    transitions = (levels[1:] != levels[:-1]).nonzero()[0]
    edge_times = start_time_s + transitions * bit_period_s
    return edge_times.astype(float, copy=False), transitions.astype(np.int64, copy=False)


def jitter_displacements_ui(edge_times_s: np.ndarray, jitter: JitterSpec,
                            rng: np.random.Generator) -> np.ndarray:
    """Per-edge displacement (UI) drawn from a :class:`JitterSpec`.

    The draw order (DJ uniform, RJ Gaussian, SJ evaluated at the ideal edge
    times) is part of the reproducibility contract: both CDR backends and the
    link front end compose jitter through this one routine, so the same
    generator state yields the same displaced edges everywhere.
    """
    edge_times_s = np.asarray(edge_times_s, dtype=float)
    displacement_ui = np.zeros(edge_times_s.size, dtype=float)
    if edge_times_s.size == 0:
        return displacement_ui
    if jitter.dj_ui_pp > 0.0:
        displacement_ui += rng.uniform(
            -0.5 * jitter.dj_ui_pp, 0.5 * jitter.dj_ui_pp, size=edge_times_s.size
        )
    if jitter.rj_ui_rms > 0.0:
        displacement_ui += rng.normal(0.0, jitter.rj_ui_rms, size=edge_times_s.size)
    if jitter.sj_amplitude_ui_pp > 0.0:
        omega = 2.0 * np.pi * jitter.sj_frequency_hz
        displacement_ui += 0.5 * jitter.sj_amplitude_ui_pp * np.sin(
            omega * edge_times_s + jitter.sj_phase_rad
        )
    return displacement_ui


def generate_edge_times(
    bits: np.ndarray | list[int],
    *,
    bit_rate_hz: float = units.DEFAULT_BIT_RATE,
    jitter: JitterSpec | None = None,
    data_rate_offset_ppm: float = 0.0,
    start_time_s: float = 0.0,
    initial_level: int = 0,
    rng: np.random.Generator | None = None,
) -> NrzEdgeStream:
    """Generate a jittered NRZ edge stream from a bit sequence.

    Parameters
    ----------
    bits:
        Transmitted bit values (0/1).
    bit_rate_hz:
        Nominal data rate; the actual rate is offset by *data_rate_offset_ppm*.
    jitter:
        Edge-jitter specification (defaults to the paper's Table 1 without SJ).
    data_rate_offset_ppm:
        Transmitter frequency error, positive = faster than nominal.
    rng:
        Numpy random generator used for DJ and RJ draws (a fresh default
        generator is created if omitted).
    """
    jitter = jitter or JitterSpec()
    rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy: reproducible callers pass a seeded Generator
    require_positive("bit_rate_hz", bit_rate_hz)

    nominal_period = 1.0 / bit_rate_hz
    actual_rate = bit_rate_hz * (1.0 + units.ppm_to_fraction(data_rate_offset_ppm))
    bit_period_s = 1.0 / actual_rate

    edge_times, edge_bit_index = ideal_edge_times(
        bits, bit_period_s, start_time_s=start_time_s, initial_level=initial_level
    )

    if edge_times.size:
        displacement_ui = jitter_displacements_ui(edge_times, jitter, rng)
        edge_times = edge_times + displacement_ui * nominal_period
        # Jitter must never re-order edges; clip any crossing to preserve the
        # causal edge order (extremely rare with realistic specifications).
        edge_times = np.maximum.accumulate(edge_times)

    return NrzEdgeStream(
        bits=np.asarray(bits, dtype=np.uint8),
        edge_times_s=edge_times,
        edge_bit_index=edge_bit_index,
        bit_period_s=bit_period_s,
        start_time_s=start_time_s,
        initial_level=initial_level,
    )


def waveform_from_edges(stream: NrzEdgeStream, sample_period_s: float,
                        stop_time_s: float | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Render an edge stream to a uniformly sampled 0/1 waveform.

    Returns ``(time_axis, levels)``; useful for plotting and for driving the
    circuit-level simulator which integrates on a fixed time step.
    """
    require_positive("sample_period_s", sample_period_s)
    stop = stream.start_time_s + stream.duration_s if stop_time_s is None else stop_time_s
    time_axis = np.arange(stream.start_time_s, stop, sample_period_s)
    return time_axis, stream.sample(time_axis)
