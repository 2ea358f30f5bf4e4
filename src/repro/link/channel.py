"""Parameterized lossy-channel models of the serial link.

The paper specifies the receiver's input jitter abstractly (Table 1); a real
serial link derives most of its deterministic jitter from channel
inter-symbol interference.  This module provides the frequency-domain
channel models whose pulse responses drive :mod:`repro.link.isi`:

* :class:`LossyLineChannel` — a transmission line with skin-effect and
  dielectric losses, following the metallic-transmission-line model
  (propagation constant from per-metre RLGC parameters, the construction
  PyBERT's ``calc_gamma`` uses);
* :class:`ButterworthChannel` / :class:`SinglePoleChannel` — simple
  band-limited stand-ins when only a bandwidth number is known;
* :class:`IdealChannel` — unity response, used for round-trip validation.

Every model exposes ``frequency_response`` on an arbitrary frequency grid
plus impulse/step/pulse responses on a shared :class:`LinkTimebase` grid.
All models are frozen dataclasses, so they pickle across the sweep runner's
process pool and serve as content keys of :mod:`repro.link.memo`.  A new
model must be a frozen dataclass too, with fields that fully determine its
response: two models comparing equal share one memoized pulse response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .. import units
from .._validation import require_non_negative, require_positive, require_positive_int
from .timebase import LinkTimebase

__all__ = [
    "ChannelModel",
    "IdealChannel",
    "SinglePoleChannel",
    "ButterworthChannel",
    "LossyLineChannel",
    "pulse_through_response",
]


def pulse_through_response(response: np.ndarray, timebase: LinkTimebase, n_ui: int) -> np.ndarray:
    """One-UI unit rectangle filtered by *response* on the circular grid.

    *response* must be sampled on ``timebase.frequencies_hz(n_samples(n_ui))``.
    Shared by :meth:`ChannelModel.pulse_response` (channel only) and
    :meth:`repro.link.LinkPath.equalized_pulse_response` (channel × CTLE).
    """
    count = timebase.n_samples(n_ui)
    rectangle = np.zeros(count)
    rectangle[: timebase.samples_per_ui] = 1.0
    return np.fft.irfft(np.fft.rfft(rectangle) * response, count)


#: Nepers to decibels: ``20 * log10(e)``.
_NEPER_TO_DB = 20.0 / math.log(10.0)


@dataclass(frozen=True)
class ChannelModel:
    """Base class: a linear channel described by its frequency response.

    Subclasses implement :meth:`frequency_response`; the time-domain
    responses are derived from it by inverse real FFT on the timebase grid
    (circular — the response must decay within the requested span).
    """

    def frequency_response(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Complex transfer function sampled at *frequencies_hz*."""
        raise NotImplementedError

    def loss_db(self, frequency_hz: float | np.ndarray) -> float | np.ndarray:
        """Magnitude loss (positive dB) at the given frequency."""
        response = self.frequency_response(np.atleast_1d(np.asarray(frequency_hz, dtype=float)))
        loss = -20.0 * np.log10(np.maximum(np.abs(response), 1.0e-300))
        if np.isscalar(frequency_hz) or np.asarray(frequency_hz).ndim == 0:
            return float(loss[0])
        return loss

    def _grid_response(self, timebase: LinkTimebase, n_ui: int) -> np.ndarray:
        return self.frequency_response(timebase.frequencies_hz(timebase.n_samples(n_ui)))

    def impulse_response(self, timebase: LinkTimebase, n_ui: int = 64) -> np.ndarray:
        """Sampled impulse response over *n_ui* unit intervals (area-normalised).

        The samples integrate (sum times the sample period) to the DC gain,
        so convolving a waveform with this response and multiplying by the
        sample period applies the channel.
        """
        count = timebase.n_samples(n_ui)
        response = np.fft.irfft(self._grid_response(timebase, n_ui), count)
        return response / timebase.sample_period_s

    def step_response(self, timebase: LinkTimebase, n_ui: int = 64) -> np.ndarray:
        """Response to a unit step applied at the start of the span."""
        count = timebase.n_samples(n_ui)
        impulse = np.fft.irfft(self._grid_response(timebase, n_ui), count)
        return np.cumsum(impulse)

    def pulse_response(self, timebase: LinkTimebase, n_ui: int = 64) -> np.ndarray:
        """Response to one unit-amplitude, one-UI-wide rectangular pulse.

        This is the single-bit response whose shifted superposition
        reconstructs the received waveform (:mod:`repro.link.isi`).
        Computed circularly on the grid, so *n_ui* must exceed the channel's
        settling span.
        """
        return pulse_through_response(self._grid_response(timebase, n_ui), timebase, n_ui)


@dataclass(frozen=True)
class IdealChannel(ChannelModel):
    """Unity-gain, infinite-bandwidth channel (round-trip validation)."""

    def frequency_response(self, frequencies_hz: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(frequencies_hz, dtype=float).shape, dtype=complex)


@dataclass(frozen=True)
class SinglePoleChannel(ChannelModel):
    """First-order low-pass channel: ``H(f) = 1 / (1 + j f / f_c)``."""

    cutoff_hz: float = 1.875e9

    def __post_init__(self) -> None:
        require_positive("cutoff_hz", self.cutoff_hz)

    def frequency_response(self, frequencies_hz: np.ndarray) -> np.ndarray:
        frequency = np.asarray(frequencies_hz, dtype=float)
        return 1.0 / (1.0 + 1j * frequency / self.cutoff_hz)


@dataclass(frozen=True)
class ButterworthChannel(ChannelModel):
    """Maximally flat *order*-pole low-pass channel (unity DC gain)."""

    cutoff_hz: float = 1.875e9
    order: int = 2

    def __post_init__(self) -> None:
        require_positive("cutoff_hz", self.cutoff_hz)
        require_positive_int("order", self.order)

    def _poles(self) -> np.ndarray:
        k = np.arange(self.order)
        angles = math.pi * (2.0 * k + self.order + 1.0) / (2.0 * self.order)
        return 2.0 * math.pi * self.cutoff_hz * np.exp(1j * angles)

    def frequency_response(self, frequencies_hz: np.ndarray) -> np.ndarray:
        s = 2j * math.pi * np.asarray(frequencies_hz, dtype=float)
        poles = self._poles()
        response = np.prod(-poles) * np.ones(s.shape, dtype=complex)
        for pole in poles:
            response = response / (s - pole)
        return response


@dataclass(frozen=True)
class LossyLineChannel(ChannelModel):
    """Transmission line with skin-effect and dielectric losses.

    The propagation constant follows the standard metallic transmission
    model: total series resistance combines the DC term with a skin-effect
    term growing as ``sqrt(f)``, and the shunt capacitance carries the
    dielectric loss tangent through a complex power law, giving

        ``gamma(w) = sqrt((j w L0 + R(w)) * (j w C(w)))``

    and an unloaded line response ``H = exp(-gamma * length)``.  Default
    parameters describe a typical FR-4 backplane differential pair.

    Attributes
    ----------
    length_m:
        Line length; attenuation in dB scales linearly with it.
    rdc_ohm_per_m:
        DC series resistance per metre.
    skin_ohm_per_m:
        Skin-effect resistance coefficient at the crossover frequency.
    crossover_rad_per_s:
        Angular frequency where skin-effect resistance equals ``rdc``.
    z0_ohm:
        Characteristic impedance in the LC region.
    velocity_m_per_s:
        Propagation velocity.
    loss_tangent:
        Dielectric loss tangent (``Theta0``).
    """

    length_m: float = 0.5
    rdc_ohm_per_m: float = 0.1876
    skin_ohm_per_m: float = 1.452
    crossover_rad_per_s: float = 1.0e7
    z0_ohm: float = 100.0
    velocity_m_per_s: float = 0.67 * 2.998e8
    loss_tangent: float = 0.02
    #: Frequency whose phase delay is treated as the line's bulk latency
    #: and stripped from the response (a receiver never observes absolute
    #: latency; only dispersion relative to this reference remains, so the
    #: extracted edge displacements stay well inside ±0.5 UI at any loss).
    delay_reference_hz: float = 1.25e9

    def __post_init__(self) -> None:
        require_non_negative("length_m", self.length_m)
        require_non_negative("rdc_ohm_per_m", self.rdc_ohm_per_m)
        require_non_negative("skin_ohm_per_m", self.skin_ohm_per_m)
        require_positive("crossover_rad_per_s", self.crossover_rad_per_s)
        require_positive("z0_ohm", self.z0_ohm)
        require_positive("velocity_m_per_s", self.velocity_m_per_s)
        require_non_negative("loss_tangent", self.loss_tangent)
        require_positive("delay_reference_hz", self.delay_reference_hz)

    def propagation_constant(self, frequencies_hz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(gamma, Zc)`` per metre at the given frequencies.

        ``gamma`` is the complex propagation constant (nepers/m real part),
        ``Zc`` the frequency-dependent characteristic impedance.
        """
        omega = 2.0 * math.pi * np.asarray(frequencies_hz, dtype=float).copy()
        omega[omega == 0.0] = 1.0e-12  # guard the DC bin
        r_skin = self.skin_ohm_per_m * np.sqrt(2j * omega / self.crossover_rad_per_s)
        resistance = np.sqrt(self.rdc_ohm_per_m**2 + r_skin**2)
        inductance = self.z0_ohm / self.velocity_m_per_s
        c0 = 1.0 / (self.z0_ohm * self.velocity_m_per_s)
        capacitance = c0 * np.power(
            1j * omega / self.crossover_rad_per_s,
            -2.0 * self.loss_tangent / math.pi,
        )
        series = 1j * omega * inductance + resistance
        shunt = 1j * omega * capacitance
        gamma = np.sqrt(series * shunt)
        impedance = np.sqrt(series / shunt)
        return gamma, impedance

    def bulk_delay_s(self) -> float:
        """Phase delay of the line at the delay-reference frequency."""
        gamma, _ = self.propagation_constant(np.array([self.delay_reference_hz], dtype=float))
        omega_ref = 2.0 * math.pi * self.delay_reference_hz
        return float(gamma.imag[0]) * self.length_m / omega_ref

    def frequency_response(self, frequencies_hz: np.ndarray) -> np.ndarray:
        gamma, _impedance = self.propagation_constant(frequencies_hz)
        # Strip the bulk propagation delay (phase delay at the reference
        # frequency): the receiver never observes absolute latency, and
        # keeping it would wrap a multi-UI linear phase into the circular
        # pattern grid.  Dispersion relative to the reference remains.
        omega = 2.0 * math.pi * np.asarray(frequencies_hz, dtype=float)
        return np.exp(-gamma * self.length_m + 1j * omega * self.bulk_delay_s())

    def attenuation_db_per_m(self, frequency_hz: float) -> float:
        """Attenuation per metre (dB) at one frequency."""
        gamma, _ = self.propagation_constant(np.array([frequency_hz], dtype=float))
        return float(gamma.real[0] * _NEPER_TO_DB)

    def with_length(self, length_m: float) -> "LossyLineChannel":
        """Return a copy with a different line length."""
        return replace(self, length_m=length_m)

    @classmethod
    def for_loss_at_nyquist(
        cls, loss_db: float, bit_rate_hz: float = units.DEFAULT_BIT_RATE, **parameters
    ) -> "LossyLineChannel":
        """Return a line whose Nyquist (bit rate / 2) loss is *loss_db*.

        Attenuation in dB is linear in length, so the requested loss maps
        directly to a line length — the natural sweep axis for
        ``ber_vs_channel_loss_sweep``.
        """
        require_non_negative("loss_db", loss_db)
        require_positive("bit_rate_hz", bit_rate_hz)
        parameters.setdefault("delay_reference_hz", 0.5 * bit_rate_hz)
        reference = cls(length_m=1.0, **parameters)
        per_metre = reference.attenuation_db_per_m(0.5 * bit_rate_hz)
        return reference.with_length(loss_db / per_metre)
