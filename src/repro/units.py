"""Physical units, constants and conversions used across the library.

The paper works in three interchangeable "time" units:

* seconds — absolute time used by the event kernel and circuit simulator,
* **unit intervals (UI)** — time normalised to the bit period (1 UI = 400 ps at
  2.5 Gbit/s), the natural unit for jitter specifications,
* radians — phase, used by the PLL and phase-noise models.

All public APIs state their unit explicitly in the argument name
(``amplitude_ui``, ``delay_s`` ...).  This module provides the conversion
helpers plus the handful of physical constants the phase-noise model needs.
"""

from __future__ import annotations

import math

__all__ = [
    "BOLTZMANN_K",
    "ROOM_TEMPERATURE_K",
    "DEFAULT_BIT_RATE",
    "DEFAULT_UNIT_INTERVAL",
    "ui_to_seconds",
    "seconds_to_ui",
    "ui_to_radians",
    "radians_to_ui",
    "ppm_to_fraction",
    "fraction_to_ppm",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "bit_period",
    "power_per_gbps",
]

#: Boltzmann constant [J/K].
BOLTZMANN_K = 1.380_649e-23

#: Default simulation temperature [K].
ROOM_TEMPERATURE_K = 300.0

#: The paper's per-channel data rate [bit/s].
DEFAULT_BIT_RATE = 2.5e9

#: The paper's unit interval, 1 UI = 400 ps [s].
DEFAULT_UNIT_INTERVAL = 1.0 / DEFAULT_BIT_RATE


def bit_period(bit_rate_hz: float = DEFAULT_BIT_RATE) -> float:
    """Return the bit period (one unit interval) in seconds for *bit_rate_hz*."""
    if bit_rate_hz <= 0.0:
        raise ValueError(f"bit rate must be positive, got {bit_rate_hz!r}")
    return 1.0 / bit_rate_hz


def ui_to_seconds(value_ui: float, bit_rate_hz: float = DEFAULT_BIT_RATE) -> float:
    """Convert a duration expressed in unit intervals to seconds."""
    return value_ui * bit_period(bit_rate_hz)


def seconds_to_ui(value_s: float, bit_rate_hz: float = DEFAULT_BIT_RATE) -> float:
    """Convert a duration expressed in seconds to unit intervals."""
    return value_s / bit_period(bit_rate_hz)


def ui_to_radians(value_ui: float) -> float:
    """Convert a phase expressed in unit intervals to radians (1 UI = 2*pi)."""
    return value_ui * 2.0 * math.pi


def radians_to_ui(value_rad: float) -> float:
    """Convert a phase expressed in radians to unit intervals."""
    return value_rad / (2.0 * math.pi)


def ppm_to_fraction(value_ppm: float) -> float:
    """Convert parts-per-million to a dimensionless fraction."""
    return value_ppm * 1.0e-6


def fraction_to_ppm(value: float) -> float:
    """Convert a dimensionless fraction to parts-per-million."""
    return value * 1.0e6


def db_to_linear(value_db: float) -> float:
    """Convert a power ratio in dB to a linear ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to dB."""
    if value <= 0.0:
        raise ValueError(f"ratio must be positive to convert to dB, got {value!r}")
    return 10.0 * math.log10(value)


def dbm_to_watts(value_dbm: float) -> float:
    """Convert dBm to watts."""
    return 1.0e-3 * db_to_linear(value_dbm)


def watts_to_dbm(value_w: float) -> float:
    """Convert watts to dBm."""
    if value_w <= 0.0:
        raise ValueError(f"power must be positive to convert to dBm, got {value_w!r}")
    return linear_to_db(value_w / 1.0e-3)


def power_per_gbps(power_w: float, bit_rate_hz: float) -> float:
    """Return power efficiency in mW per Gbit/s — the paper's headline metric."""
    if bit_rate_hz <= 0.0:
        raise ValueError(f"bit rate must be positive, got {bit_rate_hz!r}")
    return (power_w * 1.0e3) / (bit_rate_hz / 1.0e9)
