"""Jitter decomposition and combination utilities (dual-Dirac model).

The link budget style of analysis used to compare against the InfiniBand mask
combines random and deterministic jitter as

    TJ(BER) = DJ_pp + 2 * Q(BER) * RJ_rms

where ``Q(BER)`` is the two-sided Gaussian quantile of the target error ratio
(≈ 7.03 for 1e-12).  This module provides that total-jitter arithmetic, the
inverse (fitting DJ/RJ from a measured distribution by the tail-fit /
dual-Dirac method), and histogram-based estimators used by the behavioural
simulations to report their jitter in the same terms as Table 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .._validation import require_non_negative, require_positive, require_probability

__all__ = [
    "q_scale",
    "total_jitter_pp",
    "JitterDecomposition",
    "decompose_dual_dirac",
    "estimate_rj_dj_from_samples",
    "combine_rms",
    "combine_deterministic",
]


def q_scale(ber: float) -> float:
    """Return the dual-Dirac Q-scale multiplier for a target bit error ratio.

    ``Q = sqrt(2) * erfc^-1(2 * BER / rho_t)`` with transition density
    ``rho_t = 1`` folded in; the conventional value at BER = 1e-12 is ≈ 7.03
    (one-sided); the *total* jitter formula uses ``2 * Q * RJ_rms``.
    """
    require_probability("ber", ber)
    if ber <= 0.0:
        raise ValueError("ber must be strictly positive for a finite Q scale")
    return math.sqrt(2.0) * float(special.erfcinv(2.0 * ber))


def total_jitter_pp(dj_pp: float, rj_rms: float, ber: float = 1.0e-12) -> float:
    """Total jitter at the given BER using the dual-Dirac combination rule."""
    require_non_negative("dj_pp", dj_pp)
    require_non_negative("rj_rms", rj_rms)
    return dj_pp + 2.0 * q_scale(ber) * rj_rms


def combine_rms(*rms_values: float) -> float:
    """Combine independent random-jitter contributions (root-sum-square)."""
    total = 0.0
    for value in rms_values:
        require_non_negative("rms value", value)
        total += value * value
    return math.sqrt(total)


def combine_deterministic(*pp_values: float) -> float:
    """Combine bounded jitter contributions (linear, worst-case addition)."""
    total = 0.0
    for value in pp_values:
        require_non_negative("peak-to-peak value", value)
        total += value
    return total


@dataclass(frozen=True)
class JitterDecomposition:
    """Result of decomposing a measured jitter population into DJ + RJ."""

    dj_pp_ui: float
    rj_rms_ui: float
    mean_ui: float = 0.0

    def total_jitter_pp_ui(self, ber: float = 1.0e-12) -> float:
        """Total jitter at the requested BER."""
        return total_jitter_pp(self.dj_pp_ui, self.rj_rms_ui, ber)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DJ = {self.dj_pp_ui:.4f} UIpp, RJ = {self.rj_rms_ui:.4f} UIrms, "
            f"TJ(1e-12) = {self.total_jitter_pp_ui():.4f} UIpp"
        )


@functools.lru_cache(maxsize=16)
def _tail_z_values(tail_quantile: float) -> tuple[float, float]:
    """Standard-normal quantiles at ``tail_quantile`` and ``4 * tail_quantile``."""
    return float(stats.norm.ppf(tail_quantile)), float(stats.norm.ppf(4.0 * tail_quantile))


def decompose_dual_dirac(samples_ui: np.ndarray, tail_quantile: float = 0.005
                         ) -> JitterDecomposition:
    """Fit the dual-Dirac model to a jitter sample population.

    The two tails of the distribution are fitted with Gaussians (by matching
    the quantiles at ``tail_quantile`` and ``4 * tail_quantile``); the
    difference between the two tail means gives DJ(δδ), the average of the two
    tail sigmas gives RJ.

    This is intentionally a simple, robust estimator: the behavioural
    simulations use it to report DJ/RJ in the same terms the specification
    (Table 1) is written in.
    """
    samples = np.asarray(samples_ui, dtype=float).ravel()
    if samples.size < 100:
        raise ValueError("dual-Dirac decomposition needs at least 100 samples")
    require_positive("tail_quantile", tail_quantile)
    if not 0.0 < tail_quantile < 0.1:
        raise ValueError("tail_quantile must be in (0, 0.1)")

    q_lo_a, q_lo_b, q_hi_a, q_hi_b = np.quantile(
        samples,
        [tail_quantile, 4.0 * tail_quantile, 1.0 - tail_quantile, 1.0 - 4.0 * tail_quantile],
    )
    z_a, z_b = _tail_z_values(tail_quantile)

    # Left tail: q = mu_l + sigma_l * z  evaluated at the two quantiles.
    denom = z_a - z_b
    sigma_left = (q_lo_a - q_lo_b) / denom if denom != 0.0 else 0.0
    mu_left = q_lo_a - sigma_left * z_a

    # Right tail (mirror the z values).
    sigma_right = (q_hi_a - q_hi_b) / (-denom) if denom != 0.0 else 0.0
    mu_right = q_hi_a + sigma_right * z_a

    sigma_left = max(float(sigma_left), 0.0)
    sigma_right = max(float(sigma_right), 0.0)

    dj = max(float(mu_right - mu_left), 0.0)
    rj = 0.5 * (sigma_left + sigma_right)
    return JitterDecomposition(dj_pp_ui=dj, rj_rms_ui=float(rj),
                               mean_ui=float(samples.mean()))


def estimate_rj_dj_from_samples(samples_ui: np.ndarray) -> JitterDecomposition:
    """Convenience wrapper around :func:`decompose_dual_dirac` with defaults."""
    return decompose_dual_dirac(np.asarray(samples_ui, dtype=float))
