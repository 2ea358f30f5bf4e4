"""Bit-error counting for time-domain simulations.

The behavioural (event-driven) and circuit-level simulations recover a bit
stream by sampling; this module aligns the recovered stream against the
transmitted one (compensating for the fixed recovery latency) and counts the
errors, mirroring the classic BERT (bit-error-rate tester) procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .._validation import require_positive_int

__all__ = ["BerMeasurement", "align_and_count", "ber_interval", "count_errors"]


def ber_interval(errors: int, bits: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact (Clopper-Pearson) bounds on the true BER behind *errors* in *bits*.

    Each bound is one-sided at *confidence*: the true BER lies below
    ``high`` (and, separately, above ``low``) with that probability.  Zero
    errors give ``low = 0`` and all errors ``high = 1``; zero bits measured
    nothing and give ``(nan, nan)``.  *confidence* must lie strictly
    between 0 and 1 and *errors* in ``[0, bits]``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if not 0 <= errors <= bits:
        raise ValueError(f"errors must lie in [0, bits], got {errors!r} of {bits!r}")
    if bits == 0:
        return (float("nan"), float("nan"))
    low = 0.0
    if errors > 0:
        low = float(special.betaincinv(errors, bits - errors + 1, 1.0 - confidence))
    high = 1.0
    if errors < bits:
        high = float(special.betaincinv(errors + 1, bits - errors, confidence))
    return (low, high)


@dataclass(frozen=True)
class BerMeasurement:
    """Outcome of a bit-error-rate measurement."""

    errors: int
    compared_bits: int
    alignment_offset: int = 0

    @property
    def ber(self) -> float:
        """Measured bit error ratio."""
        if self.compared_bits == 0:
            return float("nan")
        return self.errors / self.compared_bits

    def confidence_upper_bound(self, confidence: float = 0.95) -> float:
        """Exact one-sided upper bound on the true BER (see :func:`ber_interval`)."""
        return ber_interval(self.errors, self.compared_bits, confidence)[1]


def count_errors(transmitted: np.ndarray, received: np.ndarray) -> BerMeasurement:
    """Count mismatches between two equally long aligned bit sequences."""
    tx = np.asarray(transmitted).astype(np.uint8).ravel()
    rx = np.asarray(received).astype(np.uint8).ravel()
    n = min(tx.size, rx.size)
    if n == 0:
        return BerMeasurement(errors=0, compared_bits=0)
    errors = int(np.count_nonzero(tx[:n] != rx[:n]))
    return BerMeasurement(errors=errors, compared_bits=n)


def align_and_count(transmitted: np.ndarray, received: np.ndarray,
                    max_offset: int = 8, skip_head: int = 8) -> BerMeasurement:
    """Find the latency offset minimising errors, then count them.

    The recovered stream lags the transmitted one by a fixed number of bits
    (edge-detector delay plus half a period plus sampler latency), and start-up
    decisions taken before the data arrived can add leading stale samples, so
    the alignment search shifts *either* stream by up to ``max_offset`` bits
    (positive ``alignment_offset`` = transmitted stream shifted, negative =
    received stream shifted).  The first *skip_head* compared bits are excluded
    to let the CDR acquire lock.
    """
    max_offset = require_positive_int("max_offset", max_offset + 1) - 1
    tx = np.asarray(transmitted).astype(np.uint8).ravel()
    rx = np.asarray(received).astype(np.uint8).ravel()
    if rx.size == 0 or tx.size == 0:
        return BerMeasurement(errors=0, compared_bits=0)

    best: BerMeasurement | None = None
    for offset in range(-max_offset, max_offset + 1):
        tx_shift = max(offset, 0)
        rx_shift = max(-offset, 0)
        usable = min(tx.size - tx_shift, rx.size - rx_shift) - skip_head
        if usable <= 0:
            continue
        tx_slice = tx[tx_shift + skip_head: tx_shift + skip_head + usable]
        rx_slice = rx[rx_shift + skip_head: rx_shift + skip_head + usable]
        errors = int(np.count_nonzero(tx_slice != rx_slice))
        candidate = BerMeasurement(errors=errors, compared_bits=usable,
                                   alignment_offset=offset)
        if best is None or candidate.errors < best.errors:
            best = candidate
    return best if best is not None else BerMeasurement(errors=0, compared_bits=0)
