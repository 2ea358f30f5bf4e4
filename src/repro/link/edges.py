"""Threshold-crossing extraction: link waveform → per-transition displacement.

The CDR engines consume :class:`~repro.datapath.nrz.NrzEdgeStream` edge
times; this module measures, from a received pattern waveform, how far
each transition's threshold crossing sits from its ideal time, so
:meth:`repro.link.path.LinkPath.transmit` can displace the ideal edges and
both the event kernel and :mod:`repro.fastpath` run unmodified behind the
link front end.

The crossing-time routine itself is
:func:`repro.analysis.timing.threshold_crossings` — one shared
implementation for the circuit-level transient analyser and the link (the
two used to be near-copies).  On top of it this module:

* matches each crossing to the ideal transition it realises (nearest match
  inside a ±``match_window_ui`` window; a transition whose crossing
  disappeared — a fully closed eye — is assigned a large late displacement
  so the CDR demonstrably mis-samples it),
* snaps numerically-zero displacements to exactly 0.0 so an ideal channel
  reproduces the input edge times bit-for-bit,
* tabulates those displacements per bit position of a circular pattern.
"""

from __future__ import annotations

import numpy as np

from .._validation import require_positive
from ..analysis.timing import threshold_crossings

__all__ = [
    "circular_transition_positions",
    "match_crossings_ui",
    "pattern_displacements_ui",
]

#: Displacement (UI) assigned to a transition with no crossing in the window.
MISSING_EDGE_DISPLACEMENT_UI = 0.75


def circular_transition_positions(pattern_bits: np.ndarray) -> np.ndarray:
    """Bit positions that start a transition when *pattern_bits* repeats.

    Position ``p`` is a transition when ``bits[p] != bits[p - 1]`` with
    circular indexing (position 0 compares against the last bit of the
    previous pattern repetition).
    """
    bits = np.asarray(pattern_bits, dtype=np.uint8).ravel()
    return np.flatnonzero(bits != np.roll(bits, 1))


def _nearest_offsets_ui(
    crossings: np.ndarray, ideal: np.ndarray, unit_interval_s: float, period_s: float | None
) -> np.ndarray:
    """Offset (UI) from each ideal time to its nearest crossing (unbounded)."""
    if period_s is not None:
        require_positive("period_s", period_s)
        crossings = np.sort(np.concatenate((crossings - period_s, crossings, crossings + period_s)))
    right = np.searchsorted(crossings, ideal)
    left = np.clip(right - 1, 0, crossings.size - 1)
    right = np.clip(right, 0, crossings.size - 1)
    offset_left = crossings[left] - ideal
    offset_right = crossings[right] - ideal
    take_right = np.abs(offset_right) < np.abs(offset_left)
    return np.where(take_right, offset_right, offset_left) / unit_interval_s


def match_crossings_ui(
    crossing_times_s: np.ndarray,
    ideal_times_s: np.ndarray,
    unit_interval_s: float,
    *,
    match_window_ui: float = 0.5,
    period_s: float | None = None,
    snap_ui: float = 1.0e-6,
    center: bool = True,
) -> np.ndarray:
    """Displacement (UI) of each ideal transition's realised crossing.

    With *center* (the default) the median crossing offset — the channel's
    residual dispersive delay, which a receiver's clock recovery absorbs as
    a constant phase — is removed first, so the returned displacements are
    the data-dependent spread around the average edge position.  Each ideal
    transition then takes the nearest crossing within ±*match_window_ui* of
    that centre; displacements smaller than *snap_ui* are snapped to
    exactly zero (numerically ideal channel), and transitions without a
    matching crossing (a fully closed eye) receive
    :data:`MISSING_EDGE_DISPLACEMENT_UI`.  Pass *period_s* when the
    waveform is one period of a circular pattern so crossings wrap.
    """
    require_positive("unit_interval_s", unit_interval_s)
    ideal = np.asarray(ideal_times_s, dtype=float).ravel()
    crossings = np.sort(np.asarray(crossing_times_s, dtype=float).ravel())
    displacements = np.full(ideal.size, MISSING_EDGE_DISPLACEMENT_UI)
    if crossings.size == 0 or ideal.size == 0:
        return displacements
    offsets = _nearest_offsets_ui(crossings, ideal, unit_interval_s, period_s)
    shift = 0.0
    if center:
        coarse = offsets[np.abs(offsets) <= 2.0 * match_window_ui]
        if coarse.size:
            shift = float(np.median(coarse))
            if abs(shift) < snap_ui:
                shift = 0.0
    relative = offsets - shift
    matched = np.abs(relative) <= match_window_ui
    relative = np.where(np.abs(relative) < snap_ui, 0.0, relative)
    displacements[matched] = relative[matched]
    return displacements


def pattern_displacements_ui(
    time_axis_s: np.ndarray,
    waveform: np.ndarray,
    pattern_bits: np.ndarray,
    unit_interval_s: float,
    *,
    threshold: float = 0.0,
    match_window_ui: float = 0.5,
) -> np.ndarray:
    """Per-bit-position displacement table of a circular pattern waveform.

    *waveform* must be the steady-state received waveform of one repetition
    of *pattern_bits* (see :func:`repro.link.isi.superpose_circular`), with
    *time_axis_s* starting at the pattern's first bit boundary.  Returns an
    array of length ``len(pattern_bits)``: entry ``p`` is the displacement
    (UI) of the transition into bit ``p``, or 0.0 at positions that carry
    no transition.  Because the pattern repeats, this table fully describes
    the data-dependent jitter of arbitrarily long streams of the pattern —
    the per-point reuse the sweep layer's cost model builds on.
    """
    bits = np.asarray(pattern_bits, dtype=np.uint8).ravel()
    positions = circular_transition_positions(bits)
    table = np.zeros(bits.size)
    if positions.size == 0:
        return table
    times = np.asarray(time_axis_s, dtype=float).ravel()
    values = np.asarray(waveform, dtype=float).ravel()
    if times.size < 2:
        return table
    step = times[1] - times[0]
    # The waveform is one period of a circular pattern: extend it by one
    # unit interval on each side so the crossing at the period boundary
    # (transition into bit 0) is seen by the linear scan.
    margin = min(values.size, int(round(unit_interval_s / step)))
    times = np.concatenate((times[:margin] - margin * step, times, times[-margin:] + margin * step))
    values = np.concatenate((values[-margin:], values, values[:margin]))
    crossings = threshold_crossings(times, values, threshold=threshold, kind="any")
    # Midpoint convention: the pattern's first bit boundary sits half a
    # sample step before the first sample time.
    origin = time_axis_s[0] - 0.5 * step
    ideal = origin + positions * unit_interval_s
    table[positions] = match_crossings_ui(
        crossings,
        ideal,
        unit_interval_s,
        match_window_ui=match_window_ui,
        period_s=bits.size * unit_interval_s,
    )
    return table

