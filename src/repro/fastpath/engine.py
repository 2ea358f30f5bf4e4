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
  stream.  One closure-free loop merges three streams (EDET toggles, ring
  feedback, pending stage-0 applies) and reproduces the kernel's
  scheduling — including transport cancellation, which *can* fire on
  stage 0 when a gating-input skew is configured — at a few machine
  operations per event instead of a heap transaction.  While the gate is
  high and nothing else is pending, the ring free-runs: the loop then
  steps feedback and stage-0 apply directly, skipping the merge, until
  the next EDET toggle or the run horizon.
* Every EDET rise that finds the ring quiescent restarts it from the same
  state, so the gate-high spans are independent: :func:`_settled_spans`
  advances all of them together — a short run's spans as the rows of one
  ``np.add.accumulate`` matrix, a longer run's column by column over the
  spans sorted longest first — and the loop fast-forwards over each run
  of spans whose outcome it proves (see PERFORMANCE.md).
* The decision flip-flop samples the delayed data at every rising clock
  edge, so the decisions are one ``searchsorted`` away; a long run ranks
  the DDIN edges among the samples instead (:func:`_ddin_index`).

Constant delays are the premise of every pass, so the fast path accepts
only what it reproduces exactly: a configuration with gate or oscillator
jitter (:func:`needs_event_kernel`) is refused by
:func:`require_jitter_free`, the one check behind both the constructor and
``resolve_backend(config, "fast")``.  The event kernel runs those.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .. import telemetry
from .._validation import require_positive_int
from ..core.cdr_channel import BehavioralSimulationResult
from ..core.config import CdrChannelConfig
from ..core.edge_detector import GATE_DELAY_S
from ..datapath.nrz import JitterSpec, NrzEdgeStream, generate_edge_times
from .traces import ArrayRecorder, DecisionEdges, EdgeArrays

__all__ = ["FastCdrChannel", "needs_event_kernel", "require_jitter_free"]

_INF = float("inf")


def needs_event_kernel(config: CdrChannelConfig | None) -> bool:
    """True when *config* draws per-gate delay jitter (gate or oscillator)."""
    config = config or CdrChannelConfig()
    return (config.gate_jitter_sigma_fraction > 0.0
            or config.oscillator.jitter_sigma_fraction > 0.0)


def require_jitter_free(config: CdrChannelConfig | None) -> None:
    """Raise ``ValueError`` when the fast path cannot run *config* exactly."""
    if needs_event_kernel(config):
        raise ValueError(
            "backend 'fast' does not support ['per-gate-delay-jitter'] "
            "demanded by this configuration; "
            'use backend="event" for a draw-for-draw jittered reference '
            'or backend="auto" to resolve automatically'
        )


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
    if not equal.any():
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


#: Stage-0 changes of the one-block path of :func:`_settled_spans`: up to
#: this many, its (spans x changes) matrix is one row-wise accumulate.
_BLOCK_CHANGES = 1 << 12

#: Spans still running when the column pass of :func:`_settled_spans`
#: hands them to row-wise slabs: for fewer rows, a column's numpy call
#: costs more than its adds.
_TALL_ROWS = 64

#: Cells of one row-wise slab of the column pass: bounds that matrix,
#: however long a run of identical digits.
_SLAB_CELLS = 1 << 16


def _settled_spans(
    edet: np.ndarray,
    *,
    t_gate: float,
    t_feedback: float,
    t_stage: float,
    duration_s: float,
    n_stages: int,
    improved_tap: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clock-tap times of every settled gate-high span of a jitter-free ring.

    EDET starts high, so its toggles (sorted, as the edge detector merges
    them) alternate fall, rise, fall, ...  Span ``k`` starts with a
    stage-0 change at ``S_k`` (``0.0 + t_feedback`` for the first span,
    ``rises[k-1] + t_gate`` after), ends at the fall ``d = falls[k]`` and
    is followed by the rise ``rises[k]``.  From a
    quiescent ring (``v0 = 0``, last stage 1, nothing pending or in flight)
    an odd inverter chain free-runs: the stage-0 changes ``A_j`` alternate
    rise, fall, ... with feedback ``F_j = A_j + t_stage + ... + t_stage``
    and ``A_{j+1} = F_j + t_feedback``.  Each span's times are one
    sequential IEEE sum, taken here in the recurrence's own order, so
    they are the recurrence's own adds.  With ``J`` the first ``j`` with
    ``F_j > d`` and ``D = d + t_gate``, a span is *settled* when

    (i)   no ``A_j`` or ``F_j`` equals ``d``, and ``A_J != D`` (no
          merge-order ties);
    (ii)  if ``A_J < D``, then ``D < F_J + t_feedback`` (the apply that
          ``F_J`` schedules does not cancel the fall's);
    (iii) its last feedback — the forced fall's own, if there is one —
          lands strictly before the next rise;
    (iv)  the toggles around it strictly increase (a span exists only if
          its next rise is at or before *duration_s*).

    A settled span changes stage 0 at ``A_0 ... A_{J-1}``, at ``A_J`` if
    ``A_J < D`` (the fall's apply cancels it otherwise), then at ``D`` if
    the last change was a rise, and leaves the ring quiescent.

    ``J`` is estimated from the span length and then checked against the
    ring (``F_{J-1} < d < F_J``); a wrong estimate leaves the span
    unsettled.  When every span fits one block (``n_spans * (max J + 1)
    <= _BLOCK_CHANGES``, a short run's usual case) the spans are the rows
    of one matrix in time order, as wide as the widest, taken by one
    ``np.add.accumulate(axis=1)``.  Longer runs take the column pass: the
    spans are sorted longest first, so the rows still running at change
    ``q`` are a prefix, and each column of the recurrence is one in-place
    add over that prefix — the adds of a row's accumulate, in its order,
    with nothing padded.  Once at most :data:`_TALL_ROWS` rows run (long
    runs of identical digits), they finish in row-wise slabs of at most
    :data:`_SLAB_CELLS` cells.  Each change's taps are kept as one column
    and scattered into time order once the spans' outcomes give their
    offsets.  Rows never mix, so both paths give the same bytes.

    Returns ``(settled, offsets, times)``: one flag per span whose next
    rise is within *duration_s*, and the clock-tap times of the settled
    spans in time order, span ``k``'s at ``times[offsets[k]:offsets[k + 1]]``.
    """
    rises = edet[1::2]
    n_spans = int(rises.searchsorted(duration_s, side="right"))
    if n_spans == 0:
        return np.zeros(0, dtype=bool), np.zeros(1, dtype=np.int64), np.zeros(0)
    rises = rises[:n_spans]
    falls = edet[0:2 * n_spans:2]
    starts = np.empty(n_spans)
    starts[0] = 0.0 + t_feedback
    np.add(rises[:-1], t_gate, out=starts[1:])
    forced_at = falls + t_gate
    # The toggles are sorted, so every rise kept is within duration_s;
    # ties around a span leave it unsettled.
    around = falls < rises
    around[1:] &= rises[:-1] < falls[1:]

    n_inverters = n_stages - 1
    tap = n_stages - 2 if improved_tap else n_inverters
    # The forced fall's trip through the inverter chain: its tap and feedback.
    fall_feedback = forced_at
    for hop in range(1, n_stages):
        fall_feedback = fall_feedback + t_stage
        if hop == tap:
            fall_tap = fall_feedback

    period = n_inverters * t_stage + t_feedback
    j = np.maximum((falls - starts - n_inverters * t_stage) / period + 1.0,
                   0.0).astype(np.int64)
    widest = int(j.max()) + 1
    offsets = np.zeros(n_spans + 1, dtype=np.int64)

    def outcome(a_j: np.ndarray, f_j: np.ndarray,
                f_before: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(settled, changes, forced fall)`` of every span, in time order,
        from its ``A_J``, ``F_J`` and ``F_{J-1}``."""
        emit_j = a_j < forced_at
        n_changes = j + emit_j
        forced = n_changes & 1
        last_feedback = np.where(forced, fall_feedback, np.where(emit_j, f_j, -_INF))
        # On booleans, a <= b reads "a implies b": condition (ii).
        settled = (around
                   & ((j == 0) | (f_before < falls)) & (falls < f_j)
                   & (a_j != falls) & (a_j != forced_at)
                   & (emit_j <= (forced_at < f_j + t_feedback))
                   & (last_feedback < rises))
        return settled, n_changes, forced

    if n_spans * widest <= _BLOCK_CHANGES:
        # Row k: S_k, then t_stage x n_inverters, t_feedback, t_stage, ...
        # One change past the widest row leaves room for the forced fall.
        columns = (widest + 1) * n_stages
        ring = np.empty((n_spans, columns))
        ring.fill(t_stage)
        if t_feedback != t_stage:
            ring[:, n_stages::n_stages] = t_feedback
        ring[:, 0] = starts
        ring = np.add.accumulate(ring, axis=1, out=ring).reshape(-1)

        # A_J, F_J and F_{J-1} (the previous row's last time when J = 0, unread).
        row_at = np.arange(0, n_spans * columns, columns)
        at_j = row_at + j * n_stages
        settled, n_changes, forced = outcome(ring[at_j], ring[at_j + n_inverters],
                                             ring[at_j - 1])
        # The forced fall's tap follows the row's last change; span k's
        # taps are then changes 0 .. count - 1 of row k at the tap.
        ring[row_at + (n_changes * n_stages + tap)] = fall_tap
        counts = np.where(settled, n_changes + forced, 0)
        np.add.accumulate(counts, out=offsets[1:])
        taps = ring.reshape(n_spans, widest + 1, n_stages)[:, :, tap]
        return settled, offsets, taps[np.arange(widest + 1) < counts[:, None]]

    # Longest first: the rows still running at change q (J >= q) are the
    # first running[q].  A 16-bit key sorts fast.
    order = np.argsort(-(j.astype(np.int16) if widest <= 0x7FFF else j), kind="stable")
    running = np.zeros(widest + 2, dtype=np.int64)
    running[:widest] = np.bincount(j)[::-1].cumsum()[::-1]
    n_columns = int(np.count_nonzero(running > _TALL_ROWS))

    # F_{J-1} of a span with J = 0 is never read; zero keeps it defined.
    a_j, f_j, f_before = np.empty(n_spans), np.empty(n_spans), np.zeros(n_spans)
    ring = starts[order]
    # The column pass: ring[:rows] holds A_q of the rows still running,
    # and store[column_at[q]:column_at[q + 1]] their taps of change q.
    column_at = np.zeros(n_columns + 1, dtype=np.int64)
    np.cumsum(running[:n_columns], out=column_at[1:])
    store = np.empty(int(column_at[-1]))
    running, column_at = running.tolist(), column_at.tolist()
    for q in range(n_columns):
        rows, ending, next_ending = running[q:q + 3]
        # Rows ending .. rows - 1 have J = q, rows next_ending .. ending - 1 J = q + 1.
        a_j[order[ending:rows]] = ring[ending:rows]
        value = ring[:rows]
        for stage in range(1, n_stages):
            out = store[column_at[q]:column_at[q + 1]] if stage == tap else ring[:rows]
            np.add(value, t_stage, out=out)
            value = out
        f_j[order[ending:rows]] = value[ending:rows]
        f_before[order[next_ending:ending]] = value[next_ending:ending]
        np.add(value[:ending], t_feedback, out=ring[:ending])

    # The tall rows: slab[r, c] is column q * n_stages + c of row r, from
    # A_q at c = 0 to A_{q+k} at c = k * n_stages.
    tall = []
    q = n_columns
    while q < widest:
        rows = running[q]
        k = min(widest - q, max(1, _SLAB_CELLS // (rows * n_stages)))
        width = k * n_stages + 1
        slab = np.empty((rows, width))
        slab.fill(t_stage)
        if t_feedback != t_stage:
            slab[:, n_stages::n_stages] = t_feedback
        slab[:, 0] = ring[:rows]
        np.add.accumulate(slab, axis=1, out=slab)
        cells = slab.reshape(-1)
        # J in [q, q + k): A_J and F_J; J in [q + 1, q + k]: F_{J-1}.
        ending, first = running[q + k], running[q + k + 1]
        spans = order[ending:rows]
        at_j = np.arange(ending * width, rows * width, width) + (j[spans] - q) * n_stages
        a_j[spans] = cells[at_j]
        f_j[spans] = cells[at_j + n_inverters]
        spans = order[first:running[q + 1]]
        f_before[spans] = cells[np.arange(first * width, running[q + 1] * width, width)
                                + ((j[spans] - q) * n_stages - 1)]
        tall.append((q, slab[:, tap:k * n_stages:n_stages].copy()))
        ring[:ending] = slab[:ending, -1]
        q += k

    settled, n_changes, forced = outcome(a_j, f_j, f_before)
    # Free the per-span inputs: the output stage holds the most memory.
    del starts, ring, a_j, f_j, f_before
    ring_counts = np.where(settled, n_changes, 0)
    forced &= settled
    np.cumsum(ring_counts + forced, out=offsets[1:])
    total = int(offsets[-1])
    # Change q of sorted row r goes to at[r] + q.  A slab's taps past a
    # row's count are masked out.  A column's only tap past its row's
    # count is a cancelled A_J, at q = J: it lands on the span's forced
    # fall, on the next counted span's change 0 or on the spare tail, and
    # the forced falls and change 0 are written after it, changes last
    # first.  A span with no tap writes only to the spare tail.
    times = np.empty(total + n_columns)
    at = np.where(ring_counts > 0, offsets[:-1], total)[order]
    for q, taps in tall:
        rows, k = taps.shape
        change = np.arange(q, q + k)
        keep = change < ring_counts[order[:rows], None]
        times[(at[:rows, None] + change)[keep]] = taps[keep]
    for q in range(n_columns - 1, -1, -1):
        times[at[:running[q]] + q] = store[column_at[q]:column_at[q + 1]]
    forced = forced.astype(bool)
    times[offsets[:-1][forced] + n_changes[forced]] = fall_tap[forced]
    return settled, offsets, times[:total]


def _ring_recurrence(
    edet_times: np.ndarray,
    *,
    t_gate: float,
    t_feedback: float,
    t_stage: float,
    duration_s: float,
    n_stages: int,
    improved_tap: bool,
) -> np.ndarray:
    """Run the gated-ring recurrence; return the selected clock-tap times.

    Every stage-0 change flips the stage, so the tap values strictly
    alternate from the first change's; the caller derives them.  Stage-0
    changes run in time order and each tap trails its change by the same
    adds, so the returned times never decrease.

    Three event sources are merged in time order, mirroring the kernel:

    * EDET toggles (precomputed, alternating from the initial high level),
    * ring-feedback events (last-stage transitions, i.e. stage-0 changes
      re-timed through ``n_stages - 1`` inverters),
    * pending stage-0 transport applies.

    At equal times a stage-0 apply runs first, then feedback, then the EDET
    toggle.  Each EDET or feedback event re-evaluates ``AND(feedback, EDET)``
    and schedules a stage-0 apply one (gating- or feedback-input) delay
    later, cancelling any pending apply at or after that time — exact
    transport semantics; an apply that cannot change anything (nothing
    pending, value equal to stage 0's) is not scheduled.  A stage-0 apply
    that actually changes the value emits the inverter-chain events and the
    clock-tap samples.

    While the ring free-runs — gate high, nothing else pending — the next
    two events are known: the change's own feedback, then the stage-0 apply
    it schedules.  The inner loop runs them directly, without the merge,
    until one would fall after the next EDET toggle or after *duration_s*.

    The inverter count is odd (:class:`~repro.gates.ring.GccoParameters`
    takes even stage counts only), so an EDET rise that finds the ring
    quiescent starts a span :func:`_settled_spans` may have solved: the
    loop then takes the clock times of the whole run of settled spans from
    it and resumes, quiescent, at the rise that follows them.  The run's
    end is a lookup in the sorted indices of the unsettled spans, which is
    usually empty.  The loop reads *edet_times* in place, one toggle at a
    time with ``+inf`` past the last: where every span settles it reads
    only the few toggles around the scalar events.
    """
    n_inverters = n_stages - 1
    # Tap positions along the chain (number of inversions in front of them).
    improved_hops = n_stages - 2
    tap_hop = improved_hops - 1 if improved_tap else -1
    hops = range(n_inverters)

    n_edet = edet_times.size
    i_edet = 0
    t_e = edet_times.item(0) if n_edet else _INF
    gate_level = 1

    clock_t: list[float] = []
    pieces: list = []

    # Stage 0 starts low, so the odd inverter chain holds the last stage high.
    v0 = 0
    v_last = 1

    # Time zero: every ring gate is kicked via evaluate_now(); only the first
    # stage produces a change (the inverters are already consistent).
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

    # Settled spans (the rise at edet_times[2k - 1] opens span k): span k
    # is settled when k < n_spans and k is not in the sorted list
    # unsettled, whose last entry is n_spans; a run of settled spans from k
    # ends at the first entry at or after k, whose rise (the last one within
    # the horizon at the latest) is a toggle in edet_times.
    n_spans = 0
    if n_edet > 1:
        flags, offsets, span_times = _settled_spans(
            edet_times, t_gate=t_gate, t_feedback=t_feedback, t_stage=t_stage,
            duration_s=duration_s, n_stages=n_stages, improved_tap=improved_tap)
        n_spans = flags.size
        unsettled = (~flags).nonzero()[0].tolist()
        unsettled.append(n_spans)
        if n_spans and flags[0]:
            # The first span starts from the time-zero kick.
            end = unsettled[0]
            pieces.append(span_times[:offsets[end]])
            h0, t_0, gate_level = 1, _INF, 0
            i_edet = 2 * end - 1
            t_e = edet_times.item(i_edet)

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
                    time_s = time_s + t_stage
                    if hop == tap_hop:
                        clock_t.append(time_s)
                value ^= 1  # the odd chain inverts stage 0
                if not improved_tap:
                    # Nominal tap: inverted last stage.
                    clock_t.append(time_s)
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
                time_s = time_s + t_feedback
                if time_s > horizon:
                    # The apply rejoins the merge past the horizon.
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
                if gate_level == 0 and t_0 == _INF and t_f == _INF \
                        and (i_edet + 1) >> 1 < n_spans:
                    span = (i_edet + 1) >> 1
                    end = unsettled[bisect_left(unsettled, span)]
                    if end != span:
                        # A quiescent rise opens a settled span: take the
                        # run of settled spans whole, up to the rise after it.
                        pieces.append(clock_t)
                        pieces.append(span_times[offsets[span]:offsets[end]])
                        clock_t = []
                        i_edet = 2 * end - 1
                        t_e = edet_times.item(i_edet)
                        continue
                gate_level = 1 - gate_level
                time_s = t_e
                i_edet += 1
                t_e = edet_times.item(i_edet) if i_edet < n_edet else _INF
                base = t_gate
            time_s = time_s + base
            # Transport semantics: cancel pending applies at or after time_s.
            while n0 > h0 and p0_t[n0 - 1] >= time_s:
                p0_t.pop()
                p0_v.pop()
                n0 -= 1
            value = v_last & gate_level
            if n0 > h0 or value != v0:
                p0_t.append(time_s)
                p0_v.append(value)
                n0 += 1
                t_0 = p0_t[h0]
            else:
                t_0 = _INF

    pieces.append(clock_t)
    return np.concatenate(pieces)


def _edge_detector(prop_times: np.ndarray,
                   config: CdrChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Delay line, XNOR and dummy gate: the DDIN and EDET event times.

    EDET toggles at every event of either XNOR input, so its toggles are
    the sorted merge of the two inputs.
    """
    cell_delay = config.edge_detector_delay_s / config.edge_detector_cells
    line_times = prop_times
    for _cell in range(config.edge_detector_cells):
        line_times = line_times + cell_delay
    ddin_times = line_times + GATE_DELAY_S
    edet_times = np.concatenate((prop_times + GATE_DELAY_S, ddin_times))
    return ddin_times, np.sort(edet_times)


#: Samples up to which the sampler finds DDIN's level by one binary search
#: per sample; past it, ranking the DDIN edges among the samples is
#: cheaper (see :func:`_ddin_index`).
_SEARCH_SAMPLES = 1 << 10


def _ddin_index(ddin_times: np.ndarray, sample_times: np.ndarray) -> np.ndarray:
    """DDIN edges before each sample: ``ddin_times.searchsorted(sample_times)``.

    *sample_times* never decrease, so past :data:`_SEARCH_SAMPLES` samples
    each DDIN edge is ranked among them instead (an edge at a sample's time
    is not before it) and the counts of the edges ranked at or below each
    sample are cumulated: the same integers, one binary search per DDIN
    edge (about one per two bits) in place of one per sample.  The rank
    costs a few numpy calls more, which a short run does not recover.
    """
    n_samples = sample_times.size
    if n_samples <= _SEARCH_SAMPLES:
        return ddin_times.searchsorted(sample_times, side="left")
    ranks = sample_times.searchsorted(ddin_times, side="right")
    return np.bincount(ranks, minlength=n_samples + 1)[:n_samples].cumsum()


def _ring_delays(config: CdrChannelConfig) -> dict[str, float]:
    """The ring's gating-input, feedback-input and stage delays at the set frequency."""
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
    return {
        "t_gate": (stage_delay + parameters.gating_input_skew_s) * scale,
        "t_feedback": (stage_delay + 0.0) * scale,
        "t_stage": stage_delay * scale,
    }


#: Both clock taps start low: the nominal tap inverts the last stage,
#: which an odd inverter chain holds high, and the improved tap sits an
#: even number of inversions behind stage 0.  Every stage-0 change flips
#: the tap, so its values alternate from high.
_CLOCK_INITIAL = 0


class FastCdrChannel:
    """Vectorized fast-path model of one CDR channel.

    Drop-in for :class:`~repro.core.cdr_channel.BehavioralCdrChannel`: the
    returned result is bit-for-bit identical to the event kernel's (same
    float sample times, same decisions, same traces).  A configuration
    with per-gate delay jitter raises ``ValueError``
    (:func:`require_jitter_free`).
    """

    #: Backend name used by the sweep layer.
    backend = "fast"

    def __init__(self, config: CdrChannelConfig | None = None) -> None:
        self.config = config or CdrChannelConfig()
        require_jitter_free(self.config)

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
        """Vectorized batch simulation; same contract as ``BehavioralCdrChannel.run``.

        The stimulus, the edge detector and the ring give DDIN's edges and
        the sampler's clock; each decision is DDIN's level just before a
        rising clock edge, found for all samples at once
        (:func:`_ddin_index`: one binary search per sample on a short run,
        a rank of the DDIN edges among the samples on a long one).
        """
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
            if stream.bits.shape != bits.shape or (stream.bits != bits).any():
                raise ValueError("bits must match the provided stream's bits")
            start_time = stream.start_time_s
        duration = start_time + stream.duration_s + 4.0 * config.unit_interval_s
        # DIN, DDIN and the sampler's master latch start at the stream's level.
        level = int(stream.initial_level)

        edge_times = stream.edge_times_s
        edge_values = stream.bits[stream.edge_bit_index]
        prop_times, prop_values = _drop_coincident(edge_times, edge_values)

        # --- edge detector: delay line, XNOR, dummy gate --------------------
        ddin_times, edet_times = _edge_detector(prop_times, config)

        # --- gated ring oscillator -----------------------------------------
        parameters = config.oscillator
        clock_times = _ring_recurrence(
            edet_times,
            **_ring_delays(config),
            duration_s=duration,
            n_stages=parameters.n_stages,
            improved_tap=config.improved_sampling,
        )
        # Inverter-chain events past the run horizon never execute in the
        # event kernel (run_until stops there), so they produce no decision.
        # The tap's times never decrease, so the executed ones are a prefix.
        clock_times = clock_times[:clock_times.searchsorted(duration, side="right")]

        # --- sampler: decide DDIN at every rising clock edge ----------------
        # Both taps start low and flip at every stage-0 change, so the
        # rising edges are every other tap time from the first.
        sample_times = clock_times[::2]
        # DDIN before each sample: its initial level, then each edge's value.
        ddin_levels = np.empty(prop_values.size + 1, dtype=np.uint8)
        ddin_levels[0] = level
        ddin_levels[1:] = prop_values
        sampled = ddin_levels[_ddin_index(ddin_times, sample_times)]

        # --- traces (match the event recorder, clipped to the run horizon) --
        # The recorder builds each trace on first access.
        recorder = ArrayRecorder({
            "din": EdgeArrays(edge_times, edge_values, initial_value=level),
            "ddin": EdgeArrays(ddin_times, prop_values, initial_value=level,
                               horizon_s=duration),
            # EDET toggles at every edge, from its initial high level.
            "edet": EdgeArrays(edet_times, initial_value=1, horizon_s=duration),
            "clock": EdgeArrays(clock_times, initial_value=_CLOCK_INITIAL),
            "dout": DecisionEdges(sample_times, sampled, config.sampler_delay_s,
                                  horizon_s=duration),
        })

        # Sample times never decrease: the decisions from start_time on are
        # a suffix.
        valid = int(sample_times.searchsorted(start_time, side="left"))
        return BehavioralSimulationResult(
            config=config,
            transmitted_bits=bits,
            stream=stream,
            recorder=recorder,
            sample_times_s=sample_times[valid:].copy(),
            sampled_bits=sampled[valid:],
            duration_s=duration,
        )
