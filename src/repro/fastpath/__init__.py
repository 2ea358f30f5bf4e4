"""Vectorized fast-path simulation of the gated-oscillator CDR channel.

The event-driven model in :mod:`repro.core.cdr_channel` pays pure-Python
prices on every signal edge (heap events, subscriber dispatch, gate lookups).
Because the CDR topology is *fixed* — jittered NRZ edge stream, delay-line +
XNOR edge detector, gated four-stage ring, decision flip-flop — its behaviour
can be computed as numpy array passes plus one tight re-phasing recurrence,
producing the same :class:`~repro.core.cdr_channel.BehavioralSimulationResult`
surface 10-20x faster.

On configurations without per-gate delay jitter the fast path is equivalent
to the event kernel down to the exact floating-point sample times (see
``tests/fastpath/test_equivalence.py`` and PERFORMANCE.md); with gate jitter
enabled it draws statistically identical but not draw-for-draw identical
jitter, so only distributions (not individual decisions) match.
"""

from .backends import (
    AUTO_BACKEND,
    BACKENDS,
    make_channel,
    needs_event_kernel,
    resolve_backend,
)
from .engine import FastCdrChannel
from .traces import ArrayRecorder, array_trace

__all__ = ["AUTO_BACKEND", "BACKENDS", "make_channel", "needs_event_kernel",
           "resolve_backend", "FastCdrChannel", "ArrayRecorder", "array_trace"]
