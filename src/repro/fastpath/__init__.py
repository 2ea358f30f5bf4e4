"""Vectorized fast-path simulation of the gated-oscillator CDR channel.

The event-driven model in :mod:`repro.core.cdr_channel` pays pure-Python
prices on every signal edge (heap events, subscriber dispatch, gate lookups).
Because the CDR topology is *fixed* — jittered NRZ edge stream, delay-line +
XNOR edge detector, gated four-stage ring, decision flip-flop — its behaviour
can be computed as numpy array passes plus one tight re-phasing recurrence,
producing the same :class:`~repro.core.cdr_channel.BehavioralSimulationResult`
surface 10-20x faster.

The fast path is equivalent to the event kernel down to the exact
floating-point sample times (see ``tests/fastpath/test_equivalence.py`` and
PERFORMANCE.md).  It runs only configurations without per-gate delay
jitter and refuses the rest with the error ``resolve_backend`` gives for
``backend="fast"``; the event kernel runs those.
"""

from .._exports import lazy_exports

__all__ = ["AUTO_BACKEND", "BACKENDS", "make_channel", "needs_event_kernel",
           "resolve_backend", "FastCdrChannel", "ArrayRecorder", "array_trace"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "backends": (
            "AUTO_BACKEND",
            "BACKENDS",
            "make_channel",
            "needs_event_kernel",
            "resolve_backend",
        ),
        "engine": ("FastCdrChannel",),
        "traces": ("ArrayRecorder", "array_trace"),
    },
)
