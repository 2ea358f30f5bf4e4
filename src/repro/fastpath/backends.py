"""The two channel backends and the one rule that picks between them.

Lives beside the engines (below the sweep layer) so both
:mod:`repro.core.multichannel` and :mod:`repro.sweep` can import it
downward without a cycle.

``"event"`` is the event kernel, the semantic reference; ``"fast"`` is the
vectorized fast path.  They differ in one fact: only the event kernel draws
per-gate delay jitter event for event (the fast path's jitter draws agree
with it only in distribution — see PERFORMANCE.md).  So:

* ``backend="auto"`` gives ``"event"`` on a configuration with gate or
  oscillator jitter and ``"fast"`` otherwise, where the two are exactly
  equivalent;
* forcing ``"fast"`` on a jittered configuration raises a ``ValueError``
  naming ``per-gate-delay-jitter`` instead of silently returning
  non-equivalent results.

Constructing :class:`~repro.fastpath.engine.FastCdrChannel` directly remains
the documented escape hatch for statistical studies that want the fast
path's jitter sampling anyway.
"""

from __future__ import annotations

from ..core.cdr_channel import BehavioralCdrChannel
from ..core.config import CdrChannelConfig
from .engine import FastCdrChannel

__all__ = [
    "AUTO_BACKEND",
    "BACKENDS",
    "needs_event_kernel",
    "resolve_backend",
    "make_channel",
]

#: Pseudo backend name resolved per configuration by :func:`resolve_backend`.
AUTO_BACKEND = "auto"

#: Channel simulation backends, by name.
BACKENDS = {"fast": FastCdrChannel, "event": BehavioralCdrChannel}


def needs_event_kernel(config: CdrChannelConfig | None) -> bool:
    """True when *config* draws per-gate delay jitter (gate or oscillator)."""
    config = config or CdrChannelConfig()
    return (config.gate_jitter_sigma_fraction > 0.0
            or config.oscillator.jitter_sigma_fraction > 0.0)


def resolve_backend(config: CdrChannelConfig | None = None,
                    backend: str = AUTO_BACKEND) -> str:
    """Resolve *backend* for *config* to the name of a concrete backend.

    ``"auto"`` gives ``"event"`` when :func:`needs_event_kernel` and
    ``"fast"`` otherwise.  A named backend is returned as-is, but an unknown
    name, or ``"fast"`` on a jittered configuration, raises ``ValueError``.
    """
    if backend == AUTO_BACKEND:
        return "event" if needs_event_kernel(config) else "fast"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted([*BACKENDS, AUTO_BACKEND])}"
        )
    if backend == "fast" and needs_event_kernel(config):
        raise ValueError(
            "backend 'fast' does not support ['per-gate-delay-jitter'] "
            "demanded by this configuration; "
            'use backend="event" for a draw-for-draw jittered reference '
            'or backend="auto" to resolve automatically'
        )
    return backend


def make_channel(config: CdrChannelConfig | None = None,
                 backend: str = AUTO_BACKEND):
    """Instantiate a channel model for *backend* (``"auto"`` resolves per config)."""
    return BACKENDS[resolve_backend(config, backend)](config)
