"""Capability-aware channel-backend registry.

Lives beside the engines (below the sweep layer) so both
:mod:`repro.core.multichannel` and :mod:`repro.sweep` can import it
downward without a cycle.

Each backend is registered as a :class:`BackendSpec` declaring the
*capabilities* it provides.  A :class:`~repro.core.config.CdrChannelConfig`
*demands* capabilities (today only :data:`CAP_GATE_JITTER`, demanded when
any per-gate delay jitter is configured), and resolution matches the two:

* ``backend="auto"`` picks the fastest backend whose capabilities cover the
  config's demands — the vectorized fast path on deterministic-delay
  configurations (where it is exactly equivalent to the event kernel), the
  event kernel as soon as per-gate jitter is in play;
* forcing a named backend that lacks a demanded capability raises a
  ``ValueError`` naming the offending capability instead of silently
  returning non-equivalent results (the fast path's jitter draws agree with
  the event kernel only in distribution — see PERFORMANCE.md).

The built-in registry holds two backends, ``"fast"`` and ``"event"``.

Constructing :class:`~repro.fastpath.engine.FastCdrChannel` directly remains
the documented escape hatch for statistical studies that want the fast
path's jitter sampling anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.cdr_channel import BehavioralCdrChannel
from ..core.config import CdrChannelConfig
from .engine import FastCdrChannel

__all__ = [
    "CAP_GATE_JITTER",
    "AUTO_BACKEND",
    "BackendSpec",
    "BACKENDS",
    "register_backend",
    "required_capabilities",
    "resolve_backend",
    "make_channel",
]

#: Capability demanded by configurations with per-gate delay jitter
#: (``gate_jitter_sigma_fraction > 0`` on the edge-detector/clock-path cells
#: or ``jitter_sigma_fraction > 0`` on the ring oscillator): the backend's
#: per-event jitter draws must match the event kernel draw for draw.
CAP_GATE_JITTER = "per-gate-delay-jitter"

#: Pseudo backend name resolved per configuration at ``make_channel`` time.
AUTO_BACKEND = "auto"


@dataclass(frozen=True)
class BackendSpec:
    """One registered channel backend and the capabilities it provides.

    Attributes
    ----------
    name:
        Registry key (``"event"``, ``"fast"``, ...).
    factory:
        ``factory(config) -> channel`` constructor.
    capabilities:
        Capability names this backend supports exactly (i.e. with
        event-kernel-equivalent semantics).
    priority:
        Resolution order for ``backend="auto"``: among the backends whose
        capabilities cover a config's demands, the lowest priority wins, so
        faster backends get smaller numbers.
    """

    name: str
    factory: Callable[[CdrChannelConfig | None], object]
    capabilities: frozenset[str]
    priority: int

    def missing_capabilities(self, config: CdrChannelConfig | None) -> frozenset[str]:
        """Capabilities *config* demands that this backend does not provide."""
        return required_capabilities(config) - self.capabilities

    def create(self, config: CdrChannelConfig | None = None):
        """Instantiate the backend for *config*, enforcing its capabilities."""
        missing = self.missing_capabilities(config)
        if missing:
            raise _capability_error(self.name, missing)
        return self.factory(config)

    def __call__(self, config: CdrChannelConfig | None = None):
        return self.create(config)


def _capability_error(name: str, missing: frozenset[str]) -> ValueError:
    """The one place the capability-violation message is built."""
    return ValueError(
        f"backend {name!r} does not support "
        f"{sorted(missing)} demanded by this configuration; "
        'use backend="event" for a draw-for-draw jittered reference '
        'or backend="auto" to resolve automatically'
    )


#: Channel simulation backends, by name (capability-aware registry).
BACKENDS: dict[str, BackendSpec] = {}


def register_backend(name: str, factory: Callable, *, capabilities=(),
                     priority: int = 100) -> BackendSpec:
    """Register a channel backend; returns (and stores) its :class:`BackendSpec`.

    Register at *module scope* (not under an ``if __name__`` guard) if the
    backend will run through the parallel sweep pool: pool workers that are
    spawned rather than forked re-import modules and only see registrations
    that happen at import time.
    """
    if name == AUTO_BACKEND:
        raise ValueError(f"{AUTO_BACKEND!r} is reserved for automatic resolution")
    spec = BackendSpec(name=name, factory=factory,
                       capabilities=frozenset(capabilities), priority=priority)
    BACKENDS[name] = spec
    return spec


register_backend("fast", FastCdrChannel, capabilities=(), priority=0)
register_backend("event", BehavioralCdrChannel,
                 capabilities=(CAP_GATE_JITTER,), priority=10)


def required_capabilities(config: CdrChannelConfig | None) -> frozenset[str]:
    """Capabilities *config* demands from an exactly-equivalent backend."""
    config = config or CdrChannelConfig()
    if (config.gate_jitter_sigma_fraction > 0.0
            or config.oscillator.jitter_sigma_fraction > 0.0):
        return frozenset((CAP_GATE_JITTER,))
    return frozenset()


def resolve_backend(config: CdrChannelConfig | None = None,
                    backend: str = AUTO_BACKEND) -> BackendSpec:
    """Resolve *backend* for *config* to a concrete :class:`BackendSpec`.

    ``"auto"`` returns the fastest registered backend that covers every
    capability the configuration demands.  A named backend is returned as-is
    but raises a ``ValueError`` naming the offending capability when the
    configuration demands something it cannot provide exactly.
    """
    if backend == AUTO_BACKEND:
        required = required_capabilities(config)
        candidates = [spec for spec in BACKENDS.values()
                      if required <= spec.capabilities]
        if not candidates:
            raise ValueError(
                f"no registered backend provides {sorted(required)}")
        return min(candidates, key=lambda spec: spec.priority)
    try:
        spec = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted([*BACKENDS, AUTO_BACKEND])}"
        ) from None
    missing = spec.missing_capabilities(config)
    if missing:
        raise _capability_error(spec.name, missing)
    return spec


def make_channel(config: CdrChannelConfig | None = None,
                 backend: str = AUTO_BACKEND):
    """Instantiate a channel model for *backend* (``"auto"`` resolves per config)."""
    return resolve_backend(config, backend).factory(config)
