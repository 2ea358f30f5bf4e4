"""Capability-aware backend registry: resolution, errors, extension."""

import re

import numpy as np
import pytest

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.fastpath import FastCdrChannel
from repro.fastpath.backends import (
    AUTO_BACKEND,
    BACKENDS,
    CAP_GATE_JITTER,
    BackendSpec,
    make_channel,
    register_backend,
    required_capabilities,
    resolve_backend,
)
from repro.gates.ring import GccoParameters

CLEAN = CdrChannelConfig()
GATE_JITTER = CdrChannelConfig(gate_jitter_sigma_fraction=0.01)
OSC_JITTER = CdrChannelConfig(
    oscillator=GccoParameters(jitter_sigma_fraction=0.01))


class TestRequiredCapabilities:
    def test_clean_config_demands_nothing(self):
        assert required_capabilities(CLEAN) == frozenset()
        assert required_capabilities(None) == frozenset()

    def test_gate_jitter_demands_capability(self):
        assert required_capabilities(GATE_JITTER) == {CAP_GATE_JITTER}

    def test_oscillator_jitter_demands_capability(self):
        assert required_capabilities(OSC_JITTER) == {CAP_GATE_JITTER}


class TestResolution:
    def test_auto_picks_fastest_on_clean_config(self):
        assert resolve_backend(CLEAN, AUTO_BACKEND).name == "fast"
        assert isinstance(make_channel(CLEAN, "auto"), FastCdrChannel)

    def test_auto_picks_event_under_gate_jitter(self):
        assert resolve_backend(GATE_JITTER, "auto").name == "event"
        assert isinstance(make_channel(GATE_JITTER, "auto"),
                          BehavioralCdrChannel)

    def test_auto_picks_event_under_oscillator_jitter(self):
        assert resolve_backend(OSC_JITTER, "auto").name == "event"

    def test_auto_is_the_default(self):
        assert isinstance(make_channel(GATE_JITTER), BehavioralCdrChannel)
        assert isinstance(make_channel(CLEAN), FastCdrChannel)

    def test_named_backends_still_resolve(self):
        assert isinstance(make_channel(CLEAN, "event"), BehavioralCdrChannel)
        assert isinstance(make_channel(CLEAN, "fast"), FastCdrChannel)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_channel(CLEAN, "warp")

    def test_unknown_backend_error_lists_auto(self):
        with pytest.raises(ValueError, match="auto"):
            make_channel(CLEAN, "warp")


class TestCapabilityErrors:
    def test_forcing_fast_on_gate_jitter_raises(self):
        with pytest.raises(ValueError, match=CAP_GATE_JITTER):
            make_channel(GATE_JITTER, "fast")

    def test_forcing_fast_on_oscillator_jitter_raises(self):
        with pytest.raises(ValueError, match=CAP_GATE_JITTER):
            make_channel(OSC_JITTER, "fast")

    def test_error_names_backend_and_suggests_auto(self):
        with pytest.raises(ValueError, match=r"'fast'.*auto"):
            make_channel(GATE_JITTER, "fast")

    def test_event_accepts_gate_jitter(self):
        assert isinstance(make_channel(GATE_JITTER, "event"),
                          BehavioralCdrChannel)

    def test_spec_create_enforces_capabilities(self):
        with pytest.raises(ValueError, match=CAP_GATE_JITTER):
            BACKENDS["fast"].create(GATE_JITTER)

    def test_direct_engine_construction_remains_open(self):
        """The documented escape hatch bypasses the registry on purpose."""
        channel = FastCdrChannel(GATE_JITTER)
        result = channel.run(np.array([1, 0, 1, 1, 0], dtype=np.uint8),
                             rng=np.random.default_rng(0))
        assert result.ber().compared_bits >= 0


class TestRegistryExtension:
    def test_backendspec_missing_capabilities(self):
        spec = BACKENDS["fast"]
        assert spec.missing_capabilities(GATE_JITTER) == {CAP_GATE_JITTER}
        assert spec.missing_capabilities(CLEAN) == frozenset()

    def test_auto_name_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            register_backend("auto", lambda config: None)

    def test_registered_backend_participates_in_auto(self):
        sentinel = object()
        spec = register_backend("turbo", lambda config: sentinel,
                                capabilities=(CAP_GATE_JITTER,), priority=-1)
        try:
            assert isinstance(spec, BackendSpec)
            assert resolve_backend(GATE_JITTER, "auto").name == "turbo"
            assert make_channel(CLEAN, "turbo") is sentinel
        finally:
            del BACKENDS["turbo"]
        assert resolve_backend(GATE_JITTER, "auto").name == "event"

    def test_priority_orders_auto_resolution(self):
        # fast (priority 0) beats event (priority 10) whenever both qualify.
        assert BACKENDS["fast"].priority < BACKENDS["event"].priority
        assert resolve_backend(CLEAN, "auto").name == "fast"

    def test_no_backend_covers_unknown_capability(self):
        spec = BACKENDS["fast"]
        impossible = frozenset({"quantum-tunnelling"})
        assert impossible - spec.capabilities == impossible


class TestRetiredJitBackend:
    def test_fast_jit_is_an_unknown_backend(self):
        assert set(BACKENDS) == {"event", "fast"}
        message = re.escape("expected one of ['auto', 'event', 'fast']")
        with pytest.raises(ValueError, match=message):
            resolve_backend(CLEAN, "fast+jit")
