"""The backend rule: the jitter predicate, resolution and its errors."""

import re

import numpy as np
import pytest

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.fastpath import FastCdrChannel
from repro.fastpath.backends import (
    AUTO_BACKEND,
    BACKENDS,
    make_channel,
    needs_event_kernel,
    resolve_backend,
)
from repro.gates.ring import GccoParameters

CLEAN = CdrChannelConfig()
GATE_JITTER = CdrChannelConfig(gate_jitter_sigma_fraction=0.01)
OSC_JITTER = CdrChannelConfig(
    oscillator=GccoParameters(jitter_sigma_fraction=0.01))

UNKNOWN = "unknown backend 'warp'; expected one of ['auto', 'event', 'fast']"
JITTERED_FAST = (
    "backend 'fast' does not support ['per-gate-delay-jitter'] demanded by "
    'this configuration; use backend="event" for a draw-for-draw jittered '
    'reference or backend="auto" to resolve automatically'
)

#: (config, backend) -> the resolved name, or the ``ValueError`` text.
RESOLUTION_TABLE = {
    ("clean", "auto"): "fast",
    ("clean", "fast"): "fast",
    ("clean", "event"): "event",
    ("clean", "warp"): ValueError(UNKNOWN),
    ("gate_jitter", "auto"): "event",
    ("gate_jitter", "fast"): ValueError(JITTERED_FAST),
    ("gate_jitter", "event"): "event",
    ("gate_jitter", "warp"): ValueError(UNKNOWN),
    ("osc_jitter", "auto"): "event",
    ("osc_jitter", "fast"): ValueError(JITTERED_FAST),
    ("osc_jitter", "event"): "event",
    ("osc_jitter", "warp"): ValueError(UNKNOWN),
    ("none", "auto"): "fast",
    ("none", "fast"): "fast",
    ("none", "event"): "event",
    ("none", "warp"): ValueError(UNKNOWN),
}
CONFIGS = {"clean": CLEAN, "gate_jitter": GATE_JITTER,
           "osc_jitter": OSC_JITTER, "none": None}


@pytest.mark.parametrize("config_name,backend", list(RESOLUTION_TABLE))
def test_resolution_table(config_name, backend):
    expected = RESOLUTION_TABLE[config_name, backend]
    config = CONFIGS[config_name]
    if isinstance(expected, ValueError):
        for call in (resolve_backend, make_channel):
            with pytest.raises(ValueError) as excinfo:
                call(config, backend)
            assert str(excinfo.value) == str(expected)
        return
    assert resolve_backend(config, backend) == expected
    assert type(make_channel(config, backend)) is BACKENDS[expected]


class TestRequiredCapabilities:
    def test_clean_config_demands_nothing(self):
        assert needs_event_kernel(CLEAN) is False
        assert needs_event_kernel(None) is False

    def test_gate_jitter_demands_capability(self):
        assert needs_event_kernel(GATE_JITTER) is True

    def test_oscillator_jitter_demands_capability(self):
        assert needs_event_kernel(OSC_JITTER) is True


class TestResolution:
    def test_auto_picks_fastest_on_clean_config(self):
        assert resolve_backend(CLEAN, AUTO_BACKEND) == "fast"
        assert isinstance(make_channel(CLEAN, "auto"), FastCdrChannel)

    def test_auto_picks_event_under_gate_jitter(self):
        assert resolve_backend(GATE_JITTER, "auto") == "event"
        assert isinstance(make_channel(GATE_JITTER, "auto"),
                          BehavioralCdrChannel)

    def test_auto_picks_event_under_oscillator_jitter(self):
        assert resolve_backend(OSC_JITTER, "auto") == "event"

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
        with pytest.raises(ValueError, match="per-gate-delay-jitter"):
            make_channel(GATE_JITTER, "fast")

    def test_forcing_fast_on_oscillator_jitter_raises(self):
        with pytest.raises(ValueError, match="per-gate-delay-jitter"):
            make_channel(OSC_JITTER, "fast")

    def test_error_names_backend_and_suggests_auto(self):
        with pytest.raises(ValueError, match=r"'fast'.*auto"):
            make_channel(GATE_JITTER, "fast")

    def test_event_accepts_gate_jitter(self):
        assert isinstance(make_channel(GATE_JITTER, "event"),
                          BehavioralCdrChannel)

    def test_direct_engine_construction_remains_open(self):
        """The documented escape hatch bypasses the backend rule on purpose."""
        channel = FastCdrChannel(GATE_JITTER)
        result = channel.run(np.array([1, 0, 1, 1, 0], dtype=np.uint8),
                             rng=np.random.default_rng(0))
        assert result.ber().compared_bits >= 0


class TestRetiredJitBackend:
    def test_fast_jit_is_an_unknown_backend(self):
        assert set(BACKENDS) == {"event", "fast"}
        message = re.escape("expected one of ['auto', 'event', 'fast']")
        with pytest.raises(ValueError, match=message):
            resolve_backend(CLEAN, "fast+jit")
