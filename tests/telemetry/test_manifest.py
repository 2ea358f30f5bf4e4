"""Run provenance manifests: collection, stamping, serialization, stamping sites."""

import pytest

from repro._jsonio import dumps_strict, loads_strict
from repro.fastpath import backends as backend_registry
from repro.telemetry.manifest import (
    MANIFEST_KIND,
    MANIFEST_VERSION,
    RunManifest,
    collect_manifest,
)


class TestCollect:
    def test_environment_fields_are_populated(self):
        manifest = collect_manifest()
        assert manifest.python.count(".") == 2
        assert manifest.implementation == "cpython"
        assert manifest.platform
        assert manifest.machine
        # numpy is importable in the test environment.
        assert manifest.numpy is not None

    def test_capability_snapshot_matches_registry(self):
        assert collect_manifest().backends == tuple(sorted(backend_registry.BACKENDS))

    def test_capability_snapshot_is_live_not_cached(self):
        backend_registry.register_backend("turbo", lambda config: None)
        try:
            assert "turbo" in collect_manifest().backends
        finally:
            del backend_registry.BACKENDS["turbo"]
        assert "turbo" not in collect_manifest().backends

    def test_study_fields_default_to_none(self):
        manifest = collect_manifest()
        assert (manifest.backend, manifest.content_key, manifest.seed) == (None, None, None)

    def test_study_fields_can_be_collected_directly(self):
        manifest = collect_manifest(backend="events", seed=7)
        assert manifest.backend == "events"
        assert manifest.seed == 7


class TestStamped:
    def test_stamped_fills_only_given_fields(self):
        manifest = collect_manifest().stamped(backend="events", seed=3)
        assert manifest.backend == "events"
        assert manifest.seed == 3
        assert manifest.content_key is None

    def test_stamped_preserves_existing_values(self):
        manifest = collect_manifest(backend="events").stamped(seed=3)
        assert manifest.backend == "events"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            collect_manifest().python = "other"


class TestSerialization:
    def test_to_dict_envelope(self):
        payload = collect_manifest().to_dict()
        assert payload["kind"] == MANIFEST_KIND
        assert payload["version"] == MANIFEST_VERSION
        assert isinstance(payload["backends"], list)

    def test_round_trip(self):
        manifest = collect_manifest(backend="events", seed=11)
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_strict_json_round_trip(self):
        manifest = collect_manifest(seed=11)
        payload = loads_strict(dumps_strict(manifest.to_dict(), sort_keys=True))
        assert RunManifest.from_dict(payload) == manifest

    def test_from_dict_rejects_foreign_kind(self):
        with pytest.raises(ValueError, match=MANIFEST_KIND):
            RunManifest.from_dict({"kind": "something-else"})

    def test_from_dict_ignores_unknown_keys(self):
        payload = collect_manifest().to_dict()
        payload["future_field"] = "ignored"
        RunManifest.from_dict(payload)

    def test_from_dict_loads_payloads_with_retired_fields(self):
        """Checkpoints and saved results written before the kernel-tier
        fields were retired still carry them; loading drops them."""
        payload = collect_manifest(backend="fast", seed=5).to_dict()
        legacy = dict(payload, kernel_tier="python", numba=None,
                      capabilities=["compiled-jit-kernels"])
        manifest = RunManifest.from_dict(legacy)
        assert manifest == RunManifest.from_dict(payload)
        assert (manifest.backend, manifest.seed) == ("fast", 5)
