"""Run provenance manifests — the sanctioned home of environment reads.

A :class:`RunManifest` answers "what produced this artifact?" for every
persisted result in the repository: interpreter and library versions, the
platform, the backend names, and — once a study stamps it —
the resolved backend, spec ``content_key`` and seed root.
The same manifest shape lands in three places:

* ``SweepResult.metadata["manifest"]`` (:mod:`repro.experiments.engine`),
* the resilient checkpoint header (:mod:`repro.sweep.resilient`), and
* every ``BENCH_fastpath.json`` entry plus the append-only
  ``bench_history.jsonl`` ledger (``benchmarks/run_bench.py``).

This module is the **only** place allowed to read the process environment
(``platform.*``, ``sys.version*``, library ``__version__`` attributes) —
lint rule ``RPL008`` enforces that everywhere else.  Funnelling every
environment read through :func:`collect_manifest` keeps provenance
complete (a result cannot silently depend on an unrecorded environment
fact) and keeps the reads out of content hashes: manifest fields are
*diagnostics*, never inputs, so two runs on different machines still
produce byte-identical results and differ only in their manifests.

The backend names come from :data:`repro.fastpath.backends.BACKENDS`.

Payloads written by earlier versions, which carried fields since retired,
still load: :meth:`RunManifest.from_dict` ignores keys it does not know.
"""

from __future__ import annotations

import platform
import sys
from dataclasses import asdict, dataclass, replace

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_VERSION",
    "RunManifest",
    "collect_manifest",
]

#: ``kind`` tag of every serialized manifest.
MANIFEST_KIND = "repro-run-manifest"

#: Manifest format version.
MANIFEST_VERSION = 1


def _module_version(name: str) -> str | None:
    """``module.__version__`` for an importable module, else ``None``.

    Import errors mean the library is simply absent from this environment
    (the lint job has no numpy) — that absence *is* the provenance fact
    being recorded.
    """
    try:
        module = __import__(name)
    except ImportError:
        return None
    return getattr(module, "__version__", None)


def _backend_names() -> tuple[str, ...]:
    """Backend names, sorted.

    Imported lazily so manifests remain collectable in numpy-free
    processes (the watch CLI's environment): there the backends cannot
    import and the tuple is honestly empty.
    """
    try:
        from ..fastpath import backends
    except ImportError:
        return ()
    return tuple(sorted(backends.BACKENDS))


@dataclass(frozen=True)
class RunManifest:
    """Frozen provenance record for one run.

    Environment fields are filled by :func:`collect_manifest`; the study
    fields (``backend`` through ``seed``) stay ``None`` until a study
    stamps them via :meth:`stamped`.  Every field is strict-JSON-safe by
    construction (strings, ints, ``None``, tuples of strings).
    """

    python: str
    implementation: str
    platform: str
    machine: str
    numpy: str | None
    backends: tuple[str, ...]
    backend: str | None = None
    content_key: str | None = None
    seed: int | None = None

    def stamped(
        self,
        *,
        backend: str | None = None,
        content_key: str | None = None,
        seed: int | None = None,
    ) -> "RunManifest":
        """A copy with the study-identity fields filled in."""
        return replace(
            self,
            backend=backend if backend is not None else self.backend,
            content_key=content_key if content_key is not None else self.content_key,
            seed=seed if seed is not None else self.seed,
        )

    def to_dict(self) -> dict:
        """Strict-JSON-safe dict with the ``kind``/``version`` envelope."""
        payload: dict = {"kind": MANIFEST_KIND, "version": MANIFEST_VERSION}
        fields = asdict(self)
        fields["backends"] = list(self.backends)
        payload.update(fields)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on a foreign dict."""
        if payload.get("kind") != MANIFEST_KIND:
            raise ValueError(f"not a {MANIFEST_KIND} payload: {payload.get('kind')!r}")
        field_names = {field for field in cls.__dataclass_fields__}
        values = {key: value for key, value in payload.items() if key in field_names}
        values["backends"] = tuple(values.get("backends", ()))
        return cls(**values)


def collect_manifest(
    *,
    backend: str | None = None,
    content_key: str | None = None,
    seed: int | None = None,
) -> RunManifest:
    """Read the environment once and return a :class:`RunManifest`.

    Study identity (*backend*, *content_key*, *seed*) can be stamped here
    directly or later via :meth:`RunManifest.stamped`.
    """
    return RunManifest(
        python=platform.python_version(),
        implementation=sys.implementation.name,
        platform=platform.system(),
        machine=platform.machine(),
        numpy=_module_version("numpy"),
        backends=_backend_names(),
        backend=backend,
        content_key=content_key,
        seed=seed,
    )
