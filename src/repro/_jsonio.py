"""Strict RFC 8259 JSON helpers shared across layers.

``json.dumps`` happily emits the bare tokens ``NaN`` / ``Infinity`` for
non-finite floats (a tolerance search that never passed, an eye metric of
a closed eye, a BER with zero compared bits).  Those tokens are not
RFC 8259 JSON — strict parsers (and every non-Python consumer) reject
them — so every serialization layer of this repository encodes them
portably and decodes them on load:

* inside *float-typed arrays* non-finite entries become the strings
  ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` (unambiguous there — the
  declared dtype says every entry is a float, and numpy parses the tokens
  right back);
* inside *general payloads* (where strings are legitimate values) a
  non-finite float becomes the tagged object ``{"__nonfinite__": "NaN"}``,
  so a genuine ``"NaN"`` string survives the round-trip untouched.

The helpers were born in :mod:`repro.experiments.results` and moved here
so the sweep layer (:mod:`repro.sweep.resilient` checkpoints worker
return values) can share them without importing the experiments package
upward.  :func:`content_key` canonicalizes arbitrarily nested dataclass /
array structures into a stable SHA-256 digest — the identity of a
checkpoint or cache entry.

Every append-only JSONL file of the repository (sweep journal, telemetry
trace, bench-history ledger) is read through :func:`read_jsonl`, the one
torn-tail-tolerant reader: a crash mid-append tears at most the trailing
line, so parsing stops at the first undecodable line and everything
before it counts.  :class:`Journal` is the one writer of a sweep
journal: an identity header checked by :func:`check_identity`, then
batched appends of one flush and one ``fsync`` each.

The numpy import is guarded: stdlib-only consumers — the CI lint job's
``python -m repro.telemetry.watch`` journal viewer — only ever feed plain
Python values through the codec, and every numpy-specific branch below is
reached exclusively by numpy-typed *inputs*, which cannot exist where
numpy is absent.  Output is byte-identical either way (the non-finite
float checks use :mod:`math`, which accepts numpy scalars too).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

try:
    import numpy as np
except ImportError:  # numpy-free consumers (telemetry watch in the lint job)
    np = None

#: isinstance() targets that exist only where numpy imported; the empty
#: tuple makes every numpy branch statically unreachable without it.
_NP_ARRAY = () if np is None else (np.ndarray,)
_NP_BOOL = () if np is None else (np.bool_,)
_NP_FLOAT = (float,) if np is None else (float, np.floating)
_NP_INT = () if np is None else (np.integer,)

__all__ = [
    "NONFINITE_TOKENS",
    "dumps_strict",
    "dumps_compact",
    "loads_strict",
    "encode_float",
    "encode_float_array",
    "encode_json_value",
    "decode_json_value",
    "canonical_payload",
    "content_key",
    "CHECKPOINT_KIND",
    "CheckpointMismatchError",
    "read_jsonl",
    "check_identity",
    "Journal",
]

#: Sentinel string -> non-finite float value (the decoding table).
NONFINITE_TOKENS = {
    "NaN": float("nan"),
    "Infinity": float("inf"),
    "-Infinity": float("-inf"),
}

_NONFINITE_TAG = "__nonfinite__"
_LITERAL_TAG = "__literal__"


def dumps_strict(payload, *, indent: int | None = None, sort_keys: bool = False) -> str:
    """``json.dumps`` with ``allow_nan=False`` — the only sanctioned serializer.

    Every persisted JSON document in this repository goes through here (or
    :func:`dumps_compact`); a bare ``NaN`` / ``Infinity`` token raises
    ``ValueError`` at write time instead of corrupting a file that strict
    parsers reject.  Separators follow the ``json.dumps`` defaults so
    existing golden-pinned serializations stay byte-identical.
    """
    return json.dumps(payload, indent=indent, sort_keys=sort_keys, allow_nan=False)


def dumps_compact(payload, *, sort_keys: bool = False) -> str:
    """Strict JSON with compact separators — the JSONL record form.

    Sweep journal lines and telemetry trace records are all written in
    this shape, one record per line.
    """
    return json.dumps(payload, sort_keys=sort_keys, allow_nan=False, separators=(",", ":"))


def _reject_nonfinite_constant(token: str):
    raise ValueError(
        f"non-RFC-8259 token {token!r} in JSON input; strict documents encode "
        f"non-finite floats as sentinel strings (see repro._jsonio)"
    )


def loads_strict(text: str):
    """``json.loads`` that rejects the bare ``NaN`` / ``Infinity`` tokens.

    Documents written by :func:`dumps_strict` / :func:`dumps_compact` never
    contain them, so a hit means the file was produced by an unsanctioned
    serializer — better to fail loudly than to silently import a float that
    the strict writers could never round-trip.  Malformed JSON raises
    ``json.JSONDecodeError`` exactly as ``json.loads`` does.
    """
    return json.loads(text, parse_constant=_reject_nonfinite_constant)


def _is_tagged(value: dict) -> bool:
    return set(value) == {_NONFINITE_TAG} or set(value) == {_LITERAL_TAG}


def encode_float(value: float) -> float | str:
    """One float as itself, or as its sentinel string when non-finite."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def encode_float_array(values: np.ndarray) -> list:
    """``ndarray.tolist()`` with non-finite floats as sentinel strings."""
    if np.all(np.isfinite(values)):
        return values.tolist()

    def encode(node):
        if isinstance(node, list):
            return [encode(child) for child in node]
        return encode_float(node)

    return encode(values.tolist())


def encode_json_value(value):
    """Recursively make *value* strict-JSON-safe, tagging non-finite floats.

    A non-finite float becomes ``{"__nonfinite__": <token>}`` so that
    legitimate payload *strings* like ``"NaN"`` stay distinguishable; a
    genuine dict that happens to look like a tag is escaped as
    ``{"__literal__": <encoded dict>}``, keeping the round-trip lossless
    for every input.  Numpy scalars and arrays are converted to their
    Python equivalents (ints, floats, nested lists) so checkpointed
    worker payloads never hit ``json.dumps`` type errors.
    """
    if isinstance(value, dict):
        encoded = {key: encode_json_value(child) for key, child in value.items()}
        if _is_tagged(value):
            return {_LITERAL_TAG: encoded}
        return encoded
    if isinstance(value, (list, tuple)):
        return [encode_json_value(child) for child in value]
    if isinstance(value, _NP_ARRAY):
        return [encode_json_value(child) for child in value.tolist()]
    if isinstance(value, _NP_BOOL):
        return bool(value)
    if isinstance(value, _NP_FLOAT):
        value = float(value)
        if not math.isfinite(value):
            return {_NONFINITE_TAG: encode_float(value)}
        return value
    if isinstance(value, _NP_INT):
        return int(value)
    return value


def decode_json_value(value):
    """Inverse of :func:`encode_json_value` (tagged objects back to values)."""
    if isinstance(value, dict):
        if set(value) == {_NONFINITE_TAG} and value[_NONFINITE_TAG] in NONFINITE_TOKENS:
            return NONFINITE_TOKENS[value[_NONFINITE_TAG]]
        if set(value) == {_LITERAL_TAG} and isinstance(value[_LITERAL_TAG], dict):
            literal = value[_LITERAL_TAG]
            return {key: decode_json_value(child) for key, child in literal.items()}
        return {key: decode_json_value(child) for key, child in value.items()}
    if isinstance(value, list):
        return [decode_json_value(child) for child in value]
    return value


def canonical_payload(value):
    """A deterministic, JSON-serializable shadow of *value*.

    Dataclasses become ``{type name: {field: ...}}`` maps, numpy arrays
    nested lists tagged with their dtype, tuples lists, dict keys strings
    (sorted at dump time), non-finite floats their sentinel strings.
    Anything unrecognized falls back to ``repr`` — good enough for the
    identity of frozen specification objects, which is the only use.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: canonical_payload(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, "fields": fields}
    if isinstance(value, dict):
        return {str(key): canonical_payload(child) for key, child in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_payload(child) for child in value]
    if isinstance(value, _NP_ARRAY):
        return {
            "__ndarray__": str(value.dtype),
            "values": [canonical_payload(child) for child in value.tolist()],
        }
    if isinstance(value, _NP_BOOL):
        return bool(value)
    if isinstance(value, _NP_FLOAT):
        return encode_float(float(value))
    if isinstance(value, _NP_INT):
        return int(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def content_key(value) -> str:
    """Stable SHA-256 hex digest of *value*'s canonical payload."""
    text = json.dumps(
        canonical_payload(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- JSONL files ---------------------------------------------------------------

#: Header ``kind`` of a sweep journal (:mod:`repro.sweep.resilient` writes
#: it, the numpy-free :mod:`repro.telemetry.watch` reads it).
CHECKPOINT_KIND = "repro-sweep-checkpoint"


class CheckpointMismatchError(ValueError):
    """The journal on disk is not a sweep journal, or belongs to another study."""


def read_jsonl(path: str | Path) -> tuple[list[dict], str | None, int]:
    """``(records, torn, intact_bytes)`` of a JSONL file.

    *records* are the JSON objects of every complete line, blank lines
    skipped.  Parsing stops at the first line that is not a JSON object
    (the signature of a crash or an in-flight append); its text comes
    back as *torn* (``None`` for an intact file) and *intact_bytes* is
    the byte length of the prefix before it.
    """
    records: list[dict] = []
    intact = 0
    for line in Path(path).read_bytes().splitlines(keepends=True):
        if line.strip():
            try:
                record = loads_strict(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                record = None
            if not isinstance(record, dict):
                return records, line.decode("utf-8", "replace").rstrip("\r\n"), intact
            records.append(record)
        intact += len(line)
    return records, None, intact


def check_identity(
    path: str | Path, records: list[dict], identity: dict, torn: str | None = None
) -> dict:
    """The header ``records[0]`` of a sweep journal, checked against *identity*.

    Raises :class:`CheckpointMismatchError` unless the header's ``kind``
    is :data:`CHECKPOINT_KIND` and every other field of *identity* (for
    a resume: version, key, task count, seed) matches it exactly.  The
    one exception is a file holding nothing but a torn header (pass the
    *torn* text :func:`read_jsonl` returned): it gives the empty header
    ``{}``, a journal that stored nothing.
    """
    if not records and _is_torn_header(path, torn):
        return {}
    header = records[0] if records else {}
    if header.get("kind") != CHECKPOINT_KIND:
        raise CheckpointMismatchError(
            f"{path} is not a sweep checkpoint (kind {header.get('kind')!r})"
        )
    for name, expected in identity.items():
        if header.get(name) != expected:
            raise CheckpointMismatchError(
                f"checkpoint {path} belongs to a different study: "
                f"{name} is {header.get(name)!r}, expected {expected!r}"
            )
    return header


#: How every journal header line starts (:class:`Journal` writes ``kind`` first).
_HEADER_START = dumps_compact({"kind": CHECKPOINT_KIND})[:-1] + ","


def _is_torn_header(path: str | Path, torn: str | None) -> bool:
    """Whether the file at *path* is the trace of a crash during its header write.

    :class:`Journal` fsyncs the header line on its own before any other
    line, so such a crash leaves one unterminated line: a prefix of
    ``{"kind":"repro-sweep-checkpoint",`` or that text and more.  A file
    with a line ending, or starting any other way, is not one.
    """
    if torn is None or not (_HEADER_START.startswith(torn) or torn.startswith(_HEADER_START)):
        return False
    return b"\n" not in Path(path).read_bytes()


class Journal:
    """One append-only JSONL file under an identity header.

    :meth:`load` returns the body records of an existing file whose
    header matches *identity*, or writes the header (*identity* plus the
    diagnostic *manifest*, which is not compared) to a new one — or over
    a torn header, the trace of a crash during a fresh run's first write,
    which stored nothing.  Any other file without a valid header raises
    :class:`CheckpointMismatchError` and is left as it is.
    :meth:`append` writes a batch of pre-serialized lines with one flush
    and one ``fsync``.  The first append after a load cuts the file back
    to the intact prefix :func:`read_jsonl` reported, so new lines never
    merge into a torn tail and stay readable by every later load.
    """

    def __init__(self, path: str | Path, identity: dict, manifest: dict | None = None):
        self.path = Path(path)
        self.identity = {"kind": CHECKPOINT_KIND, **identity}
        self.manifest = manifest
        self._intact: int | None = None

    def load(self) -> list[dict]:
        """Body records of the journal on disk (header checked), or ``[]``."""
        if self.path.exists() and self.path.stat().st_size > 0:
            records, torn, self._intact = read_jsonl(self.path)
            if check_identity(self.path, records, self.identity, torn):
                return records[1:]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(self.identity)
        if self.manifest is not None:
            header["manifest"] = self.manifest
        self.append([dumps_compact(header)])
        return []

    def append(self, lines: list[str]) -> None:
        """Append *lines* (one JSON record each) with one flush and one fsync."""
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        with self.path.open("a+b") as handle:
            if self._intact is not None:
                handle.truncate(self._intact)
                handle.seek(max(self._intact - 1, 0))
                if handle.read(1) not in (b"", b"\n"):
                    payload = b"\n" + payload  # the last intact line lacked its newline
                self._intact = None
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
