"""Process-wide, content-keyed memo of the link front end's expensive results.

Every :class:`~repro.link.LinkPath` of an equal configuration — each point
of a sweep grid, each candidate of a training search — needs the same
channel response, pulse response, crosstalk superposition and pattern
displacement table.  One bounded least-recently-used memo serves them
all, keyed by the frozen configuration dataclasses themselves (equal
fields hash equal, and equal fields give the same bytes).  Its bounds are
fixed here, not options.

Memoized arrays, including a stored :class:`DfeAdaptation`'s, are made
read-only, so no caller can corrupt a shared entry.  The memo is module
state: spawned sweep workers each hold their own, and a hit returns
exactly the bytes a recompute would.  Hits and misses are counted as the
``link.<cache>_cache.{hits,misses}`` telemetry counters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, TypeVar

import numpy as np

from .. import telemetry
from .equalization import DfeAdaptation

__all__ = ["MEMO_MAX_BYTES", "MEMO_MAX_ENTRIES", "clear_link_memo", "memo_size", "memoized"]

#: Past either bound the least recently used entries are dropped (an entry
#: larger than the byte bound on its own is returned but never kept).
MEMO_MAX_ENTRIES = 256
MEMO_MAX_BYTES = 64 * 2**20

_T = TypeVar("_T")

#: ``key -> (value, nbytes)``, least recently used first.
_MEMO: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
#: Running total of the ``nbytes`` in :data:`_MEMO` (summing on demand would
#: re-hash every key: iterating an ``OrderedDict`` looks each key up).
_held_bytes = 0


def clear_link_memo() -> None:
    """Forget every memoized response, crosstalk waveform and table."""
    global _held_bytes
    _MEMO.clear()
    _held_bytes = 0


def memo_size() -> tuple[int, int]:
    """``(entries, bytes)`` currently held."""
    return len(_MEMO), _held_bytes


def _freeze(value) -> int:
    """Make every array of a memo value read-only; return their bytes."""
    if isinstance(value, DfeAdaptation):
        value = tuple(vars(value).values())
    if isinstance(value, tuple):
        return sum(_freeze(item) for item in value)
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.nbytes
    return 0


def memoized(key: tuple, compute: Callable[[], _T], *, evict_first: bool = False) -> _T:
    """``compute()``, memoized under *key*, whose first item names the cache.

    With *evict_first* a new entry goes where the bounds drop entries
    first, as if least recently used; a hit moves it to the back as usual.
    It marks an intermediate that pays only while the memo has room — one
    whose result has an entry of its own — so keeping it never pushes out
    that result or a displacement table.
    """
    global _held_bytes
    entry = _MEMO.get(key)
    if telemetry.ACTIVE:
        telemetry.ACTIVE.count(f"link.{key[0]}_cache.{'misses' if entry is None else 'hits'}")
    if entry is not None:
        _MEMO.move_to_end(key)
        return entry[0]
    value = compute()
    nbytes = _freeze(value)
    _MEMO[key] = (value, nbytes)
    if evict_first:
        _MEMO.move_to_end(key, last=False)
    _held_bytes += nbytes
    while len(_MEMO) > MEMO_MAX_ENTRIES or _held_bytes > MEMO_MAX_BYTES:
        _held_bytes -= _MEMO.popitem(last=False)[1][1]
    return value
