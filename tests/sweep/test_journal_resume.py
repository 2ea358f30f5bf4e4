"""Generated resume property: a journal cut anywhere resumes byte-identically.

Anywhere includes inside the header line, which a crash during a fresh
run's first write leaves torn.
"""

import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sweep.resilient import map_tasks_resilient

TASKS = list(range(10))
CHUNK = 3


def _draw(task, rng):
    return float(task) + float(rng.uniform())


def _run(checkpoint=None):
    return map_tasks_resilient(
        _draw, TASKS, seed=42, workers=1, chunk_size=CHUNK, checkpoint=checkpoint
    )


@functools.lru_cache(maxsize=None)
def _uninterrupted() -> tuple[str, bytes]:
    """The values of an uninterrupted run, as JSON, and its complete journal."""
    with tempfile.TemporaryDirectory() as directory:
        checkpoint = Path(directory) / "sweep.jsonl"
        values = _run(checkpoint).values
        return json.dumps(values), checkpoint.read_bytes()


def _check_resume_from(prefix: bytes) -> None:
    """Resume from *prefix*, then resume once more."""
    expected, journal = _uninterrupted()
    # A line is complete once its whole text is there, newline or not.
    ends = [position for position, byte in enumerate(journal) if byte == ord("\n")]
    complete = max(sum(end <= len(prefix) for end in ends) - 1, 0)  # minus the header
    with tempfile.TemporaryDirectory() as directory:
        checkpoint = Path(directory) / "sweep.jsonl"
        checkpoint.write_bytes(prefix)
        resumed = _run(checkpoint)
        assert json.dumps(resumed.values) == expected
        assert sum(audit.mode == "checkpoint" for audit in resumed.audit) == complete
        again = _run(checkpoint)
        assert json.dumps(again.values) == expected
        assert all(audit.mode == "checkpoint" for audit in again.audit)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(offset=st.integers(min_value=0, max_value=10**6))
def test_resume_from_a_generated_byte_offset(offset):
    # Any cut, the header's own bytes included: a torn header is rewritten.
    _, journal = _uninterrupted()
    _check_resume_from(journal[: offset % (len(journal) + 1)])


@pytest.mark.parametrize("newline", [True, False])
@pytest.mark.parametrize("chunks", range(len(TASKS) // CHUNK + 2))
def test_resume_from_a_chunk_boundary(chunks, newline):
    _, journal = _uninterrupted()
    lines = journal.splitlines(keepends=True)
    prefix = b"".join(lines[: 1 + min(chunks * CHUNK, len(TASKS))])
    _check_resume_from(prefix if newline else prefix[:-1])
