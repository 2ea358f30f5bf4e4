"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs the
computation once, asserts its shape, and writes the regenerated series/table
as plain text into ``benchmarks/results/`` so the numbers behind
EXPERIMENTS.md can be inspected and re-plotted without re-running anything.
These are plain tests; timings live in ``run_bench.py``'s ledger
(``benchmarks/results/bench_history.jsonl``).
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory the regenerated tables and series are written to."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Return a writer ``save(name, text)`` for regenerated figure data."""

    def _save(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text)
        return path

    return _save


@pytest.fixture(scope="session")
def save_sweep_result(results_dir):
    """Return a writer ``save(result)`` for engine sweep results.

    Persists a :class:`repro.experiments.SweepResult` as lossless JSON
    (``<name>.json``, reloadable with ``SweepResult.load``) plus a
    long-format CSV companion — the serialized engine output replaces the
    hand-formatted text files the sweep benchmarks used to write.
    """

    def _save(result, name: str | None = None) -> Path:
        stem = name or result.name
        path = results_dir / f"{stem}.json"
        result.save(path)
        (results_dir / f"{stem}.csv").write_text(result.to_csv())
        return path

    return _save
