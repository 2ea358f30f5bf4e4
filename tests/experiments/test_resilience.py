"""Engine-level resilience: fault isolation, failure records, checkpoint/resume."""

import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._jsonio import dumps_strict, loads_strict
from repro.datapath.nrz import JitterSpec
from repro.experiments import (
    MeasurementPlan,
    ParameterAxis,
    ScenarioSpec,
    StimulusSpec,
    SweepResult,
    ToleranceSearch,
    run_grid,
    run_tolerance_search,
)
from repro.sweep.faults import FaultyStimulus, InjectedFault  # registers the axis
from repro.sweep.resilient import CheckpointMismatchError, SweepTaskError

MILD = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01)
BASE = ScenarioSpec(stimulus=StimulusSpec(n_bits=300), jitter=MILD)
FAULT_AXIS = ParameterAxis("inject_fault", (False, True, False, False))


class TestFailureCollection:
    def test_collect_records_structured_failures_with_coordinates(self):
        result = run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                          failure_policy="collect")
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 1
        assert failure.coordinates == (result.axes[0].labels[1],)
        assert failure.exception_type == "InjectedFault"
        assert "injected stimulus fault" in failure.message
        assert "InjectedFault" in failure.traceback_tail
        assert failure.seed_path == (1,)

    def test_failed_points_report_nan_ber_and_surviving_points_match(self):
        collected = run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                             failure_policy="collect")
        clean = run_grid(
            BASE, [ParameterAxis("inject_fault", (False,) * 4)],
            seed=0, workers=1)
        assert collected.metric("compared")[1] == 0
        assert np.isnan(collected.ber[1])
        for index in (0, 2, 3):
            assert collected.metric("errors")[index] \
                == clean.metric("errors")[index]
            assert collected.metric("compared")[index] \
                == clean.metric("compared")[index]

    def test_default_policy_raises_on_first_failure(self):
        with pytest.raises(SweepTaskError, match="InjectedFault"):
            run_grid(BASE, [FAULT_AXIS], seed=0, workers=1)

    def test_retry_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown failure policy 'retry'"):
            run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                     failure_policy="retry")

    def test_audit_trail_covers_every_point(self):
        result = run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                          failure_policy="collect")
        assert [entry.index for entry in result.audit] == [0, 1, 2, 3]
        assert all(entry.duration_s >= 0.0 for entry in result.audit)

    def test_fault_axis_is_declarative(self):
        # The axis swaps the stimulus; the grid resolves before anything runs.
        from repro.experiments import resolve_grid

        points = resolve_grid(BASE, (FAULT_AXIS,))
        assert isinstance(points[1].stimulus, FaultyStimulus)
        assert points[1].stimulus.fail and not points[0].stimulus.fail
        with pytest.raises(InjectedFault):
            points[1].stimulus.bits()


class TestFailureSerialization:
    def test_failures_survive_the_json_round_trip(self):
        result = run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                          failure_policy="collect")
        restored = SweepResult.from_json(result.to_json())
        assert restored.equals(result)
        assert restored.failures == result.failures

    def test_failures_written_with_attempts_load(self):
        # Earlier writers stored an attempt count in every failure record.
        result = run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                          failure_policy="collect")
        payload = loads_strict(result.to_json())
        for failure in payload["failures"]:
            failure["attempts"] = 1
        restored = SweepResult.from_json(dumps_strict(payload))
        assert restored.equals(result)
        assert restored.failures == result.failures

    def test_audit_is_inmemory_only(self):
        # Wall-clock durations are nondeterministic; serializing them would
        # break the bit-identical resume guarantee.
        result = run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                          failure_policy="collect")
        assert result.audit is not None
        assert "audit" not in result.to_dict()
        assert SweepResult.from_json(result.to_json()).audit is None


class TestCheckpointResume:
    def test_chunk_boundary_interruption_resumes_bit_identical(self, tmp_path):
        """Kill at a chunk boundary; the merged result matches workers=1."""
        checkpoint = tmp_path / "grid.jsonl"
        uninterrupted = run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                                 failure_policy="collect", chunk_size=2)
        # chunk 0 = points (0, 1); point 1 detonates, aborting the grid with
        # the completed chunk already on disk.
        with pytest.raises(SweepTaskError):
            run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                     failure_policy="raise", chunk_size=2,
                     checkpoint=checkpoint)
        resumed = run_grid(BASE, [FAULT_AXIS], seed=0, workers=2,
                           failure_policy="collect", chunk_size=2,
                           checkpoint=checkpoint)
        assert resumed.to_json() == uninterrupted.to_json()
        modes = {entry.index: entry.mode for entry in resumed.audit}
        assert modes[0] == "checkpoint"  # restored, not re-run

    def test_mid_chunk_truncation_resumes_bit_identical(self, tmp_path):
        """Tear the checkpoint mid-record (crash during append) and resume."""
        checkpoint = tmp_path / "grid.jsonl"
        clean_axis = ParameterAxis("inject_fault", (False,) * 4)
        uninterrupted = run_grid(BASE, [clean_axis], seed=0, workers=1,
                                 chunk_size=2)
        run_grid(BASE, [clean_axis], seed=0, workers=1, chunk_size=2,
                 checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == 5  # header + 4 points
        checkpoint.write_text("\n".join(lines[:3]) + '\n{"kind": "point", "in')
        resumed = run_grid(BASE, [clean_axis], seed=0, workers=1,
                           chunk_size=2, checkpoint=checkpoint)
        assert resumed.to_json() == uninterrupted.to_json()
        modes = {entry.index: entry.mode for entry in resumed.audit}
        assert modes[0] == "checkpoint" and modes[1] == "checkpoint"
        assert modes[2] != "checkpoint" and modes[3] != "checkpoint"

    def test_checkpoint_key_covers_the_study_definition(self, tmp_path):
        checkpoint = tmp_path / "grid.jsonl"
        clean_axis = ParameterAxis("inject_fault", (False,) * 4)
        run_grid(BASE, [clean_axis], seed=0, workers=1, checkpoint=checkpoint)
        with pytest.raises(CheckpointMismatchError):
            run_grid(BASE, [clean_axis], seed=1, workers=1,
                     checkpoint=checkpoint)
        with pytest.raises(CheckpointMismatchError):
            run_grid(BASE, [FAULT_AXIS], seed=0, workers=1,
                     failure_policy="collect", checkpoint=checkpoint)

    def test_checkpoint_requires_retain_none(self, tmp_path):
        from dataclasses import replace

        spec = replace(BASE, measurement=MeasurementPlan(retain="results"))
        with pytest.raises(ValueError, match="retain"):
            run_grid(spec, [FAULT_AXIS], seed=0, workers=1,
                     checkpoint=tmp_path / "grid.jsonl")


@functools.lru_cache(maxsize=None)
def _clean_grid_journal() -> tuple[str, bytes]:
    """An uninterrupted 4-point grid's JSON and its complete journal."""
    axis = ParameterAxis("inject_fault", (False,) * 4)
    with tempfile.TemporaryDirectory() as directory:
        checkpoint = Path(directory) / "grid.jsonl"
        result = run_grid(BASE, [axis], seed=0, workers=1, chunk_size=2,
                          checkpoint=checkpoint)
        return result.to_json(), checkpoint.read_bytes()


class TestGeneratedResume:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_cut_journal_resumes_byte_identical(self, fraction):
        expected, journal = _clean_grid_journal()
        header_end = journal.index(b"\n")
        cut = header_end + round(fraction * (len(journal) - header_end))
        axis = ParameterAxis("inject_fault", (False,) * 4)
        with tempfile.TemporaryDirectory() as directory:
            checkpoint = Path(directory) / "grid.jsonl"
            checkpoint.write_bytes(journal[:cut])
            resumed = run_grid(BASE, [axis], seed=0, workers=1, chunk_size=2,
                               checkpoint=checkpoint)
            assert resumed.to_json() == expected
            again = run_grid(BASE, [axis], seed=0, workers=1, chunk_size=2,
                             checkpoint=checkpoint)
            assert again.to_json() == expected
            assert all(entry.mode == "checkpoint" for entry in again.audit)


class TestToleranceSearchResilience:
    def test_collect_leaves_nan_in_the_tolerance_grid(self):
        result = run_tolerance_search(
            BASE, [ParameterAxis("inject_fault", (False, True))],
            ToleranceSearch(maximum=0.2, resolution=0.1, target_errors=5),
            seed=3, workers=1, failure_policy="collect")
        tolerance = result.metric("sj_amplitude_ui_pp")
        assert np.isfinite(tolerance[0])
        assert np.isnan(tolerance[1])
        assert len(result.failures) == 1
        assert result.failures[0].exception_type == "InjectedFault"

    def test_retry_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown failure policy 'retry'"):
            run_tolerance_search(
                BASE, [FAULT_AXIS],
                ToleranceSearch(maximum=0.2, resolution=0.1, target_errors=5),
                seed=3, workers=1, failure_policy="retry")

    def test_checkpointed_search_resumes_bit_identical(self, tmp_path):
        checkpoint = tmp_path / "search.jsonl"
        axis = ParameterAxis("sj_frequency_hz", (2.5e6, 7.5e8))
        search = ToleranceSearch(maximum=0.2, resolution=0.1, target_errors=5)
        uninterrupted = run_tolerance_search(BASE, [axis], search,
                                             seed=3, workers=1)
        run_tolerance_search(BASE, [axis], search, seed=3, workers=1,
                             chunk_size=1, checkpoint=checkpoint)
        resumed = run_tolerance_search(BASE, [axis], search, seed=3,
                                       workers=1, chunk_size=1,
                                       checkpoint=checkpoint)
        assert resumed.to_json() == uninterrupted.to_json()
        assert all(entry.mode == "checkpoint" for entry in resumed.audit)
