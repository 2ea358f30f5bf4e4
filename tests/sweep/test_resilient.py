"""Failure isolation, checkpoint/resume and pool robustness of the resilient runner."""

import numpy as np
import pytest

from repro.sweep.faults import (
    CrashInPool,
    FailEveryNth,
    FailOnceThenSucceed,
    HangInPool,
    reset_fault_state,
)
from repro.sweep.resilient import (
    CheckpointMismatchError,
    SweepTaskError,
    map_tasks_resilient,
)


def _draw(task, rng):
    """Module-level worker (picklable): task value plus a seeded draw."""
    return float(task) + float(rng.uniform())


TASKS = list(range(10))


def _structured(task, rng):
    return {"task": task, "draws": rng.normal(size=3).tolist()}


def _reference(seed=42):
    """The seeding contract itself: task *i* draws from ``SeedSequence(seed).spawn(n)[i]``."""
    children = np.random.SeedSequence(seed).spawn(len(TASKS))
    return [_draw(task, np.random.default_rng(child)) for task, child in zip(TASKS, children)]


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 1, 3, 100])
    def test_matches_seeding_oracle_at_any_worker_and_chunk_count(self, workers, chunk_size):
        result = map_tasks_resilient(_draw, TASKS, seed=42, workers=workers, chunk_size=chunk_size)
        assert result.values == _reference()
        assert result.failures == ()
        assert [audit.index for audit in result.audit] == TASKS

    @pytest.mark.parametrize("workers", [2, 4])
    def test_empty_tasks(self, workers):
        result = map_tasks_resilient(_draw, [], seed=0, workers=workers)
        assert result.values == []
        assert result.failures == ()
        assert result.audit == ()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_task_order(self, workers):
        result = map_tasks_resilient(_draw, [10.0, 20.0, 30.0], seed=1, workers=workers)
        assert [int(value) for value in result.values] == [10, 20, 30]

    def test_different_seeds_differ(self):
        first = map_tasks_resilient(_draw, TASKS, seed=1, workers=1)
        second = map_tasks_resilient(_draw, TASKS, seed=2, workers=1)
        assert first.values != second.values

    def test_task_streams_depend_only_on_seed_and_index(self):
        full = map_tasks_resilient(_structured, ["a", "b", "c"], seed=7, workers=1)
        other = map_tasks_resilient(_structured, ["x", "y", "z"], seed=7, workers=1)
        for first, second in zip(full.values, other.values):
            assert first["draws"] == second["draws"]


def _raise_os_error(task, rng):
    raise OSError(f"worker-level failure for task {task!r}")


_CALLS = []


def _counting_raiser(task, rng):
    _CALLS.append(task)
    raise ValueError(f"bad task {task!r}")


class TestWorkerExceptions:
    """A worker's own exception is a task failure, never a pool-layer fallback."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_os_error_surfaces_with_its_type(self, workers):
        with pytest.raises(SweepTaskError, match="worker-level failure for task 0") as excinfo:
            map_tasks_resilient(
                _raise_os_error, [0, 1], seed=0, workers=workers, failure_policy="raise"
            )
        assert excinfo.value.failure.exception_type == "OSError"

    def test_worker_exception_runs_exactly_once(self):
        _CALLS.clear()
        with pytest.raises(SweepTaskError, match="bad task") as excinfo:
            map_tasks_resilient(_counting_raiser, [0], seed=0, workers=1, failure_policy="raise")
        assert excinfo.value.failure.exception_type == "ValueError"
        assert _CALLS == [0]


class TestFailureIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_collect_reports_exactly_the_injected_points(self, workers):
        faulty = FailEveryNth(_draw, every=4)
        result = map_tasks_resilient(
            faulty, TASKS, seed=42, workers=workers, chunk_size=3, failure_policy="collect"
        )
        assert [failure.index for failure in result.failures] == [0, 4, 8]
        reference = _reference()
        for index in TASKS:
            if index % 4 == 0:
                assert result.values[index] is None
            else:
                assert result.values[index] == reference[index]

    def test_failure_records_are_structured_and_deterministic(self):
        faulty = FailEveryNth(_draw, every=5)
        serial = map_tasks_resilient(faulty, TASKS, seed=1, workers=1)
        pooled = map_tasks_resilient(faulty, TASKS, seed=1, workers=2, chunk_size=4)
        assert serial.failures == pooled.failures
        failure = serial.failures[0]
        assert failure.exception_type == "InjectedFault"
        assert "injected fault at point 0" in failure.message
        assert "InjectedFault" in failure.traceback_tail
        assert failure.seed_path == (0,)
        assert failure.attempts == 1

    def test_failure_round_trips_through_dict(self):
        faulty = FailEveryNth(_draw, every=7)
        failure = map_tasks_resilient(faulty, TASKS, seed=0, workers=1).failures[0]
        assert type(failure).from_dict(failure.to_dict()) == failure

    def test_raise_policy_aborts_with_structured_error(self):
        faulty = FailEveryNth(_draw, every=4, offset=2)
        with pytest.raises(SweepTaskError) as excinfo:
            map_tasks_resilient(faulty, TASKS, seed=42, workers=1, failure_policy="raise")
        assert excinfo.value.failure.index == 2
        assert "InjectedFault" in str(excinfo.value)

    def test_retry_recovers_transient_faults_with_identical_numerics(self):
        reset_fault_state()
        flaky = FailOnceThenSucceed(_draw, indices=(1, 5), tag="retry-test")
        result = map_tasks_resilient(
            flaky, TASKS, seed=42, workers=1, failure_policy="retry", max_retries=1
        )
        assert result.failures == ()
        assert result.values == _reference()
        attempts = {audit.index: audit.attempts for audit in result.audit}
        assert attempts[1] == 2 and attempts[5] == 2
        assert attempts[0] == 1

    def test_retry_budget_exhaustion_collects(self):
        faulty = FailEveryNth(_draw, every=3)  # fails on every attempt
        result = map_tasks_resilient(
            faulty, TASKS, seed=42, workers=1, failure_policy="retry", max_retries=2
        )
        assert [failure.index for failure in result.failures] == [0, 3, 6, 9]
        assert all(failure.attempts == 3 for failure in result.failures)

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError, match="failure policy"):
            map_tasks_resilient(_draw, TASKS, failure_policy="explode")
        with pytest.raises(ValueError, match="chunk_size"):
            map_tasks_resilient(_draw, TASKS, chunk_size=0)
        with pytest.raises(ValueError, match="max_retries"):
            map_tasks_resilient(_draw, TASKS, max_retries=-1)
        for timeout in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="chunk_timeout_s"):
                map_tasks_resilient(_draw, TASKS, workers=2, chunk_timeout_s=timeout)


class TestCheckpointResume:
    def test_resume_runs_only_missing_and_failed_points(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        faulty = FailEveryNth(_draw, every=4)
        partial = map_tasks_resilient(
            faulty, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        assert [failure.index for failure in partial.failures] == [0, 4, 8]
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        assert resumed.failures == ()
        assert resumed.values == _reference()
        modes = {audit.index: audit.mode for audit in resumed.audit}
        for index in TASKS:
            expected = "serial" if index % 4 == 0 else "checkpoint"
            assert modes[index] == expected

    def test_interrupted_chunk_boundary_resume_is_bit_identical(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        faulty = FailEveryNth(_draw, every=10, offset=6)
        with pytest.raises(SweepTaskError):
            map_tasks_resilient(
                faulty,
                TASKS,
                seed=42,
                workers=1,
                chunk_size=2,
                failure_policy="raise",
                checkpoint=checkpoint,
            )
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=2, chunk_size=2, checkpoint=checkpoint
        )
        assert resumed.values == _reference()

    def test_truncated_checkpoint_tail_is_tolerated(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        # Simulate a crash mid-append: drop two records, leave a torn line.
        checkpoint.write_text("\n".join(lines[:-2]) + '\n{"kind": "poi')
        resumed = map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        assert resumed.values == _reference()
        restored = sum(audit.mode == "checkpoint" for audit in resumed.audit)
        assert restored == len(TASKS) - 2

    def test_key_mismatch_raises_instead_of_mixing_studies(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        with pytest.raises(CheckpointMismatchError, match="different study"):
            map_tasks_resilient(_draw, TASKS, seed=43, workers=1, checkpoint=checkpoint)
        with pytest.raises(CheckpointMismatchError, match="different study"):
            map_tasks_resilient(_draw, TASKS + [99], seed=42, workers=1, checkpoint=checkpoint)

    def test_non_checkpoint_file_is_rejected(self, tmp_path):
        checkpoint = tmp_path / "other.jsonl"
        checkpoint.write_text("not json at all\n")
        with pytest.raises(CheckpointMismatchError, match="not a sweep checkpoint"):
            map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)

    def test_explicit_checkpoint_key_overrides_content_hash(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint, checkpoint_key="abc"
        )
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint, checkpoint_key="abc"
        )
        assert all(audit.mode == "checkpoint" for audit in resumed.audit)
        with pytest.raises(CheckpointMismatchError):
            map_tasks_resilient(
                _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint, checkpoint_key="xyz"
            )

    def test_checkpoint_is_strict_jsonl(self, tmp_path):
        import json

        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)

        def reject(token):
            raise AssertionError(f"bare non-finite token {token!r} in checkpoint")

        lines = checkpoint.read_text().splitlines()
        assert len(lines) == 1 + len(TASKS)
        for line in lines:
            json.loads(line, parse_constant=reject)


class TestPoolRobustness:
    def test_spawn_failure_degrades_to_serial_with_identical_results(self, monkeypatch):
        import repro.sweep.resilient as resilient

        class NoSpawn:
            def __init__(self, *args, **kwargs):
                raise PermissionError("process spawning disabled")

        monkeypatch.setattr(resilient, "ProcessPoolExecutor", NoSpawn)
        result = map_tasks_resilient(_draw, TASKS, seed=42, workers=4)
        assert result.values == _reference()
        assert all(audit.mode == "serial" for audit in result.audit)

    def test_worker_process_death_degrades_chunk_to_serial(self):
        crasher = CrashInPool(_draw, indices=(3,))
        result = map_tasks_resilient(crasher, TASKS, seed=42, workers=2, chunk_size=5)
        assert result.values == _reference()
        assert result.failures == ()
        modes = {audit.index: audit.mode for audit in result.audit}
        assert modes[3] == "serial-degraded"

    def test_chunk_timeout_degrades_to_serial(self):
        slow = HangInPool(_draw, indices=(1,), sleep_s=2.0)
        result = map_tasks_resilient(
            slow, TASKS, seed=42, workers=2, chunk_size=len(TASKS), chunk_timeout_s=0.4
        )
        assert result.values == _reference()
        assert result.failures == ()
        modes = {audit.index: audit.mode for audit in result.audit}
        assert modes[1] == "serial-degraded"


class TestAuditSidecar:
    def test_sidecar_written_next_to_checkpoint(self, tmp_path):
        import json

        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        sidecar = tmp_path / "sweep.jsonl.audit"
        assert sidecar.exists()
        lines = [json.loads(line) for line in sidecar.read_text().splitlines()]
        assert lines[0]["kind"] == "repro-sweep-audit"
        assert lines[0]["n_tasks"] == len(TASKS)
        records = [line for line in lines[1:] if line["kind"] == "audit"]
        assert sorted(record["index"] for record in records) == TASKS
        assert all(record["mode"] == "serial" for record in records)
        # Durations are nondeterministic wall-clock — never persisted.
        assert "duration" not in sidecar.read_text()

    def test_resume_surfaces_source_mode_and_attempts(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint
        )
        assert resumed.values == _reference()
        for audit in resumed.audit:
            assert audit.mode == "checkpoint"
            assert audit.source_mode == "serial"
            assert audit.source_attempts == 1

    def test_retry_attempts_survive_into_the_sidecar(self, tmp_path):
        reset_fault_state()
        checkpoint = tmp_path / "sweep.jsonl"
        flaky = FailOnceThenSucceed(_draw, indices=(1, 5), tag="sidecar-test")
        map_tasks_resilient(
            flaky,
            TASKS,
            seed=42,
            workers=1,
            failure_policy="retry",
            max_retries=1,
            checkpoint=checkpoint,
        )
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint
        )
        attempts = {audit.index: audit.source_attempts for audit in resumed.audit}
        assert attempts[1] == 2 and attempts[5] == 2
        assert attempts[0] == 1

    def test_failed_points_rerun_and_last_audit_wins(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        faulty = FailEveryNth(_draw, every=4)
        map_tasks_resilient(
            faulty, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        final = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint
        )
        assert final.values == _reference()
        for audit in final.audit:
            assert audit.mode == "checkpoint"
            assert audit.source_mode == "serial"

    def test_resume_without_sidecar_still_works(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        (tmp_path / "sweep.jsonl.audit").unlink()
        resumed = map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        assert resumed.values == _reference()
        for audit in resumed.audit:
            assert audit.mode == "checkpoint"
            assert audit.source_mode is None
            assert audit.source_attempts is None

    @pytest.mark.parametrize("switch", ["audit_sidecar", "progress_sidecar"])
    def test_sidecar_switches_are_gone(self, tmp_path, switch):
        """A checkpointed run always writes both sidecars; the old opt-outs fail loudly."""
        checkpoint = tmp_path / "sweep.jsonl"
        with pytest.raises(TypeError, match=switch):
            map_tasks_resilient(
                _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint, **{switch: False}
            )
        assert list(tmp_path.iterdir()) == []
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        assert (tmp_path / "sweep.jsonl.audit").exists()
        assert (tmp_path / "sweep.jsonl.progress").exists()

    def test_corrupt_sidecar_is_rejected(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        (tmp_path / "sweep.jsonl.audit").write_text("not json at all\n")
        with pytest.raises(CheckpointMismatchError, match="not a sweep audit sidecar"):
            map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)

    def test_torn_sidecar_tail_is_tolerated(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        sidecar = tmp_path / "sweep.jsonl.audit"
        lines = sidecar.read_text().splitlines()
        sidecar.write_text("\n".join(lines[:-2]) + '\n{"kind": "aud')
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint
        )
        assert resumed.values == _reference()
        sources = [audit.source_mode for audit in resumed.audit]
        assert "serial" in sources  # everything durably written still counts
        assert sources[-1] is None  # the torn tail's audits are simply absent


def _progress_records(path):
    import json

    return [json.loads(line) for line in path.read_text().splitlines()]


class TestProgressSidecar:
    def test_event_stream_of_a_healthy_run(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        records = _progress_records(tmp_path / "sweep.jsonl.progress")
        header = records[0]
        assert header["kind"] == "repro-sweep-progress"
        assert header["n_tasks"] == len(TASKS)
        kinds = [record["kind"] for record in records[1:]]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert kinds.count("chunk-start") == kinds.count("chunk-end") == 4
        last = records[-1]
        assert last["done"] == len(TASKS)
        assert (last["failed"], last["restored"], last["pending"]) == (0, 0, 0)

    def test_wall_clock_is_confined_to_the_timing_object(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        for record in _progress_records(tmp_path / "sweep.jsonl.progress")[1:]:
            assert set(record["timing"]) == {
                "elapsed_s",
                "throughput_pts_per_s",
                "eta_s",
            }
            deterministic = {
                key: value for key, value in record.items() if key != "timing"
            }
            assert all(
                isinstance(value, (str, int)) for value in deterministic.values()
            ), deterministic

    def test_non_timing_fields_identical_across_worker_counts(self, tmp_path):
        import json

        streams = []
        for workers in (1, 2):
            checkpoint = tmp_path / f"sweep-w{workers}.jsonl"
            map_tasks_resilient(
                _draw, TASKS, seed=42, workers=workers, chunk_size=3,
                checkpoint=checkpoint,
            )
            stripped = []
            for record in _progress_records(
                tmp_path / f"sweep-w{workers}.jsonl.progress"
            ):
                record.pop("timing", None)
                stripped.append(json.dumps(record, sort_keys=True))
            streams.append(stripped)
        assert streams[0] == streams[1]

    def test_failures_and_retries_are_counted(self, tmp_path):
        reset_fault_state()
        checkpoint = tmp_path / "sweep.jsonl"
        flaky = FailOnceThenSucceed(_draw, indices=(1, 5), tag="progress-test")
        map_tasks_resilient(
            flaky,
            TASKS,
            seed=42,
            workers=1,
            failure_policy="retry",
            max_retries=1,
            checkpoint=checkpoint,
        )
        last = _progress_records(tmp_path / "sweep.jsonl.progress")[-1]
        assert last["kind"] == "end"
        assert last["done"] == len(TASKS)
        assert last["failed"] == 0
        assert last["retries"] == 2

    def test_interrupted_run_has_no_end_record(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        faulty = FailEveryNth(_draw, every=4)
        with pytest.raises(SweepTaskError):
            map_tasks_resilient(
                faulty, TASKS, seed=42, workers=1, chunk_size=3,
                failure_policy="raise", checkpoint=checkpoint,
            )
        kinds = [r["kind"] for r in _progress_records(tmp_path / "sweep.jsonl.progress")]
        assert "end" not in kinds  # absence of "end" == live or interrupted

    def test_resume_appends_fresh_start_and_counts_restored(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        records = _progress_records(tmp_path / "sweep.jsonl.progress")
        starts = [r for r in records if r["kind"] == "start"]
        assert len(starts) == 2
        assert starts[1]["restored"] == len(TASKS)
        assert starts[1]["pending"] == 0
        assert records[-1]["kind"] == "end"

    def test_no_checkpoint_means_no_sidecar(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1)
        assert list(tmp_path.iterdir()) == []

    def test_manifest_lands_in_both_headers(self, tmp_path):
        import json

        checkpoint = tmp_path / "sweep.jsonl"
        manifest = {"kind": "repro-run-manifest", "version": 1, "python": "3.12.0"}
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint, manifest=manifest
        )
        for name in ("sweep.jsonl", "sweep.jsonl.progress"):
            header = json.loads((tmp_path / name).read_text().splitlines()[0])
            assert header["manifest"] == manifest

    def test_manifest_is_not_part_of_the_resume_identity(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint,
            manifest={"kind": "repro-run-manifest", "python": "3.12.0"},
        )
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint,
            manifest={"kind": "repro-run-manifest", "python": "3.13.1"},
        )
        assert resumed.values == _reference()

    def test_corrupt_sidecar_is_rejected(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        (tmp_path / "sweep.jsonl.progress").write_text("not json at all\n")
        with pytest.raises(CheckpointMismatchError, match="not a sweep progress"):
            map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)

    def test_foreign_study_sidecar_is_rejected(self, tmp_path):
        import json

        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        sidecar = tmp_path / "sweep.jsonl.progress"
        lines = sidecar.read_text().splitlines()
        header = json.loads(lines[0])
        header["key"] = "someone-elses-study"
        sidecar.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(CheckpointMismatchError, match="different study"):
            map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)

    def test_torn_sidecar_tail_is_tolerated_on_resume(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        sidecar = tmp_path / "sweep.jsonl.progress"
        sidecar.write_text(sidecar.read_text() + '{"kind": "chu')
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint
        )
        assert resumed.values == _reference()
