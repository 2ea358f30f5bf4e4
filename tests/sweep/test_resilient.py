"""Failure isolation, checkpoint/resume and pool robustness of the resilient runner."""

import json

import numpy as np
import pytest

from repro.sweep.faults import CrashInPool, FailEveryNth
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

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError, match="failure policy"):
            map_tasks_resilient(_draw, TASKS, failure_policy="explode")
        with pytest.raises(ValueError, match="chunk_size"):
            map_tasks_resilient(_draw, TASKS, chunk_size=0)

    def test_retry_policy_is_rejected_before_any_task_runs(self):
        # A worker is deterministic in (task, seed child): a retry could
        # only raise again, so the runner has no retry policy.
        _CALLS.clear()
        with pytest.raises(ValueError, match="unknown failure policy 'retry'"):
            map_tasks_resilient(_counting_raiser, TASKS, seed=0, workers=1, failure_policy="retry")
        assert _CALLS == []


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

    def test_worker_process_death_is_journalled_as_a_rebuild(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        crasher = CrashInPool(_draw, indices=(3,))
        map_tasks_resilient(
            crasher, TASKS, seed=42, workers=2, chunk_size=5, checkpoint=checkpoint
        )
        body = _journal(checkpoint)[1:]
        assert body[3]["mode"] == "serial-degraded"
        assert body[4]["progress"]["pool"] == ["rebuild"]
        assert "pool" not in body[-1]["progress"]
        assert not any("attempts" in record for record in body)
        assert not any("retries" in record.get("progress", {}) for record in body)

    def test_worker_process_death_is_counted_as_a_rebuild(self):
        from repro import telemetry

        crasher = CrashInPool(_draw, indices=(3,))
        with telemetry.trace() as tracer:
            map_tasks_resilient(crasher, TASKS, seed=42, workers=2, chunk_size=5)
        counters = tracer.counters
        assert counters["sweep.pool.rebuilds"] == 1
        assert counters["sweep.tasks.serial-degraded"] >= 1
        assert "sweep.retries" not in counters
        assert "sweep.pool.abandoned" not in counters


def _journal(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _tear(path, keep_lines):
    """Keep the header and *keep_lines* task lines, then a torn partial line."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: 1 + keep_lines]) + '\n{"kind": "poi')


class TestJournal:
    def test_one_file_with_one_line_per_task(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        assert list(tmp_path.iterdir()) == [checkpoint]
        records = _journal(checkpoint)
        assert len(records) == 1 + len(TASKS)
        header = records[0]
        assert header["kind"] == "repro-sweep-checkpoint"
        assert (header["version"], header["n_tasks"], header["seed"]) == (2, len(TASKS), 42)
        assert [record["index"] for record in records[1:]] == TASKS
        for record in records[1:]:
            assert (record["kind"], record["mode"]) == ("point", "serial")
        # Task durations are nondeterministic wall clock — never persisted.
        assert "duration" not in checkpoint.read_text()

    def test_chunk_progress_rides_on_each_chunk_last_line(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        body = _journal(checkpoint)[1:]
        carriers = [position for position, record in enumerate(body) if "progress" in record]
        assert carriers == [2, 5, 8, 9]
        assert [body[position]["progress"]["chunk"] for position in carriers] == [1, 2, 3, 4]
        assert [position for position, record in enumerate(body) if "end" in record] == [9]
        assert body[-1]["progress"] == {
            "chunk": 4,
            "chunks": 4,
            "done": 10,
            "failed": 0,
            "restored": 0,
            "pending": 0,
        }

    def test_wall_clock_is_confined_to_the_timing_object(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        for record in _journal(checkpoint)[1:]:
            if "progress" not in record:
                assert "timing" not in record
                continue
            assert set(record["timing"]) == {"elapsed_s", "throughput_pts_per_s", "eta_s"}
            assert all(isinstance(value, int) for value in record["progress"].values())

    def test_lines_without_timing_and_mode_identical_across_worker_counts(self, tmp_path):
        streams = []
        for workers in (1, 2):
            checkpoint = tmp_path / f"sweep-w{workers}.jsonl"
            map_tasks_resilient(
                _draw, TASKS, seed=42, workers=workers, chunk_size=3, checkpoint=checkpoint
            )
            stripped = []
            for record in _journal(checkpoint):
                record.pop("timing", None)
                record.pop("mode", None)
                stripped.append(json.dumps(record, sort_keys=True))
            streams.append(stripped)
        assert streams[0] == streams[1]

    def test_resume_surfaces_source_mode(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        resumed = map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        assert resumed.values == _reference()
        for audit in resumed.audit:
            assert audit.mode == "checkpoint"
            assert audit.source_mode == "serial"

    def test_failed_points_rerun_and_last_line_wins(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        faulty = FailEveryNth(_draw, every=4)
        map_tasks_resilient(faulty, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        rerun = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint
        )
        assert [audit.index for audit in rerun.audit if audit.mode == "serial"] == [0, 4, 8]
        final = map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        assert final.values == _reference()
        for audit in final.audit:
            assert audit.mode == "checkpoint"
            assert audit.source_mode == "serial"

    def test_raise_aborted_run_has_no_end(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        faulty = FailEveryNth(_draw, every=4)
        with pytest.raises(SweepTaskError):
            map_tasks_resilient(
                faulty,
                TASKS,
                seed=42,
                workers=1,
                chunk_size=3,
                failure_policy="raise",
                checkpoint=checkpoint,
            )
        records = _journal(checkpoint)
        assert len(records) == 1 + 3  # the aborting chunk is journaled
        assert records[-1]["kind"] == "point" and records[-1]["progress"]["failed"] == 1
        assert not any("end" in record for record in records)

    def test_resume_appends_task_lines_and_counts_restored(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        _tear(checkpoint, keep_lines=6)
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        records = _journal(checkpoint)
        assert all(record["kind"] in ("point", "failure") for record in records[1:])
        assert [record["index"] for record in records[1:]] == TASKS
        progress = [record["progress"] for record in records[7:] if "progress" in record]
        assert [entry["chunk"] for entry in progress] == [1, 2]
        assert progress[-1]["restored"] == 6 and progress[-1]["done"] == 4
        assert "end" in records[-1]

    def test_resume_that_restores_everything_appends_nothing(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        before = checkpoint.read_bytes()
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        assert checkpoint.read_bytes() == before

    def test_resume_after_a_torn_tail_keeps_later_resumes_whole(self, tmp_path):
        # Appending straight after the torn text merged the first new line
        # into it, so a second resume lost everything the first one wrote.
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=2, checkpoint=checkpoint)
        _tear(checkpoint, keep_lines=6)
        first = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=2, checkpoint=checkpoint
        )
        assert first.values == _reference()
        assert sum(audit.mode == "checkpoint" for audit in first.audit) == 6
        second = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, chunk_size=2, checkpoint=checkpoint
        )
        assert second.values == _reference()
        assert all(audit.mode == "checkpoint" for audit in second.audit)
        assert len(_journal(checkpoint)) == 1 + len(TASKS)

    def test_fsyncs_one_per_chunk_plus_the_header(self, tmp_path, monkeypatch):
        import os

        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        assert len(calls) == 1 + 4
        _tear(checkpoint, keep_lines=3)
        calls.clear()
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        assert len(calls) == 3  # seven pending tasks in three chunks, no header

    @pytest.mark.parametrize("switch", ["audit_sidecar", "progress_sidecar"])
    def test_sidecar_switches_are_gone(self, tmp_path, switch):
        """The old sidecar opt-outs fail loudly; a checkpointed run writes one file."""
        checkpoint = tmp_path / "sweep.jsonl"
        with pytest.raises(TypeError, match=switch):
            map_tasks_resilient(
                _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint, **{switch: False}
            )
        assert list(tmp_path.iterdir()) == []
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        assert list(tmp_path.iterdir()) == [checkpoint]

    def test_no_checkpoint_means_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1)
        assert list(tmp_path.iterdir()) == []

    def test_manifest_is_in_the_header_but_not_the_identity(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        manifest = {"kind": "repro-run-manifest", "version": 1, "python": "3.12.0"}
        map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint, manifest=manifest
        )
        assert _journal(checkpoint)[0]["manifest"] == manifest
        other = {"kind": "repro-run-manifest", "python": "3.13.1"}
        resumed = map_tasks_resilient(
            _draw, TASKS, seed=42, workers=1, checkpoint=checkpoint, manifest=other
        )
        assert resumed.values == _reference()
        assert all(audit.mode == "checkpoint" for audit in resumed.audit)

    def test_foreign_study_header_is_rejected(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        header = json.loads(lines[0])
        header["key"] = "someone-elses-study"
        checkpoint.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(CheckpointMismatchError, match="different study"):
            map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)

    def test_version_1_checkpoint_is_rejected(self, tmp_path):
        # A v1 file kept its audit and progress history in sidecars that
        # are no longer read; resuming it would drop that history silently.
        checkpoint = tmp_path / "sweep.jsonl"
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)
        records = _journal(checkpoint)
        records[0]["version"] = 1
        v1 = [records[0]]
        v1 += [{"kind": "point", "index": r["index"], "value": r["value"]} for r in records[1:]]
        checkpoint.write_text("".join(json.dumps(record) + "\n" for record in v1))
        with pytest.raises(CheckpointMismatchError, match="version is 1, expected 2"):
            map_tasks_resilient(_draw, TASKS, seed=42, workers=1, checkpoint=checkpoint)


def _earlier_writer_journal(path):
    """The journal of a run cut after its first chunk, as an earlier writer left it.

    Its task lines and failure record carry ``attempts`` (point 1 and the
    failure took two), its progress counts ``retries`` and records an
    ``"abandoned"`` pool, and it has no ``end``.
    """
    v = _reference()
    lines = [
        '{"kind":"repro-sweep-checkpoint","version":2,"key":"earlier","n_tasks":10,"seed":42}',
        f'{{"kind":"point","index":0,"value":{v[0]!r},"mode":"pool","attempts":1}}',
        f'{{"kind":"point","index":1,"value":{v[1]!r},"mode":"pool","attempts":2}}',
        f'{{"kind":"point","index":2,"value":{v[2]!r},"mode":"serial-degraded","attempts":1}}',
        f'{{"kind":"point","index":3,"value":{v[3]!r},"mode":"serial-degraded","attempts":1}}',
        '{"kind":"failure","index":4,"failure":{"index":4,"exception_type":"InjectedFault",'
        '"message":"injected fault at point 4","traceback_tail":"InjectedFault: boom",'
        '"seed_path":[4],"attempts":2},"mode":"serial-degraded","attempts":2,'
        '"progress":{"chunk":1,"chunks":2,"done":4,"failed":1,"restored":0,"retries":2,'
        '"pending":5,"pool":["abandoned"]},'
        '"timing":{"elapsed_s":2.5,"throughput_pts_per_s":2.0,"eta_s":2.5}}',
    ]
    path.write_text("\n".join(lines) + "\n")


class TestEarlierWriterJournal:
    """Journals whose lines carry ``attempts`` and ``retries`` still resume and render."""

    def test_resumes_to_the_seeding_oracle(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        _earlier_writer_journal(checkpoint)
        before = checkpoint.read_bytes()
        resumed = map_tasks_resilient(
            _draw,
            TASKS,
            seed=42,
            workers=1,
            chunk_size=5,
            checkpoint=checkpoint,
            checkpoint_key="earlier",
        )
        assert resumed.values == _reference()
        assert resumed.failures == ()
        assert [audit.mode for audit in resumed.audit] == ["checkpoint"] * 4 + ["serial"] * 6
        sources = [audit.source_mode for audit in resumed.audit[:4]]
        assert sources == ["pool", "pool", "serial-degraded", "serial-degraded"]
        assert checkpoint.read_bytes().startswith(before)
        appended = _journal(checkpoint)[6:]
        assert [record["index"] for record in appended] == [4, 5, 6, 7, 8, 9]
        assert not any("attempts" in record for record in appended)
        assert "retries" not in appended[-1]["progress"]
        assert appended[-1]["end"] is True

    def test_renders_in_the_watch_cli(self, tmp_path, capsys):
        from repro.telemetry.watch import collect_status, main, render_status

        checkpoint = tmp_path / "sweep.jsonl"
        _earlier_writer_journal(checkpoint)
        status = collect_status(checkpoint)
        assert status["run"]["state"] == "in-progress"
        assert status["durable"] == {"points": 4, "failures": 1}
        assert status["modes"] == {"pool": 2, "serial-degraded": 3}
        assert status["run"]["pool_transitions"] == ["abandoned"]
        assert "retries" not in status["run"]
        assert status["completion"] == 0.5
        text = render_status(status)
        assert "in-progress" in text and "abandoned" in text
        assert main([str(checkpoint)]) == 0
        assert "abandoned" in capsys.readouterr().out
