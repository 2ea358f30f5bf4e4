"""Watch CLI: journal parsing, status assembly, rendering, numpy-free operation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sweep.faults import FailEveryNth
from repro.sweep.resilient import SweepTaskError, map_tasks_resilient
from repro.telemetry import Tracer
from repro.telemetry.watch import collect_status, main, render_status

REPO_ROOT = Path(__file__).resolve().parents[2]


def _draw(task, rng):
    return float(task) + float(rng.uniform())


TASKS = list(range(10))


def _completed_run(tmp_path, manifest=None):
    checkpoint = tmp_path / "sweep.jsonl"
    map_tasks_resilient(
        _draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint,
        manifest=manifest,
    )
    return checkpoint


def _interrupted_run(tmp_path):
    """A sweep killed mid-flight by an injected fault under policy='raise'."""
    checkpoint = tmp_path / "sweep.jsonl"
    faulty = FailEveryNth(_draw, every=4)
    with pytest.raises(SweepTaskError):
        map_tasks_resilient(
            faulty, TASKS, seed=42, workers=1, chunk_size=3,
            failure_policy="raise", checkpoint=checkpoint,
        )
    return checkpoint


class TestCollectStatus:
    def test_completed_run(self, tmp_path):
        status = collect_status(_completed_run(tmp_path))
        assert status["run"]["state"] == "completed"
        assert status["completion"] == 1.0
        assert status["run"]["done"] == len(TASKS)
        assert status["run"]["chunks_done"] == status["run"]["chunks_planned"] == 4
        assert status["durable"] == {"points": len(TASKS), "failures": 0}
        assert status["torn_tail"] is False
        assert status["modes"] == {"serial": len(TASKS)}

    def test_interrupted_run_reads_in_progress(self, tmp_path):
        status = collect_status(_interrupted_run(tmp_path))
        assert status["run"]["state"] == "in-progress"
        assert status["durable"]["failures"] == 1
        assert 0 < status["completion"] < 1.0

    def test_manifest_surfaces_from_the_header(self, tmp_path):
        manifest = {"kind": "repro-run-manifest", "python": "3.12.0", "backend": "events"}
        status = collect_status(_completed_run(tmp_path, manifest=manifest))
        assert status["manifest"] == manifest

    def test_resumed_run_counts_its_restored_tasks(self, tmp_path):
        checkpoint = _completed_run(tmp_path)
        lines = checkpoint.read_text().splitlines(keepends=True)
        checkpoint.write_text("".join(lines[: 1 + 6]))
        map_tasks_resilient(_draw, TASKS, seed=42, workers=1, chunk_size=3, checkpoint=checkpoint)
        status = collect_status(checkpoint)
        assert status["run"]["state"] == "completed"
        assert status["run"]["restored"] == 6
        assert status["run"]["done"] == 4
        assert status["run"]["chunks_done"] == status["run"]["chunks_planned"] == 2

    def test_torn_tail_is_flagged_not_fatal(self, tmp_path):
        checkpoint = _interrupted_run(tmp_path)
        checkpoint.write_text(checkpoint.read_text() + '{"kind": "poi')
        status = collect_status(checkpoint)
        assert status["torn_tail"] is True
        assert status["run"]["state"] == "in-progress"
        assert status["durable"] == {"points": 2, "failures": 1}

    def test_torn_header_reads_as_a_run_that_stored_nothing(self, tmp_path):
        # What a crash during a fresh run's header write leaves.
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"kind":"repro-sweep')
        status = collect_status(path)
        assert status["torn_tail"] is True
        assert status["run"]["state"] == "in-progress"
        assert status["durable"] == {"points": 0, "failures": 0}
        assert status["n_tasks"] is None
        assert "torn tail" in render_status(status)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_status(tmp_path / "absent.jsonl")

    def test_wrong_kind_raises_value_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"kind": "repro-telemetry-trace"}\n')
        with pytest.raises(ValueError, match="not a sweep checkpoint"):
            collect_status(path)


class TestRenderStatus:
    def test_tables_present(self, tmp_path):
        manifest = {"kind": "repro-run-manifest", "python": "3.12.0", "backend": "events"}
        text = render_status(collect_status(_completed_run(tmp_path, manifest=manifest)))
        assert "run status" in text
        assert "execution modes" in text
        assert "provenance" in text
        assert "completion" in text

    def test_trace_breakdown_is_appended(self, tmp_path):
        checkpoint = _completed_run(tmp_path)
        tracer = Tracer("study")
        with tracer.span("sweep.chunk"):
            pass
        trace = tracer.write_jsonl(tmp_path / "trace.jsonl")
        text = render_status(collect_status(checkpoint), trace=trace)
        assert "sweep.chunk" in text


class TestCli:
    def test_one_shot_text(self, tmp_path, capsys):
        assert main([str(_completed_run(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "sweep watch" in out and "completed" in out

    def test_json_format_matches_collect_status(self, tmp_path, capsys):
        checkpoint = _completed_run(tmp_path)
        assert main([str(checkpoint), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == collect_status(checkpoint)

    def test_follow_exits_when_completed(self, tmp_path, capsys):
        assert main([str(_completed_run(tmp_path)), "--follow", "--interval", "0.01"]) == 0

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 1
        assert "watch:" in capsys.readouterr().out

    def test_wrong_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"kind": "nope"}\n')
        assert main([str(path)]) == 1
        assert "watch:" in capsys.readouterr().out


class TestNumpyFree:
    def test_watch_works_with_numpy_blocked(self, tmp_path):
        # The acceptance scenario: a sweep is interrupted mid-run, and an
        # operator inspects it from an environment that cannot import
        # numpy (the CI lint job).  Block numpy with a poisoned shadow
        # module on PYTHONPATH and run the real CLI as a subprocess.
        checkpoint = _interrupted_run(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.mkdir()
        (blocker / "numpy.py").write_text(
            'raise ImportError("numpy deliberately blocked for this test")\n'
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(blocker), str(REPO_ROOT / "src")])
        result = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.watch", str(checkpoint),
             "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        status = json.loads(result.stdout)
        assert status["run"]["state"] == "in-progress"
        assert status["durable"]["failures"] == 1
        # Same numbers the in-process (numpy-enabled) reader produces.
        assert status == collect_status(checkpoint)
