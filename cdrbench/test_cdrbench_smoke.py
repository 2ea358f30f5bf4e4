"""Smoke tests of the CDR study benchmark at tiny scale (a few seconds).

Passes run in-process here; ``run.py`` runs each in a fresh interpreter.
"""

import json

import pytest

import bench_pass
import run
from bench_layers import LayerTimers
from repro.fastpath.engine import FastCdrChannel

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One gate pass and one traced pass of every workload, tiny scale."""
    workdir = tmp_path_factory.mktemp("cdrbench")
    seed = bench_pass.gate_seed()
    return {
        workload: (
            bench_pass.run_pass(workload, seed, "tiny", workdir, gate=True),
            bench_pass.run_pass(workload, 5, "tiny", workdir, traced=True),
        )
        for workload in run.WORKLOADS
    }


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_pass_holds_every_check(records, workload):
    gate, traced = records[workload]
    assert gate["digest"] == bench_pass.pinned_digest(workload, "tiny")
    assert all(gate["checks"].values()), gate["checks"]
    assert all(traced["checks"].values()), traced["checks"]
    if workload == "ber_sweep":
        assert gate["checks"]["fast_equals_event"]
    assert gate["manifest"]["kind"] == "repro-run-manifest"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(records, workload):
    gate, traced = records[workload]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.summarize(workload, trace, [gate, traced], 0)
        assert result["correct"] and result["failed"] == 0
        for metric in BENCHMARK[section]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
    end_to_end = run.summarize(workload, False, [gate], 0)["metrics"]
    assert all(end_to_end[name]["value"] > 0 for name in run.END_TO_END_UNITS)


def test_perturbed_digest_trips_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pass, "pinned_digest", lambda *args: "0" * 64)
    seed = bench_pass.gate_seed()
    record = bench_pass.run_pass("gate_jitter_sweep", seed, "tiny", tmp_path, gate=True)
    assert record["checks"]["digest_pinned"] is False
    problems = run.failed_checks([record])
    assert problems == ["pass 0: digest_pinned"]
    result = run.summarize("gate_jitter_sweep", False, [record], len(problems))
    assert result["correct"] is False and result["failed"] == 1


def test_same_seed_passes_must_agree(records):
    _, traced = records["ber_sweep"]
    other = dict(traced, digest="f" * 64)
    assert run.failed_checks([traced, other]) == [
        "passes with the same seed produced different digests"
    ]


def test_layer_timers_restore_the_program():
    original = FastCdrChannel.__dict__["run"]
    with LayerTimers():
        assert FastCdrChannel.__dict__["run"] is not original
    assert FastCdrChannel.__dict__["run"] is original


def test_p99_needs_ten_samples_beyond_it():
    assert run.tail_percentile_ms([0.001] * 999, 99) == 0.0
    assert run.tail_percentile_ms([0.001] * 1000, 99) == pytest.approx(1.0)
