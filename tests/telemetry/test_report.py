"""Trace reporting: stage/cache/pool tables, stage_breakdown, history, CLI."""

import json

import pytest

from repro._jsonio import dumps_compact
from repro.telemetry import Tracer
from repro.telemetry.report import (
    HISTORY_KIND,
    HISTORY_VERSION,
    SECONDS_DECIMALS,
    cache_table,
    counter_table,
    history_entry,
    history_summary,
    history_table,
    load_history,
    load_trace,
    main,
    pool_table,
    stage_breakdown,
    stage_table,
    summarize,
)


def _tracer() -> Tracer:
    tracer = Tracer("study")
    with tracer.span("sweep.chunk"):
        with tracer.span("fastpath.run"):
            pass
    tracer.count("link.pulse_cache.hits", 9)
    tracer.count("link.pulse_cache.misses", 1)
    tracer.count("stateye.objective_cache.misses", 4)
    tracer.count("kernel.events", 120)
    tracer.count("sweep.tasks.pool", 8)
    tracer.count("sweep.pool.rebuilds", 1)
    return tracer


class TestLoadTrace:
    def test_accepts_tracer(self):
        trace = load_trace(_tracer())
        assert trace["counters"]["kernel.events"] == 120
        assert len(trace["spans"]) == 2

    def test_accepts_dict_verbatim(self):
        trace = load_trace(_tracer())
        assert load_trace(trace) is trace

    def test_accepts_path(self, tmp_path):
        path = _tracer().write_jsonl(tmp_path / "trace.jsonl")
        assert load_trace(path)["name"] == "study"


class TestStageTable:
    def test_rows_sorted_by_total_time(self):
        table = stage_table(load_trace(_tracer()))
        stages = [row[0] for row in table.rows]
        assert "sweep.chunk" in stages
        assert "sweep.chunk/fastpath.run" in stages
        assert stages[0] == "sweep.chunk"  # outer span dominates

    def test_share_normalized_by_top_level(self):
        table = stage_table(load_trace(_tracer()))
        top = dict(zip([row[0] for row in table.rows], [row[4] for row in table.rows]))
        assert top["sweep.chunk"] == "100.0%"


class TestCacheTable:
    def test_pairs_hits_and_misses(self):
        table = cache_table(load_trace(_tracer()))
        rows = {row[0]: row[1:] for row in table.rows}
        assert rows["link.pulse_cache"] == ["9", "1", "90.0%"]
        # A cache with only misses still reports, at zero rate.
        assert rows["stateye.objective_cache"] == ["0", "4", "0.0%"]


class TestPoolTable:
    def test_only_sweep_counters(self):
        table = pool_table(load_trace(_tracer()))
        names = [row[0] for row in table.rows]
        assert names == ["sweep.pool.rebuilds", "sweep.tasks.pool"]


class TestCounterTable:
    def test_lists_every_counter(self):
        table = counter_table(load_trace(_tracer()))
        assert len(table.rows) == 6


class TestStageBreakdown:
    def test_shape(self):
        breakdown = stage_breakdown(_tracer())
        assert set(breakdown) == {"stages", "caches", "counters"}
        assert breakdown["stages"]["sweep.chunk"]["count"] == 1
        assert breakdown["caches"]["link.pulse_cache"] == {
            "hits": 9,
            "misses": 1,
            "hit_rate": 0.9,
        }
        # Hit/miss counters live under caches, not duplicated as counters.
        assert "link.pulse_cache.hits" not in breakdown["counters"]
        assert breakdown["counters"]["kernel.events"] == 120

    def test_json_safe(self, tmp_path):
        import json

        json.dumps(stage_breakdown(_tracer()), allow_nan=False)

    def test_from_file(self, tmp_path):
        path = _tracer().write_jsonl(tmp_path / "trace.jsonl")
        assert stage_breakdown(path)["counters"]["kernel.events"] == 120


class TestSummarize:
    def test_contains_all_sections(self):
        text = summarize(_tracer())
        assert "stage breakdown" in text
        assert "cache hit rates" in text
        assert "pool health" in text
        assert "link.pulse_cache" in text
        assert "stateye.objective_cache" in text
        assert "sweep.tasks.pool" in text
        assert "kernel.events" in text

    def test_sections_without_data_are_omitted(self):
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        text = summarize(tracer)
        assert "cache hit rates" not in text
        assert "pool health" not in text


def _history_file(tmp_path, speedups_per_run, name="loop"):
    """Write a synthetic bench-history ledger: one record per run."""
    return _ledger(tmp_path, [{"speedup": speedup} for speedup in speedups_per_run], name)


def _ledger(tmp_path, entries_per_run, name="loop", probes_ms=None, decimals=None):
    """Write a bench-history ledger with one *name* entry per run.

    *probes_ms* gives each record's ``host_probe_ms`` and *decimals* its
    ``seconds_decimals``; ``None`` (the list or an item) writes a record
    without the field.
    """
    path = tmp_path / "bench_history.jsonl"
    lines = []
    count = len(entries_per_run)
    for entry, probe_ms, places in zip(
        entries_per_run, probes_ms or [None] * count, decimals or [None] * count
    ):
        record = {
            "kind": HISTORY_KIND,
            "version": HISTORY_VERSION,
            "quick": True,
            "floor": 5,
            "manifest": {"kind": "repro-run-manifest"},
            "entries": {name: entry},
        }
        if probe_ms is not None:
            record["host_probe_ms"] = probe_ms
        if places is not None:
            record["seconds_decimals"] = places
        lines.append(dumps_compact(record))
    path.write_text("\n".join(lines) + "\n")
    return path


STEADY_TRAINING = {"speedup": 2.6e8, "training_s": 0.16}
#: Three steady link-training runs, then one whose solver seconds rose 1.5x.
TRAINING_RISE = [STEADY_TRAINING] * 3 + [{"speedup": 2.6e8, "training_s": 0.24}]


STEADY_LEGS = {"speedup": 40.0, "fast_s": 0.010, "event_s": 0.400}
#: Four records that carry their leg seconds to the microsecond.
MICROSECONDS = [SECONDS_DECIMALS] * 4


def _legs(event_s: float, fast_s: float) -> dict:
    return {"speedup": round(event_s / fast_s, 2), "fast_s": fast_s, "event_s": event_s}


class TestHistory:
    def test_load_history_skips_foreign_and_torn_records(self, tmp_path):
        path = _history_file(tmp_path, [2.0, 3.0])
        with path.open("a") as handle:
            handle.write('{"kind": "other"}\n{"kind": "repro-bench-hist')
        assert len(load_history(path)) == 2

    def test_load_history_rejects_non_ledger(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "nope"}\n')
        with pytest.raises(ValueError, match="no repro-bench-history"):
            load_history(path)

    def test_steady_trend_is_healthy(self, tmp_path):
        summary = history_summary(_history_file(tmp_path, [2.0, 2.1, 1.9, 2.0]))
        assert summary["regressions"] == []
        assert summary["benchmarks"]["loop"]["median"] == 2.0

    def test_drop_below_tolerance_times_median_is_flagged(self, tmp_path):
        summary = history_summary(_history_file(tmp_path, [2.0, 2.1, 1.9, 1.0]))
        assert summary["regressions"] == ["loop"]
        assert summary["benchmarks"]["loop"]["regression"] is True

    def test_fresh_ledger_is_never_a_regression(self, tmp_path):
        # One prior run is noise, not a trend: no flag even on a 10x drop.
        summary = history_summary(_history_file(tmp_path, [2.0, 0.2]))
        assert summary["regressions"] == []

    def test_median_uses_rolling_window(self, tmp_path):
        # Ancient fast runs outside the window must not flag a stable present.
        speedups = [9.0, 9.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        summary = history_summary(_history_file(tmp_path, speedups), window=5)
        assert summary["regressions"] == []
        assert summary["benchmarks"]["loop"]["median"] == 2.0

    def test_history_table_lists_benchmarks(self, tmp_path):
        summary = history_summary(_history_file(tmp_path, [2.0, 2.1]))
        assert "loop" in history_table(summary).render()

    def test_history_entry_keeps_absolute_seconds_where_present(self):
        bittrue = {"event_s": 2.5, "fast_s": 0.1, "speedup": 25.0, "errors": [0, 1]}
        assert history_entry(bittrue) == {"speedup": 25.0, "fast_s": 0.1, "event_s": 2.5}

    def test_history_entry_keeps_solver_seconds(self):
        stateye = {"stateye_s": 0.0042, "bittrue_s": 0.0083, "speedup": 1.0e9}
        training = {"training_s": 0.38, "bittrue_candidate_s": 0.012, "speedup": 2.6e8}
        assert history_entry(stateye) == {"speedup": 1.0e9, "stateye_s": 0.0042}
        assert history_entry(training) == {"speedup": 2.6e8, "training_s": 0.38}

    def test_history_entry_keeps_ring_rates(self):
        rates = {"jitter_free": 2_000_000, "jittered": 300_000}
        kept = {"speedup": 13.0, "fast_s": 0.01, "event_s": 0.13, "ring_bits_per_s": rates}
        assert history_entry({**kept, "total_errors": 0}) == kept

    def test_latest_fast_s_beside_speedup(self, tmp_path):
        path = _history_file(tmp_path, [2.0, 2.1])
        with path.open("a") as handle:
            record = {
                "kind": HISTORY_KIND,
                "version": HISTORY_VERSION,
                "entries": {"loop": {"speedup": 2.2, "fast_s": 0.125, "event_s": 0.275}},
            }
            handle.write(dumps_compact(record) + "\n")
        summary = history_summary(path)
        assert summary["benchmarks"]["loop"]["latest_fast_s"] == 0.125
        assert summary["benchmarks"]["loop"]["speedups"] == [2.0, 2.1, 2.2]
        assert "0.125s" in history_table(summary).render()

    def test_solver_judged_on_its_seconds_not_the_speedup(self, tmp_path):
        # A faster fast path shrinks the extrapolated bit-true time, so the
        # speedup falls 3x while the solver itself holds its time.
        runs = [{"speedup": 3.0e9, "stateye_s": 0.004}] * 3
        runs.append({"speedup": 1.0e9, "stateye_s": 0.004})
        summary = history_summary(_ledger(tmp_path, runs, name="stateye_vs_bittrue"))
        entry = summary["benchmarks"]["stateye_vs_bittrue"]
        assert summary["regressions"] == []
        assert (entry["metric"], entry["latest"], entry["median"]) == ("stateye_s", 0.004, 0.004)
        assert "ok" in history_table(summary).render()

    def test_solver_seconds_rise_is_flagged(self, tmp_path, capsys):
        runs = [{"speedup": 3.0e9, "stateye_s": 0.004}] * 3
        runs.append({"speedup": 3.0e9, "stateye_s": 0.006})
        path = _ledger(tmp_path, runs, name="stateye_vs_bittrue")
        summary = history_summary(path)
        assert summary["regressions"] == ["stateye_vs_bittrue"]
        assert main(["--history", str(path)]) == 1
        assert "REGRESSION: stateye_vs_bittrue stateye_s 0.006s" in capsys.readouterr().out

    def test_slower_short_points_are_flagged(self, tmp_path, capsys):
        # The backend legs hold their time; the short-point grid reads 1.5x.
        runs = [{**STEADY_LEGS, "short_point_s": 0.030}] * 3
        runs.append({**STEADY_LEGS, "short_point_s": 0.045})
        path = _ledger(tmp_path, runs, name="link_ber_vs_loss", probes_ms=[0.5] * 4,
                       decimals=MICROSECONDS)
        summary = history_summary(path)
        entry = summary["benchmarks"]["link_ber_vs_loss"]
        assert summary["regressions"] == ["link_ber_vs_loss"]
        assert sorted(entry["metrics"]) == ["event_s", "fast_s", "short_point_s"]
        assert (entry["metric"], entry["latest"], entry["median"]) == ("short_point_s", 0.045, 0.030)
        assert main(["--history", str(path)]) == 1
        assert "REGRESSION: link_ber_vs_loss short_point_s 0.045s" in capsys.readouterr().out

    def test_entry_without_short_points_is_judged_as_before(self, tmp_path):
        # Earlier records lack the field; so does the latest: only the legs count.
        runs = [{**STEADY_LEGS, "short_point_s": 0.030}] * 3 + [_legs(0.400, 0.015)]
        summary = history_summary(_ledger(tmp_path, runs, name="link_ber_vs_loss",
                                           probes_ms=[0.5] * 4, decimals=MICROSECONDS))
        entry = summary["benchmarks"]["link_ber_vs_loss"]
        assert sorted(entry["metrics"]) == ["event_s", "fast_s"]
        assert (entry["metric"], entry["regression"]) == ("fast_s", True)
        steady = history_summary(_ledger(tmp_path, [STEADY_LEGS] * 4, name="link_ber_vs_loss",
                                          probes_ms=[0.5] * 4, decimals=MICROSECONDS))
        assert steady["regressions"] == []
        assert "short_point_s" not in steady["benchmarks"]["link_ber_vs_loss"]["metrics"]

    def test_history_entry_keeps_short_point_seconds(self):
        link = {**STEADY_LEGS, "short_point_s": 0.03, "short_point_grid_points": 64}
        assert history_entry(link) == {**STEADY_LEGS, "short_point_s": 0.03}

    def test_faster_event_leg_is_not_a_regression(self, tmp_path):
        # The speedup falls 1.3x, below the 0.8 tolerance, but no leg got slower.
        runs = [STEADY_LEGS] * 3 + [_legs(0.400 / 1.3, 0.010)]
        summary = history_summary(_ledger(tmp_path, runs, probes_ms=[0.5] * 4,
                                           decimals=MICROSECONDS))
        entry = summary["benchmarks"]["loop"]
        assert summary["regressions"] == []
        assert sorted(entry["metrics"]) == ["event_s", "fast_s"]
        assert entry["metrics"]["event_s"]["ratio"] == pytest.approx(1.3)
        assert entry["metrics"]["fast_s"]["ratio"] == pytest.approx(1.0)

    def test_slower_fast_leg_is_flagged(self, tmp_path, capsys):
        runs = [STEADY_LEGS] * 3 + [_legs(0.400, 0.015)]
        path = _ledger(tmp_path, runs, probes_ms=[0.5] * 4, decimals=MICROSECONDS)
        summary = history_summary(path)
        entry = summary["benchmarks"]["loop"]
        assert summary["regressions"] == ["loop"]
        assert (entry["metric"], entry["latest"], entry["median"]) == ("fast_s", 0.015, 0.010)
        assert entry["metrics"]["event_s"]["regression"] is False
        assert main(["--history", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: loop fast_s 0.015s" in out
        assert "REGRESSION: loop event_s" not in out

    def test_both_legs_slower_is_flagged_though_the_speedup_holds(self, tmp_path, capsys):
        # A shared layer slowed both legs alike: the ratio cannot see it.
        runs = [STEADY_LEGS] * 3 + [_legs(0.600, 0.015)]
        path = _ledger(tmp_path, runs, probes_ms=[0.5] * 4, decimals=MICROSECONDS)
        summary = history_summary(path)
        assert summary["benchmarks"]["loop"]["speedups"][-1] == 40.0
        assert summary["regressions"] == ["loop"]
        assert main(["--history", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: loop event_s 0.6s" in out
        assert "REGRESSION: loop fast_s 0.015s" in out

    def test_leg_seconds_scale_with_the_host_probe(self, tmp_path):
        runs = [STEADY_LEGS] * 3 + [_legs(0.600, 0.015)]
        summary = history_summary(_ledger(tmp_path, runs, probes_ms=[0.4, 0.4, 0.4, 0.6],
                                           decimals=MICROSECONDS))
        assert summary["regressions"] == []
        assert summary["benchmarks"]["loop"]["ratio"] == pytest.approx(1.0)

    def test_millisecond_leg_records_are_not_priors(self, tmp_path):
        # Three ms-rounded records, then a microsecond one whose fast leg
        # reads 1.5x slower: no prior carries comparable seconds yet.
        runs = [STEADY_LEGS] * 3 + [_legs(0.400, 0.015)]
        path = _ledger(tmp_path, runs, probes_ms=[0.5] * 4, decimals=[None] * 3 + [6])
        summary = history_summary(path)
        entry = summary["benchmarks"]["loop"]
        assert summary["regressions"] == []
        assert sorted(entry["metrics"]) == ["event_s", "fast_s"]
        assert entry["metrics"]["fast_s"]["median"] is None
        assert main(["--history", str(path)]) == 0

    def test_two_microsecond_priors_flag_a_slower_leg(self, tmp_path):
        runs = [STEADY_LEGS] * 4 + [_legs(0.400, 0.015)]
        path = _ledger(tmp_path, runs, probes_ms=[0.5] * 5, decimals=[None, None, 6, 6, 6])
        entry = history_summary(path)["benchmarks"]["loop"]
        assert (entry["metric"], entry["regression"]) == ("fast_s", True)

    def test_millisecond_legs_alone_are_judged_on_the_speedup(self, tmp_path):
        runs = [STEADY_LEGS] * 3 + [_legs(0.400 / 1.5, 0.010)]
        summary = history_summary(_ledger(tmp_path, runs, probes_ms=[0.5] * 4))
        entry = summary["benchmarks"]["loop"]
        assert (entry["metric"], summary["regressions"]) == ("speedup", ["loop"])

    def test_solver_seconds_need_two_prior_records_that_carry_them(self, tmp_path):
        # Older records hold the speedup only; they do not count as priors.
        runs = [{"speedup": 3.0e9}] * 4 + [{"speedup": 1.0e9, "training_s": 0.15}]
        summary = history_summary(_ledger(tmp_path, runs, name="link_training"))
        entry = summary["benchmarks"]["link_training"]
        assert summary["regressions"] == []
        assert (entry["metric"], entry["median"]) == ("training_s", None)
        assert len(entry["speedups"]) == 5

    def test_solver_seconds_scale_with_the_host_probe(self, tmp_path, capsys):
        # A slow host phase stretches the solver and the probe alike.
        probes_ms = [0.4, 0.4, 0.4, 0.6]
        path = _ledger(tmp_path, TRAINING_RISE, name="link_training", probes_ms=probes_ms)
        summary = history_summary(path)
        entry = summary["benchmarks"]["link_training"]
        assert summary["regressions"] == []
        assert entry["median"] == pytest.approx(0.24) and entry["ratio"] == pytest.approx(1.0)
        assert main(["--history", str(path)]) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_solver_seconds_rise_at_the_same_probe_is_flagged(self, tmp_path, capsys):
        probes_ms = [0.4] * 4
        path = _ledger(tmp_path, TRAINING_RISE, name="link_training", probes_ms=probes_ms)
        assert history_summary(path)["regressions"] == ["link_training"]
        assert main(["--history", str(path)]) == 1
        assert "REGRESSION: link_training training_s 0.24s" in capsys.readouterr().out

    def test_records_without_a_probe_compare_raw_seconds(self, tmp_path):
        # Only the latest record carries a probe: the earlier ones keep the
        # raw comparison, so the same 1.5x rise is flagged.
        probes_ms = [None, None, None, 0.6]
        path = _ledger(tmp_path, TRAINING_RISE, name="link_training", probes_ms=probes_ms)
        summary = history_summary(path)
        assert summary["regressions"] == ["link_training"]
        assert summary["benchmarks"]["link_training"]["median"] == 0.16

    def test_records_without_seconds_still_load(self, tmp_path):
        # Ledgers written before fast_s/event_s existed carry speedup only.
        summary = history_summary(_history_file(tmp_path, [2.0, 2.1, 1.9, 1.0]))
        assert summary["benchmarks"]["loop"]["latest_fast_s"] is None
        assert summary["regressions"] == ["loop"]
        assert history_table(summary).render()

    def test_old_and_new_ring_rate_records_summarize(self, tmp_path, capsys):
        # Records from before the fast path's jittered mode went carry a
        # "jittered" ring rate; later records carry "jitter_free" only.
        old = {"speedup": 85.0, "fast_s": 0.0036, "event_s": 0.30,
               "ring_bits_per_s": {"jitter_free": 5_126_100, "jittered": 391_305}}
        new = {"speedup": 87.0, "fast_s": 0.0035, "event_s": 0.30,
               "ring_bits_per_s": {"jitter_free": 5_200_000}}
        path = _ledger(tmp_path, [old, old, new], name="bittrue_kernels")
        assert [record["entries"]["bittrue_kernels"]["ring_bits_per_s"]
                for record in load_history(path)] == [old["ring_bits_per_s"]] * 2 + [
                    new["ring_bits_per_s"]]
        summary = history_summary(path)
        assert summary["regressions"] == []
        assert main(["--history", str(path)]) == 0
        assert "bittrue_kernels" in capsys.readouterr().out


class TestCli:
    def test_main_prints_report(self, tmp_path, capsys):
        path = _tracer().write_jsonl(tmp_path / "trace.jsonl")
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report: study" in out
        assert "stage breakdown" in out

    def test_main_rejects_non_trace_with_exit_1(self, tmp_path, capsys):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind":"nope"}\n')
        assert main([str(path)]) == 1
        assert "report:" in capsys.readouterr().out

    def test_missing_trace_file_exits_1(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 1
        assert "report:" in capsys.readouterr().out

    def test_trace_json_format_matches_stage_breakdown(self, tmp_path, capsys):
        path = _tracer().write_jsonl(tmp_path / "trace.jsonl")
        assert main([str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == stage_breakdown(path)

    def test_requires_exactly_one_input(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        path = _history_file(tmp_path, [2.0])
        with pytest.raises(SystemExit) as excinfo:
            main([str(path), "--history", str(path)])
        assert excinfo.value.code == 2

    def test_history_healthy_exits_0(self, tmp_path, capsys):
        path = _history_file(tmp_path, [2.0, 2.1, 2.0])
        assert main(["--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "loop" in out
        assert "REGRESSION" not in out

    def test_history_regression_exits_1_and_names_benchmark(self, tmp_path, capsys):
        path = _history_file(tmp_path, [2.0, 2.1, 1.9, 1.0])
        assert main(["--history", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: loop" in out

    def test_history_json_format_matches_summary(self, tmp_path, capsys):
        path = _history_file(tmp_path, [2.0, 2.1, 1.9, 1.0])
        assert main(["--history", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == history_summary(path)
        assert payload["regressions"] == ["loop"]

    def test_history_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["--history", str(tmp_path / "absent.jsonl")]) == 1
        assert "report:" in capsys.readouterr().out
