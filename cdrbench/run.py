"""CDR study benchmark: run one workload for a time budget and report metrics.

Usage (from the repository root)::

    python3 cdrbench/run.py --workload ber_sweep --seed 1 --seconds 32 --trace 0

The run executes back-to-back passes of the workload, each in its own fresh
interpreter (``bench_pass.py``), one at a time, until the next pass would
overrun ``--seconds`` (at least three passes); before the first, it
byte-compiles ``repro`` and the benchmark.  The first pass is the gate
pass: it runs the workload at the pinned gate seed and checks the metric
digest pinned in ``digests.json``; the other passes run the inputs made
from ``--seed`` and must all produce the same digest.  Every time but
``host.wall_s`` is scaled to a reference host speed sampled during its own
pass, and every metric is the median over its passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` passes alternate between untraced and traced, and it
reports the per-layer metrics.  The line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every point ran and every check held.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PASS_SCRIPT = BENCH_DIR / "bench_pass.py"
WORKDIR = ROOT / ".cdrbench_work"

#: The workloads, each with the layer it exists to stress and the least
#: share of the summed point time that layer must take for it to mean anything.
DOMINANT_LAYER = {
    "ber_sweep": ("fastpath", 0.90),
    "link_training": ("stateye", 0.80),
    "gate_jitter_sweep": ("events", 0.90),
    "checkpointed_grid": ("link.path", 0.40),
}
WORKLOADS = tuple(DOMINANT_LAYER)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_bits_per_s": "bit/s",
    "points_per_s": "1/s",
    "point_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "datapath.busy_s": "s",
    "link.pulse_calls": "count",
    "link.pulse_s": "s",
    "link.pulse_cache_hit_ratio": "1",
    "link.transmit_calls": "count",
    "link.transmit_self_s": "s",
    "stateye.solves": "count",
    "stateye.solve_ms_p50": "ms",
    "stateye.busy_s": "s",
    "training.self_s": "s",
    "training.solves_per_link": "count",
    "training.objective_hit_ratio": "1",
    "fastpath.bits": "bit",
    "fastpath.busy_s": "s",
    "fastpath.bits_per_busy_s": "bit/s",
    "fastpath.call_ms_p50": "ms",
    "events.events": "count",
    "events.busy_s": "s",
    "events.events_per_busy_s": "1/s",
    "analysis.busy_s": "s",
    "engine.overhead_ms_per_point": "ms",
    "sweep.checkpoint_bytes": "B",
    "sweep.resume_s": "s",
    "sweep.restored_points": "count",
    "jsonio.busy_s": "s",
    "results.roundtrip_ms": "ms",
    "unattributed_frac": "1",
    "trace.overhead_frac": "1",
    "dominant_share": "1",
    "point_ms_p99": "ms",
    "failed_frac": "1",
    "host.probe_ms": "ms",
    "host.wall_s": "s",
}

#: Probe time (``bench_pass.probe_once``) that defines the reference host
#: speed.  Every reported time is scaled by this over the mean probe time
#: sampled while it was measured, which cancels most of the host's speed
#: swings; a rate is scaled the opposite way.
REFERENCE_PROBE_S = 0.5e-3

#: Passes per run at least, whatever the time budget.
MIN_PASSES = 3
#: Every pass must end at most this long after the run's ``--seconds`` are
#: spent, or it is killed: room for the pass that overruns the budget and
#: for the minimum passes of a short budget.
PASS_ALLOWANCE_S = 120.0
#: A percentile is reported only where at least this many samples lie beyond it.
TAIL_SAMPLES = 10


class PassError(RuntimeError):
    """A pass exited non-zero or printed no record, or the sources did not compile."""


def compile_sources() -> None:
    """Byte-compile ``repro`` and the benchmark before the first pass.

    Passes start with ``-B``: they read this bytecode cache and write none,
    so ``import repro`` inside the set-up clock loads the same cache on every
    pass, whether or not anything compiled the sources before the run.
    """
    sources = [str(ROOT / "src" / "repro"), str(BENCH_DIR)]
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", *sources],
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise PassError(f"byte-compiling the sources failed: {done.stdout.strip()[-2000:]}")


def run_pass(
    workload: str, seed: int, workdir: Path, traced: bool, gate: bool, timeout_s: float
) -> dict:
    """Run one pass in a fresh interpreter and return its JSON record."""
    command = [sys.executable, "-B", str(PASS_SCRIPT), "--workload", workload, "--seed", str(seed)]
    command += ["--workdir", str(workdir), "--traced", str(int(traced)), "--gate", str(int(gate))]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout_s, check=False
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass timed out after {timeout_s:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise PassError(f"pass exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail_percentile_ms(durations_s: list, q: int) -> float:
    """The *q*-th percentile in ms, or 0 where fewer than ten samples lie beyond it."""
    if len(durations_s) * (100 - q) < 100 * TAIL_SAMPLES:
        return 0.0
    return 1e3 * statistics.quantiles(durations_s, n=100, method="inclusive")[q - 1]


def host_scale(record: dict, probe: str = "probe_s") -> float:
    """Factor that turns a pass's host times into reference-speed times.

    *probe* names the phase's mean probe time: ``"probe_s"`` for the timed
    window, ``"setup_probe_s"`` for the set-up.
    """
    return REFERENCE_PROBE_S / record[probe]


def scaled(value: float, unit: str, scale: float) -> float:
    """*value* at reference host speed: times shrink or grow, rates the opposite."""
    if unit in ("s", "ms"):
        return value * scale
    if unit in ("bit/s", "1/s"):
        return value / scale
    return value


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Medians over the untraced passes of the end-to-end metrics."""

    def at_reference_speed(record: dict) -> dict[str, float]:
        scale = host_scale(record)
        wall_s = record["wall_s"] * scale
        return {
            "setup_s": record["setup_s"] * host_scale(record, "setup_probe_s"),
            "wall_s": wall_s,
            "sim_bits_per_s": record["bits"] / wall_s,
            "points_per_s": record["points"] / wall_s,
            "point_ms_p50": 1e3 * scale * statistics.median(record["point_durations_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
        }

    per_pass = [at_reference_speed(record) for record in records]
    return {name: statistics.median(p[name] for p in per_pass) for name in END_TO_END_UNITS}


def per_layer(
    workload: str, untraced: list[dict], traced: list[dict], failed_frac: float
) -> dict[str, float]:
    """Medians over the traced passes of the per-layer metrics."""
    layer, _ = DOMINANT_LAYER[workload]
    metrics = {
        name: statistics.median(
            scaled(record["layers"][name], unit, host_scale(record)) for record in traced
        )
        for name, unit in PER_LAYER_UNITS.items()
        if name in traced[0]["layers"]
    }
    untraced_wall = statistics.median(r["wall_s"] * host_scale(r) for r in untraced)
    traced_wall = statistics.median(r["wall_s"] * host_scale(r) for r in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["dominant_share"] = statistics.median(
        record["layers"]["layer_shares"][layer] for record in traced
    )
    metrics["point_ms_p99"] = statistics.median(
        host_scale(r) * tail_percentile_ms(r["point_durations_s"], 99) for r in untraced
    )
    metrics["failed_frac"] = failed_frac
    metrics["host.probe_ms"] = 1e3 * statistics.median(
        record["probe_s"] for record in untraced + traced
    )
    metrics["host.wall_s"] = statistics.median(record["wall_s"] for record in untraced)
    return metrics


def failed_checks(records: list[dict]) -> list[str]:
    """Names of the checks that did not hold, plus cross-pass mismatches."""
    failed = [
        f"pass {index}: {name}"
        for index, record in enumerate(records)
        for name, held in record["checks"].items()
        if not held
    ]
    seeded = {record["digest"] for record in records if not record["gate"]}
    if len(seeded) > 1:
        failed.append("passes with the same seed produced different digests")
    return failed


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes until the budget is spent; returns the records and pass errors."""
    workdir = WORKDIR / f"{workload}-{seed}-{int(trace)}"
    start = time.perf_counter()
    records: list[dict] = []
    errors: list[str] = []
    try:
        compile_sources()
    except PassError as exc:
        return records, [str(exc)]
    try:
        while True:
            elapsed = time.perf_counter() - start
            if len(records) >= MIN_PASSES:
                typical = statistics.median(r["pass_s"] for r in records)
                if elapsed + typical > seconds:
                    break
            gate = not records
            traced = trace and len(records) % 2 == 1
            pass_start = time.perf_counter()
            try:
                record = run_pass(
                    workload, seed, workdir, traced, gate, seconds + PASS_ALLOWANCE_S - elapsed
                )
            except PassError as exc:
                errors.append(str(exc))
                break
            record["pass_s"] = time.perf_counter() - pass_start
            records.append(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    return records, errors


def summarize(workload: str, trace: bool, records: list[dict], n_problems: int) -> dict:
    """The result object: correctness counts and the metrics with their units.

    *n_problems* counts failed checks and failed passes; each adds to
    ``failed`` next to the grid points that failed.
    """
    attempted = sum(record["points"] for record in records)
    failed = sum(record["failed_points"] for record in records) + n_problems
    untraced = [record for record in records if not record["traced"]]
    traced = [record for record in records if record["traced"]]
    if not untraced or (trace and not traced):
        metrics = {}
    elif trace:
        metrics = per_layer(workload, untraced, traced, failed / max(attempted, 1))
    else:
        metrics = end_to_end(untraced)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }


def report(workload: str, records: list[dict], problems: list[str], metrics: dict) -> None:
    """Human-readable lines before the result: passes, provenance, warnings."""
    for index, record in enumerate(records):
        kind = "traced" if record["traced"] else "gate" if record["gate"] else "timed"
        print(
            f"pass {index:2d} {kind:6s} seed={record['seed']} setup={record['setup_s']:.3f}s "
            f"wall={record['wall_s']:.3f}s probe={1e3 * record['probe_s']:.3f}ms "
            f"points={record['points']} rss={record['peak_rss_mb']:.1f}MB "
            f"digest={record['digest'][:12]}"
        )
    if records and "manifest" in records[0]:
        print("manifest " + json.dumps(records[0]["manifest"], sort_keys=True))
    for problem in problems:
        print(f"FAILED {problem}")
    layer, floor = DOMINANT_LAYER[workload]
    share = metrics.get("dominant_share", {}).get("value")
    if share is not None and share < floor:
        print(
            f"WARNING {layer} takes {share:.1%} of point time, below the {floor:.0%} "
            f"this workload is meant to show"
        )
    unattributed = metrics.get("unattributed_frac", {}).get("value")
    if unattributed is not None and unattributed > 0.10:
        print(f"WARNING {unattributed:.1%} of point time is not attributed to a layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"cdrbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    records, problems = run_passes(args.workload, args.seed, args.seconds, trace)
    problems += failed_checks(records)
    result = summarize(args.workload, trace, records, len(problems))
    report(args.workload, records, problems, result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
