"""One benchmark pass, run in its own fresh interpreter by ``run.py``.

A pass imports numpy and scipy before any clock starts, then times its
set-up (``import repro``, input construction and a warm-up on a tiny grid
that shares no point with the timed grid) and its timed study, checks the
study's outputs and prints one JSON record as its last stdout line::

    python3 -B cdrbench/bench_pass.py --workload ber_sweep --seed 3 --workdir DIR

``--gate 1`` additionally compares the study's metric digest with the one
pinned in ``digests.json`` (and, for ``ber_sweep``, runs one grid point on
both bit-true backends); both happen after the timed window.  ``--traced 1``
wraps the layers' public functions and enables :mod:`repro.telemetry`
counters for a per-layer breakdown; end-to-end figures come only from
untraced passes.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy  # noqa: F401 — imported before the clocks start
import scipy.special  # noqa: F401
import scipy.stats  # noqa: F401

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DIGESTS = BENCH_DIR / "digests.json"

#: Seconds between two host-speed probes during a pass.
PROBE_INTERVAL_S = 0.02

#: Stimulus length of the fast-versus-event cross-check of ``ber_sweep``.
CROSS_CHECK_BITS = 3_000


def pinned_digest(workload: str, scale: str) -> str | None:
    """The metric digest pinned for *workload* at *scale* (gate seed)."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"][scale].get(workload)


def gate_seed() -> int:
    """The seed the pinned digests were recorded for."""
    return int(json.loads(DIGESTS.read_text(encoding="utf-8"))["gate_seed"])


def probe_once() -> float:
    """Thread CPU seconds of one fixed slice of Python float arithmetic.

    The slice never touches ``repro``, so its duration tracks only the
    host's momentary speed.  (A slice with small numpy kernels in it
    tracked the workloads' own swings less closely.)
    """
    start = time.thread_time()
    x = 0.0
    for i in range(5_000):
        x = x * 0.5 + math.sin(i)
    return time.thread_time() - start


class HostSpeedProbe:
    """Samples the host's speed while a phase of the pass runs.

    An interval timer raises ``SIGALRM`` every :data:`PROBE_INTERVAL_S`,
    and the handler times :func:`probe_once`.  Python runs signal handlers
    in the main thread between two bytecodes of the measured work, so the
    probe never runs beside that work: work that releases the interpreter
    lock (numpy loops) cannot overlap it, and it sees the host speed the
    work sees just before and after it (about 2.5% of the CPU time goes to
    the probe).  A few samples are also taken on entry and exit, so a phase
    shorter than the interval still gets some.  ``run.py`` scales the
    phase's times by the mean sample: the host switches between a fast and
    a slow state, and the mean follows the share of time spent in each,
    where the median would jump between them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe_once())

    def __enter__(self) -> "HostSpeedProbe":
        self.samples.extend(probe_once() for _ in range(3))
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.samples.extend(probe_once() for _ in range(3))

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(
    workload: str,
    seed: int,
    scale: str,
    workdir: Path,
    *,
    traced: bool = False,
    gate: bool = False,
) -> dict:
    """Set up, time and check one pass; returns its record.

    With *gate*, the study's digest must equal the pinned one; a mismatch
    is a failed check, as is every other check that does not hold.
    """
    clock = time.perf_counter
    with HostSpeedProbe() as setup_probe:
        start = clock()
        import bench_workloads  # the first ``import repro`` of the pass

        timed, warm = bench_workloads.build(workload, seed, scale)
        workdir.mkdir(parents=True, exist_ok=True)
        bench_workloads.warm_up(workload, warm, workdir)
        setup_s = clock() - start

    tracing = ExitStack()
    if traced:
        from bench_layers import LayerTimers
        from repro import telemetry

        timers = tracing.enter_context(LayerTimers())
        tracer = tracing.enter_context(telemetry.trace("cdrbench"))
    with tracing, HostSpeedProbe() as probe:
        start = clock()
        outcome = bench_workloads.run_study(workload, timed, workdir, clock)
        wall_s = clock() - start
    rss_mb = peak_rss_mb()

    checks = dict(outcome.checks)
    if gate:
        checks["digest_pinned"] = outcome.digest == pinned_digest(workload, scale)
        if workload == "ber_sweep":
            checks["fast_equals_event"] = bench_workloads.check_fast_equals_event(
                timed, CROSS_CHECK_BITS
            )
    record = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "gate": gate,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "setup_probe_s": setup_probe.mean_s,
        "probe_s": probe.mean_s,
        "points": outcome.executed,
        "failed_points": sum(len(result.failures) for result in outcome.results),
        "bits": outcome.bits,
        "point_durations_s": outcome.durations_s,
        "digest": outcome.digest,
        "checks": checks,
    }
    if gate:
        from repro.telemetry.manifest import collect_manifest

        record["manifest"] = collect_manifest(seed=seed).to_dict()
    if traced:
        from bench_layers import layer_metrics

        point_time_s = sum(outcome.durations_s)
        record["layers"] = layer_metrics(
            timers, tracer.counters, point_time_s, outcome.executed, outcome.extra
        )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gate", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"cdrbench: no repro sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    seed = gate_seed() if args.gate else args.seed
    gate, traced = bool(args.gate), bool(args.traced)
    record = run_pass(args.workload, seed, "full", args.workdir, traced=traced, gate=gate)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
