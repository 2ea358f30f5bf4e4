"""Per-layer attribution from outside the program.

:class:`LayerTimers` wraps public functions of each layer with timers
installed from the benchmark's own files; nothing in ``src/`` changes.
Nested wrappers report *self* time: a layer's self time is its calls'
duration minus the part spent in other wrapped calls beneath them (the
statistical-eye solve inside a training run, the pulse response inside a
transmit).  Counts that the program already keeps come from
:mod:`repro.telemetry` counters.

Importing this module imports :mod:`repro`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import bench_workloads
import repro.sweep.resilient as resilient
from repro.core.cdr_channel import BehavioralCdrChannel, BehavioralSimulationResult
from repro.experiments import StimulusSpec
from repro.fastpath.engine import FastCdrChannel
from repro.link import LinkPath, LinkTrainer, StatisticalEyeSolver

#: Layers whose calls happen inside grid points, so their self time is
#: attributed against the summed point durations.
POINT_LAYERS = ("datapath", "link.path", "stateye", "training", "fastpath", "events", "analysis")

#: ``(owner, attribute, layer)``: the public callables each layer is timed by.
#: Module-level names are patched where the caller looks them up.
WRAPPED = (
    (StimulusSpec, "bits", "datapath"),
    (LinkPath, "transmit", "link.path"),
    (LinkPath, "equalized_pulse_response", "link.path"),
    (StatisticalEyeSolver, "solve", "stateye"),
    (LinkTrainer, "__init__", "training"),
    (LinkTrainer, "train", "training"),
    (LinkTrainer, "score_fixed", "training"),
    (FastCdrChannel, "run", "fastpath"),
    (BehavioralCdrChannel, "run", "events"),
    (BehavioralSimulationResult, "ber", "analysis"),
    (resilient, "dumps_compact", "jsonio"),
    (resilient, "loads_strict", "jsonio"),
    (resilient, "encode_json_value", "jsonio"),
    (resilient, "decode_json_value", "jsonio"),
    (bench_workloads, "run_grid", "engine"),
)


@dataclass
class CallStats:
    """Calls, total and self seconds, and every call's duration."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations_s: list = field(default_factory=list)

    @property
    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.durations_s) if self.durations_s else 0.0


class LayerTimers:
    """Installs timing wrappers; a context manager that restores the originals."""

    def __init__(self) -> None:
        self.stats = {(owner, name): CallStats() for owner, name, _ in WRAPPED}
        self._originals: list = []
        # Child-time accumulators of the wrapped calls currently open.
        self._open: list[float] = []

    def _wrap(self, original, stats: CallStats):
        clock = time.perf_counter
        open_calls = self._open

        def timed(*args, **kwargs):
            start = clock()
            open_calls.append(0.0)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_calls.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                stats.durations_s.append(elapsed)
                if open_calls:
                    open_calls[-1] += elapsed

        timed.__wrapped__ = original
        return timed

    def __enter__(self) -> "LayerTimers":
        for owner, name, _ in WRAPPED:
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, self.stats[(owner, name)]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def of(self, owner, name: str) -> CallStats:
        return self.stats[(owner, name)]

    def layer_self_s(self, layer: str) -> float:
        return sum(
            self.stats[(owner, name)].self_s
            for owner, name, owned_by in WRAPPED
            if owned_by == layer
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    timers: LayerTimers, counters: dict, point_time_s: float, n_points: int, extra: dict
) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md for units).

    *counters* are the :mod:`repro.telemetry` counter totals of the pass,
    *point_time_s* the summed durations of its *n_points* executed grid
    points and *extra* the workload's own measurements (checkpoint size,
    resume and JSON round-trip times).
    """
    pulse = timers.of(LinkPath, "equalized_pulse_response")
    transmit = timers.of(LinkPath, "transmit")
    solve = timers.of(StatisticalEyeSolver, "solve")
    fast = timers.of(FastCdrChannel, "run")
    events = timers.of(BehavioralCdrChannel, "run")
    training_runs = counters.get("training.runs", 0)
    objective_hits = counters.get("stateye.objective_cache.hits", 0)
    objective_lookups = objective_hits + counters.get("stateye.objective_cache.misses", 0)
    pulse_hits = counters.get("link.pulse_cache.hits", 0)
    pulse_lookups = pulse_hits + counters.get("link.pulse_cache.misses", 0)
    n_events = counters.get("kernel.events", 0)
    fast_bits = counters.get("fastpath.bits", 0)
    grid_wall_s = timers.of(bench_workloads, "run_grid").total_s
    attributed = sum(timers.layer_self_s(layer) for layer in POINT_LAYERS)
    return {
        "datapath.busy_s": timers.layer_self_s("datapath"),
        "link.pulse_calls": pulse.calls,
        "link.pulse_s": pulse.self_s,
        "link.pulse_cache_hit_ratio": _ratio(pulse_hits, pulse_lookups),
        "link.transmit_calls": transmit.calls,
        "link.transmit_self_s": transmit.self_s,
        "stateye.solves": solve.calls,
        "stateye.solve_ms_p50": solve.median_ms,
        "stateye.busy_s": solve.self_s,
        "training.self_s": timers.layer_self_s("training"),
        "training.solves_per_link": _ratio(
            counters.get("stateye.objective_cache.misses", 0), training_runs
        ),
        "training.objective_hit_ratio": _ratio(objective_hits, objective_lookups),
        "fastpath.bits": fast_bits,
        "fastpath.busy_s": fast.self_s,
        "fastpath.bits_per_busy_s": _ratio(fast_bits, fast.self_s),
        "fastpath.call_ms_p50": fast.median_ms,
        "events.events": n_events,
        "events.busy_s": events.self_s,
        "events.events_per_busy_s": _ratio(n_events, events.self_s),
        "analysis.busy_s": timers.layer_self_s("analysis"),
        "engine.overhead_ms_per_point": 1e3 * _ratio(grid_wall_s - point_time_s, n_points),
        "sweep.checkpoint_bytes": extra.get("checkpoint_bytes", 0),
        "sweep.resume_s": extra.get("resume_s", 0.0),
        "sweep.restored_points": counters.get("sweep.checkpoint.restored", 0),
        "jsonio.busy_s": timers.layer_self_s("jsonio"),
        "results.roundtrip_ms": 1e3 * extra.get("roundtrip_s", 0.0),
        "unattributed_frac": 1.0 - _ratio(attributed, point_time_s),
        "layer_shares": {
            layer: _ratio(timers.layer_self_s(layer), point_time_s) for layer in POINT_LAYERS
        },
    }
