"""Fast-path performance tracker: times the headline sweeps on both backends.

Runs the fig09-style BER-vs-SJ sweep, the fig10-style BER-vs-frequency-offset
sweep, the fig14 eye simulation and the link BER-vs-loss sweep end-to-end
with the event-kernel backend and the vectorized fast path, checks that the
two agree bit-for-bit (the sweeps run zero-gate-jitter configurations), and
writes wall times plus speedups to ``BENCH_fastpath.json`` at the repository
root so the perf trajectory is tracked from PR to PR.  The sweep entries
embed the engine's serialized :class:`repro.experiments.SweepResult`, so the
measured grids are reloadable (``SweepResult.from_dict``) without re-running.

Every timed leg runs warm, as the best of several calls (``_timed``).
Each benchmark runs under a :mod:`repro.telemetry` trace; its per-stage
time/cache summary (:func:`repro.telemetry.report.stage_breakdown`) is
embedded as ``stage_breakdown`` in the benchmark's entry, and the
breakdowns alone are also written to
``benchmarks/results/bench_stage_breakdown.json`` (the CI artifact).

Every entry is stamped with the run's provenance manifest
(:func:`repro.telemetry.manifest.collect_manifest` — the sanctioned
place for environment reads), and each run appends one manifest-stamped
record of all speedups, with the absolute ``fast_s``/``event_s``,
``stateye_s``, ``training_s`` and ``short_point_s`` seconds where a
benchmark has them
(:data:`repro.telemetry.report.HISTORY_FIELDS`) and the run's mean
host-probe time ``host_probe_ms`` (:func:`probe_once`), to
``benchmarks/results/bench_history.jsonl``.
``BENCH_fastpath.json`` is overwritten per run; the history ledger only
grows, so ``python -m repro.telemetry.report --history`` can render the
trend of every leg's seconds and flag regressions that the hard floors
are too coarse to catch.

The run *fails* (exit code 1) when any benchmark's fastpath speedup drops
below the floor (default 5x, ``--floor``) — the regression gate CI relies on.

Run with:  PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--floor X]
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro import telemetry
from repro.core.config import CdrChannelConfig
from repro.datapath.cid import measured_run_distribution
from repro.datapath.nrz import JitterSpec, generate_edge_times
from repro.datapath.prbs import prbs7, prbs_sequence
from repro.experiments import ParameterAxis, ScenarioSpec, StimulusSpec, run_grid
from repro.gates.ring import GccoParameters
from repro.link import (
    LinkCdrChannel,
    LinkConfig,
    LinkTrainer,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    TxFfe,
    statistical_eye,
)
from repro.link.isi import nrz_symbol_levels
from repro.link.memo import clear_link_memo
from repro.statistical.ber_model import CdrJitterBudget
from repro.sweep import (
    ber_vs_channel_loss_sweep,
    ber_vs_frequency_offset_sweep,
    ber_vs_sj_sweep,
)
from repro._jsonio import dumps_compact
from repro.fastpath import engine as fast_engine
from repro.fastpath.backends import make_channel, resolve_backend
from repro.telemetry.manifest import collect_manifest
from repro.telemetry.report import (
    HISTORY_KIND,
    HISTORY_VERSION,
    SECONDS_DECIMALS,
    history_entry,
    stage_breakdown,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"
BREAKDOWN_PATH = (Path(__file__).resolve().parent
                  / "results" / "bench_stage_breakdown.json")
HISTORY_PATH = (Path(__file__).resolve().parent
                / "results" / "bench_history.jsonl")

BASE_JITTER = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01, sj_phase_rad=np.pi / 2)
SJ_FIG14 = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0,
                      sj_amplitude_ui_pp=0.10, sj_frequency_hz=250.0e6)


#: Timed calls per leg after the untimed warm-up call; a leg reports the best.
TIMED_REPEATS = 3


def _timed(function):
    """Time *function* warm: the best of :data:`TIMED_REPEATS` calls after one untimed call.

    The warm-up call starts from an empty link memo and pays every
    first-call cost: imports, numpy and interpreter caches, and the pulse
    responses, displacement tables and DFE adaptation the memo then
    serves to the timed calls.  Each leg of a backend comparison
    (``fast_s`` against ``event_s``) therefore times the same work — its
    own backend behind a warm, shared front end — and the best of the
    timed calls drops scheduler noise.  Only the warm-up call runs under
    the active trace, so a stage breakdown describes one cold call per
    leg; the timed calls run under a throwaway tracer, so they are still
    timed with telemetry enabled.  *function* must repeat the same work
    on every call; the value of the last call is returned.
    """
    clear_link_memo()
    value = function()
    best = float("inf")
    with telemetry.trace("timed_calls"):
        for _ in range(TIMED_REPEATS):
            start = time.perf_counter()
            value = function()
            best = min(best, time.perf_counter() - start)
    return value, best


def _seconds(value: float) -> float:
    """A timed leg's seconds as recorded: to :data:`SECONDS_DECIMALS` decimals (the microsecond)."""
    return round(value, SECONDS_DECIMALS)


#: Host-probe samples taken right before and right after each benchmark.
PROBE_SAMPLES = 5


def probe_once() -> float:
    """Thread CPU seconds of one fixed slice of Python float arithmetic.

    The slice never touches ``repro``, so its duration tracks only the
    host's momentary speed (the same recipe as cdrbench's host probe).
    The history ledger records the run's mean as ``host_probe_ms``, and
    ``report --history`` rescales solver seconds by it.
    """
    start = time.thread_time()
    x = 0.0
    for i in range(5_000):
        x = x * 0.5 + math.sin(i)
    return time.thread_time() - start


def _traced(name, bench, probe_samples, **kwargs):
    """Run *bench* under a telemetry trace; embed its stage breakdown.

    Host-probe samples taken around the benchmark are appended to
    *probe_samples*.
    """
    probe_samples.extend(probe_once() for _ in range(PROBE_SAMPLES))
    with telemetry.trace(name) as tracer:
        entry = bench(**kwargs)
    probe_samples.extend(probe_once() for _ in range(PROBE_SAMPLES))
    entry["stage_breakdown"] = stage_breakdown(tracer)
    return entry


def bench_fig09_sj_sweep(n_bits: int) -> dict:
    """Figure 9 companion: BER-vs-SJ surface, both backends."""
    frequencies = np.array([1.0e-3, 1.0e-2, 0.3]) * 2.5e9
    amplitudes = np.array([0.1, 0.6, 1.0])

    def sweep(backend: str):
        return ber_vs_sj_sweep(frequencies, amplitudes, base_jitter=BASE_JITTER,
                               n_bits=n_bits, backend=backend, seed=9, workers=1)

    fast, fast_s = _timed(lambda: sweep("fast"))
    event, event_s = _timed(lambda: sweep("event"))
    assert np.array_equal(fast.metrics["errors"], event.metrics["errors"]), "backend divergence!"
    return {
        "grid_points": int(frequencies.size * amplitudes.size),
        "n_bits_per_point": n_bits,
        "event_s": _seconds(event_s),
        "fast_s": _seconds(fast_s),
        "speedup": round(event_s / fast_s, 2),
        "identical_error_counts": True,
        "total_errors": int(fast.metrics["errors"].sum()),
        "sweep_result": fast.to_dict(),
    }


def bench_fig10_offset_sweep(n_bits: int) -> dict:
    """Figure 10 companion: BER versus channel frequency offset."""
    offsets = np.array([0.0, 0.005, 0.01, 0.02, 0.05])

    def sweep(backend: str):
        return ber_vs_frequency_offset_sweep(offsets, jitter=BASE_JITTER,
                                             n_bits=n_bits, backend=backend,
                                             seed=9, workers=1)

    fast, fast_s = _timed(lambda: sweep("fast"))
    event, event_s = _timed(lambda: sweep("event"))
    assert np.array_equal(fast.metrics["errors"], event.metrics["errors"]), "backend divergence!"
    return {
        "grid_points": int(offsets.size),
        "n_bits_per_point": n_bits,
        "sweep_result": fast.to_dict(),
        "event_s": _seconds(event_s),
        "fast_s": _seconds(fast_s),
        "speedup": round(event_s / fast_s, 2),
        "identical_error_counts": True,
        "total_errors": int(fast.metrics["errors"].sum()),
    }


def bench_fig14_eye(n_bits: int) -> dict:
    """Figure 14 condition: PRBS7 eye with a 5 % slow oscillator."""
    config = CdrChannelConfig(
        oscillator=GccoParameters(jitter_sigma_fraction=0.0),
        frequency_offset=2.5e9 / 2.375e9 - 1.0,
    )
    bits = prbs7(n_bits)

    def run(backend: str):
        channel = make_channel(config, backend)
        result = channel.run(bits, jitter=SJ_FIG14, rng=np.random.default_rng(14))
        return result.eye_diagram().metrics(), result.ber().errors

    (fast_eye, fast_errors), fast_s = _timed(lambda: run("fast"))
    (event_eye, event_errors), event_s = _timed(lambda: run("event"))
    assert fast_errors == event_errors, "backend divergence!"
    assert fast_eye.n_crossings == event_eye.n_crossings
    return {
        "n_bits": n_bits,
        "event_s": _seconds(event_s),
        "fast_s": _seconds(fast_s),
        "speedup": round(event_s / fast_s, 2),
        "identical_error_counts": True,
        "eye_opening_ui": round(fast_eye.eye_opening_ui, 4),
    }


def bench_link_ber_vs_loss(n_bits: int) -> dict:
    """Link front end: BER-vs-channel-loss sweep through the FFE+CTLE path.

    Exercises the full waveform pipeline (pulse-response FFT, circular ISI
    superposition, crossing extraction, residual-jitter composition) in
    front of both CDR backends; the pre-built edge stream keeps them
    bit-identical, and the memoized pulse/displacement tables mean each
    extra bit costs only the CDR simulation itself.  Each backend leg's
    warm-up call starts from an empty link memo and fills it, so the
    timed calls compare the backends behind the same warm front end
    (:func:`_timed`).
    """
    losses = np.array([6.0, 12.0, 16.0, 18.0])
    link = LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                      rx_ctle=RxCtle(peaking_db=6.0))

    def sweep(backend: str):
        return ber_vs_channel_loss_sweep(losses, link=link, n_bits=n_bits,
                                         backend=backend, seed=9, workers=1)

    fast, fast_s = _timed(lambda: sweep("fast"))
    event, event_s = _timed(lambda: sweep("event"))
    assert np.array_equal(fast.metrics["errors"], event.metrics["errors"]), "backend divergence!"
    _, short_point_s = _timed(lambda: _short_point_grid(link))
    return {
        "grid_points": int(losses.size),
        "n_bits_per_point": n_bits,
        "sweep_result": fast.to_dict(),
        "event_s": _seconds(event_s),
        "fast_s": _seconds(fast_s),
        "speedup": round(event_s / fast_s, 2),
        "identical_error_counts": True,
        "total_errors": int(fast.metrics["errors"].sum()),
        "short_point_grid_points": SHORT_POINT_LOSSES.size * SHORT_POINT_SJ.size,
        "short_point_s": _seconds(short_point_s),
    }


#: The short-point grid: loss x SJ, 64 points of 256 bits each.
SHORT_POINT_LOSSES = np.linspace(6.0, 13.75, 8)
SHORT_POINT_SJ = np.linspace(0.0, 0.62, 8)


def _short_point_grid(link: LinkConfig):
    """One in-process fast-backend grid of short points, no checkpoint.

    The cdrbench ``checkpointed_grid`` shape at 64 points: 256 PRBS7 bits
    per point through *link*, with a 25 MHz SJ tone.  At 256 bits a point's
    fixed cost (edge stream, the fast path's array passes, BER alignment,
    engine) outweighs its per-bit cost, so ``short_point_s`` tracks it.
    """
    spec = ScenarioSpec(
        stimulus=StimulusSpec(kind="prbs", n_bits=256, prbs_order=7, seed=1),
        link=link,
        jitter=JitterSpec(sj_frequency_hz=25.0e6),
        backend="fast",
    )
    axes = (ParameterAxis("channel_loss_db", tuple(SHORT_POINT_LOSSES.tolist())),
            ParameterAxis("sj_amplitude_ui_pp", tuple(SHORT_POINT_SJ.tolist())))
    return run_grid(spec, axes, seed=9, workers=1)


def bench_stateye_vs_bittrue(n_bits: int) -> dict:
    """Statistical eye versus bit-true extrapolation to the 1e-12 BER floor.

    The statistical eye solves the full BER(phase, threshold) surface
    analytically; a bit-true run can only *count* errors, so reaching a
    1e-12 confidence (ten errors) needs ~1e13 bits.  This benchmark times
    both on the cross-validated short-pattern configuration
    (``tests/link/test_stateye.py``): the fast backend's measured
    throughput is extrapolated to the 1e-12 bit budget and compared with
    the statistical solve, and the BER agreement of the two views at the
    operating point is recorded alongside.
    """
    target_ber = 1.0e-12
    extrapolation_bits = 10.0 / target_ber
    offset = 0.12
    link = LinkConfig(channel=LossyLineChannel.for_loss_at_nyquist(10.0),
                      tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                      rx_ctle=RxCtle(peaking_db=6.0))
    config = CdrChannelConfig(
        oscillator=GccoParameters(jitter_sigma_fraction=0.0),
        frequency_offset=offset)
    bits = prbs_sequence(7, n_bits)

    def bittrue():
        channel = LinkCdrChannel(link, config=config, backend="fast")
        return channel.run(bits, rng=np.random.default_rng(3),
                           pattern_period=127).ber()

    def solve():
        budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.0,
                                 osc_sigma_ui_per_bit=0.0,
                                 frequency_offset=offset)
        eye = statistical_eye(
            link, budget=budget,
            run_lengths=measured_run_distribution(prbs_sequence(7, 127),
                                                  max_run=7))
        return (eye.ber_at(0.5, 0.0),
                eye.horizontal_opening_ui(target_ber),
                eye.vertical_opening(target_ber))

    measurement, bittrue_s = _timed(bittrue)
    (stateye_ber, horizontal_ui, vertical), stateye_s = _timed(solve)
    measured_ber = measurement.ber
    throughput = n_bits / bittrue_s
    extrapolated_s = extrapolation_bits / throughput
    return {
        "n_bits_timed": n_bits,
        "bittrue_s": round(bittrue_s, 4),
        "bittrue_throughput_bits_per_s": round(throughput),
        "extrapolation_target_ber": target_ber,
        "extrapolation_bits": extrapolation_bits,
        "bittrue_extrapolated_s": round(extrapolated_s),
        "stateye_s": _seconds(stateye_s),
        "speedup": round(extrapolated_s / stateye_s),
        "measured_ber": measured_ber,
        "stateye_ber": stateye_ber,
        "agreement_ratio": round(stateye_ber / measured_ber, 3),
        "stateye_horizontal_opening_ui": round(horizontal_ui, 4),
        "stateye_vertical_opening": round(vertical, 4),
    }


def bench_link_training(n_bits: int) -> dict:
    """Link training on the stateye objective versus a bit-true objective.

    Trains the 14 dB reference channel end to end (coarse grid +
    coordinate descent + DFE adaptation) on the statistical-eye objective
    and times it.  The naive alternative — scoring every candidate of the
    same coarse grid with a bit-true run — cannot rank lineups at the
    1e-12 target at all without ~1e13 bits per candidate, so as in
    ``stateye_vs_bittrue`` one candidate's measured bit-true throughput is
    extrapolated to the grid's full bit budget and compared against the
    *entire* training run (which evaluates more candidates than the grid,
    thanks to refinement).
    """
    target_ber = 1.0e-12
    bits_per_candidate = 10.0 / target_ber
    link = LinkConfig(channel=LossyLineChannel.for_loss_at_nyquist(14.0))
    trainer = LinkTrainer(link)
    grid_points = len(trainer.training.tx_post_db) \
        * len(trainer.training.ctle_peaking_db)

    # A fresh trainer per call: a trainer memoises its objective, so a
    # repeated train() on one instance would time cache hits.
    trained, training_s = _timed(lambda: LinkTrainer(link).train())

    def bittrue_candidate():
        channel = LinkCdrChannel(trained.apply(link), backend="fast")
        return channel.run(prbs_sequence(7, n_bits),
                           rng=np.random.default_rng(3),
                           pattern_period=127).ber()

    _measurement, candidate_s = _timed(bittrue_candidate)
    throughput = n_bits / candidate_s
    naive_extrapolated_s = grid_points * bits_per_candidate / throughput
    return {
        "grid_points": grid_points,
        "n_bits_timed": n_bits,
        "training_s": _seconds(training_s),
        "training_evaluations": trained.n_evaluations,
        "bittrue_candidate_s": round(candidate_s, 4),
        "bittrue_throughput_bits_per_s": round(throughput),
        "naive_target_ber": target_ber,
        "naive_bits_per_candidate": bits_per_candidate,
        "naive_extrapolated_s": round(naive_extrapolated_s),
        "speedup": round(naive_extrapolated_s / training_s),
        "trained_tx_post_db": trained.tx_post_db,
        "trained_ctle_peaking_db": trained.ctle_peaking_db,
        "trained_vertical_opening": round(trained.eye.vertical, 4),
        "trained_horizontal_opening_ui": round(trained.eye.horizontal_ui, 4),
        "coarse_vertical_opening": round(trained.coarse_eye.vertical, 4),
        "beats_coarse_grid": trained.eye.score > trained.coarse_eye.score,
    }


#: Bits of the fixed PRBS7 stimulus behind ``ring_bits_per_s``.
RING_BITS = 36_000


def bench_ring_rates(n_bits: int = RING_BITS) -> dict:
    """Warm bits/s of the fast path's gated ring on one fixed EDET stream.

    The stream is the paper channel's edge-detector output for a
    jitter-free PRBS7 pattern of *n_bits* bits, whose gate-high spans the
    settled-span bulk step takes.  ``jitter_free`` is the best of
    :data:`TIMED_REPEATS` warm calls (``_timed``).
    """
    config = CdrChannelConfig()
    unit_interval = config.unit_interval_s
    stream = generate_edge_times(
        prbs_sequence(7, n_bits), bit_rate_hz=config.bit_rate_hz,
        jitter=JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0, sj_amplitude_ui_pp=0.0),
        start_time_s=4 * unit_interval, rng=np.random.default_rng(0))
    _, edet = fast_engine._edge_detector(stream.edge_times_s, config)
    ring = {
        **fast_engine._ring_delays(config),
        "duration_s": stream.start_time_s + stream.duration_s + 4.0 * unit_interval,
        "n_stages": config.oscillator.n_stages,
        "improved_tap": False,
    }
    _, jitter_free_s = _timed(lambda: fast_engine._ring_recurrence(edet, **ring))
    return {"jitter_free": round(n_bits / jitter_free_s)}


def bench_bittrue_kernels(n_bits: int) -> dict:
    """Bit-true gate: the DFE-equalized link on the event kernel vs the fast path.

    Runs the same DFE-equalized bit-true link simulation twice through
    :class:`~repro.link.LinkCdrChannel`: once on the event kernel (the
    semantic reference) and once on the auto-resolved vectorized fast
    path.  The two runs must agree **byte for byte** — the golden
    bit-identity pin — and the fast path must clear a 10x floor
    (``EXTRA_FLOORS``).  The absolute time of 20 isolated DFE adaptations
    (``dfe_adapt_s``) and the fast path's absolute ring rates
    (:func:`bench_ring_rates`, a fixed stimulus whatever *n_bits*) are
    reported alongside.
    """
    link = LinkConfig(
        channel=LossyLineChannel.for_loss_at_nyquist(12.0),
        tx_ffe=TxFfe.de_emphasis(post_db=3.5),
        rx_ctle=RxCtle(peaking_db=6.0),
        dfe=LmsDfe(n_taps=3, step_size=0.02, n_epochs=60),
    )
    config = CdrChannelConfig(
        oscillator=GccoParameters(jitter_sigma_fraction=0.0))
    bits = prbs_sequence(7, n_bits)

    def run_on(backend):
        channel = LinkCdrChannel(link, config=config, backend=backend)
        return channel, channel.run(bits, rng=np.random.default_rng(21),
                                    pattern_period=127)

    (channel, fast), fast_s = _timed(lambda: run_on("auto"))
    (_, reference), event_s = _timed(lambda: run_on("event"))
    assert fast.sampled_bits.tobytes() == reference.sampled_bits.tobytes(), \
        "backend divergence!"
    assert fast.ber().errors == reference.ber().errors, "backend divergence!"

    # Isolated DFE adaptation on the scalar recursion.
    levels = nrz_symbol_levels(prbs_sequence(7, 127))
    samples = levels + np.random.default_rng(1234).normal(0.0, 0.18, levels.size)
    repetitions = range(20)
    _, adapt_s = _timed(lambda: [
        link.dfe.adapt(samples, levels) for _ in repetitions])

    return {
        "n_bits": n_bits,
        "resolved_backend": channel.backend,
        "event_s": _seconds(event_s),
        "fast_s": _seconds(fast_s),
        "speedup": round(event_s / fast_s, 2),
        "bit_identical": True,
        "total_errors": int(fast.ber().errors),
        "dfe_adapt_s": round(adapt_s, 4),
        "ring_bits_per_s": bench_ring_rates(),
    }


#: Per-benchmark speedup floors stricter than the global ``--floor``: the
#: statistical eye must beat bit-true extrapolation by orders of magnitude,
#: so anything under 100x signals a broken solver (same for the training
#: loop built on it), not noise; the fast path must beat the event kernel
#: by at least 10x on the DFE-equalized bit-true link.
EXTRA_FLOORS = {
    "stateye_vs_bittrue": 100.0,
    "link_training": 100.0,
    "bittrue_kernels": 10.0,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller bit budgets (CI smoke run)")
    parser.add_argument("--floor", type=float, default=5.0,
                        help="minimum acceptable fastpath speedup (default 5)")
    arguments = parser.parse_args()
    scale = 1 if arguments.quick else 2

    # One provenance manifest for the whole run, stamped into every entry
    # and the history record: the auto-resolved backend is what the fast
    # sides of the benchmarks actually exercise.
    manifest = collect_manifest(backend=resolve_backend())
    probe_samples: list[float] = []

    print("timing fig09 BER-vs-SJ sweep (event vs fast)...")
    fig09 = _traced("fig09_ber_vs_sj_sweep", bench_fig09_sj_sweep, probe_samples,
                    n_bits=1000 * scale)
    print(f"  event {fig09['event_s']}s  fast {fig09['fast_s']}s  "
          f"speedup {fig09['speedup']}x")
    print("timing fig10 BER-vs-offset sweep...")
    fig10 = _traced("fig10_ber_vs_offset_sweep", bench_fig10_offset_sweep, probe_samples,
                    n_bits=1000 * scale)
    print(f"  event {fig10['event_s']}s  fast {fig10['fast_s']}s  "
          f"speedup {fig10['speedup']}x")
    print("timing fig14 eye simulation...")
    fig14 = _traced("fig14_eye_prbs7", bench_fig14_eye, probe_samples, n_bits=2000 * scale)
    print(f"  event {fig14['event_s']}s  fast {fig14['fast_s']}s  "
          f"speedup {fig14['speedup']}x")
    print("timing link BER-vs-loss sweep (waveform front end)...")
    link = _traced("link_ber_vs_loss", bench_link_ber_vs_loss, probe_samples,
                   n_bits=1000 * scale)
    print(f"  event {link['event_s']}s  fast {link['fast_s']}s  "
          f"speedup {link['speedup']}x  "
          f"({link['short_point_grid_points']} short points {link['short_point_s']}s)")
    print("timing statistical eye vs bit-true 1e-12 extrapolation...")
    stateye = _traced("stateye_vs_bittrue", bench_stateye_vs_bittrue, probe_samples,
                      n_bits=10000 * scale)
    print(f"  bit-true to 1e-12 ~{stateye['bittrue_extrapolated_s']}s  "
          f"stateye {stateye['stateye_s']}s  speedup {stateye['speedup']}x  "
          f"(BER agreement ratio {stateye['agreement_ratio']})")
    print("timing link training vs naive bit-true grid search...")
    training = _traced("link_training", bench_link_training, probe_samples,
                       n_bits=10000 * scale)
    print(f"  naive bit-true grid ~{training['naive_extrapolated_s']}s  "
          f"training {training['training_s']}s "
          f"({training['training_evaluations']} evaluations)  "
          f"speedup {training['speedup']}x")
    print("timing DFE-equalized bit-true link (event vs fast)...")
    kernels = _traced("bittrue_kernels", bench_bittrue_kernels, probe_samples,
                      n_bits=4000 * scale)
    print(f"  event {kernels['event_s']}s  fast {kernels['fast_s']}s "
          f"({kernels['resolved_backend']})  "
          f"speedup {kernels['speedup']}x  "
          f"(20 isolated DFE adapts {kernels['dfe_adapt_s']}s)")
    print(f"  gated ring {kernels['ring_bits_per_s']['jitter_free']} bits/s jitter-free")

    payload = {
        "python": manifest.python,
        "machine": manifest.machine,
        "manifest": manifest.to_dict(),
        "benchmarks": {
            "fig09_ber_vs_sj_sweep": fig09,
            "fig10_ber_vs_offset_sweep": fig10,
            "fig14_eye_prbs7": fig14,
            "link_ber_vs_loss": link,
            "stateye_vs_bittrue": stateye,
            "link_training": training,
            "bittrue_kernels": kernels,
        },
    }
    for entry in payload["benchmarks"].values():
        entry["manifest"] = manifest.to_dict()
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    breakdowns = {name: entry["stage_breakdown"]
                  for name, entry in payload["benchmarks"].items()}
    BREAKDOWN_PATH.parent.mkdir(parents=True, exist_ok=True)
    BREAKDOWN_PATH.write_text(
        json.dumps({"benchmarks": breakdowns}, indent=2) + "\n")
    print(f"wrote {BREAKDOWN_PATH}")

    # Append this run to the persistent speed ledger (the trend input
    # of `python -m repro.telemetry.report --history`).
    history_record = {
        "kind": HISTORY_KIND,
        "version": HISTORY_VERSION,
        "quick": bool(arguments.quick),
        "floor": arguments.floor,
        "manifest": manifest.to_dict(),
        "host_probe_ms": round(1000.0 * statistics.fmean(probe_samples), 4),
        "seconds_decimals": SECONDS_DECIMALS,
        "entries": {name: history_entry(entry)
                    for name, entry in payload["benchmarks"].items()},
    }
    HISTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    with HISTORY_PATH.open("a", encoding="utf-8") as handle:
        handle.write(dumps_compact(history_record) + "\n")
    print(f"appended {HISTORY_PATH}")

    floor = arguments.floor
    below = {name: entry["speedup"]
             for name, entry in payload["benchmarks"].items()
             if entry["speedup"] < max(floor, EXTRA_FLOORS.get(name, 0.0))}
    if below:
        for name, speedup in sorted(below.items()):
            required = max(floor, EXTRA_FLOORS.get(name, 0.0))
            print(f"FAIL: {name} speedup {speedup}x below the {required}x floor")
        return 1
    slowest = min(entry["speedup"] for entry in payload["benchmarks"].values())
    print(f"all speedups >= {slowest}x (floor: >= {floor}x) — OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
