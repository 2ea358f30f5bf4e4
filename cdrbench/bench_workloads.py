"""The four CDR study workloads: grids, warm-ups, timed studies and checks.

Every workload drives the public :func:`repro.experiments.run_grid` entry
point with ``workers=1``.  A workload is built from a seed: the seed picks
the runner's random streams and the PRBS start state, while the grid shape
and axis values stay fixed, so every pass of every seed does the same
amount of simulation work.

Importing this module imports :mod:`repro`; ``bench_pass.py`` does so
inside its set-up clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro._jsonio import content_key
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.experiments import (
    DEFAULT_CHUNK_SIZE,
    MeasurementPlan,
    ParameterAxis,
    ScenarioSpec,
    StimulusSpec,
    SweepResult,
    run_grid,
)
from repro.link import LinkConfig, RxCtle, TrainingBudget, TxFfe

SCALES = ("full", "tiny")

#: Sinusoidal-jitter frequency of every SJ axis (inside the tracking band).
SJ_FREQUENCY_HZ = 25.0e6


@dataclass(frozen=True)
class Study:
    """One run_grid call: base scenario, axes, runner seed and options."""

    spec: ScenarioSpec
    axes: tuple[ParameterAxis, ...]
    seed: int
    options: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return int(np.prod([len(axis) for axis in self.axes]))

    def run(self, **extra) -> SweepResult:
        return run_grid(self.spec, self.axes, seed=self.seed, workers=1, **self.options, **extra)


@dataclass
class Outcome:
    """What one timed study produced, for the metrics and the checks.

    ``results`` are the run_grid results of the timed window, in call
    order; ``executed`` counts grid points simulated (restored checkpoint
    points excluded) and ``bits`` the bit-true bits they compared.
    """

    results: list
    executed: int
    bits: int
    durations_s: list
    digest: str
    checks: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def derive_seeds(seed: int) -> tuple[int, int]:
    """``(runner seed, PRBS7 start state)`` drawn from the benchmark seed."""
    entropy = np.random.SeedSequence(int(seed)).generate_state(2)
    return int(entropy[0]), int(entropy[1] % 127) + 1


def metrics_digest(result: SweepResult) -> str:
    """Content key of a result's simulated statistics (its metric grids)."""
    return content_key(result.metrics)


def _prbs(n_bits: int, start: int) -> StimulusSpec:
    return StimulusSpec(kind="prbs", n_bits=n_bits, prbs_order=7, seed=start)


def _sj(amplitudes) -> ParameterAxis:
    return ParameterAxis("sj_amplitude_ui_pp", tuple(float(a) for a in amplitudes))


def _losses(values) -> ParameterAxis:
    return ParameterAxis("channel_loss_db", tuple(float(v) for v in values))


# --- ber_sweep ---------------------------------------------------------------


def _ber_spec(n_bits: int, start: int) -> ScenarioSpec:
    # Table 1 transmitter jitter plus a swept SJ tone on the clean
    # (jitter-free) oscillator, so "fast" is exact; no link front end.
    jitter = JitterSpec(sj_frequency_hz=SJ_FREQUENCY_HZ)
    return ScenarioSpec(stimulus=_prbs(n_bits, start), jitter=jitter, backend="fast")


def ber_sweep(seed: int, scale: str) -> tuple[Study, Study]:
    runner_seed, start = derive_seeds(seed)
    if scale == "full":
        n_bits, offsets, amplitudes = 36_000, (0.0, 0.01, 0.02, 0.03), (0.1, 0.3, 0.5)
    else:
        n_bits, offsets, amplitudes = 1_000, (0.0, 0.02), (0.1, 0.5)
    timed = Study(
        _ber_spec(n_bits, start),
        (ParameterAxis("frequency_offset", offsets), _sj(amplitudes)),
        runner_seed,
    )
    warm = Study(
        _ber_spec(500, start),
        (ParameterAxis("frequency_offset", (0.005,)), _sj((0.2, 0.4))),
        runner_seed + 1,
    )
    return timed, warm


def check_fast_equals_event(study: Study, n_bits: int) -> bool:
    """One grid point on both bit-true backends: identical statistics.

    Runs the grid's middle point on a shortened stimulus, so the event
    kernel's cost stays bounded; the clean oscillator makes the two
    backends exact equivalents.
    """
    point_axes = tuple(
        ParameterAxis(axis.name, (axis.values[len(axis.values) // 2],)) for axis in study.axes
    )
    spec = replace(study.spec, stimulus=replace(study.spec.stimulus, n_bits=n_bits))
    digests = [
        metrics_digest(run_grid(replace(spec, backend=b), point_axes, seed=study.seed, workers=1))
        for b in ("fast", "event")
    ]
    return digests[0] == digests[1]


# --- link_training -------------------------------------------------------------


def link_training(seed: int, scale: str) -> tuple[Study, Study]:
    runner_seed, start = derive_seeds(seed)
    plan = MeasurementPlan(train_equalizers=True)
    if scale == "full":
        losses, training = (8.0, 11.0, 14.0, 17.0), None
    else:
        losses = (10.0,)
        training = TrainingBudget(tx_post_db=(0.0, 3.5), ctle_peaking_db=(3.0,), refine_rounds=0)
    timed_spec = ScenarioSpec(
        stimulus=_prbs(4 * 127, start), link=LinkConfig(), measurement=plan, training=training
    )
    warm_spec = ScenarioSpec(
        stimulus=_prbs(127, start),
        link=LinkConfig(),
        measurement=plan,
        training=TrainingBudget(tx_post_db=(1.0,), ctle_peaking_db=(4.0,), refine_rounds=0),
    )
    timed = Study(timed_spec, (_losses(losses),), runner_seed)
    warm = Study(warm_spec, (_losses((6.5,)),), runner_seed + 1)
    return timed, warm


# --- gate_jitter_sweep -----------------------------------------------------------


def _gate_jitter_spec(n_bits: int, start: int) -> ScenarioSpec:
    # Oscillator and gate delay jitter: only the event kernel honours it,
    # so backend="auto" must resolve every point to "event".
    jitter = JitterSpec(sj_frequency_hz=SJ_FREQUENCY_HZ)
    config = CdrChannelConfig.paper_nominal(jitter_sigma_fraction=0.01)
    return ScenarioSpec(stimulus=_prbs(n_bits, start), jitter=jitter, config=config)


def gate_jitter_sweep(seed: int, scale: str) -> tuple[Study, Study]:
    runner_seed, start = derive_seeds(seed)
    if scale == "full":
        n_bits, amplitudes = 4_000, (0.1, 0.2, 0.3, 0.4, 0.5)
    else:
        n_bits, amplitudes = 300, (0.1, 0.4)
    timed = Study(_gate_jitter_spec(n_bits, start), (_sj(amplitudes),), runner_seed)
    warm = Study(_gate_jitter_spec(200, start), (_sj((0.25,)),), runner_seed + 1)
    return timed, warm


# --- checkpointed_grid -----------------------------------------------------------


def _checkpoint_spec(start: int) -> ScenarioSpec:
    link = LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5), rx_ctle=RxCtle(peaking_db=6.0))
    jitter = JitterSpec(sj_frequency_hz=SJ_FREQUENCY_HZ)
    return ScenarioSpec(stimulus=_prbs(256, start), link=link, jitter=jitter)


def checkpointed_grid(seed: int, scale: str) -> tuple[Study, Study]:
    runner_seed, start = derive_seeds(seed)
    options = {"failure_policy": "collect"}
    if scale == "full":
        losses = np.linspace(6.0, 13.75, 32)
        amplitudes = np.linspace(0.0, 0.62, 32)
    else:
        losses, amplitudes = (6.0, 9.0, 12.0), (0.0, 0.3)
        options["chunk_size"] = 2
    timed = Study(_checkpoint_spec(start), (_losses(losses), _sj(amplitudes)), runner_seed, options)
    warm = Study(
        _checkpoint_spec(start),
        (_losses((5.3,)), _sj((0.05, 0.15))),
        runner_seed + 1,
        {"failure_policy": "collect", "chunk_size": 1},
    )
    return timed, warm


WORKLOAD_FACTORIES = {
    "ber_sweep": ber_sweep,
    "link_training": link_training,
    "gate_jitter_sweep": gate_jitter_sweep,
    "checkpointed_grid": checkpointed_grid,
}


def build(workload: str, seed: int, scale: str) -> tuple[Study, Study]:
    """``(timed study, warm-up study)`` of *workload* for *seed*.

    The warm-up grid shares no point (and no channel) with the timed grid.
    """
    if workload not in WORKLOAD_FACTORIES:
        expected = list(WORKLOAD_FACTORIES)
        raise ValueError(f"unknown workload {workload!r}; expected one of {expected}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {list(SCALES)}")
    return WORKLOAD_FACTORIES[workload](seed, scale)


# --- running and checking ----------------------------------------------------------


def _executed_durations(result: SweepResult) -> list[float]:
    return [audit.duration_s for audit in result.audit if audit.mode != "checkpoint"]


def _executed_bits(result: SweepResult) -> int:
    executed = np.array([audit.mode != "checkpoint" for audit in result.audit])
    return int(result.metrics["compared"].ravel()[executed].sum())


def _basic_checks(study: Study, result: SweepResult) -> dict[str, bool]:
    ber = result.ber.ravel()
    serial = [audit.mode == "serial" for audit in result.audit]
    return {
        "no_failed_points": not result.failures,
        "every_point_ran_serially": len(serial) == study.n_points and all(serial),
        "bits_compared": bool(np.all(result.metrics["compared"] > 0)),
        "ber_in_unit_interval": bool(np.all((ber >= 0.0) & (ber <= 1.0))),
    }


def _remove_checkpoints(workdir: Path) -> None:
    """Delete the pass's checkpoint files and their sidecars."""
    for path in workdir.glob("*.ckpt*"):
        path.unlink()


def truncate_checkpoint(source: Path, target: Path, keep_points: int) -> None:
    """Copy *source* cut after its first *keep_points* point records."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    target.write_text("".join(lines[: 1 + keep_points]), encoding="utf-8")


def run_study(workload: str, study: Study, workdir: Path, clock) -> Outcome:
    """The timed part of one pass: the study, plus its in-window extras.

    *clock* is a zero-argument callable returning seconds
    (``time.perf_counter`` in ``bench_pass.py``); it times the checkpoint
    resume and the JSON round trip of ``checkpointed_grid``.
    """
    if workload != "checkpointed_grid":
        result = study.run()
        checks = _basic_checks(study, result)
        if workload == "gate_jitter_sweep":
            checks["auto_resolved_event"] = set(result.point_backends) == {"event"}
        if workload == "link_training":
            trained = result.metrics["trained_score"]
            checks["trained_not_worse"] = bool(np.all(trained >= result.metrics["fixed_score"]))
        return Outcome(
            results=[result],
            executed=result.n_points,
            bits=_executed_bits(result),
            durations_s=_executed_durations(result),
            digest=metrics_digest(result),
            checks=checks,
        )

    checkpoint = workdir / "grid.ckpt"
    resumed_path = workdir / "resumed.ckpt"
    full = study.run(checkpoint=checkpoint)
    checkpoint_bytes = checkpoint.stat().st_size
    chunk = study.options.get("chunk_size", DEFAULT_CHUNK_SIZE)
    keep = (study.n_points // 2) // chunk * chunk
    truncate_checkpoint(checkpoint, resumed_path, keep)
    start = clock()
    resumed = study.run(checkpoint=resumed_path)
    resume_s = clock() - start
    start = clock()
    text = full.to_json()
    back = SweepResult.from_json(text)
    roundtrip_s = clock() - start
    checks = _basic_checks(study, full)
    checks["resume_byte_identical"] = resumed.to_json() == text
    checks["resume_restored_half"] = sum(a.mode == "checkpoint" for a in resumed.audit) == keep
    checks["json_roundtrip_lossless"] = back.equals(full) and back.to_json() == text
    _remove_checkpoints(workdir)
    return Outcome(
        results=[full, resumed],
        executed=full.n_points + (resumed.n_points - keep),
        bits=_executed_bits(full) + _executed_bits(resumed),
        durations_s=_executed_durations(full) + _executed_durations(resumed),
        digest=metrics_digest(full),
        checks=checks,
        extra={
            "checkpoint_bytes": checkpoint_bytes,
            "resume_s": resume_s,
            "roundtrip_s": roundtrip_s,
        },
    )


def warm_up(workload: str, study: Study, workdir: Path) -> None:
    """Run the tiny warm-up grid through the same code paths as the study."""
    if workload == "checkpointed_grid":
        result = study.run(checkpoint=workdir / "warm.ckpt")
        SweepResult.from_json(result.to_json())
        _remove_checkpoints(workdir)
    else:
        study.run()
