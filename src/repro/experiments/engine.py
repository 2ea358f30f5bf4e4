"""Generic grid / search execution of declarative scenarios.

One engine replaces the per-sweep pipelines: a study is a base
:class:`~repro.experiments.spec.ScenarioSpec` plus
:class:`~repro.experiments.spec.ParameterAxis` objects, and

* :func:`run_grid` measures every point of their cartesian grid,
* :func:`run_tolerance_search` finds, per grid point, the largest value of
  one extra axis that still passes an error-count criterion (the
  jitter-tolerance shape),

both on the deterministic
:func:`repro.sweep.resilient.map_tasks_resilient` pool — per-point random
streams come from a spawned SeedSequence tree, so any worker count
produces identical results.  The backend of every resolved point goes
through :func:`repro.fastpath.backends.resolve_backend`, so
``backend="auto"`` picks the event kernel on a jittered point and the
fast path otherwise, and forcing ``"fast"`` on a jittered point fails
loudly.

The per-point execution (:func:`simulate_scenario`) is deliberately
identical, call for call and random draw for random draw, to what the
legacy hand-rolled sweep workers did — the seven public sweeps in
:mod:`repro.sweep.sweeps` are thin wrappers over this engine and return
bit-identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import units
from .._jsonio import content_key
from .._validation import require_positive
from ..datapath.cid import geometric_run_distribution
from ..fastpath.backends import make_channel, resolve_backend
from ..telemetry.manifest import collect_manifest
from ..link import LinkPath, LinkTrainer, statistical_eye
from ..statistical.ber_model import CdrJitterBudget
from .results import AxisResult, PointFailure, SweepResult
from .spec import ParameterAxis, ScenarioSpec, StimulusSpec, apply_axis

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ToleranceSearch",
    "simulate_scenario",
    "scenario_timing_budget",
    "statistical_eye_measurement",
    "link_training_measurement",
    "resolve_grid",
    "run_grid",
    "run_tolerance_search",
]

#: Grid points executed (and checkpointed) per chunk unless overridden —
#: small enough to bound peak in-flight memory and give interruption a
#: fine recovery grain, large enough that chunking overhead is noise.
DEFAULT_CHUNK_SIZE = 64


# --- single-point execution ---------------------------------------------------

#: Bits of the stimuli this process has made, by frozen spec (see
#: :func:`_stimulus_bits`); the oldest entry goes past the size cap.
_STIMULUS_BITS: dict[StimulusSpec, np.ndarray] = {}
_STIMULUS_MEMO_SIZE = 32


def _stimulus_bits(stimulus: StimulusSpec) -> np.ndarray:
    """The stimulus's bits, made once per distinct spec in this process.

    The points of a grid mostly transmit one pattern, so the worker makes
    it once instead of at every point.  The memo lives wherever the point
    runs (a pool child fills its own) and holds read-only copies, so no
    point can alter the bits another point sees.  A ``bits()`` that raises
    stores nothing: the exception reaches the runner on every attempt.
    """
    bits = _STIMULUS_BITS.get(stimulus)
    if bits is None:
        bits = np.array(stimulus.bits())
        bits.flags.writeable = False
        if len(_STIMULUS_BITS) >= _STIMULUS_MEMO_SIZE:
            del _STIMULUS_BITS[next(iter(_STIMULUS_BITS))]
        _STIMULUS_BITS[stimulus] = bits
    return bits


def simulate_scenario(spec: ScenarioSpec, rng: np.random.Generator, backend: str | None = None):
    """Run one scenario; returns a ``BehavioralSimulationResult``.

    *backend* overrides the spec's request with an already-resolved concrete
    name (the engine resolves once per point in the parent process); by
    default the spec's own request is resolved here.  Either way
    :func:`~repro.fastpath.backends.make_channel` applies the backend rule
    — forcing ``"fast"`` on a jittered configuration raises, it never
    silently diverges.  The bits come from a per-process memo
    (:func:`_stimulus_bits`), so the result's ``transmitted_bits`` is
    read-only.
    """
    bits = _stimulus_bits(spec.stimulus)
    channel = make_channel(spec.config, spec.backend if backend is None else backend)
    if spec.link is not None:
        stream = LinkPath(spec.link).transmit(
            bits,
            jitter=spec.jitter,
            data_rate_offset_ppm=spec.data_rate_offset_ppm,
            rng=rng,
            pattern_period=spec.stimulus.pattern_period,
        )
        return channel.run(bits, rng=rng, stream=stream)
    return channel.run(
        bits,
        jitter=spec.jitter,
        data_rate_offset_ppm=spec.data_rate_offset_ppm,
        rng=rng,
    )


def scenario_timing_budget(spec: ScenarioSpec) -> CdrJitterBudget:
    """The analytic timing budget implied by one scenario's stressors.

    Carries the scenario's *injected* transmitter jitter (DJ/RJ/SJ —
    channel DDJ emerges from the ISI cursor PDF instead), the
    oscillator-versus-data relative frequency error (CDR offset composed
    with the transmitter's ppm error) and the scenario oscillator's
    accumulated per-bit jitter — shared by the statistical-eye and
    link-training measurements.
    """
    jitter = spec.jitter
    # Per-stage delay jitter accumulates over the 2*n_stages stage
    # traversals of one oscillation period: sigma_bit = fraction/sqrt(2N) UI.
    oscillator = spec.config.oscillator
    osc_sigma_ui = oscillator.jitter_sigma_fraction / math.sqrt(2.0 * oscillator.n_stages)
    # The model's eps is the oscillator period error relative to the
    # *incoming* data period: a slow oscillator (config offset) and a fast
    # transmitter (positive ppm) compound.
    tx_scale = 1.0 + units.ppm_to_fraction(spec.data_rate_offset_ppm)
    relative_offset = (1.0 + spec.config.frequency_offset) * tx_scale - 1.0
    # A zero SJ frequency means the bit-true path injects no sinusoidal
    # displacement at all, so the budget's SJ term must vanish with it (the
    # placeholder frequency below only keeps the budget constructor happy).
    sj_frequency = jitter.sj_frequency_hz if jitter is not None else 0.0
    sj_amplitude = jitter.sj_amplitude_ui_pp if jitter is not None and sj_frequency > 0.0 else 0.0
    return CdrJitterBudget(
        dj_ui_pp=jitter.dj_ui_pp if jitter is not None else 0.0,
        rj_ui_rms=jitter.rj_ui_rms if jitter is not None else 0.0,
        sj_amplitude_ui_pp=sj_amplitude,
        sj_frequency_hz=sj_frequency if sj_frequency > 0.0 else 100.0e6,
        osc_sigma_ui_per_bit=osc_sigma_ui,
        frequency_offset=relative_offset,
        bit_rate_hz=spec.config.bit_rate_hz,
    )


def _scenario_run_lengths(spec: ScenarioSpec):
    if spec.stimulus.kind == "prbs":
        max_run = spec.stimulus.prbs_order
    elif spec.stimulus.kind == "cid_stress":
        max_run = spec.stimulus.max_run
    else:  # encoded8b10b: the code guarantees CID <= 5
        max_run = 5
    return geometric_run_distribution(max_run=max_run)


def statistical_eye_measurement(spec: ScenarioSpec) -> dict[str, float]:
    """Solve the analytic statistical eye of one scenario point.

    The scenario's link configuration (channel, equalizers, crosstalk
    population) feeds :func:`repro.link.statistical_eye`; the timing
    budget comes from :func:`scenario_timing_budget` and the run-length
    statistics follow the stimulus kind.  Returns the ``stateye_*``
    metrics recorded per point.
    """
    if spec.link is None:
        raise ValueError(
            "MeasurementPlan(statistical_eye=True) requires a link front "
            "end: the statistical eye is solved from the pulse response"
        )
    eye = statistical_eye(
        spec.link,
        budget=scenario_timing_budget(spec),
        run_lengths=_scenario_run_lengths(spec),
    )
    target = spec.measurement.target_ber
    return {
        "stateye_ber": eye.ber_at(0.5, 0.0),
        "stateye_horizontal_ui": eye.horizontal_opening_ui(target),
        "stateye_vertical": eye.vertical_opening(target),
    }


def link_training_measurement(spec: ScenarioSpec) -> dict[str, float]:
    """Train the point's link and record trained-versus-fixed metrics.

    The scenario's link supplies the channel environment *and* the fixed
    baseline lineup; :class:`repro.link.LinkTrainer` searches the
    de-emphasis × peaking plane under the scenario's ``training`` budget
    with the same timing budget and run-length statistics the
    statistical-eye measurement uses.  Both the ``trained_*`` and the
    ``fixed_*`` metrics are the *training objective's* view — which folds
    each lineup's dual-Dirac DDJ into its timing walls (the trainer's
    conservative default) — so they compare against each other exactly,
    but can sit below the unfolded ``stateye_*`` metrics of the same
    point.  Recorded per point: the trained and fixed scores, eye
    openings and BER at ``target_ber``, the trained coefficients (search
    coordinates — NaN when the fixed baseline was kept — plus adapted DFE
    taps, when a DFE is configured) and the number of statistical-eye
    solves spent.  ``trained_score >= fixed_score`` holds by construction
    (the baseline seeds the search).
    """
    if spec.link is None:
        raise ValueError(
            "MeasurementPlan(train_equalizers=True) requires a link front "
            "end: training searches the equalizer plane of its channel"
        )
    trainer = LinkTrainer(
        spec.link,
        training=spec.training,
        budget=scenario_timing_budget(spec),
        run_lengths=_scenario_run_lengths(spec),
        target_ber=spec.measurement.target_ber,
    )
    trained = trainer.train()
    fixed = trainer.score_fixed()
    metrics = {
        "trained_score": trained.eye.score,
        "trained_horizontal_ui": trained.eye.horizontal_ui,
        "trained_vertical": trained.eye.vertical,
        "trained_ber": trained.eye.ber_nominal,
        "fixed_score": fixed.score,
        "fixed_horizontal_ui": fixed.horizontal_ui,
        "fixed_vertical": fixed.vertical,
        "fixed_ber": fixed.ber_nominal,
        "trained_tx_post_db": float("nan") if trained.tx_post_db is None else trained.tx_post_db,
        "trained_ctle_peaking_db": (
            float("nan") if trained.ctle_peaking_db is None else trained.ctle_peaking_db
        ),
        "training_evaluations": float(trained.n_evaluations),
    }
    for index, weight in enumerate(trained.dfe_weights, start=1):
        metrics[f"trained_dfe_tap{index}"] = float(weight)
    return metrics


@dataclass(frozen=True)
class _PointTask:
    """One resolved grid point: the scenario plus its concrete backend."""

    spec: ScenarioSpec
    backend: str


def _measure_point(task: _PointTask, rng: np.random.Generator) -> tuple:
    """Pool worker: simulate one point, return its measurements.

    Returns ``(errors, compared, extra metrics or None, retained result or
    None)`` according to the scenario's measurement plan.
    """
    result = simulate_scenario(task.spec, rng, backend=task.backend)
    measurement = result.ber()
    plan = task.spec.measurement
    extras = {}
    if plan.eye:
        metrics = result.eye_diagram().metrics()
        extras.update(
            {
                "eye_opening_ui": float(metrics.eye_opening_ui),
                "eye_centre_ui": float(metrics.eye_centre_ui),
                "n_crossings": float(metrics.n_crossings),
            }
        )
    if plan.statistical_eye:
        extras.update(statistical_eye_measurement(task.spec))
    if plan.train_equalizers:
        extras.update(link_training_measurement(task.spec))
    detail = result if plan.retain == "results" else None
    return measurement.errors, measurement.compared_bits, extras or None, detail


# --- grid execution -----------------------------------------------------------


def resolve_grid(spec: ScenarioSpec, axes: tuple[ParameterAxis, ...]) -> list[ScenarioSpec]:
    """Every grid-point scenario, row-major (first axis outermost).

    The grid grows one axis at a time as a row-major product of prefixes:
    every point resolved so far is extended by each value of the next
    axis.  An axis value is therefore applied once per *prefix*, not once
    per grid point — a 32 × 32 grid costs 32 + 1024 applications instead
    of 2048, and the points that share a first-axis value share the
    object it produced (one lossy channel per loss on a
    ``channel_loss_db`` × anything grid).  Applicators are pure
    functions of ``(spec, value)``, so every point equals the one the
    axes applied in order to *spec* would give.  No axes give ``[spec]``.
    """
    points = [spec]
    for axis in axes:
        points = [apply_axis(point, axis.name, value) for point in points for value in axis.values]
    return points


def _axis_results(axes: tuple[ParameterAxis, ...]) -> tuple[AxisResult, ...]:
    return tuple(
        AxisResult(name=axis.name, labels=axis.value_labels(), values=axis.numeric_values())
        for axis in axes
    )


def _grid_failures(
    task_failures, axes: tuple[AxisResult, ...], shape: tuple[int, ...]
) -> tuple[PointFailure, ...]:
    """Runner-level failures annotated with their grid coordinates."""
    converted = []
    for failure in task_failures:
        if axes:
            position = np.unravel_index(failure.index, shape)
            coordinates = tuple(axis.labels[int(p)] for axis, p in zip(axes, position))
        else:
            coordinates = ()
        converted.append(
            PointFailure(
                index=failure.index,
                coordinates=coordinates,
                exception_type=failure.exception_type,
                message=failure.message,
                traceback_tail=failure.traceback_tail,
                seed_path=failure.seed_path,
                attempts=failure.attempts,
            )
        )
    return tuple(converted)


def run_grid(
    spec: ScenarioSpec,
    axes: tuple[ParameterAxis, ...] | list[ParameterAxis],
    *,
    name: str = "sweep",
    seed: int | None = 0,
    workers: int | None = None,
    metadata: dict | None = None,
    chunk_size: int | None = None,
    failure_policy: str = "raise",
    max_retries: int = 1,
    chunk_timeout_s: float | None = None,
    checkpoint=None,
) -> SweepResult:
    """Measure every point of the axes' cartesian grid.

    Each point's scenario is the base *spec* with the axis values applied
    in order; its backend is resolved through
    :func:`~repro.fastpath.backends.resolve_backend` before anything runs,
    so an impossible forced backend fails before the pool spins up.
    Metric grids are shaped ``tuple(len(a) for a in axes)``.

    Execution streams through :func:`repro.sweep.resilient.map_tasks_resilient`
    in chunks of *chunk_size* (default :data:`DEFAULT_CHUNK_SIZE`), which
    bounds peak in-flight memory without changing any number — per-point
    random streams depend only on ``(seed, index)``.  *failure_policy*
    selects what a raising point does: ``"raise"`` (default) aborts the
    grid with :class:`repro.sweep.resilient.SweepTaskError`; ``"collect"``
    records a structured :class:`~repro.experiments.results.PointFailure`
    in :attr:`SweepResult.failures` and carries on (failed points report
    zero compared bits, i.e. BER ``NaN``, and ``NaN`` extra metrics);
    ``"retry"`` retries each failing point up to *max_retries* times on
    the same seed child (retries cannot change numerics) before
    collecting.  *checkpoint* names a JSONL file keyed by a content hash
    of ``(spec, axes, seed)``: completed chunks are appended as they
    finish, an interrupted grid resumes by re-running only missing and
    failed points, and the merged result is bit-identical to a single
    uninterrupted run.  *chunk_timeout_s* bounds each pooled chunk's
    wall clock, degrading the affected chunk (and the rest of the run)
    to serial execution.  The per-point execution mode / duration /
    attempt audit trail rides in :attr:`SweepResult.audit`.
    """
    # Deferred import: repro.sweep.sweeps wraps this engine, so importing
    # the runner through the repro.sweep package at module scope would be
    # circular when repro.experiments is imported first.
    from ..sweep.resilient import map_tasks_resilient

    axes = tuple(axes)
    points = resolve_grid(spec, axes)
    if spec.measurement.statistical_eye or spec.measurement.train_equalizers:
        # Fail before the pool spins up, like backend resolution does.
        option = "statistical_eye" if spec.measurement.statistical_eye else "train_equalizers"
        for point in points:
            if point.link is None:
                raise ValueError(
                    f"MeasurementPlan({option}=True) requires every "
                    "grid point to carry a link front end"
                )
    if checkpoint is not None and spec.measurement.retain != "none":
        raise ValueError(
            "checkpointing requires MeasurementPlan(retain='none'): "
            "retained simulation objects do not serialize to a checkpoint"
        )
    tasks = [
        _PointTask(point, resolve_backend(point.config, point.backend))
        for point in points
    ]
    study_key = content_key({"study": "run_grid", "spec": spec, "axes": axes, "seed": seed})
    manifest = collect_manifest(
        backend=resolve_backend(spec.config, spec.backend),
        content_key=study_key,
        seed=seed,
    )
    mapped = map_tasks_resilient(
        _measure_point,
        tasks,
        seed=seed,
        workers=workers,
        chunk_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size,
        failure_policy=failure_policy,
        max_retries=max_retries,
        chunk_timeout_s=chunk_timeout_s,
        checkpoint=checkpoint,
        checkpoint_key=study_key,
        manifest=manifest.to_dict(),
    )
    outcomes = mapped.values

    shape = tuple(len(axis) for axis in axes)
    axis_results = _axis_results(axes)
    metrics: dict[str, np.ndarray] = {
        "errors": np.array([o[0] if o is not None else 0 for o in outcomes], dtype=np.int64),
        "compared": np.array([o[1] if o is not None else 0 for o in outcomes], dtype=np.int64),
    }
    extra_keys: tuple = ()
    for outcome in outcomes:
        if outcome is not None and outcome[2] is not None:
            extra_keys = tuple(outcome[2])
            break
    for key in extra_keys:
        metrics[key] = np.array(
            [o[2][key] if o is not None else float("nan") for o in outcomes], dtype=float
        )
    for key, flat in metrics.items():
        metrics[key] = flat.reshape(shape)
    details = (
        tuple(o[3] if o is not None else None for o in outcomes)
        if spec.measurement.retain == "results"
        else None
    )

    return SweepResult(
        name=name,
        axes=axis_results,
        metrics=metrics,
        backend=spec.backend,
        point_backends=tuple(task.backend for task in tasks),
        n_bits=spec.stimulus.n_bits,
        seed=seed,
        metadata={**(metadata or {}), "manifest": manifest.to_dict()},
        details=details,
        failures=_grid_failures(mapped.failures, axis_results, shape),
        audit=mapped.audit,
    )


# --- tolerance search ---------------------------------------------------------


@dataclass(frozen=True)
class ToleranceSearch:
    """Largest passing value of one axis under an error-count criterion.

    Attributes
    ----------
    axis:
        The registered axis searched at every grid point (default: the
        sinusoidal-jitter amplitude, the paper's jitter-tolerance axis).
    maximum:
        Search cap; a point tolerating the cap itself reports the cap.
    resolution:
        Bisection stops when the bracket is narrower than this.
    target_errors:
        Pass criterion: at most this many bit errors per run.
    """

    axis: str = "sj_amplitude_ui_pp"
    maximum: float = 20.0
    resolution: float = 0.05
    target_errors: int = 0

    def __post_init__(self) -> None:
        require_positive("maximum", self.maximum)
        require_positive("resolution", self.resolution)


@dataclass(frozen=True)
class _SearchTask:
    """One search point: the scenario, its backend, and the search shape."""

    spec: ScenarioSpec
    backend: str
    search: ToleranceSearch


def _search_point(task: _SearchTask, rng: np.random.Generator) -> float:
    """Pool worker: expand-and-bisect the largest passing axis value.

    Every trial draws a child generator deterministically from the task
    stream, so the search is reproducible regardless of how many trials
    the bracketing phase needs.
    """
    search = task.search

    def passes(value: float) -> bool:
        child = np.random.default_rng(rng.integers(0, 2**63))
        point = apply_axis(task.spec, search.axis, float(value))
        result = simulate_scenario(point, child, backend=task.backend)
        return result.ber().errors <= search.target_errors

    maximum = search.maximum
    low = 0.0
    if not passes(low):
        return 0.0
    high = min(0.05, maximum)
    # Expand geometrically; every value reported as tolerated has been
    # tested, including the cap itself.
    while passes(high):
        low = high
        if high >= maximum:
            return maximum
        high = min(2.0 * high, maximum)
    while (high - low) > search.resolution:
        middle = 0.5 * (low + high)
        if passes(middle):
            low = middle
        else:
            high = middle
    return low


def run_tolerance_search(
    spec: ScenarioSpec,
    axes: tuple[ParameterAxis, ...] | list[ParameterAxis],
    search: ToleranceSearch,
    *,
    name: str = "tolerance",
    seed: int | None = 0,
    workers: int | None = None,
    metadata: dict | None = None,
    chunk_size: int | None = None,
    failure_policy: str = "raise",
    max_retries: int = 1,
    chunk_timeout_s: float | None = None,
    checkpoint=None,
) -> SweepResult:
    """Per grid point, the largest *search.axis* value that still passes.

    The single metric grid is named after the search axis (e.g.
    ``"sj_amplitude_ui_pp"``) and holds the tolerance in that axis's own
    units at every point of *axes* (typically one frequency axis, giving
    the classic jitter-tolerance curve).  The resilience knobs match
    :func:`run_grid` (the checkpoint key additionally hashes the search
    shape); a collected failure leaves ``NaN`` in the tolerance grid.
    """
    from ..sweep.resilient import map_tasks_resilient  # deferred: see run_grid

    axes = tuple(axes)
    points = resolve_grid(spec, axes)
    tasks = [
        _SearchTask(point, resolve_backend(point.config, point.backend), search)
        for point in points
    ]
    study_key = content_key(
        {
            "study": "run_tolerance_search",
            "spec": spec,
            "axes": axes,
            "seed": seed,
            "search": search,
        }
    )
    manifest = collect_manifest(
        backend=resolve_backend(spec.config, spec.backend),
        content_key=study_key,
        seed=seed,
    )
    mapped = map_tasks_resilient(
        _search_point,
        tasks,
        seed=seed,
        workers=workers,
        chunk_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size,
        failure_policy=failure_policy,
        max_retries=max_retries,
        chunk_timeout_s=chunk_timeout_s,
        checkpoint=checkpoint,
        checkpoint_key=study_key,
        manifest=manifest.to_dict(),
    )
    amplitudes = [value if value is not None else float("nan") for value in mapped.values]

    shape = tuple(len(axis) for axis in axes)
    axis_results = _axis_results(axes)
    info = {
        "search_axis": search.axis,
        "maximum": search.maximum,
        "resolution": search.resolution,
        "target_errors": search.target_errors,
    }
    info.update(metadata or {})
    info["manifest"] = manifest.to_dict()
    return SweepResult(
        name=name,
        axes=axis_results,
        metrics={search.axis: np.asarray(amplitudes, dtype=float).reshape(shape)},
        backend=spec.backend,
        point_backends=tuple(task.backend for task in tasks),
        n_bits=spec.stimulus.n_bits,
        seed=seed,
        metadata=info,
        failures=_grid_failures(mapped.failures, axis_results, shape),
        audit=mapped.audit,
    )
