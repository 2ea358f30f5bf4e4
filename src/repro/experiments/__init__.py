"""Declarative experiment engine: scenarios in, serializable results out.

Every parameter study of the reproduction is described, not programmed: a
frozen :class:`ScenarioSpec` (stimulus, optional jitter injection, optional
:class:`~repro.link.LinkConfig` front end, CDR configuration, measurement
plan, backend request) plus one :class:`ParameterAxis` per swept dimension
fully define a study, and one generic engine executes it::

    from repro.experiments import ParameterAxis, ScenarioSpec, run_grid

    result = run_grid(
        ScenarioSpec(),                       # paper-nominal scenario
        [ParameterAxis("frequency_offset", (0.0, 0.01, 0.05))],
        name="ber_vs_offset", seed=0)
    print(result.to_table().render())
    result.save("ber_vs_offset.json")         # lossless round-trip

Execution runs on the deterministic
:func:`repro.sweep.resilient.map_tasks_resilient` pool (same results at
any worker count); the backend of every resolved point goes
through :func:`repro.fastpath.backends.resolve_backend`, so
``backend="auto"`` picks the event kernel on a jittered point and the
fast path otherwise.
The seven public sweeps in :mod:`repro.sweep` are thin wrappers over this
package; new studies should start from a spec, not a pipeline.
"""

from .._exports import lazy_exports

__all__ = [
    "AXIS_APPLICATORS",
    "DEFAULT_CHUNK_SIZE",
    "STIMULUS_KINDS",
    "AxisResult",
    "CrosstalkAggressor",
    "CrosstalkSpec",
    "EqualizerLineup",
    "LaneSpec",
    "MeasurementPlan",
    "ParameterAxis",
    "PointFailure",
    "ScenarioSpec",
    "StimulusSpec",
    "SweepResult",
    "ToleranceSearch",
    "TrainedLineup",
    "TrainingBudget",
    "apply_axis",
    "link_training_measurement",
    "register_axis",
    "resolve_grid",
    "run_grid",
    "run_tolerance_search",
    "scenario_timing_budget",
    "simulate_scenario",
    "statistical_eye_measurement",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "spec": (
            "AXIS_APPLICATORS",
            "STIMULUS_KINDS",
            "CrosstalkAggressor",
            "CrosstalkSpec",
            "EqualizerLineup",
            "LaneSpec",
            "MeasurementPlan",
            "ParameterAxis",
            "ScenarioSpec",
            "StimulusSpec",
            "TrainedLineup",
            "TrainingBudget",
            "apply_axis",
            "register_axis",
        ),
        "results": ("AxisResult", "PointFailure", "SweepResult"),
        "engine": (
            "DEFAULT_CHUNK_SIZE",
            "ToleranceSearch",
            "link_training_measurement",
            "resolve_grid",
            "run_grid",
            "run_tolerance_search",
            "scenario_timing_budget",
            "simulate_scenario",
            "statistical_eye_measurement",
        ),
    },
)
