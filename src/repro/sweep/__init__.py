"""Parallel, deterministically seeded time-domain sweeps over CDR channels.

* :mod:`repro.sweep.resilient` — the process-pool task runner.  Task
  *i*'s random stream comes from ``np.random.SeedSequence(seed).spawn``,
  so results are identical for any worker count (including serial
  execution).  On that seeding contract it adds per-task failure
  isolation with structured :class:`TaskFailure` records, chunked
  execution with JSONL checkpoint/resume (bit-identical merged results),
  pool-breakage degradation and a per-task audit trail.  It is the
  execution substrate of the :mod:`repro.experiments` engine.
* :mod:`repro.sweep.faults` — deterministic fault-injection worker wrappers
  (fail-every-Nth, crash-in-pool) plus an ``"inject_fault"`` scenario
  axis, for resilience tests and downstream chaos exercises (imported on
  demand, not re-exported here).
* :mod:`repro.sweep.sweeps` — the paper's headline sweeps (BER versus
  sinusoidal jitter / frequency offset / channel loss / CTLE peaking,
  equalization ablation, time-domain jitter tolerance, multi-channel
  receiver), each a thin wrapper building a declarative
  :class:`~repro.experiments.ScenarioSpec` study, running it on the
  generic engine and returning the engine's
  :class:`~repro.experiments.SweepResult`.  The ``backend`` argument
  (``"event"``, ``"fast"`` or ``"auto"``) resolves through
  :func:`repro.fastpath.backends.resolve_backend`, where the backends
  are defined and exported.

New studies should target :mod:`repro.experiments` directly; these
wrappers exist for the paper's named figures and for API stability.
"""

from .._exports import lazy_exports

__all__ = [
    "FAILURE_POLICIES",
    "CheckpointMismatchError",
    "ResilientMap",
    "SweepTaskError",
    "TaskAudit",
    "TaskFailure",
    "map_tasks_resilient",
    "LINK_RESIDUAL_JITTER_SPEC",
    "ber_vs_aggressor_sweep",
    "ber_vs_channel_loss_sweep",
    "ber_vs_ctle_peaking_sweep",
    "ber_vs_frequency_offset_sweep",
    "ber_vs_sj_sweep",
    "equalization_ablation_sweep",
    "jitter_tolerance_sweep",
    "link_training_sweep",
    "multichannel_sweep",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "resilient": (
            "FAILURE_POLICIES",
            "CheckpointMismatchError",
            "ResilientMap",
            "SweepTaskError",
            "TaskAudit",
            "TaskFailure",
            "map_tasks_resilient",
        ),
        "sweeps": (
            "LINK_RESIDUAL_JITTER_SPEC",
            "ber_vs_aggressor_sweep",
            "ber_vs_channel_loss_sweep",
            "ber_vs_ctle_peaking_sweep",
            "ber_vs_frequency_offset_sweep",
            "ber_vs_sj_sweep",
            "equalization_ablation_sweep",
            "jitter_tolerance_sweep",
            "link_training_sweep",
            "multichannel_sweep",
        ),
    },
)
