"""Telemetry-profiled link-training sweep: where does the time go?

Runs one end-to-end link-training sweep (the `link_training_study`
workload: training the TX-FFE x RX-CTLE plane across a channel-loss
axis, bit-true fixed-lineup cross-check per point) under a
:mod:`repro.telemetry` trace, then prints the full
:func:`repro.telemetry.report.summarize` report:

* the **stage breakdown** — sweep chunks, statistical-eye solves,
  training loops, fastpath batch runs, event-kernel runs — with counts,
  totals and share of traced time;
* the **cache hit rates** — the :mod:`repro.link.memo` pulse-response /
  pattern-displacement caches and the
  :class:`~repro.link.training.objective.StatEyeObjective` memo (how many
  budget-charged solves memoisation saved);
* the **pool health** of the resilient runner (task modes, chunks,
  failures) and the remaining counters (events, gate evaluations, bits).

Tracing is read-only instrumentation: the sweep's numbers are
bit-identical with the trace on or off (``tests/telemetry``), so this
profile is free to run on real studies.  The trace is also written to
``telemetry_profile_trace.jsonl`` and re-summarizable offline with::

    PYTHONPATH=src python -m repro.telemetry.report telemetry_profile_trace.jsonl

Run with:  PYTHONPATH=src python examples/telemetry_profile.py
"""

import numpy as np

from repro import telemetry
from repro.sweep import link_training_sweep
from repro.telemetry.report import summarize

LOSS_DB_VALUES = np.array([10.0, 14.0])
TRACE_PATH = "telemetry_profile_trace.jsonl"


def main() -> None:
    print(
        "profiling link_training_sweep over "
        f"{LOSS_DB_VALUES.size} loss points (traced)..."
    )
    with telemetry.trace("link-training-sweep") as tracer:
        result = link_training_sweep(
            LOSS_DB_VALUES, n_bits=1000, seed=7, workers=1
        )

    for loss_db, trained, fixed in zip(
        LOSS_DB_VALUES,
        result.metrics["trained_vertical"],
        result.metrics["fixed_vertical"],
    ):
        print(
            f"  loss {loss_db:4.1f} dB: trained vertical opening "
            f"{trained:.4f} (fixed {fixed:.4f})"
        )
    print()
    print(summarize(tracer))

    path = tracer.write_jsonl(TRACE_PATH)
    print()
    print(f"trace written to {path} (re-summarize with "
          f"`python -m repro.telemetry.report {path}`)")


if __name__ == "__main__":
    main()
