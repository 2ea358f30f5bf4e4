"""Telemetry never changes numerics, and its totals never depend on workers.

The two contracts that make tracing safe to leave on in real studies:

* **bit identity** — a traced run serializes byte-for-byte identically
  to an untraced run (telemetry only *reads* simulation state);
* **worker invariance** — merged counter totals are identical at any
  worker count, because each guarded task collects into its own
  task-local tracer and the parent merges snapshots in task-index
  order.  (The ``sweep.*`` pool-health counters are the deliberate
  exception: they describe *how* the run executed.)
"""

import numpy as np

from repro import telemetry
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs_sequence
from repro.experiments import ParameterAxis, ScenarioSpec, StimulusSpec, run_grid
from repro.link import LinkConfig, LinkPath, RxCtle, TxFfe
from repro.link.memo import clear_link_memo
from repro.link.training import StatEyeObjective

MILD = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01)
BASE = ScenarioSpec(stimulus=StimulusSpec(n_bits=300), jitter=MILD)
AMPLITUDE_AXIS = ParameterAxis("sj_amplitude_ui_pp", (0.1, 1.0))
FREQUENCY_AXIS = ParameterAxis("sj_frequency_hz", (2.5e6, 7.5e8))


def _grid(workers: int):
    return run_grid(
        BASE, [AMPLITUDE_AXIS, FREQUENCY_AXIS], seed=5, workers=workers
    )


class TestBitIdentity:
    def test_sweep_result_identical_tracing_on_and_off(self):
        baseline = _grid(workers=1).to_json()
        with telemetry.trace():
            traced = _grid(workers=1).to_json()
        assert traced == baseline

    def test_link_waveform_identical_tracing_on_and_off(self):
        bits = prbs_sequence(7, 127)
        link = LinkConfig(
            tx_ffe=TxFfe.de_emphasis(post_db=3.5), rx_ctle=RxCtle(peaking_db=6.0)
        )
        baseline = LinkPath(link).transmit(bits)
        clear_link_memo()  # the traced leg must recompute, not reuse the table
        with telemetry.trace() as tracer:
            traced = LinkPath(link).transmit(bits)
        assert tracer.counters["link.pattern_cache.misses"] == 1
        np.testing.assert_array_equal(traced.edge_times_s, baseline.edge_times_s)
        np.testing.assert_array_equal(traced.bits, baseline.bits)


class TestWorkerInvariance:
    def test_merged_counter_totals_match_across_worker_counts(self):
        with telemetry.trace() as serial:
            serial_grid = _grid(workers=1)
        with telemetry.trace() as pooled:
            pooled_grid = _grid(workers=4)
        np.testing.assert_array_equal(
            serial_grid.metric("errors"), pooled_grid.metric("errors")
        )

        def merged(tracer):
            return {
                name: value
                for name, value in tracer.counters.items()
                if not name.startswith("sweep.")
            }

        assert merged(serial) == merged(pooled)
        # The pinned grid exercises the fastpath in every worker.
        assert merged(serial)["fastpath.runs"] == 4
        assert merged(serial)["fastpath.bits"] == 4 * 300

    def test_pool_health_counters_reflect_execution_mode(self):
        with telemetry.trace() as serial:
            _grid(workers=1)
        with telemetry.trace() as pooled:
            _grid(workers=4)
        assert serial.counters["sweep.tasks.serial"] == 4
        assert pooled.counters["sweep.tasks.pool"] == 4


class TestInstrumentationPresence:
    def test_link_path_cache_counters(self):
        bits = prbs_sequence(7, 127)
        with telemetry.trace() as tracer:
            path = LinkPath(LinkConfig())
            path.equalized_pulse_response(64)
            path.equalized_pulse_response(64)
            path.transmit(bits)
            path.transmit(bits)
        # transmit() pulls the pulse response on its own grid length: one
        # miss per distinct grid, the explicit repeat hits, and the second
        # transmit reuses the pattern table without touching the pulse.
        # The memo starts empty in every test, so the counts are exact.
        assert tracer.counters["link.pulse_cache.misses"] == 2
        assert tracer.counters["link.pulse_cache.hits"] == 1
        assert tracer.counters["link.pattern_cache.misses"] == 1
        assert tracer.counters["link.pattern_cache.hits"] == 1

    def test_objective_memo_counters_and_solve_span(self):
        with telemetry.trace() as tracer:
            objective = StatEyeObjective(LinkConfig())
            first = objective.evaluate(None, None, None)
            second = objective.evaluate(None, None, None)
        assert first is second
        assert tracer.counters["stateye.objective_cache.misses"] == 1
        assert tracer.counters["stateye.objective_cache.hits"] == 1
        assert objective.evaluations == 1
        solves = [span for span in tracer.spans if span.name == "stateye.solve"]
        assert len(solves) == 1
        # The solve splits into its PMF and timing-model stages.
        inner = sorted(span.path for span in tracer.spans if span.path.startswith("stateye.solve/"))
        assert inner == ["stateye.solve/stateye.pmf", "stateye.solve/stateye.timing"]

    def test_disabled_tracer_records_nothing(self):
        assert telemetry.ACTIVE is telemetry.NULL_TRACER
        objective = StatEyeObjective(LinkConfig())
        objective.evaluate(None, None, None)
        # Nothing leaked onto the null tracer (it has no storage at all).
        assert not hasattr(telemetry.NULL_TRACER, "counters")
