"""Fast-path traces built on first access.

The fast path hands its recorder the edge arrays and the recorder wraps
each one in a :class:`~repro.events.waveform.Trace` only when asked.  These
tests pin that late build against the eager build it replaced (kept below
as the oracle), on a run whose DJ/RJ stimulus draws from the run's
generator; they check that reading traces draws nothing, that the full
traces still byte-equal the event kernel's, and that retained fast
results cross a real process pool.
"""

import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs7
from repro.experiments import MeasurementPlan, ParameterAxis, ScenarioSpec, StimulusSpec, run_grid
from repro.fastpath import FastCdrChannel, array_trace
from repro.fastpath import engine as fast_engine
from repro.fastpath.traces import ArrayRecorder, DecisionEdges, EdgeArrays
from repro.gates.ring import GccoParameters

TRACE_NAMES = ("din", "ddin", "edet", "clock", "dout")
DJ_RJ_SJ = JitterSpec(dj_ui_pp=0.3, rj_ui_rms=0.02,
                      sj_amplitude_ui_pp=0.2, sj_frequency_hz=250.0e6)
NO_GATE_JITTER = CdrChannelConfig(oscillator=GccoParameters(jitter_sigma_fraction=0.0))

#: ``run_fast(NO_GATE_JITTER)`` before the fast path's jittered mode was
#: removed: the generator's next draw after the run, and the SHA-256 of
#: the five traces' arrays.
EAGER_NEXT_DRAW = 0.5845614498008885
EAGER_TRACES_SHA256 = "bf75ea95a7084b1340989efa7ef6d2fa54f244e9d104a81ab18e74f1a9b011c7"


def _dout_events(sample_times, sampled, clock_to_q_s):
    """The previous eager DOUT derivation: decisions re-timed by clock-to-Q."""
    if sample_times.size == 0:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    values = sampled.astype(np.int64)
    previous = np.concatenate(([0], values[:-1]))
    changed = values != previous
    return (sample_times + clock_to_q_s)[changed], values[changed]


def _eager_traces(arrays: dict, duration_s: float) -> dict:
    """The previous eager build, from the same records: the oracle.

    The clock's values were built as ``(arange & 1) ^ 1`` and DOUT's edges
    by :func:`_dout_events`, both before the horizon clip.
    """

    def clipped(name, times, values, initial_value=0):
        mask = times <= duration_s
        return array_trace(name, times[mask], values[mask], initial_value=initial_value)

    edet = arrays["edet"].times_s
    clock_times = arrays["clock"].times_s
    decisions = arrays["dout"]
    dout_times, dout_values = _dout_events(
        decisions.sample_times_s, decisions.sampled, decisions.clock_to_q_s)
    return {
        "din": array_trace("din", arrays["din"].times_s, arrays["din"].values),
        "ddin": clipped("ddin", arrays["ddin"].times_s, arrays["ddin"].values),
        "edet": array_trace(
            "edet",
            edet[edet <= duration_s],
            np.arange(np.count_nonzero(edet <= duration_s)) & 1,
            initial_value=1,
        ),
        "clock": clipped("clock", clock_times, (np.arange(clock_times.size) & 1) ^ 1,
                         initial_value=arrays["clock"].initial_value),
        "dout": clipped("dout", dout_times, dout_values),
    }


def assert_traces_byte_equal(trace, expected):
    assert trace.name == expected.name
    times, values = trace.as_arrays()
    expected_times, expected_values = expected.as_arrays()
    assert times.dtype == expected_times.dtype and values.dtype == expected_values.dtype
    assert times.tobytes() == expected_times.tobytes(), f"trace {trace.name!r} times"
    assert values.tobytes() == expected_values.tobytes(), f"trace {trace.name!r} values"


def run_fast(config, seed=3, n=600, jitter=DJ_RJ_SJ):
    rng = np.random.default_rng(seed)
    result = FastCdrChannel(config).run(prbs7(n), jitter=jitter, rng=rng)
    return result, rng


class TestOnAccessTraces:
    def test_late_build_matches_the_eager_build(self, monkeypatch):
        captured = []

        class CapturingRecorder(ArrayRecorder):
            def __init__(self, traces):
                captured.append(dict(traces))
                super().__init__(traces)

        monkeypatch.setattr(fast_engine, "ArrayRecorder", CapturingRecorder)
        result, _ = run_fast(NO_GATE_JITTER)
        (arrays,) = captured
        assert isinstance(arrays["dout"], DecisionEdges)
        assert all(isinstance(arrays[name], EdgeArrays) for name in TRACE_NAMES[:-1])
        expected = _eager_traces(arrays, result.duration_s)
        assert result.recorder.names() == sorted(TRACE_NAMES)
        for name in TRACE_NAMES:
            assert_traces_byte_equal(result.trace(name), expected[name])

    def test_reading_traces_draws_nothing(self):
        read, read_rng = run_fast(NO_GATE_JITTER)
        for name in TRACE_NAMES:
            read.trace(name)
        unread, unread_rng = run_fast(NO_GATE_JITTER)
        assert read_rng.random() == unread_rng.random()
        assert read_rng.bit_generator.state == unread_rng.bit_generator.state
        np.testing.assert_array_equal(read.sample_times_s, unread.sample_times_s)

    def test_draws_and_traces_match_the_eager_build_pin(self):
        """Recorded before the jittered mode went: the same stimulus draws
        are taken, and read late the five traces hash the same."""
        result, rng = run_fast(NO_GATE_JITTER)
        assert rng.random() == EAGER_NEXT_DRAW
        digest = hashlib.sha256()
        for name in TRACE_NAMES:
            times, values = result.trace(name).as_arrays()
            digest.update(times.tobytes())
            digest.update(values.tobytes())
        assert digest.hexdigest() == EAGER_TRACES_SHA256

    def test_a_trace_is_built_once(self):
        result, _ = run_fast(NO_GATE_JITTER, n=200)
        first = result.trace("clock")
        assert result.trace("clock") is first
        assert result.recorder["clock"] is first
        assert "clock" in result.recorder and "missing" not in result.recorder
        with pytest.raises(KeyError):
            result.trace("missing")

    def test_unread_result_pickles_and_builds_identically(self):
        result, _ = run_fast(NO_GATE_JITTER)
        back = pickle.loads(pickle.dumps(result))
        for name in TRACE_NAMES:
            assert_traces_byte_equal(back.trace(name), result.trace(name))

    def test_toggle_values_follow_the_initial_level(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        for initial in (0, 1):
            trace = EdgeArrays(times, initial_value=initial, horizon_s=3.5).build("toggle")
            _, values = trace.as_arrays()
            expected = [initial] + [(initial + 1 + i) & 1 for i in range(3)]
            assert values.tolist() == expected

    @pytest.mark.parametrize("config", [
        NO_GATE_JITTER,
        NO_GATE_JITTER.with_frequency_offset(2.5e9 / 2.375e9 - 1.0),
        CdrChannelConfig(oscillator=GccoParameters(jitter_sigma_fraction=0.0),
                         improved_sampling=True),
    ], ids=["nominal", "fig14_offset", "improved_tap"])
    def test_full_traces_byte_equal_the_event_kernel(self, config):
        bits = prbs7(500)
        event = BehavioralCdrChannel(config).run(
            bits, jitter=DJ_RJ_SJ, rng=np.random.default_rng(1))
        fast = FastCdrChannel(config).run(
            bits, jitter=DJ_RJ_SJ, rng=np.random.default_rng(1))
        for name in TRACE_NAMES:
            assert_traces_byte_equal(fast.trace(name), event.trace(name))


class TestRetainedResultsCrossThePool:
    """A retained fast result must pickle back from a pool child; if it
    cannot, the runner silently re-runs the chunk serially."""

    SPEC = ScenarioSpec(
        stimulus=StimulusSpec(n_bits=300),
        jitter=DJ_RJ_SJ,
        config=NO_GATE_JITTER,
        measurement=MeasurementPlan(retain="results"),
    )
    AXES = (ParameterAxis("sj_amplitude_ui_pp", (0.0, 0.2, 0.4)),
            ParameterAxis("frequency_offset", (0.0, 0.01)))

    def test_pooled_details_match_serial_and_pickle(self):
        serial = run_grid(self.SPEC, self.AXES, seed=9, workers=1)
        pooled = run_grid(self.SPEC, self.AXES, seed=9, workers=2, chunk_size=3)
        assert set(serial.point_backends) == {"fast"}
        assert [audit.mode for audit in pooled.audit] == ["pool"] * 6
        assert not pooled.failures
        for ours, theirs in zip(pooled.details, serial.details):
            back = pickle.loads(pickle.dumps(ours))
            for name in TRACE_NAMES:
                assert_traces_byte_equal(ours.trace(name), theirs.trace(name))
                assert_traces_byte_equal(back.trace(name), theirs.trace(name))
            np.testing.assert_array_equal(ours.sample_times_s, theirs.sample_times_s)
        np.testing.assert_array_equal(pooled.metric("errors"), serial.metric("errors"))

    def test_event_details_cross_the_pool_too(self):
        spec = replace(self.SPEC, backend="event")
        axes = (ParameterAxis("sj_amplitude_ui_pp", (0.0, 0.2)),)
        pooled = run_grid(spec, axes, seed=9, workers=2, chunk_size=1)
        fast = run_grid(self.SPEC, axes, seed=9, workers=1)
        assert [audit.mode for audit in pooled.audit] == ["pool"] * 2
        for event_result, fast_result in zip(pooled.details, fast.details):
            for name in TRACE_NAMES:
                assert_traces_byte_equal(fast_result.trace(name), event_result.trace(name))
