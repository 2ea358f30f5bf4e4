"""Event-kernel oracle: the live kernel must replay its reference byte for byte.

The reference kernel below is the event kernel as it was before the
head-only transport queue, the table-driven gates and the draw stream:
heap entries that carry a closure, ``_Transaction`` objects cancelled by a
linear scan of a pending list, gates that evaluate a list of input values
through ``evaluate`` on every event, and one scalar ``rng.normal`` call
per jittered delay.  The only change is that the gate reads the ring's
control current from a float ``delay_scale`` attribute instead of calling
a scale function; the product is the same float.

Whole :class:`BehavioralCdrChannel` runs are built on the reference by
patching the kernel's names in the modules that assemble a channel, and
compared with runs on the live kernel under a bounded, derandomized
hypothesis profile: sample times, decided bits, every recorded trace and
the next draw of the shared ``rng``.  The :class:`NormalStream`
properties pin the generator state after every drain — around block
edges, across ``run_until`` slices and on the ``max_events`` error path.
"""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core import cdr_channel, edge_detector
from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.events.kernel import NORMAL_BLOCK, SimulationError, Simulator
from repro.events.signal import Signal
from repro.events.waveform import WaveformRecorder
from repro.gates import delay_line, ring
from repro.gates.cml import CmlTiming
from repro.gates.logic import BufferGate, Xnor2Gate
from repro.gates.ring import GatedRingOscillator, GccoParameters
from repro.gates.storage import CmlFlipFlop, CmlLatch


def _bytes_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.dtype == right.dtype and left.tobytes() == right.tobytes()


# --- the reference kernel ---------------------------------------------------------


class ReferenceSimulator:
    """The drain with ``(time, sequence, callback)`` heap entries."""

    def __init__(self) -> None:
        self._queue = []
        self._sequence = itertools.count()
        self._now = 0.0
        #: Executed events and dispatched subscriber callbacks: the
        #: ``kernel.events`` and ``kernel.gate_evaluations`` counts.
        self.events = 0
        self.gate_evaluations = 0

    @property
    def now(self) -> float:
        return self._now

    def call_at(self, time_s, callback) -> None:
        if time_s < self._now - 1.0e-18:
            raise SimulationError(f"cannot schedule an event at {time_s!r}s")
        heapq.heappush(self._queue, (max(time_s, self._now), next(self._sequence), callback))

    def call_after(self, delay_s, callback) -> None:
        if delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")
        self.call_at(self._now + delay_s, callback)

    def run_until(self, stop_time_s) -> None:
        while self._queue and self._queue[0][0] <= stop_time_s:
            time_s, _seq, callback = heapq.heappop(self._queue)
            self._now = time_s
            callback()
            self.events += 1
        self._now = max(self._now, stop_time_s)


class _Transaction:
    __slots__ = ("time_s", "value", "cancelled")

    def __init__(self, time_s, value) -> None:
        self.time_s = time_s
        self.value = value
        self.cancelled = False


class ReferenceSignal:
    """Transport assignment through ``_Transaction`` objects and a pending list."""

    def __init__(self, simulator, name, initial=0) -> None:
        self._simulator = simulator
        self.name = name
        self._value = initial
        self._subscribers = ()
        self._pending = []
        self.last_event_time_s = None

    @property
    def value(self):
        return self._value

    @property
    def simulator(self):
        return self._simulator

    def subscribe(self, callback) -> None:
        self._subscribers = self._subscribers + (callback,)

    def assign(self, value, delay_s=0.0) -> None:
        if delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")
        target_time = self._simulator.now + delay_s
        for transaction in self._pending:
            if not transaction.cancelled and transaction.time_s >= target_time:
                transaction.cancelled = True
        transaction = _Transaction(target_time, value)
        self._pending.append(transaction)
        self._simulator.call_at(target_time, lambda: self._apply(transaction))

    def force(self, value) -> None:
        if value != self._value:
            self._value = value
            self.last_event_time_s = self._simulator.now
            self._notify()

    def drive(self, times_s, values) -> None:
        times_list = [float(t) for t in times_s]
        values_list = [int(v) for v in values]
        if not times_list:
            return
        index = 0

        def fire() -> None:
            nonlocal index
            self.force(values_list[index])
            index += 1
            if index < len(times_list):
                self._simulator.call_at(times_list[index], fire)

        self._simulator.call_at(times_list[0], fire)

    def _apply(self, transaction) -> None:
        if transaction in self._pending:
            self._pending.remove(transaction)
        if transaction.cancelled:
            return
        if transaction.value == self._value:
            return
        self._value = transaction.value
        self.last_event_time_s = self._simulator.now
        self._notify()

    def _notify(self) -> None:
        self._simulator.gate_evaluations += len(self._subscribers)
        now = self._simulator.now
        for callback in self._subscribers:
            callback(self, now)


class ReferenceCmlGate:
    """``evaluate`` on a list of input values and a scalar draw per event."""

    def __init__(self, name, inputs, output, evaluate, timing, *, invert_output=False, rng=None):
        self.name = name
        self.inputs = list(inputs)
        self.output = output
        self.timing = timing
        self.invert_output = invert_output
        self._evaluate = evaluate
        self._rng = rng
        self.delay_scale = 1.0
        self.event_count = 0
        for index, signal in enumerate(self.inputs):
            signal.subscribe(self._make_listener(index))

    def _make_listener(self, input_index):
        def on_input_event(_signal, _time_s) -> None:
            self._schedule_output(input_index)

        return on_input_event

    def current_output_value(self) -> int:
        values = [int(signal.value) for signal in self.inputs]
        result = int(self._evaluate(values)) & 1
        if self.invert_output:
            result ^= 1
        return result

    def propagation_delay(self, input_index, new_value) -> float:
        delay = self.timing.delay_for_input(input_index) * float(self.delay_scale)
        if new_value == 0 and self.timing.rise_fall_mismatch_s:
            delay = delay + self.timing.rise_fall_mismatch_s
        if self.timing.jitter_sigma_fraction > 0.0:
            delay = delay * (1.0 + self._rng.normal(0.0, self.timing.jitter_sigma_fraction))
        return max(delay, 1.0e-15)

    def _schedule_output(self, input_index) -> None:
        new_value = self.current_output_value()
        delay = self.propagation_delay(input_index, new_value)
        self.output.assign(new_value, delay)
        self.event_count += 1

    def evaluate_now(self) -> None:
        self._schedule_output(0)

    def settle(self) -> None:
        self.output.force(self.current_output_value())


class ReferenceBufferGate(ReferenceCmlGate):
    def __init__(self, name, data, output, timing, *, rng=None) -> None:
        super().__init__(name, [data], output, lambda v: v[0], timing, rng=rng)


class ReferenceInverterGate(ReferenceCmlGate):
    def __init__(self, name, data, output, timing, *, rng=None) -> None:
        super().__init__(name, [data], output, lambda v: v[0], timing, invert_output=True, rng=rng)


class ReferenceAnd2Gate(ReferenceCmlGate):
    def __init__(self, name, in_a, in_b, output, timing, *, rng=None) -> None:
        super().__init__(name, [in_a, in_b], output, lambda v: v[0] & v[1], timing, rng=rng)


class ReferenceXnor2Gate(ReferenceCmlGate):
    def __init__(self, name, in_a, in_b, output, timing, *, rng=None) -> None:
        super().__init__(
            name, [in_a, in_b], output, lambda v: v[0] ^ v[1], timing, invert_output=True, rng=rng
        )


def _reference_delay(timing, rng) -> float:
    delay = timing.nominal_delay_s
    if timing.jitter_sigma_fraction > 0.0:
        delay = delay * (1.0 + rng.normal(0.0, timing.jitter_sigma_fraction))
    return max(delay, 1.0e-15)


class ReferenceLatch:
    def __init__(self, name, data, enable, output, timing, *, rng=None) -> None:
        self.data = data
        self.enable = enable
        self.output = output
        self.timing = timing
        self._rng = rng
        data.subscribe(self._on_event)
        enable.subscribe(self._on_event)

    def _on_event(self, _signal, _time_s) -> None:
        if int(self.enable.value) == 1:
            self.output.assign(int(self.data.value), _reference_delay(self.timing, self._rng))


class ReferenceFlipFlop:
    def __init__(self, simulator, name, data, clock, output, timing, *, rng=None) -> None:
        self.data = data
        self.clock = clock
        self.output = output
        self.timing = timing
        self._rng = rng
        self.decisions = []
        self._master = ReferenceSignal(simulator, f"{name}.master", initial=int(data.value))
        clock.subscribe(self._on_clock)
        data.subscribe(self._on_data)

    def _on_data(self, _signal, _time_s) -> None:
        if int(self.clock.value) == 0:
            self._master.assign(int(self.data.value), 0.0)

    def _on_clock(self, _signal, time_s) -> None:
        if int(self.clock.value) == 1:
            captured = int(self._master.value)
            self.decisions.append((time_s, captured))
            self.output.assign(captured, _reference_delay(self.timing, self._rng))
        else:
            self._master.assign(int(self.data.value), 0.0)

    def decision_times(self) -> np.ndarray:
        return np.array([t for t, _v in self.decisions], dtype=float)

    def decision_values(self) -> np.ndarray:
        return np.array([v for _t, v in self.decisions], dtype=np.uint8)


#: Module -> {kernel name: its reference}, for every module that builds a channel.
REFERENCE_NAMES = {
    cdr_channel: {"Signal": ReferenceSignal, "CmlFlipFlop": ReferenceFlipFlop},
    edge_detector: {
        "Signal": ReferenceSignal,
        "BufferGate": ReferenceBufferGate,
        "Xnor2Gate": ReferenceXnor2Gate,
    },
    delay_line: {"Signal": ReferenceSignal, "BufferGate": ReferenceBufferGate},
    ring: {
        "Signal": ReferenceSignal,
        "And2Gate": ReferenceAnd2Gate,
        "InverterGate": ReferenceInverterGate,
    },
}


def _use_reference_kernel(monkeypatch) -> list:
    """Build channels on the reference kernel; returns the simulators it creates."""
    simulators = []

    def simulator() -> ReferenceSimulator:
        simulators.append(ReferenceSimulator())
        return simulators[-1]

    monkeypatch.setattr(cdr_channel, "Simulator", simulator)
    for module, names in REFERENCE_NAMES.items():
        for name, reference in names.items():
            monkeypatch.setattr(module, name, reference)
    return simulators


def _with_mismatch(monkeypatch, mismatch_s: float) -> None:
    """Give every channel gate a rise/fall mismatch (both kernels alike)."""
    def timing(**kwargs) -> CmlTiming:
        return CmlTiming(**kwargs, rise_fall_mismatch_s=mismatch_s)

    for module in (cdr_channel, edge_detector, ring):
        monkeypatch.setattr(module, "CmlTiming", timing)


# --- signals ----------------------------------------------------------------------

#: ``(value, delay in ps, then advance the clock by ps)``: delays and
#: advances on a 1 ps grid, so new transactions often tie pending ones.
ASSIGNMENTS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 2)), max_size=40
)


def _signal_history(simulator_class, signal_class, assignments):
    """Every value change of a signal and of a zero-delay follower, in order."""
    simulator = simulator_class()
    driven = signal_class(simulator, "driven", 0)
    follower = signal_class(simulator, "follower", 1)
    history = []
    driven.subscribe(lambda signal, time_s: history.append(("driven", time_s, signal.value)))
    driven.subscribe(lambda signal, _time_s: follower.assign(1 - signal.value, 0.0))
    follower.subscribe(lambda signal, time_s: history.append(("follower", time_s, signal.value)))
    for value, delay_ps, advance_ps in assignments:
        driven.assign(value, delay_ps * 1.0e-12)
        if advance_ps:
            simulator.run_until(simulator.now + advance_ps * 1.0e-12)
    simulator.run_until(1.0e-9)
    return history


class TestSignalMatchesReferenceKernel:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ASSIGNMENTS)
    def test_generated_assignments_match_reference(self, assignments):
        history = _signal_history(Simulator, Signal, assignments)
        assert history == _signal_history(ReferenceSimulator, ReferenceSignal, assignments)


# --- whole channels ---------------------------------------------------------------


@st.composite
def channel_cases(draw):
    """``(config, bits, jitter, transmitter ppm, mismatch, seed)`` of one channel run."""
    sigma = draw(st.sampled_from([0.0, 0.01, 0.05]))
    config = CdrChannelConfig(
        oscillator=GccoParameters(
            jitter_sigma_fraction=sigma,
            gating_input_skew_s=draw(st.sampled_from([0.0, 8.0e-12, 60.0e-12])),
        ),
        gate_jitter_sigma_fraction=draw(st.sampled_from([0.0, sigma, 0.02])),
        improved_sampling=draw(st.booleans()),
        frequency_offset=draw(st.sampled_from([0.0, 0.02, -0.03])),
    )
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=4, max_size=160)), dtype=np.uint8)
    jitter = JitterSpec(
        dj_ui_pp=draw(st.sampled_from([0.0, 0.2])),
        rj_ui_rms=draw(st.sampled_from([0.0, 0.02])),
        sj_amplitude_ui_pp=draw(st.sampled_from([0.0, 0.3])),
    )
    ppm = draw(st.sampled_from([0.0, 150.0]))
    mismatch = draw(st.sampled_from([0.0, 3.0e-12, -2.0e-12]))
    return config, bits, jitter, ppm, mismatch, draw(st.integers(0, 2**32 - 1))


def _channel_run(config, bits, jitter, ppm, seed):
    rng = np.random.default_rng(seed)
    result = BehavioralCdrChannel(config).run(
        bits, jitter=jitter, data_rate_offset_ppm=ppm, rng=rng
    )
    return result, rng.random()


def _assert_same_run(live, reference) -> None:
    (result, next_draw), (expected, expected_next_draw) = live, reference
    assert _bytes_equal(result.sample_times_s, expected.sample_times_s)
    assert _bytes_equal(result.sampled_bits, expected.sampled_bits)
    assert result.recorder.names() == expected.recorder.names()
    for name in expected.recorder.names():
        times, values = result.trace(name).as_arrays()
        expected_times, expected_values = expected.trace(name).as_arrays()
        assert _bytes_equal(times, expected_times), name
        assert _bytes_equal(values, expected_values), name
    assert next_draw == expected_next_draw


class TestChannelMatchesReferenceKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(channel_cases())
    def test_generated_channels_match_reference(self, case):
        config, bits, jitter, ppm, mismatch, seed = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            _with_mismatch(monkeypatch, mismatch)
            live = _channel_run(config, bits, jitter, ppm, seed)
            simulators = _use_reference_kernel(monkeypatch)
            reference = _channel_run(config, bits, jitter, ppm, seed)
        assert len(simulators) == 1
        _assert_same_run(live, reference)

    @pytest.mark.parametrize(
        "config",
        [CdrChannelConfig.paper_nominal(), CdrChannelConfig.paper_improved()],
        ids=["paper_nominal", "paper_improved"],
    )
    def test_long_jittered_channel_matches_reference(self, config, monkeypatch):
        """Far more draws than one stream block, on both clock taps."""
        bits = np.resize(np.array([1, 0, 0, 1, 1, 1, 0, 1, 0, 0], dtype=np.uint8), 600)
        jitter = JitterSpec(sj_amplitude_ui_pp=0.3, sj_frequency_hz=25.0e6)
        live = _channel_run(config, bits, jitter, 0.0, 5)
        simulators = _use_reference_kernel(monkeypatch)
        reference = _channel_run(config, bits, jitter, 0.0, 5)
        assert len(simulators) == 1
        _assert_same_run(live, reference)

    def test_traced_counters_match_reference(self, monkeypatch):
        """The tracer is read once per drain; the totals stay per-dispatch exact."""
        config = CdrChannelConfig.paper_nominal()
        bits = np.resize(np.array([1, 1, 0, 1, 0, 0, 0, 1], dtype=np.uint8), 300)
        with telemetry.trace("oracle") as tracer:
            _channel_run(config, bits, JitterSpec(), 0.0, 9)
        simulators = _use_reference_kernel(monkeypatch)
        _channel_run(config, bits, JitterSpec(), 0.0, 9)
        counters = tracer.counters
        assert counters["kernel.gate_evaluations"] == simulators[0].gate_evaluations
        assert counters["kernel.events"] == simulators[0].events


# --- gate-level circuits ----------------------------------------------------------

LIVE = {
    "simulator": Simulator,
    "signal": Signal,
    "buffer": BufferGate,
    "xnor": Xnor2Gate,
    "latch": CmlLatch,
    "flip_flop": CmlFlipFlop,
}
REFERENCE = {
    "simulator": ReferenceSimulator,
    "signal": ReferenceSignal,
    "buffer": ReferenceBufferGate,
    "xnor": ReferenceXnor2Gate,
    "latch": ReferenceLatch,
    "flip_flop": ReferenceFlipFlop,
}


def _storage_circuit(kernel, seed):
    """Gates, a latch and a flip-flop jittered from one shared ``rng``.

    Returns the recorded traces, the flip-flop decisions and the next draw.
    """
    rng = np.random.default_rng(seed)
    timing = CmlTiming(20.0e-12, jitter_sigma_fraction=0.05)
    simulator = kernel["simulator"]()
    signal = kernel["signal"]
    data, clock = signal(simulator, "d", 0), signal(simulator, "ck", 0)
    times = np.cumsum(np.random.default_rng(seed + 1).uniform(60.0e-12, 400.0e-12, 400))
    data.drive(times, np.arange(400) % 2)
    clock.drive(np.arange(1, 501) * 100.0e-12, np.arange(1, 501) % 2)
    delayed, edge = signal(simulator, "dd", 0), signal(simulator, "edge", 1)
    latched, sampled = signal(simulator, "q_latch", 0), signal(simulator, "q_ff", 0)
    kernel["buffer"]("buf", data, delayed, timing, rng=rng)
    kernel["xnor"]("xnor", data, delayed, edge, timing, rng=rng)
    kernel["latch"]("latch", delayed, clock, latched, timing, rng=rng)
    flip_flop = kernel["flip_flop"](simulator, "ff", edge, clock, sampled, timing, rng=rng)
    recorder = WaveformRecorder()
    for node in (delayed, edge, latched, sampled):
        recorder.watch(node)
    for stop in (7.0e-9, 23.0e-9, 60.0e-9):
        simulator.run_until(stop)
    traces = {name: recorder.trace(name).as_arrays() for name in recorder.names()}
    return traces, flip_flop.decisions, rng.random()


class TestGateCircuitsMatchReferenceKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_latch_flip_flop_and_gates_share_one_rng(self, seed):
        traces, decisions, next_draw = _storage_circuit(LIVE, seed)
        expected_traces, expected_decisions, expected_next_draw = _storage_circuit(REFERENCE, seed)
        assert traces.keys() == expected_traces.keys()
        for name, (times, values) in traces.items():
            assert _bytes_equal(times, expected_traces[name][0]), name
            assert _bytes_equal(values, expected_traces[name][1]), name
        assert decisions == expected_decisions
        assert next_draw == expected_next_draw

    @pytest.mark.parametrize("sigma", [0.0, 0.03])
    def test_control_current_change_mid_run_matches_reference(self, sigma, monkeypatch):
        """Stage delays after ``set_control_current`` follow the new current."""
        parameters = GccoParameters(jitter_sigma_fraction=sigma, gating_input_skew_s=5.0e-12)
        midpoint = parameters.control_current_midpoint_a

        def run(simulator_class):
            rng = np.random.default_rng(4)
            simulator = simulator_class()
            gate = ring.Signal(simulator, "edet", initial=1)
            oscillator = GatedRingOscillator(simulator, "osc", gate, parameters, rng=rng)
            recorder = WaveformRecorder()
            for stage in oscillator.stages:
                recorder.watch(stage)
            simulator.run_until(3.0e-9)
            oscillator.set_control_current(midpoint + 40.0e-6)
            simulator.run_until(6.0e-9)
            oscillator.set_control_current(midpoint - 25.0e-6)
            simulator.run_until(9.0e-9)
            traces = [recorder.trace(name).as_arrays() for name in recorder.names()]
            return traces, rng.random()

        traces, next_draw = run(Simulator)
        _use_reference_kernel(monkeypatch)
        expected_traces, expected_next_draw = run(ReferenceSimulator)
        for (times, values), (expected_times, expected_values) in zip(traces, expected_traces):
            assert _bytes_equal(times, expected_times)
            assert _bytes_equal(values, expected_values)
        assert next_draw == expected_next_draw
        if sigma == 0.0:
            # Unjittered, the last stage's edges after the second change come
            # one period of the new current apart.
            edges = np.diff(traces[-1][0][traces[-1][0] > 6.5e-9])
            period = 1.0 / parameters.frequency_at(midpoint - 25.0e-6)
            np.testing.assert_allclose(edges, period / 2, rtol=1e-9)


# --- NormalStream -----------------------------------------------------------------


def _drawing_simulator(seed, counts, spacing_s=1.0e-9):
    """A simulator whose event ``k`` (at ``k * spacing_s``) takes ``counts[k]`` draws."""
    rng = np.random.default_rng(seed)
    simulator = Simulator()
    stream = simulator.normal_stream(rng)
    drawn = []
    for index, count in enumerate(counts):
        simulator.call_at(
            index * spacing_s, lambda count=count: drawn.extend(stream.draw() for _ in range(count))
        )
    return simulator, rng, drawn


def _scalar_twin(seed, n_draws):
    """``(values, generator)`` after *n_draws* scalar standard-normal draws."""
    twin = np.random.default_rng(seed)
    return [twin.standard_normal() for _ in range(n_draws)], twin


class TestNormalStream:
    @pytest.mark.parametrize("n_draws", [0, 1, 255, 256, 257, 1000])
    def test_drain_leaves_scalar_state_around_block_edges(self, n_draws):
        simulator, rng, drawn = _drawing_simulator(3, [n_draws])
        simulator.run()
        values, twin = _scalar_twin(3, n_draws)
        assert drawn == values
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random() == twin.random()

    def test_one_stream_per_generator(self):
        simulator = Simulator()
        rng = np.random.default_rng(0)
        assert simulator.normal_stream(rng) is simulator.normal_stream(rng)
        assert simulator.normal_stream(rng) is not simulator.normal_stream(np.random.default_rng(0))

    def test_draws_outside_a_drain_are_scalar(self):
        rng = np.random.default_rng(8)
        stream = Simulator().normal_stream(rng)
        values, twin = _scalar_twin(8, 3)
        assert [stream.draw() for _ in range(3)] == values
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(0, 300), min_size=1, max_size=12),
        st.lists(st.floats(0.0, 13.0), min_size=1, max_size=5),
    )
    def test_run_until_slices_leave_scalar_state(self, counts, stops):
        simulator, rng, drawn = _drawing_simulator(11, counts)
        for stop in sorted(stops):
            simulator.run_until(stop * 1.0e-9)
            # Every event at or before the stop ran, and nothing else drew.
            values, twin = _scalar_twin(11, len(drawn))
            assert drawn == values
            assert rng.bit_generator.state == twin.bit_generator.state
        simulator.run()
        values, twin = _scalar_twin(11, sum(counts))
        assert drawn == values
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("per_event", [1, 100, 300])
    @pytest.mark.parametrize("drain", ["run", "run_until"])
    def test_max_events_error_leaves_scalar_state(self, per_event, drain):
        rng = np.random.default_rng(21)
        simulator = Simulator()
        stream = simulator.normal_stream(rng)
        drawn = []

        def runaway() -> None:
            drawn.extend(stream.draw() for _ in range(per_event))
            simulator.call_after(1.0e-12, runaway)

        simulator.call_after(0.0, runaway)
        with pytest.raises(SimulationError):
            if drain == "run":
                simulator.run(max_events=7)
            else:
                simulator.run_until(1.0, max_events=7)
        values, twin = _scalar_twin(21, 7 * per_event)
        assert drawn == values
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_callback_error_leaves_scalar_state(self):
        simulator, rng, drawn = _drawing_simulator(5, [NORMAL_BLOCK + 3])

        def fail() -> None:
            raise RuntimeError("callback failed")

        simulator.call_at(0.5e-9, fail)
        with pytest.raises(RuntimeError):
            simulator.run()
        values, twin = _scalar_twin(5, NORMAL_BLOCK + 3)
        assert drawn == values
        assert rng.bit_generator.state == twin.bit_generator.state
