"""Edge-extraction tests: rendered crossings, ``LinkPath.transmit`` and its tiling check."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import telemetry
from repro.analysis.timing import threshold_crossings
from repro.datapath import (
    JitterSpec,
    generate_edge_times,
    ideal_edge_times,
    prbs_sequence,
    waveform_from_edges,
)
from repro.link import (
    IdealChannel,
    LinkConfig,
    LinkPath,
    LinkTimebase,
    LossyLineChannel,
    circular_transition_positions,
    match_crossings_ui,
)
from repro.link.edges import MISSING_EDGE_DISPLACEMENT_UI
from repro.link.memo import clear_link_memo


class TestTransitionPositions:
    def test_circular_wrap(self):
        positions = circular_transition_positions([1, 1, 0, 0])
        # Position 0 is a transition because the pattern repeats 0 -> 1.
        assert positions.tolist() == [0, 2]

    def test_constant_pattern_has_none(self):
        assert circular_transition_positions([1, 1, 1]).size == 0


class TestMatchCrossings:
    def test_exact_match_snaps_to_zero(self):
        ideal = np.array([1.0e-9, 3.0e-9])
        displacements = match_crossings_ui(ideal.copy(), ideal, 4.0e-10)
        assert displacements.tolist() == [0.0, 0.0]

    def test_constant_delay_is_centred_away(self):
        ideal = np.arange(10) * 1.2e-9
        crossings = ideal + 0.15e-9
        displacements = match_crossings_ui(crossings, ideal, 4.0e-10)
        assert displacements == pytest.approx(np.zeros(10), abs=1e-9)

    def test_missing_crossing_marked(self):
        ideal = np.array([0.0, 1.0e-9, 2.0e-9])
        crossings = np.array([0.0, 2.0e-9])  # middle transition lost
        displacements = match_crossings_ui(crossings, ideal, 4.0e-10)
        assert displacements[1] == MISSING_EDGE_DISPLACEMENT_UI
        assert displacements[0] == 0.0 and displacements[2] == 0.0


def _render_midpoint(stream, samples_per_ui):
    """Render *stream* with ``waveform_from_edges`` on the midpoint grid."""
    step = stream.bit_period_s / samples_per_ui
    time_axis, levels = waveform_from_edges(stream, step)
    # waveform_from_edges samples the level that holds over
    # [t, t + step); shift to midpoints and map 0/1 -> -1/+1.
    return time_axis + 0.5 * step, 2.0 * levels.astype(float) - 1.0


class TestRenderedCrossings:
    """``waveform_from_edges`` -> ``threshold_crossings`` -> ``match_crossings_ui``
    recovers the edges it rendered."""

    @staticmethod
    def _recovered_edges(stream, samples_per_ui):
        time_axis, waveform = _render_midpoint(stream, samples_per_ui)
        crossings = threshold_crossings(time_axis, waveform, kind="any")
        ideal, _ = ideal_edge_times(stream.bits, stream.bit_period_s,
                                    start_time_s=stream.start_time_s)
        displacements = match_crossings_ui(crossings, ideal, stream.bit_period_s)
        return ideal + displacements * stream.bit_period_s

    def test_ideal_edges_recovered_bit_exact(self):
        stream = generate_edge_times(
            prbs_sequence(7, 500), jitter=JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0),
            start_time_s=1.6e-9)
        recovered = self._recovered_edges(stream, 32)
        assert np.array_equal(recovered, stream.edge_times_s)

    def test_jittered_edges_recovered_within_one_sample(self):
        jitter = JitterSpec(dj_ui_pp=0.1, rj_ui_rms=0.01)
        stream = generate_edge_times(prbs_sequence(9, 400), jitter=jitter,
                                     rng=np.random.default_rng(21), start_time_s=1.6e-9)
        samples_per_ui = 32
        recovered = self._recovered_edges(stream, samples_per_ui)
        step = stream.bit_period_s / samples_per_ui
        # Each edge is quantised inside its sample cell (half a step) and
        # the whole population carries the median-centring shift (bounded
        # by another half step), so no edge moves by more than one step.
        assert np.max(np.abs(recovered - stream.edge_times_s)) <= step + 1e-15


@st.composite
def direct_stimulus_cases(draw):
    """Bits, a DJ/RJ/SJ spec, a generator seed, a ppm offset and a start time."""
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=1, max_size=200)), dtype=np.uint8)
    jitter = JitterSpec(
        dj_ui_pp=draw(st.sampled_from([0.0, 0.1, 0.4])),
        rj_ui_rms=draw(st.sampled_from([0.0, 0.005, 0.021])),
        sj_amplitude_ui_pp=draw(st.sampled_from([0.0, 0.05, 0.3])),
        sj_frequency_hz=draw(st.floats(1.0e5, 1.0e9)),
        sj_phase_rad=draw(st.floats(-np.pi, np.pi)),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    ppm = draw(st.floats(-500.0, 500.0))
    start_time_s = draw(st.floats(0.0, 1.0e-8))
    return bits, jitter, seed, ppm, start_time_s


class TestZeroLossLinkIsTheDirectPath:
    """A link with no channel loss reduces to the channel-less stimulus path:
    ``LinkPath.transmit`` returns ``generate_edge_times``'s stream byte for
    byte, with the same generator draws."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(direct_stimulus_cases())
    def test_transmit_equals_generate_edge_times(self, case):
        bits, jitter, seed, ppm, start_time_s = case
        linked = LinkPath(LinkConfig()).transmit(
            bits, jitter=jitter, rng=np.random.default_rng(seed),
            data_rate_offset_ppm=ppm, start_time_s=start_time_s)
        direct = generate_edge_times(
            bits, jitter=jitter, rng=np.random.default_rng(seed),
            data_rate_offset_ppm=ppm, start_time_s=start_time_s)
        assert linked.edge_times_s.tobytes() == direct.edge_times_s.tobytes()
        assert linked.edge_bit_index.tobytes() == direct.edge_bit_index.tobytes()
        assert linked.bit_period_s == direct.bit_period_s
        assert linked.bits.tobytes() == direct.bits.tobytes()


class TestLinkPathTransmit:
    def test_ideal_path_bit_exact(self):
        bits = prbs_sequence(7, 400)
        path = LinkPath(LinkConfig())
        start = 4 * path.config.timebase.unit_interval_s
        stream = path.transmit(bits, start_time_s=start, pattern_period=127)
        reference = generate_edge_times(
            bits, jitter=JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0),
            start_time_s=start)
        assert np.array_equal(stream.edge_times_s, reference.edge_times_s)

    def test_pattern_table_reused_across_calls(self):
        path = LinkPath(LinkConfig(channel=LossyLineChannel.for_loss_at_nyquist(8.0)))
        bits = prbs_sequence(7, 254)
        with telemetry.trace() as tracer:
            path.transmit(bits, pattern_period=127)
            assert tracer.counters["link.pattern_cache.misses"] == 1
            path.transmit(prbs_sequence(7, 508), pattern_period=127)
        # Same pattern: the second call reuses the table, no recompute.
        assert tracer.counters["link.pattern_cache.misses"] == 1
        assert tracer.counters["link.pattern_cache.hits"] == 1

    def test_pattern_period_must_tile(self):
        path = LinkPath(LinkConfig())
        bits = np.array([0, 1, 1, 0, 1, 1, 1, 0], dtype=np.uint8)
        with pytest.raises(ValueError):
            path.transmit(bits, pattern_period=3)


def _tiles_reference(bits: np.ndarray, pattern_period: int) -> bool:
    """The previous tiling check: compare with the pattern resized to the stream."""
    pattern = bits[:min(pattern_period, bits.size)]
    return np.array_equal(bits, np.resize(pattern, bits.size))


@st.composite
def tiling_cases(draw):
    """``(bits, pattern_period)``: a tiled stream, maybe with one bit flipped."""
    pattern = draw(st.lists(st.integers(0, 1), min_size=1, max_size=9))
    n_bits = draw(st.integers(1, 40))
    bits = np.resize(np.array(pattern, dtype=np.uint8), n_bits)
    if draw(st.booleans()):
        bits[draw(st.integers(0, n_bits - 1))] ^= 1
    return bits, draw(st.sampled_from([len(pattern), n_bits, n_bits + draw(st.integers(1, 5))]))


class TestTransmitTilingCheck:
    """``transmit(pattern_period=P)`` raises if and only if the bits do not
    tile ``bits[:P]``, as the resize-and-compare oracle decides."""

    @pytest.fixture(autouse=True)
    def _clean_memo(self):
        yield
        clear_link_memo()

    @staticmethod
    def _check(bits: np.ndarray, pattern_period: int) -> None:
        path = LinkPath(LinkConfig())
        if _tiles_reference(bits, pattern_period):
            path.transmit(bits, pattern_period=pattern_period)
        else:
            with pytest.raises(ValueError, match="do not tile"):
                path.transmit(bits, pattern_period=pattern_period)

    @pytest.mark.parametrize("bits,pattern_period,tiles", [
        ([0, 1, 1, 0, 1], 5, True),             # P = n
        ([0, 1, 1, 0, 1], 8, True),             # P > n
        ([0, 1, 1, 0, 1, 1, 0, 0], 3, False),   # only the last, partial period differs
        ([0, 1, 1, 1, 1, 1, 0, 1, 1], 3, False),  # bit P differs
    ], ids=["P_equals_n", "P_beyond_n", "last_partial_period", "bit_P"])
    def test_named_cases(self, bits, pattern_period, tiles):
        bits = np.array(bits, dtype=np.uint8)
        assert _tiles_reference(bits, pattern_period) == tiles
        self._check(bits, pattern_period)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tiling_cases())
    @example((np.array([1, 0, 1, 1, 0, 1, 1], dtype=np.uint8), 3))
    def test_raises_iff_the_oracle_finds_no_tiling(self, case):
        self._check(*case)

    def test_lossy_channel_produces_ddj(self):
        bits = prbs_sequence(7)
        lossy = LinkPath(LinkConfig(
            channel=LossyLineChannel.for_loss_at_nyquist(10.0)))
        population = lossy.ddj_population_ui(bits)
        assert population.size == circular_transition_positions(bits).size
        assert population.max() - population.min() > 0.05
        ideal = LinkPath(LinkConfig(channel=IdealChannel()))
        assert np.abs(ideal.ddj_population_ui(bits)).max() == 0.0

    def test_displacements_grow_with_loss(self):
        bits = prbs_sequence(7)
        spreads = []
        for loss in (4.0, 8.0, 12.0):
            path = LinkPath(LinkConfig(
                channel=LossyLineChannel.for_loss_at_nyquist(loss)))
            population = path.ddj_population_ui(bits)
            spreads.append(population.max() - population.min())
        assert spreads[0] < spreads[1] < spreads[2]

    def test_timebase_resolution_convergence(self):
        # The displacement table must be stable against the grid density.
        bits = prbs_sequence(7)
        tables = []
        for spu in (16, 32, 64):
            path = LinkPath(LinkConfig(
                channel=LossyLineChannel.for_loss_at_nyquist(8.0),
                timebase=LinkTimebase(samples_per_ui=spu)))
            tables.append(path.pattern_displacements(bits))
        assert tables[1] == pytest.approx(tables[2], abs=2e-3)
        assert tables[0] == pytest.approx(tables[2], abs=5e-3)
