"""Round-trip and edge-extraction tests (waveform -> NrzEdgeStream)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import telemetry
from repro.datapath import JitterSpec, generate_edge_times, prbs_sequence, waveform_from_edges
from repro.link import (
    IdealChannel,
    LinkConfig,
    LinkPath,
    LinkTimebase,
    LossyLineChannel,
    circular_transition_positions,
    edge_stream_from_waveform,
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


class TestWaveformRoundTrip:
    """Satellite requirement: ``waveform_from_edges`` <-> edge extraction."""

    def _render_midpoint(self, stream, samples_per_ui):
        """Render a stream with waveform_from_edges on the midpoint grid."""
        step = stream.bit_period_s / samples_per_ui
        time_axis, levels = waveform_from_edges(stream, step)
        # waveform_from_edges samples the level that holds over
        # [t, t + step); shift to midpoints and map 0/1 -> -1/+1.
        return time_axis + 0.5 * step, 2.0 * levels.astype(float) - 1.0

    def test_ideal_round_trip_bit_exact(self):
        bits = prbs_sequence(7, 500)
        stream = generate_edge_times(
            bits, jitter=JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0),
            start_time_s=1.6e-9)
        time_axis, waveform = self._render_midpoint(stream, 32)
        recovered = edge_stream_from_waveform(
            time_axis, waveform, bits, start_time_s=1.6e-9)
        assert np.array_equal(recovered.edge_times_s, stream.edge_times_s)
        assert np.array_equal(recovered.edge_bit_index, stream.edge_bit_index)
        assert np.array_equal(recovered.bits, stream.bits)

    def test_jittered_round_trip_within_half_sample(self):
        rng = np.random.default_rng(21)
        bits = prbs_sequence(9, 400)
        jitter = JitterSpec(dj_ui_pp=0.1, rj_ui_rms=0.01)
        stream = generate_edge_times(bits, jitter=jitter, rng=rng,
                                     start_time_s=1.6e-9)
        samples_per_ui = 32
        time_axis, waveform = self._render_midpoint(stream, samples_per_ui)
        recovered = edge_stream_from_waveform(
            time_axis, waveform, bits, start_time_s=1.6e-9)
        step = stream.bit_period_s / samples_per_ui
        # Each edge is quantised inside its sample cell (half a step) and
        # the whole population carries the median-centring shift (bounded
        # by another half step), so no edge moves by more than one step.
        offsets = recovered.edge_times_s - stream.edge_times_s
        assert np.max(np.abs(offsets)) <= step + 1e-15

    def test_residual_jitter_draws_match_direct_path(self):
        # Link extraction + JitterSpec composition must be bit-for-bit the
        # direct generate_edge_times stream for an ideal channel.
        bits = prbs_sequence(7, 300)
        jitter = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.02,
                            sj_amplitude_ui_pp=0.1, sj_frequency_hz=100e6)
        reference = generate_edge_times(
            bits, jitter=jitter, rng=np.random.default_rng(5),
            start_time_s=1.6e-9)
        ideal = generate_edge_times(
            bits, jitter=JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0),
            start_time_s=1.6e-9)
        time_axis, waveform = self._render_midpoint(ideal, 32)
        recovered = edge_stream_from_waveform(
            time_axis, waveform, bits, start_time_s=1.6e-9,
            jitter=jitter, rng=np.random.default_rng(5))
        assert np.array_equal(recovered.edge_times_s, reference.edge_times_s)


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
