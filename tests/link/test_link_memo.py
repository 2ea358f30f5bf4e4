"""The process-wide link memo is sound: a hit is a recompute, byte for byte.

:mod:`repro.link.memo` shares channel responses, pulse responses,
crosstalk waveforms and pattern displacement tables (with their DFE
adaptation) across every ``LinkPath`` of an equal configuration.  These
tests pin what sharing must never change: a hit returns exactly the bytes
of a fresh recompute after a clear, equal configurations built separately
share bytes, shared arrays are read-only, the LRU honours its bounds and
drops channel responses first, training candidates share what they have
in common and a full training study evicts nothing, and sweeps are
worker-invariant and identical cold or warm.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.datapath.nrz import JitterSpec
from repro.experiments import (
    MeasurementPlan,
    ParameterAxis,
    ScenarioSpec,
    StimulusSpec,
    run_grid,
)
from repro.link import (
    CrosstalkSpec,
    IdealChannel,
    LinkConfig,
    LinkPath,
    LinkTimebase,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    SinglePoleChannel,
    TxFfe,
)
from repro.link import memo
from repro.link.memo import clear_link_memo, memo_size
from repro.link.training import LinkTrainer, TrainingBudget


def _bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _build(channel, post_db, peaking_db, dfe_taps, aggressor, samples_per_ui):
    """One link configuration; called twice, it builds equal objects anew."""
    if channel[0] == "ideal":
        model = IdealChannel()
    elif channel[0] == "pole":
        model = SinglePoleChannel(cutoff_hz=channel[1])
    else:
        model = LossyLineChannel.for_loss_at_nyquist(channel[1])
    return LinkConfig(
        channel=model,
        tx_ffe=None if post_db is None else TxFfe.de_emphasis(post_db=post_db),
        rx_ctle=None if peaking_db is None else RxCtle(peaking_db=peaking_db),
        dfe=None if dfe_taps is None else LmsDfe(n_taps=dfe_taps, n_epochs=5),
        crosstalk=None if aggressor is None else CrosstalkSpec.single_fext(aggressor),
        timebase=LinkTimebase(samples_per_ui=samples_per_ui),
    )


#: Arguments of :func:`_build`, one strategy per field.
LINK_PARAMETERS = st.tuples(
    st.one_of(
        st.just(("ideal", None)),
        st.tuples(st.just("pole"), st.sampled_from([1.0e9, 1.875e9])),
        st.tuples(st.just("line"), st.sampled_from([0.0, 6.0, 12.0])),
    ),
    st.one_of(st.none(), st.sampled_from([0.0, 3.5])),
    st.one_of(st.none(), st.sampled_from([0.0, 6.0])),
    st.one_of(st.none(), st.integers(1, 2)),
    st.one_of(st.none(), st.sampled_from([0.0, 0.05])),
    st.sampled_from([8, 16]),
)
PATTERNS = st.lists(st.booleans(), min_size=8, max_size=40).map(
    lambda bits: np.array([1, 0] + bits, dtype=np.uint8)
)


def _front_end(config: LinkConfig, bits: np.ndarray):
    """Every memoized product of one link: pulse, table, crosstalk, DFE."""
    path = LinkPath(config)
    table = path.pattern_displacements(bits)
    adaptation = path.last_dfe_adaptation
    return {
        "pulse": path.equalized_pulse_response(bits.size),
        "table": table,
        "crosstalk": path.crosstalk_waveform(bits.size),
        "dfe_weights": None if adaptation is None else adaptation.weights,
        "dfe_errors": None if adaptation is None else adaptation.error_rms_per_epoch,
    }


def _assert_same_bytes(left: dict, right: dict) -> None:
    for name in left:
        if left[name] is None:
            assert right[name] is None, name
        else:
            assert _bytes(left[name]) == _bytes(right[name]), name


class TestHitEqualsRecompute:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        parameters=LINK_PARAMETERS,
        other=LINK_PARAMETERS,
        changed=st.integers(0, 5),  # which of the six _build arguments differs
        bits=PATTERNS,
    )
    def test_hit_matches_fresh_recompute(self, parameters, other, changed, bits):
        # A neighbour differing in at most one field shares the rest of every
        # key; its entries must not leak into this link's results.
        neighbour = parameters[:changed] + (other[changed],) + parameters[changed + 1 :]
        clear_link_memo()
        _front_end(_build(*neighbour), bits)
        cold = _front_end(_build(*parameters), bits)
        with telemetry.trace() as tracer:
            warm = _front_end(_build(*parameters), bits)
        assert "link.pattern_cache.misses" not in tracer.counters
        assert "link.pulse_cache.misses" not in tracer.counters
        for name, array in cold.items():
            assert warm[name] is array, name  # served from the memo
        clear_link_memo()
        fresh = _front_end(_build(*parameters), bits)
        for name, array in cold.items():
            assert array is None or fresh[name] is not array, name
        _assert_same_bytes(cold, fresh)


class TestEqualConfigsShareBytes:
    def test_negative_zero_tap_config_is_the_same_entry(self):
        emphasized = TxFfe.de_emphasis(post_db=0.0)
        explicit = TxFfe(taps=(1.0, 0.0))
        assert emphasized.taps == (1.0, -0.0)
        assert emphasized == explicit and hash(emphasized) == hash(explicit)
        bits = np.array([1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1], dtype=np.uint8)
        channel = LossyLineChannel.for_loss_at_nyquist(8.0)
        left = LinkConfig(channel=channel, tx_ffe=emphasized, rx_ctle=RxCtle())
        right = LinkConfig(channel=channel, tx_ffe=explicit, rx_ctle=RxCtle())
        from_left = LinkPath(left).pattern_displacements(bits)
        clear_link_memo()
        from_right = LinkPath(right).pattern_displacements(bits)
        assert from_right is not from_left
        assert _bytes(from_right) == _bytes(from_left)
        assert LinkPath(left).pattern_displacements(bits) is from_right

    def test_pulse_shared_across_tx_ffe_candidates(self):
        channel = LossyLineChannel.for_loss_at_nyquist(10.0)
        with telemetry.trace() as tracer:
            for post_db in (0.0, 2.0, 3.5, 6.0):
                config = LinkConfig(
                    channel=channel, tx_ffe=TxFfe.de_emphasis(post_db=post_db), rx_ctle=RxCtle()
                )
                LinkPath(config).equalized_pulse_response(64)
        assert tracer.counters["link.pulse_cache.misses"] == 1
        assert tracer.counters["link.pulse_cache.hits"] == 3


class TestSharedArraysAreReadOnly:
    def test_writes_to_memoized_arrays_raise(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0], dtype=np.uint8)
        config = _build(("line", 10.0), 3.5, 6.0, 2, 0.05, 8)
        products = _front_end(config, bits)
        for name, array in products.items():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            products["table"] += 1.0


class TestLruBounds:
    def test_evicts_least_recently_used_past_entry_bound(self):
        for index in range(memo.MEMO_MAX_ENTRIES):
            memo.memoized(("probe", index), lambda: np.zeros(1))
        assert memo_size() == (memo.MEMO_MAX_ENTRIES, 8 * memo.MEMO_MAX_ENTRIES)
        touched = memo.memoized(("probe", 0), lambda: np.ones(1))
        assert touched[0] == 0.0  # a hit, now the most recently used
        memo.memoized(("probe", "overflow"), lambda: np.zeros(1))
        assert memo_size()[0] == memo.MEMO_MAX_ENTRIES
        recomputed = memo.memoized(("probe", 1), lambda: np.ones(1))
        assert recomputed[0] == 1.0  # entry 1 was the oldest: evicted
        assert memo.memoized(("probe", 0), lambda: np.ones(1))[0] == 0.0

    def test_evicts_past_byte_bound(self, monkeypatch):
        monkeypatch.setattr(memo, "MEMO_MAX_BYTES", 1000)
        for index in range(3):
            memo.memoized(("probe", index), lambda: np.zeros(50))  # 400 B each
        assert memo_size() == (2, 800)
        oversized = memo.memoized(("probe", "big"), lambda: np.zeros(200))
        assert oversized.size == 200  # returned, but never kept
        assert memo_size() == (0, 0)

    def test_evict_first_entry_goes_before_older_entries(self, monkeypatch):
        monkeypatch.setattr(memo, "MEMO_MAX_BYTES", 1000)
        memo.memoized(("probe", 0), lambda: np.zeros(50))  # 400 B each
        memo.memoized(("probe", "first"), lambda: np.zeros(50), evict_first=True)
        memo.memoized(("probe", 1), lambda: np.zeros(50))
        assert memo_size() == (2, 800)
        assert [key[1] for key in memo._MEMO] == [0, 1]

    def test_hit_keeps_an_evict_first_entry(self, monkeypatch):
        monkeypatch.setattr(memo, "MEMO_MAX_BYTES", 1000)
        memo.memoized(("probe", "first"), lambda: np.zeros(50), evict_first=True)
        memo.memoized(("probe", 0), lambda: np.zeros(50))
        memo.memoized(("probe", "first"), lambda: np.ones(50))  # a hit: now the newest
        memo.memoized(("probe", 1), lambda: np.zeros(50))
        assert [key[1] for key in memo._MEMO] == ["first", 1]

    def test_one_ctle_per_channel_sweep_keeps_every_pulse_and_table(self, monkeypatch):
        # The bound holds exactly three links' pulses and tables.  Kept as
        # ordinary entries, the channel responses would push out the first
        # links' pulses and tables; kept as the first to go, they leave what
        # a memo without them keeps.
        bits = np.resize(np.array([1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1], dtype=np.uint8), 120)
        configs = [
            LinkConfig(channel=LossyLineChannel.for_loss_at_nyquist(loss))
            for loss in (8.0, 10.0, 12.0)
        ]
        count = configs[0].timebase.n_samples(bits.size)
        per_link = 8 * count + 8 * bits.size  # one pulse, one table
        monkeypatch.setattr(memo, "MEMO_MAX_BYTES", 3 * per_link)
        for config in configs:
            LinkPath(config).pattern_displacements(bits)
        assert [key[0] for key in memo._MEMO] == ["pulse", "pattern"] * 3
        with telemetry.trace() as tracer:
            for config in configs:
                LinkPath(config).pattern_displacements(bits)
        assert tracer.counters["link.pattern_cache.hits"] == 3
        assert "link.pattern_cache.misses" not in tracer.counters


class TestSweepsOverTheMemo:
    SPEC = ScenarioSpec(
        stimulus=StimulusSpec(n_bits=254),
        jitter=JitterSpec(rj_ui_rms=0.01),
        link=LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5), rx_ctle=RxCtle(), dfe=LmsDfe()),
    )
    # Every channel repeats across the SJ axis: the grid reuses its tables.
    AXES = [
        ParameterAxis("channel_loss_db", (6.0, 12.0)),
        ParameterAxis("sj_amplitude_ui_pp", (0.1, 0.4)),
    ]

    def test_repeated_channel_grid_is_worker_and_memo_invariant(self):
        with telemetry.trace() as tracer:
            cold = run_grid(self.SPEC, self.AXES, seed=4, workers=1).to_json()
        assert tracer.counters["link.pattern_cache.misses"] == 2
        assert tracer.counters["link.pattern_cache.hits"] == 2
        with telemetry.trace() as tracer:
            warm = run_grid(self.SPEC, self.AXES, seed=4, workers=1).to_json()
        assert "link.pattern_cache.misses" not in tracer.counters
        pooled = run_grid(self.SPEC, self.AXES, seed=4, workers=2).to_json()
        assert warm == cold
        assert pooled == cold

    def test_training_computes_each_pulse_key_once(self):
        training = TrainingBudget(
            tx_post_db=(0.0, 2.0, 3.5), ctle_peaking_db=(3.0, 6.0), refine_rounds=1
        )
        link = LinkConfig(channel=LossyLineChannel.for_loss_at_nyquist(10.0))
        with telemetry.trace() as tracer:
            LinkTrainer(link, training=training).train()
        pulse_keys = [key for key in memo._MEMO if key[0] == "pulse"]
        assert tracer.counters["link.pulse_cache.misses"] == len(pulse_keys)
        # TX-FFE candidates on one channel x CTLE pair share one FFT.
        assert tracer.counters["link.pulse_cache.hits"] > 0


def _memo_kinds() -> set:
    return {key[0] for key in memo._MEMO}


class TestTrainingCandidatesShareWork:
    BITS = np.array([1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0], dtype=np.uint8)
    CHANNEL = LossyLineChannel.for_loss_at_nyquist(10.0)

    def test_channel_misses_equal_distinct_channel_grids(self):
        training = TrainingBudget(
            tx_post_db=(0.0, 2.0, 3.5), ctle_peaking_db=(3.0, 6.0), refine_rounds=1
        )
        link = LinkConfig(channel=self.CHANNEL)
        with telemetry.trace() as tracer:
            LinkTrainer(link, training=training).train()
        channel_keys = {key[1:] for key in memo._MEMO if key[0] == "channel"}
        assert channel_keys == {
            (self.CHANNEL, link.timebase, link.timebase.n_samples(n_ui)) for n_ui in (64, 127)
        }
        assert tracer.counters["link.channel_cache.misses"] == len(channel_keys)
        # Every CTLE candidate's pulse reads the one channel response per grid.
        assert tracer.counters["link.channel_cache.hits"] > 0

    def test_ffe_candidates_share_one_pulse(self):
        pulses = []
        with telemetry.trace() as tracer:
            for post_db in (0.0, 2.0, 3.5, 6.0):
                config = LinkConfig(
                    channel=self.CHANNEL,
                    tx_ffe=TxFfe.de_emphasis(post_db=post_db),
                    rx_ctle=RxCtle(peaking_db=6.0),
                )
                LinkPath(config).received_pattern_waveform(self.BITS)
                pulses.append(LinkPath(config).equalized_pulse_response(self.BITS.size))
        assert all(pulse is pulses[0] for pulse in pulses)
        assert tracer.counters["link.pulse_cache.misses"] == 1
        assert tracer.counters["link.pulse_cache.hits"] > 0
        assert tracer.counters["link.channel_cache.misses"] == 1
        assert "link.channel_cache.hits" not in tracer.counters
        assert [key for key in memo._MEMO if key[0] == "pulse"] == [
            ("pulse", self.CHANNEL, RxCtle(peaking_db=6.0), LinkTimebase(), self.BITS.size)
        ]

    def test_ctle_candidates_share_one_channel_response(self):
        ffe = TxFfe.de_emphasis(post_db=3.5)
        with telemetry.trace() as tracer:
            for peaking_db in (0.0, 3.0, 6.0, 9.0):
                config = LinkConfig(
                    channel=self.CHANNEL, tx_ffe=ffe, rx_ctle=RxCtle(peaking_db=peaking_db)
                )
                LinkPath(config).received_pattern_waveform(self.BITS)
        assert tracer.counters["link.channel_cache.misses"] == 1
        assert tracer.counters["link.channel_cache.hits"] == 3
        assert tracer.counters["link.pulse_cache.misses"] == 4

    def test_clear_drops_every_kind_of_entry(self):
        config = LinkConfig(
            channel=self.CHANNEL,
            tx_ffe=TxFfe.de_emphasis(post_db=3.5),
            rx_ctle=RxCtle(),
            crosstalk=CrosstalkSpec.single_fext(0.05),
        )
        path = LinkPath(config)
        path.pattern_displacements(self.BITS)
        path.crosstalk_waveform(self.BITS.size)
        assert _memo_kinds() == {"channel", "pulse", "pattern", "crosstalk"}
        clear_link_memo()
        assert memo_size() == (0, 0)
        with telemetry.trace() as tracer:
            LinkPath(config).received_pattern_waveform(self.BITS)
        for kind in ("channel", "pulse", "crosstalk"):
            assert tracer.counters[f"link.{kind}_cache.misses"] == 1, kind

    def test_full_training_study_evicts_nothing(self):
        spec = ScenarioSpec(
            stimulus=StimulusSpec(kind="prbs", n_bits=4 * 127, prbs_order=7, seed=3),
            link=LinkConfig(),
            measurement=MeasurementPlan(train_equalizers=True),
        )
        axes = [ParameterAxis("channel_loss_db", (8.0, 11.0, 14.0, 17.0))]
        with telemetry.trace() as tracer:
            run_grid(spec, axes, seed=5, workers=1)
        misses = sum(
            value for name, value in tracer.counters.items()
            if name.startswith("link.") and name.endswith("_cache.misses")
        )
        # Every miss added one entry, and every entry is still held.
        assert memo_size()[0] == misses < memo.MEMO_MAX_ENTRIES
        assert memo_size()[1] < memo.MEMO_MAX_BYTES
