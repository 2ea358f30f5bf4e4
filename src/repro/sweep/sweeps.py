"""The paper's headline sweeps as thin wrappers over ``repro.experiments``.

Every public sweep here is now a declarative study: it builds a frozen
:class:`~repro.experiments.ScenarioSpec` plus
:class:`~repro.experiments.ParameterAxis` objects and hands them to the
generic engine (:func:`repro.experiments.run_grid` /
:func:`repro.experiments.run_tolerance_search`), which executes the grid on
the deterministic parallel runner and resolves the backend per point
through :func:`repro.fastpath.backends.resolve_backend`.  Each wrapper
returns the engine's serializable :class:`~repro.experiments.SweepResult`
unchanged: read
``result.metrics[...]`` (grid-shaped, one dimension per swept axis) or
``result.ber``; fixed study parameters ride in ``result.metadata``.
Numeric results are unchanged from the hand-rolled pipelines these
wrappers replaced (covered by ``tests/experiments/test_wrappers.py``).

The statistical counterparts (analytic BER at 1e-12 and below) live in
:mod:`repro.statistical`; these time-domain sweeps complement them exactly
as the paper's VHDL runs complement its Matlab model — they confirm the
moderate-BER region and produce waveform-level diagnostics.
"""

from __future__ import annotations

import numpy as np

from .._validation import require_positive
from ..core.config import PAPER_JITTER_SPEC, CdrChannelConfig
from ..core.multichannel import MultiChannelConfig, MultiChannelReceiver
from ..datapath.nrz import JitterSpec
from ..experiments import (
    CrosstalkSpec,
    EqualizerLineup,
    LaneSpec,
    MeasurementPlan,
    ParameterAxis,
    ScenarioSpec,
    StimulusSpec,
    SweepResult,
    ToleranceSearch,
    TrainingBudget,
    run_grid,
    run_tolerance_search,
)
from ..link import LinkConfig, LmsDfe, LossyLineChannel, RxCtle, TxFfe

__all__ = [
    "LINK_RESIDUAL_JITTER_SPEC",
    "ber_vs_sj_sweep",
    "ber_vs_frequency_offset_sweep",
    "ber_vs_channel_loss_sweep",
    "ber_vs_ctle_peaking_sweep",
    "ber_vs_aggressor_sweep",
    "equalization_ablation_sweep",
    "jitter_tolerance_sweep",
    "link_training_sweep",
    "multichannel_sweep",
]

#: Residual transmitter jitter of the link sweeps: Table 1's random jitter,
#: with the deterministic component now *emerging* from channel ISI instead
#: of being stipulated.
LINK_RESIDUAL_JITTER_SPEC = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.021, sj_amplitude_ui_pp=0.0)


# --- scenario assembly helpers ------------------------------------------------


def _stimulus(n_bits: int, prbs_order: int, seed: int | None = None) -> StimulusSpec:
    return StimulusSpec(kind="prbs", n_bits=n_bits, prbs_order=prbs_order, seed=seed)


def _sinusoidal_base(jitter: JitterSpec) -> JitterSpec:
    """Base jitter of an SJ-swept scenario: amplitude/frequency come from
    the axes, and the phase resets to zero exactly as
    :meth:`~repro.datapath.nrz.JitterSpec.with_sinusoidal` does."""
    return jitter.with_sinusoidal(0.0, 0.0)


# --- BER surfaces -------------------------------------------------------------


def ber_vs_sj_sweep(
    frequencies_hz: np.ndarray,
    amplitudes_ui_pp: np.ndarray,
    *,
    config: CdrChannelConfig | None = None,
    base_jitter: JitterSpec | None = None,
    n_bits: int = 2000,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
) -> SweepResult:
    """Time-domain BER versus sinusoidal-jitter frequency and amplitude.

    The time-domain companion of the paper's Figure 9/10 statistical surface:
    metric rows are amplitudes, columns frequencies, exactly as plotted there.
    """
    config = config or CdrChannelConfig()
    base_jitter = base_jitter or PAPER_JITTER_SPEC
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    amplitudes_ui_pp = np.asarray(amplitudes_ui_pp, dtype=float)

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=_sinusoidal_base(base_jitter),
        config=config,
        backend=backend,
    )
    return run_grid(
        spec,
        [
            ParameterAxis("sj_amplitude_ui_pp", amplitudes_ui_pp),
            ParameterAxis("sj_frequency_hz", frequencies_hz),
        ],
        name="ber_vs_sj",
        seed=seed,
        workers=workers,
    )


def ber_vs_frequency_offset_sweep(
    frequency_offsets: np.ndarray,
    *,
    config: CdrChannelConfig | None = None,
    jitter: JitterSpec | None = None,
    n_bits: int = 2000,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
) -> SweepResult:
    """Time-domain BER versus channel-oscillator frequency offset (Figure 10).

    *frequency_offsets* are relative offsets (0.01 = 1 %); the metric grids
    have shape ``(len(frequency_offsets),)``.
    """
    config = config or CdrChannelConfig()
    jitter = jitter or PAPER_JITTER_SPEC
    frequency_offsets = np.asarray(frequency_offsets, dtype=float)

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=jitter,
        config=config,
        backend=backend,
    )
    return run_grid(
        spec,
        [ParameterAxis("frequency_offset", frequency_offsets)],
        name="ber_vs_frequency_offset",
        seed=seed,
        workers=workers,
    )


# --- jitter tolerance ---------------------------------------------------------


def jitter_tolerance_sweep(
    frequencies_hz: np.ndarray,
    *,
    config: CdrChannelConfig | None = None,
    base_jitter: JitterSpec | None = None,
    n_bits: int = 2000,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
    max_amplitude_ui_pp: float = 20.0,
    tolerance_ui: float = 0.05,
    target_errors: int = 0,
) -> SweepResult:
    """Time-domain jitter-tolerance curve (error-count criterion at *n_bits*).

    The measured analogue of :func:`repro.statistical.jitter_tolerance_curve`:
    instead of the analytic 1e-12 criterion it searches the largest amplitude
    at which a full *n_bits* run makes at most *target_errors* bit errors.
    Note that at the full Table 1 deterministic jitter (0.4 UIpp) even zero
    sinusoidal jitter occasionally truncates a synchronisation pulse, so a
    strict zero-error criterion can report zero tolerance — pass a milder
    *base_jitter* or a small *target_errors* allowance for curve shapes.
    The tolerance per frequency is ``result.metrics["sj_amplitude_ui_pp"]``.
    """
    config = config or CdrChannelConfig()
    base_jitter = base_jitter or PAPER_JITTER_SPEC
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    require_positive("max_amplitude_ui_pp", max_amplitude_ui_pp)

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=_sinusoidal_base(base_jitter),
        config=config,
        backend=backend,
    )
    return run_tolerance_search(
        spec,
        [ParameterAxis("sj_frequency_hz", frequencies_hz)],
        ToleranceSearch(
            axis="sj_amplitude_ui_pp",
            maximum=max_amplitude_ui_pp,
            resolution=tolerance_ui,
            target_errors=target_errors,
        ),
        name="jitter_tolerance",
        seed=seed,
        workers=workers,
    )


# --- multi-channel receiver ----------------------------------------------------


def multichannel_sweep(
    config: MultiChannelConfig | None = None,
    *,
    n_bits: int = 2000,
    jitter: JitterSpec | None = None,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
) -> SweepResult:
    """Simulate every lane of the multi-channel receiver, one task per lane.

    The shared-PLL bias distribution and lane-mismatch sampling happen once
    in the parent (seeded from the root seed) so the per-lane tasks are
    plain channel simulations that parallelise freely.  The drawn per-lane
    offsets and skews are recorded as ``result.metadata["frequency_offsets"]``
    and ``result.metadata["lane_skews_ui"]``.
    """
    config = config or MultiChannelConfig()
    jitter = jitter or PAPER_JITTER_SPEC

    receiver = MultiChannelReceiver(
        config, rng=np.random.default_rng(np.random.SeedSequence(seed))
    )
    offsets = receiver.channel_frequency_offsets()
    skews = receiver.lane_skews_ui()

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=jitter,
        config=config.channel,
        backend=backend,
    )
    lanes = tuple(
        LaneSpec(
            index=index,
            frequency_offset=float(offsets[index]),
            stimulus_seed=index + 1,
            lane_skew_ui=float(skews[index]),
        )
        for index in range(config.n_channels)
    )
    return run_grid(
        spec,
        [ParameterAxis("lane", lanes)],
        name="multichannel",
        seed=seed,
        workers=workers,
        metadata={"frequency_offsets": offsets.tolist(), "lane_skews_ui": skews.tolist()},
    )


# --- link-path sweeps ----------------------------------------------------------


def _default_equalized_link() -> LinkConfig:
    """The sweeps' reference equalizer line-up (FFE de-emphasis + CTLE)."""
    return LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5), rx_ctle=RxCtle(peaking_db=6.0))


def ber_vs_channel_loss_sweep(
    loss_db_values: np.ndarray,
    *,
    link: LinkConfig | None = None,
    config: CdrChannelConfig | None = None,
    jitter: JitterSpec | None = None,
    n_bits: int = 2000,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
) -> SweepResult:
    """Time-domain BER versus channel loss at Nyquist (dB).

    Each sweep point rebuilds the *link* template around a
    :class:`~repro.link.LossyLineChannel` scaled to the requested Nyquist
    loss; the per-point pulse response and pattern displacement table are
    computed once and reused for the whole bit stream.  The metric grids
    have shape ``(len(loss_db_values),)``.
    """
    config = config or CdrChannelConfig()
    link = link or LinkConfig()
    jitter = jitter or LINK_RESIDUAL_JITTER_SPEC
    loss_db_values = np.asarray(loss_db_values, dtype=float)

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=jitter,
        config=config,
        link=link,
        backend=backend,
    )
    return run_grid(
        spec,
        [ParameterAxis("channel_loss_db", loss_db_values)],
        name="ber_vs_channel_loss",
        seed=seed,
        workers=workers,
    )


def ber_vs_ctle_peaking_sweep(
    peaking_db_values: np.ndarray,
    *,
    loss_db: float = 14.0,
    link: LinkConfig | None = None,
    config: CdrChannelConfig | None = None,
    jitter: JitterSpec | None = None,
    n_bits: int = 2000,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
) -> SweepResult:
    """Time-domain BER versus CTLE peaking (dB) at a fixed channel loss.

    The equalizer-design companion of the loss sweep: the channel is fixed
    (*loss_db* at Nyquist) and the receiver's CTLE peaking magnitude is
    swept, exposing the under-/over-equalization trade-off.
    """
    config = config or CdrChannelConfig()
    link = link or LinkConfig()
    jitter = jitter or LINK_RESIDUAL_JITTER_SPEC
    peaking_db_values = np.asarray(peaking_db_values, dtype=float)
    channel = LossyLineChannel.for_loss_at_nyquist(float(loss_db), link.timebase.bit_rate_hz)

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=jitter,
        config=config,
        link=link.with_channel(channel),
        backend=backend,
    )
    return run_grid(
        spec,
        [ParameterAxis("ctle_peaking_db", peaking_db_values)],
        name="ber_vs_ctle_peaking",
        seed=seed,
        workers=workers,
        metadata={"loss_db": float(loss_db)},
    )


def ber_vs_aggressor_sweep(
    aggressor_amplitudes: np.ndarray,
    *,
    loss_db: float = 10.0,
    link: LinkConfig | None = None,
    config: CdrChannelConfig | None = None,
    jitter: JitterSpec | None = None,
    n_bits: int = 2000,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
    target_ber: float = 1.0e-12,
) -> SweepResult:
    """BER and statistical eye versus crosstalk aggressor amplitude.

    A declarative study, not a new pipeline: the base scenario is the
    equalized reference link at *loss_db* with a single-FEXT aggressor
    population (or the *link* template's own population), the swept axis is
    the registered ``aggressor_amplitude`` applicator, and the measurement
    plan adds the ``statistical_eye`` metrics, so every point carries both
    the bit-true error counts (aggressor waveform superposed before edge
    extraction) and the analytic eye openings at *target_ber*.
    """
    config = config or CdrChannelConfig()
    template = link or _default_equalized_link()
    jitter = jitter or LINK_RESIDUAL_JITTER_SPEC
    aggressor_amplitudes = np.asarray(aggressor_amplitudes, dtype=float)
    channel = LossyLineChannel.for_loss_at_nyquist(float(loss_db), template.timebase.bit_rate_hz)
    if template.crosstalk is None:
        template = template.with_crosstalk(CrosstalkSpec.single_fext(0.0))

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=jitter,
        config=config,
        link=template.with_channel(channel),
        measurement=MeasurementPlan(statistical_eye=True, target_ber=target_ber),
        backend=backend,
    )
    return run_grid(
        spec,
        [ParameterAxis("aggressor_amplitude", aggressor_amplitudes)],
        name="ber_vs_aggressor",
        seed=seed,
        workers=workers,
        metadata={"loss_db": float(loss_db), "target_ber": float(target_ber)},
    )


def equalization_ablation_sweep(
    loss_db: float = 14.0,
    *,
    link: LinkConfig | None = None,
    config: CdrChannelConfig | None = None,
    jitter: JitterSpec | None = None,
    dfe: LmsDfe | None = None,
    n_bits: int = 2000,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
) -> SweepResult:
    """BER of one lossy channel under progressively richer equalization.

    Runs the same channel unequalized, FFE-only, CTLE-only, FFE+CTLE and
    (when *dfe* is given) FFE+CTLE+DFE — one parallel task per line-up —
    demonstrating the eye reopening stage by stage.  The line-up labels are
    ``result.axes[0].labels``.
    """
    config = config or CdrChannelConfig()
    template = link or _default_equalized_link()
    jitter = jitter or LINK_RESIDUAL_JITTER_SPEC
    channel = LossyLineChannel.for_loss_at_nyquist(float(loss_db), template.timebase.bit_rate_hz)
    ffe = template.tx_ffe or TxFfe.de_emphasis(post_db=3.5)
    ctle = template.rx_ctle or RxCtle(peaking_db=6.0)

    lineups = [
        EqualizerLineup("unequalized"),
        EqualizerLineup("ffe", tx_ffe=ffe),
        EqualizerLineup("ctle", rx_ctle=ctle),
        EqualizerLineup("ffe+ctle", tx_ffe=ffe, rx_ctle=ctle),
    ]
    if dfe is not None:
        lineups.append(EqualizerLineup("ffe+ctle+dfe", tx_ffe=ffe, rx_ctle=ctle, dfe=dfe))

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=jitter,
        config=config,
        link=template.with_channel(channel),
        backend=backend,
    )
    return run_grid(
        spec,
        [ParameterAxis("equalization", tuple(lineups))],
        name="equalization_ablation",
        seed=seed,
        workers=workers,
        metadata={"loss_db": float(loss_db)},
    )


def link_training_sweep(
    loss_db_values: np.ndarray,
    *,
    link: LinkConfig | None = None,
    training: TrainingBudget | None = None,
    config: CdrChannelConfig | None = None,
    jitter: JitterSpec | None = None,
    n_bits: int = 2000,
    prbs_order: int = 7,
    backend: str = "fast",
    seed: int | None = 0,
    workers: int | None = None,
    target_ber: float = 1.0e-12,
) -> SweepResult:
    """Link training across a channel-loss axis, trained versus fixed.

    A declarative study, not a new pipeline: the base scenario is the
    *link* template (default: the hand-tuned FFE+CTLE reference lineup),
    the swept axis is the registered ``channel_loss_db`` applicator, and
    the measurement plan adds ``train_equalizers`` — every point pairs the
    fixed lineup's bit-true error counts with the statistical-eye openings
    of the fixed and the trained lineup.  Training draws no randomness, so
    the sweep stays deterministic at any worker count.
    """
    config = config or CdrChannelConfig()
    template = link or _default_equalized_link()
    jitter = jitter or LINK_RESIDUAL_JITTER_SPEC
    loss_db_values = np.asarray(loss_db_values, dtype=float)

    spec = ScenarioSpec(
        stimulus=_stimulus(n_bits, prbs_order),
        jitter=jitter,
        config=config,
        link=template,
        measurement=MeasurementPlan(train_equalizers=True, target_ber=target_ber),
        training=training,
        backend=backend,
    )
    return run_grid(
        spec,
        [ParameterAxis("channel_loss_db", loss_db_values)],
        name="link_training",
        seed=seed,
        workers=workers,
        metadata={"target_ber": float(target_ber)},
    )
