"""Declarative scenario descriptions for the generic experiment engine.

A study is fully described by a frozen :class:`ScenarioSpec` — stimulus,
optional jitter injection, optional :class:`~repro.link.LinkConfig` front
end, :class:`~repro.core.config.CdrChannelConfig`, measurement plan and
backend request — plus one :class:`ParameterAxis` per swept dimension.
The engine (:mod:`repro.experiments.engine`) resolves the cartesian grid,
applies each axis through the :data:`AXIS_APPLICATORS` registry, resolves
the backend per point through :func:`repro.fastpath.backends.resolve_backend`
and executes every point on the deterministic sweep runner.

Everything here is a plain frozen dataclass so scenario points are
picklable (they cross the process-pool boundary) and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .._validation import require_in_range, require_non_negative, require_positive_int
from ..core.config import CdrChannelConfig
from ..datapath.encoding8b10b import encode_bytes
from ..datapath.nrz import JitterSpec
from ..datapath.prbs import prbs_sequence, sequence_period
from ..link import (
    CrosstalkAggressor,
    CrosstalkSpec,
    LinkConfig,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    TrainedLineup,
    TrainingBudget,
    TxFfe,
)

__all__ = [
    "STIMULUS_KINDS",
    "StimulusSpec",
    "MeasurementPlan",
    "CrosstalkAggressor",
    "CrosstalkSpec",
    "EqualizerLineup",
    "LaneSpec",
    "ScenarioSpec",
    "ParameterAxis",
    "TrainedLineup",
    "TrainingBudget",
    "AXIS_APPLICATORS",
    "register_axis",
    "apply_axis",
]

#: Supported stimulus generators.
STIMULUS_KINDS = ("prbs", "encoded8b10b", "cid_stress")


@dataclass(frozen=True)
class StimulusSpec:
    """What is transmitted: pattern kind, length and (optional) seeding.

    Attributes
    ----------
    kind:
        ``"prbs"`` — maximal-length PRBS of ``prbs_order`` (the paper's
        verification stimulus); ``"encoded8b10b"`` — a counting byte stream
        through the 8b/10b encoder (run-length-limited, as the paper's
        comparison baseline); ``"cid_stress"`` — an alternating preamble
        followed by ``max_run`` consecutive identical digits of each
        polarity (the CID corner the edge detector must ride through).
    n_bits:
        Transmitted bit count per simulation.
    prbs_order:
        LFSR order for ``kind="prbs"``.
    seed:
        LFSR register seed for ``kind="prbs"`` (``None`` = all ones); used
        by the multi-channel sweep to decorrelate lanes.
    max_run:
        Run length of the ``cid_stress`` pattern.
    """

    kind: str = "prbs"
    n_bits: int = 2000
    prbs_order: int = 7
    seed: int | None = None
    max_run: int = 8

    def __post_init__(self) -> None:
        if self.kind not in STIMULUS_KINDS:
            raise ValueError(
                f"unknown stimulus kind {self.kind!r}; expected one of "
                f"{list(STIMULUS_KINDS)}"
            )
        require_positive_int("n_bits", self.n_bits)
        require_positive_int("max_run", self.max_run)

    @property
    def pattern_period(self) -> int | None:
        """Tiling period of the bit stream (``None`` = aperiodic).

        Link-driven runs hand this to
        :meth:`repro.link.LinkPath.transmit` so the pattern displacement
        table is computed once per period instead of once per stream.
        """
        if self.kind == "prbs":
            return sequence_period(self.prbs_order)
        if self.kind == "cid_stress":
            period = 4 * self.max_run
            return period if self.n_bits >= period else None
        return None

    def bits(self) -> np.ndarray:
        """Generate the transmitted bit sequence (uint8 array)."""
        if self.kind == "prbs":
            return prbs_sequence(self.prbs_order, self.n_bits, seed=self.seed)
        if self.kind == "cid_stress":
            run = self.max_run
            unit = np.concatenate(
                [
                    np.tile(np.array([1, 0], dtype=np.uint8), run),
                    np.ones(run, dtype=np.uint8),
                    np.zeros(run, dtype=np.uint8),
                ]
            )
            return np.resize(unit, self.n_bits)
        # encoded8b10b: a counting byte stream (all 256 data codes) encoded
        # to 10-bit symbols, truncated to the requested length.
        n_bytes = -(-self.n_bits // 10)
        data = bytes(index % 256 for index in range(n_bytes))
        return encode_bytes(data)[: self.n_bits]


@dataclass(frozen=True)
class MeasurementPlan:
    """What each grid point measures and retains.

    BER (error / compared-bit counts) is always measured.  ``eye`` adds
    clock-aligned eye metrics per point; ``statistical_eye`` solves the
    analytic :func:`repro.link.statistical_eye` of the point's link
    configuration (requires a link front end) and records its BER at the
    nominal operating point plus the horizontal/vertical eye openings at
    ``target_ber`` — the sub-1e-12 companion of the bit-true counts.
    ``train_equalizers`` runs the point's link through
    :class:`repro.link.LinkTrainer` (shaped by the scenario's
    ``training`` budget) and records the trained coefficients next to the
    trained-versus-fixed statistical-eye openings — the bit-true counts
    still measure the spec's own *fixed* lineup, so every point pairs
    "what the hand-picked lineup does" with "what training would buy".
    ``retain`` selects the trace retention policy — ``"none"`` keeps only
    the measurements (cheap, pickles across the pool), ``"results"``
    additionally returns every point's full ``BehavioralSimulationResult``
    (waveform traces included) in
    :attr:`repro.experiments.SweepResult.details`.
    """

    eye: bool = False
    statistical_eye: bool = False
    train_equalizers: bool = False
    target_ber: float = 1.0e-12
    retain: str = "none"

    def __post_init__(self) -> None:
        require_in_range("target_ber", self.target_ber, 0.0, 1.0, inclusive=False)
        if self.retain not in ("none", "results"):
            raise ValueError(
                f"unknown retention policy {self.retain!r}; "
                "expected 'none' or 'results'"
            )


@dataclass(frozen=True)
class EqualizerLineup:
    """One equalizer line-up of an ablation axis (labelled stage selection)."""

    label: str
    tx_ffe: TxFfe | None = None
    rx_ctle: RxCtle | None = None
    dfe: LmsDfe | None = None

    @classmethod
    def from_trained(cls, trained: TrainedLineup) -> "EqualizerLineup":
        """Adopt a :class:`repro.link.TrainedLineup` as an ablation line-up.

        ``TrainedLineup`` already exposes the same attribute surface, so
        it can sit on an ``"equalization"`` axis directly; this conversion
        exists for explicitness (and to drop the training metadata).
        """
        return cls(
            label=trained.label, tx_ffe=trained.tx_ffe, rx_ctle=trained.rx_ctle, dfe=trained.dfe
        )


@dataclass(frozen=True)
class LaneSpec:
    """One lane of a multi-channel receiver sweep (mismatch + stimulus seed).

    ``lane_skew_ui`` is report-only metadata (a lane's skew is absorbed by
    its elastic buffer, not by the CDR loop) — the ``lane`` axis applies
    only ``frequency_offset`` and ``stimulus_seed`` to the scenario.
    """

    index: int
    frequency_offset: float
    stimulus_seed: int | None = None
    lane_skew_ui: float = 0.0

    @property
    def label(self) -> str:
        return f"lane{self.index}"


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete declarative description of one simulation scenario.

    Attributes
    ----------
    stimulus:
        Transmitted pattern description.
    jitter:
        Injected transmitter jitter (``None`` = clean edges).  For
        link-driven scenarios this is the *residual* jitter composed on top
        of the channel's data-dependent displacement.
    config:
        CDR channel configuration (oscillator, sampling tap, offsets).
    link:
        Optional waveform-level front end; when set, the stimulus travels
        through FFE → lossy channel → CTLE/DFE → edge extraction before
        driving the CDR.
    measurement:
        Measurement plan (BER always; optional eye metrics / retention).
    training:
        Link-training search shape used by
        ``MeasurementPlan(train_equalizers=True)`` points (``None`` =
        the default :class:`repro.link.TrainingBudget`); the registered
        ``"training_budget"`` axis sweeps its evaluation cap.
    backend:
        Backend request resolved per grid point by
        :func:`repro.fastpath.backends.resolve_backend`: ``"auto"``
        (default) picks the event kernel under jitter and the fast path
        otherwise, a concrete name is validated against the configuration.
    data_rate_offset_ppm:
        Transmitter frequency error.
    """

    stimulus: StimulusSpec = field(default_factory=StimulusSpec)
    jitter: JitterSpec | None = None
    config: CdrChannelConfig = field(default_factory=CdrChannelConfig)
    link: LinkConfig | None = None
    measurement: MeasurementPlan = field(default_factory=MeasurementPlan)
    training: TrainingBudget | None = None
    backend: str = "auto"
    data_rate_offset_ppm: float = 0.0


@dataclass(frozen=True)
class ParameterAxis:
    """One swept dimension: a registered axis name plus its points.

    ``name`` selects the transformation from :data:`AXIS_APPLICATORS`;
    ``values`` are the points along the axis (floats for physical axes,
    :class:`EqualizerLineup` / :class:`LaneSpec` objects for structured
    ones).  ``labels`` override the per-point display / serialization
    labels (default: the value's ``label`` attribute or ``str``).
    """

    name: str
    values: tuple
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.values):
                raise ValueError(
                    f"axis {self.name!r} has {len(self.values)} values but "
                    f"{len(self.labels)} labels"
                )

    def __len__(self) -> int:
        return len(self.values)

    def value_labels(self) -> tuple[str, ...]:
        """Per-point labels (explicit labels, value ``label`` attrs, or ``str``)."""
        if self.labels is not None:
            return self.labels
        return tuple(
            getattr(value, "label", None)
            or (f"{value:g}" if isinstance(value, (int, float)) else str(value))
            for value in self.values
        )

    def numeric_values(self) -> np.ndarray | None:
        """The axis points as a float array, or ``None`` for structured axes."""
        try:
            return np.array([float(value) for value in self.values], dtype=float)
        except (TypeError, ValueError):
            return None


# --- axis applicator registry -------------------------------------------------

#: ``name -> applicator(spec, value) -> spec`` transformations for axes.
AXIS_APPLICATORS: dict[str, Callable[[ScenarioSpec, Any], ScenarioSpec]] = {}


def register_axis(name: str):
    """Register an axis applicator ``fn(spec, value) -> spec`` under *name*.

    Register at *module scope* if the axis will run through the parallel
    sweep pool: pool workers that are spawned rather than forked re-import
    modules and only see registrations made at import time.
    """
    def decorate(function):
        AXIS_APPLICATORS[name] = function
        return function

    return decorate


def apply_axis(spec: ScenarioSpec, name: str, value) -> ScenarioSpec:
    """Apply one axis point to a scenario, returning the transformed scenario."""
    try:
        applicator = AXIS_APPLICATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown parameter axis {name!r}; registered axes: "
            f"{sorted(AXIS_APPLICATORS)}"
        ) from None
    return applicator(spec, value)


def _jitter_of(spec: ScenarioSpec) -> JitterSpec:
    if spec.jitter is None:
        return JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0)
    return spec.jitter


def _link_of(spec: ScenarioSpec) -> LinkConfig:
    return spec.link if spec.link is not None else LinkConfig()


@register_axis("sj_amplitude_ui_pp")
def _apply_sj_amplitude(spec: ScenarioSpec, value) -> ScenarioSpec:
    jitter = replace(_jitter_of(spec), sj_amplitude_ui_pp=float(value))
    return replace(spec, jitter=jitter)


@register_axis("sj_frequency_hz")
def _apply_sj_frequency(spec: ScenarioSpec, value) -> ScenarioSpec:
    jitter = replace(_jitter_of(spec), sj_frequency_hz=float(value))
    return replace(spec, jitter=jitter)


@register_axis("rj_ui_rms")
def _apply_rj(spec: ScenarioSpec, value) -> ScenarioSpec:
    require_non_negative("rj_ui_rms", float(value))
    return replace(spec, jitter=replace(_jitter_of(spec), rj_ui_rms=float(value)))


@register_axis("frequency_offset")
def _apply_frequency_offset(spec: ScenarioSpec, value) -> ScenarioSpec:
    return replace(spec, config=spec.config.with_frequency_offset(float(value)))


@register_axis("data_rate_offset_ppm")
def _apply_data_rate_offset(spec: ScenarioSpec, value) -> ScenarioSpec:
    return replace(spec, data_rate_offset_ppm=float(value))


@register_axis("edge_detector_delay_ui")
def _apply_edge_detector_delay(spec: ScenarioSpec, value) -> ScenarioSpec:
    return replace(spec, config=spec.config.with_edge_detector_delay(float(value)))


@register_axis("channel_loss_db")
def _apply_channel_loss(spec: ScenarioSpec, value) -> ScenarioSpec:
    link = _link_of(spec)
    channel = LossyLineChannel.for_loss_at_nyquist(float(value), link.timebase.bit_rate_hz)
    return replace(spec, link=link.with_channel(channel))


@register_axis("ctle_peaking_db")
def _apply_ctle_peaking(spec: ScenarioSpec, value) -> ScenarioSpec:
    link = _link_of(spec)
    base_ctle = link.rx_ctle or RxCtle()
    return replace(
        spec,
        link=link.with_equalization(
            tx_ffe=link.tx_ffe,
            rx_ctle=base_ctle.with_peaking(float(value)),
            dfe=link.dfe,
        ),
    )


@register_axis("aggressor_amplitude")
def _apply_aggressor_amplitude(spec: ScenarioSpec, value) -> ScenarioSpec:
    """Set every crosstalk aggressor's coupling amplitude to *value*.

    A scenario without an aggressor population gets a single FEXT
    aggressor, so ``ParameterAxis("aggressor_amplitude", ...)`` works on
    any link-driven spec out of the box.
    """
    require_non_negative("aggressor_amplitude", float(value))
    link = _link_of(spec)
    crosstalk = link.crosstalk or CrosstalkSpec.single_fext(0.0)
    return replace(spec, link=link.with_crosstalk(crosstalk.with_amplitude(float(value))))


@register_axis("training_budget")
def _apply_training_budget(spec: ScenarioSpec, value) -> ScenarioSpec:
    """Sweep the link-training evaluation cap (statistical-eye solves).

    A scenario without an explicit training shape gets the default
    :class:`repro.link.TrainingBudget`, so the axis works on any
    ``train_equalizers`` spec out of the box.
    """
    training = spec.training or TrainingBudget()
    return replace(spec, training=training.with_max_evaluations(int(value)))


@register_axis("equalization")
def _apply_equalization(spec: ScenarioSpec, value: EqualizerLineup) -> ScenarioSpec:
    link = _link_of(spec)
    lineup = link.with_equalization(tx_ffe=value.tx_ffe, rx_ctle=value.rx_ctle, dfe=value.dfe)
    return replace(spec, link=lineup)


@register_axis("lane")
def _apply_lane(spec: ScenarioSpec, value: LaneSpec) -> ScenarioSpec:
    return replace(
        spec,
        config=spec.config.with_frequency_offset(value.frequency_offset),
        stimulus=replace(spec.stimulus, seed=value.stimulus_seed),
    )
