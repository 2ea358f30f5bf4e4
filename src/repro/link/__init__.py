"""Waveform-level link front end: lossy channel + equalization → CDR edges.

The paper abstracts the receiver's input jitter into Table 1; this package
grounds it physically.  A transmitted bit sequence passes through a
parameterized lossy channel (:mod:`~repro.link.channel`), optional TX/RX
equalization (:mod:`~repro.link.equalization`), fast pulse-response ISI
superposition (:mod:`~repro.link.isi`) and threshold-crossing extraction
(:mod:`~repro.link.edges`), producing the
:class:`~repro.datapath.nrz.NrzEdgeStream` the existing CDR engines —
event kernel and fast path alike — consume unmodified.  Residual random /
sinusoidal jitter from a :class:`~repro.datapath.nrz.JitterSpec` composes
on top, so every Table 1 scenario remains expressible while deterministic
jitter now *emerges* from channel ISI.

Quick start::

    from repro.link import LinkCdrChannel, LinkConfig, LossyLineChannel, RxCtle
    from repro.datapath import prbs_sequence

    link = LinkConfig(channel=LossyLineChannel.for_loss_at_nyquist(6.0),
                      rx_ctle=RxCtle(peaking_db=6.0))
    result = LinkCdrChannel(link, backend="fast").run(
        prbs_sequence(7, 2000), pattern_period=127)
    print(result.ber().ber)
"""

from .._exports import lazy_exports

__all__ = [
    "LinkTimebase",
    "ChannelModel",
    "IdealChannel",
    "SinglePoleChannel",
    "ButterworthChannel",
    "LossyLineChannel",
    "TxFfe",
    "RxCtle",
    "LmsDfe",
    "DfeAdaptation",
    "ErrorPropagation",
    "nrz_symbol_levels",
    "upsample_symbols",
    "superpose_circular",
    "circular_transition_positions",
    "match_crossings_ui",
    "pattern_displacements_ui",
    "AGGRESSOR_KINDS",
    "CrosstalkAggressor",
    "CrosstalkSpec",
    "LinkCdrChannel",
    "LinkConfig",
    "LinkPath",
    "stream_eye_diagram",
    "AGGRESSOR_PHASE_MODES",
    "StatisticalEye",
    "StatisticalEyeSolver",
    "statistical_eye",
    "EyeScore",
    "StatEyeObjective",
    "LinkTrainer",
    "TrainedLineup",
    "TrainingBudget",
    "TrainingCrossCheck",
    "train_link",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "timebase": ("LinkTimebase",),
        "channel": (
            "ButterworthChannel",
            "ChannelModel",
            "IdealChannel",
            "LossyLineChannel",
            "SinglePoleChannel",
        ),
        "equalization": ("DfeAdaptation", "ErrorPropagation", "LmsDfe", "RxCtle", "TxFfe"),
        "isi": ("nrz_symbol_levels", "superpose_circular", "upsample_symbols"),
        "edges": (
            "circular_transition_positions",
            "match_crossings_ui",
            "pattern_displacements_ui",
        ),
        "crosstalk": ("AGGRESSOR_KINDS", "CrosstalkAggressor", "CrosstalkSpec"),
        "path": ("LinkCdrChannel", "LinkConfig", "LinkPath", "stream_eye_diagram"),
        "stateye": (
            "AGGRESSOR_PHASE_MODES",
            "StatisticalEye",
            "StatisticalEyeSolver",
            "statistical_eye",
        ),
        "training": (
            "EyeScore",
            "LinkTrainer",
            "StatEyeObjective",
            "TrainedLineup",
            "TrainingBudget",
            "TrainingCrossCheck",
            "train_link",
        ),
    },
)
