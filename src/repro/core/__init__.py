"""Core CDR library: the gated-oscillator channel, multi-channel receiver, design flow."""

from .._exports import lazy_exports

__all__ = [
    "PAPER_JITTER_SPEC",
    "PAPER_POWER_TARGET_MW_PER_GBPS",
    "PAPER_TARGET_BER",
    "CdrChannelConfig",
    "GatedRingOscillator",
    "GccoParameters",
    "EdgeDetector",
    "BehavioralCdrChannel",
    "BehavioralSimulationResult",
    "ElasticBuffer",
    "ElasticBufferStatistics",
    "ChannelReport",
    "MultiChannelBehaviouralReport",
    "MultiChannelConfig",
    "MultiChannelReceiver",
    "MultiChannelStatisticalReport",
    "FreeRunningOscillatorBer",
    "PllCdrBerModel",
    "DesignFlowReport",
    "run_design_flow",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": (
            "PAPER_JITTER_SPEC",
            "PAPER_POWER_TARGET_MW_PER_GBPS",
            "PAPER_TARGET_BER",
            "CdrChannelConfig",
        ),
        "gcco": ("GatedRingOscillator", "GccoParameters"),
        "edge_detector": ("EdgeDetector",),
        "cdr_channel": ("BehavioralCdrChannel", "BehavioralSimulationResult"),
        "elastic_buffer": ("ElasticBuffer", "ElasticBufferStatistics"),
        "multichannel": (
            "ChannelReport",
            "MultiChannelBehaviouralReport",
            "MultiChannelConfig",
            "MultiChannelReceiver",
            "MultiChannelStatisticalReport",
        ),
        "baselines": ("FreeRunningOscillatorBer", "PllCdrBerModel"),
        "design_flow": ("DesignFlowReport", "run_design_flow"),
    },
)
