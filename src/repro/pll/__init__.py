"""Shared multi-channel PLL: behavioural components, loop simulation, mismatch."""

from .._exports import lazy_exports

__all__ = [
    "ChargePump",
    "CurrentControlledOscillator",
    "PhaseFrequencyDetector",
    "SecondOrderLoopFilter",
    "ChannelBiasMismatch",
    "PllConfig",
    "PllSimulationResult",
    "SharedPll",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "components": (
            "ChargePump",
            "CurrentControlledOscillator",
            "PhaseFrequencyDetector",
            "SecondOrderLoopFilter",
        ),
        "pll": ("ChannelBiasMismatch", "PllConfig", "PllSimulationResult", "SharedPll"),
    },
)
