"""Gate-level CML library: combinational gates, storage, delay line, gated ring."""

from .._exports import lazy_exports

__all__ = [
    "CmlGate",
    "CmlTiming",
    "And2Gate",
    "BufferGate",
    "InverterGate",
    "Xnor2Gate",
    "Xor2Gate",
    "CmlFlipFlop",
    "CmlLatch",
    "DelayLine",
    "GatedRingOscillator",
    "GccoParameters",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cml": ("CmlGate", "CmlTiming"),
        "logic": (
            "And2Gate",
            "BufferGate",
            "InverterGate",
            "Xnor2Gate",
            "Xor2Gate",
        ),
        "storage": ("CmlFlipFlop", "CmlLatch"),
        "delay_line": ("DelayLine",),
        "ring": ("GatedRingOscillator", "GccoParameters"),
    },
)
