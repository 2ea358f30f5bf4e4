"""Discrete-event simulation substrate (the Python equivalent of the paper's VHDL flow)."""

from .._exports import lazy_exports

__all__ = [
    "Process",
    "SimulationError",
    "Simulator",
    "WaitFor",
    "WaitOn",
    "Edge",
    "Signal",
    "bus",
    "Trace",
    "WaveformRecorder",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "kernel": ("Process", "SimulationError", "Simulator", "WaitFor", "WaitOn"),
        "signal": ("Edge", "Signal", "bus"),
        "waveform": ("Trace", "WaveformRecorder"),
    },
)
