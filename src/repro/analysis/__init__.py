"""Waveform analysis: eye diagrams, BER counting, timing/jitter measurement."""

from .._exports import lazy_exports

__all__ = [
    "EyeDiagram",
    "EyeMetrics",
    "BerMeasurement",
    "align_and_count",
    "ber_interval",
    "count_errors",
    "TimingStatistics",
    "duty_cycle",
    "measure_frequency",
    "period_jitter",
    "time_interval_error",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "eye": ("EyeDiagram", "EyeMetrics"),
        "ber_counter": ("BerMeasurement", "align_and_count", "ber_interval", "count_errors"),
        "timing": (
            "TimingStatistics",
            "duty_cycle",
            "measure_frequency",
            "period_jitter",
            "time_interval_error",
        ),
    },
)
