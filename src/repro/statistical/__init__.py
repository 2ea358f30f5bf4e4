"""Statistical CDR analysis: BER model, JTOL/FTOL sweeps, bathtub curves."""

from .._exports import lazy_exports

__all__ = [
    "ber_from_snr_margin",
    "inverse_q_function",
    "log10_ber",
    "q_function",
    "sigma_margin_for_ber",
    "IMPROVED_SAMPLING_PHASE_UI",
    "NOMINAL_SAMPLING_PHASE_UI",
    "BerBreakdown",
    "CdrJitterBudget",
    "GatedOscillatorBerModel",
    "JtolCurve",
    "JtolPoint",
    "ber_vs_sinusoidal_jitter",
    "jitter_tolerance_at_frequency",
    "jitter_tolerance_curve",
    "FtolResult",
    "ber_vs_frequency_offset",
    "frequency_tolerance",
    "BathtubCurve",
    "bathtub_curve",
    "eye_opening_ui",
    "optimum_sampling_phase",
    "simulate_ber",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "qfunc": (
            "ber_from_snr_margin",
            "inverse_q_function",
            "log10_ber",
            "q_function",
            "sigma_margin_for_ber",
        ),
        "ber_model": (
            "IMPROVED_SAMPLING_PHASE_UI",
            "NOMINAL_SAMPLING_PHASE_UI",
            "BerBreakdown",
            "CdrJitterBudget",
            "GatedOscillatorBerModel",
        ),
        "jtol": (
            "JtolCurve",
            "JtolPoint",
            "ber_vs_sinusoidal_jitter",
            "jitter_tolerance_at_frequency",
            "jitter_tolerance_curve",
        ),
        "ftol": ("FtolResult", "ber_vs_frequency_offset", "frequency_tolerance"),
        "bathtub": ("BathtubCurve", "bathtub_curve", "eye_opening_ui", "optimum_sampling_phase"),
        "montecarlo": ("simulate_ber",),
    },
)
