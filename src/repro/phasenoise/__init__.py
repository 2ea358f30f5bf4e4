"""Phase-noise budgeting: kappa formulas, power trade-off, oscillator design."""

from .._exports import lazy_exports

__all__ = [
    "DEFAULT_NOISE_FACTOR_GAMMA",
    "DEFAULT_RISE_TIME_RATIO_ETA",
    "CmlStageBias",
    "kappa_from_phase_noise",
    "kappa_hajimiri",
    "kappa_mcneill",
    "period_jitter_rms",
    "phase_noise_dbc_per_hz",
    "TradeoffCurve",
    "TradeoffPoint",
    "minimum_power_for_budget",
    "phase_noise_power_tradeoff",
    "ChannelCellBudget",
    "ChannelPowerReport",
    "RingOscillatorDesign",
    "StageLoadModel",
    "channel_power_report",
    "design_oscillator",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "formulas": (
            "DEFAULT_NOISE_FACTOR_GAMMA",
            "DEFAULT_RISE_TIME_RATIO_ETA",
            "CmlStageBias",
            "kappa_from_phase_noise",
            "kappa_hajimiri",
            "kappa_mcneill",
            "period_jitter_rms",
            "phase_noise_dbc_per_hz",
        ),
        "tradeoff": (
            "TradeoffCurve",
            "TradeoffPoint",
            "minimum_power_for_budget",
            "phase_noise_power_tradeoff",
        ),
        "design": (
            "ChannelCellBudget",
            "ChannelPowerReport",
            "RingOscillatorDesign",
            "StageLoadModel",
            "channel_power_report",
            "design_oscillator",
        ),
    },
)
