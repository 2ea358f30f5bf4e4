"""Jitter substrate: PDF algebra, accumulation and decomposition."""

from .._exports import lazy_exports

__all__ = [
    "DEFAULT_GRID_STEP_UI",
    "Pdf",
    "convolve_pdfs",
    "delta_pdf",
    "dual_dirac_pdf",
    "gaussian_pdf",
    "sinusoidal_pdf",
    "uniform_pdf",
    "PAPER_CKJ_UI_RMS",
    "PAPER_WORST_CASE_CID",
    "OscillatorJitterBudget",
    "accumulated_sigma_seconds",
    "accumulated_sigma_ui",
    "kappa_for_ui_budget",
    "kappa_from_per_cycle_sigma",
    "per_cycle_sigma_from_kappa",
    "ui_budget_from_kappa",
    "JitterDecomposition",
    "combine_deterministic",
    "combine_rms",
    "decompose_dual_dirac",
    "estimate_rj_dj_from_samples",
    "q_scale",
    "total_jitter_pp",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "pdf": (
            "DEFAULT_GRID_STEP_UI",
            "Pdf",
            "convolve_pdfs",
            "delta_pdf",
            "dual_dirac_pdf",
            "gaussian_pdf",
            "sinusoidal_pdf",
            "uniform_pdf",
        ),
        "accumulation": (
            "PAPER_CKJ_UI_RMS",
            "PAPER_WORST_CASE_CID",
            "OscillatorJitterBudget",
            "accumulated_sigma_seconds",
            "accumulated_sigma_ui",
            "kappa_for_ui_budget",
            "kappa_from_per_cycle_sigma",
            "per_cycle_sigma_from_kappa",
            "ui_budget_from_kappa",
        ),
        "decomposition": (
            "JitterDecomposition",
            "combine_deterministic",
            "combine_rms",
            "decompose_dual_dirac",
            "estimate_rj_dj_from_samples",
            "q_scale",
            "total_jitter_pp",
        ),
    },
)
