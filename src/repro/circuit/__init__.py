"""Circuit-level substrate: technology, devices, CML stage analysis, transient CDR."""

from .._exports import lazy_exports

__all__ = [
    "Technology",
    "UMC_018",
    "Mosfet",
    "CmlStageDesign",
    "design_cml_stage",
    "CircuitCdrConfig",
    "CircuitLevelCdr",
    "CircuitSimulationResult",
    "calibrate_ring",
    "measure_free_running_frequency",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "technology": ("Technology", "UMC_018"),
        "mosfet": ("Mosfet",),
        "cml_stage": ("CmlStageDesign", "design_cml_stage"),
        "transient": (
            "CircuitCdrConfig",
            "CircuitLevelCdr",
            "CircuitSimulationResult",
            "calibrate_ring",
            "measure_free_running_frequency",
        ),
    },
)
