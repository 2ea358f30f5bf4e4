"""Interface specifications: jitter-tolerance masks and compliance checks."""

from .._exports import lazy_exports

__all__ = [
    "INFINIBAND_FREQUENCY_TOLERANCE_PPM",
    "INFINIBAND_TARGET_BER",
    "JitterToleranceMask",
    "ReceiverEyeMask",
    "infiniband_mask",
    "infiniband_rx_eye_mask",
    "ComplianceReport",
    "check_compliance",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "infiniband": (
            "INFINIBAND_FREQUENCY_TOLERANCE_PPM",
            "INFINIBAND_TARGET_BER",
            "JitterToleranceMask",
            "ReceiverEyeMask",
            "infiniband_mask",
            "infiniband_rx_eye_mask",
        ),
        "compliance": ("ComplianceReport", "check_compliance"),
    },
)
