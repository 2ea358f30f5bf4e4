"""Figure 5 — InfiniBand receiver jitter-tolerance specification.

Regenerates the mask (tolerated sinusoidal-jitter amplitude versus jitter
frequency) and checks its defining features: the 0.15 UIpp high-frequency
floor, the 20 dB/decade low-frequency slope and the low-frequency cap.
"""

import numpy as np

from repro.reporting.tables import Series
from repro.specs.infiniband import infiniband_mask


def build_mask_series() -> Series:
    mask = infiniband_mask()
    frequencies = np.logspace(3, 8, 26)
    series = Series("Figure 5: InfiniBand jitter tolerance mask",
                    "jitter_frequency_hz", "tolerated_sj_amplitude_ui_pp")
    series.extend(frequencies, np.asarray(mask.amplitude_ui_pp(frequencies)))
    return series


def test_bench_fig05_mask(save_result):
    series = build_mask_series()
    save_result("fig05_jtol_mask", series.render())

    mask = infiniband_mask()
    # High-frequency floor of 0.15 UIpp.
    assert mask.amplitude_ui_pp(20.0e6) == 0.15
    # 20 dB/decade below the corner: one decade down means 10x the amplitude.
    corner = mask.corner_frequency_hz
    assert np.isclose(mask.amplitude_ui_pp(corner / 10.0),
                      min(10 * 0.15, mask.low_frequency_cap_ui_pp))
    # Monotonically non-increasing with frequency.
    amplitudes = np.array([point[1] for point in series.points])
    assert np.all(np.diff(amplitudes) <= 1e-12)
