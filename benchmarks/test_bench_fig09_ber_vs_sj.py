"""Figure 9 — BER versus sinusoidal-jitter frequency and amplitude.

The paper's statistical model, fed with Table 1 jitter and swept sinusoidal
jitter, shows (i) essentially unbounded tolerance at low jitter frequency
(the gated oscillator re-phases at every transition, so slow jitter is common
mode) and (ii) degradation as the jitter frequency approaches the data rate.
The reproduced BER surface must show the same shape; the 1e-12 target is met
everywhere inside the InfiniBand mask's frequency range.
"""

import numpy as np

from repro import units
from repro.reporting.tables import TextTable
from repro.statistical.ber_model import CdrJitterBudget
from repro.statistical.jtol import ber_vs_sinusoidal_jitter

GRID = 4.0e-3

#: Sinusoidal-jitter frequencies, normalised to the data rate (paper x-axis).
NORMALISED_FREQUENCIES = np.array([1.0e-4, 1.0e-3, 1.0e-2, 1.0e-1, 0.3, 0.5])

#: Sinusoidal-jitter amplitudes in UIpp (paper sweeps the amplitude).
AMPLITUDES_UI_PP = np.array([0.1, 0.3, 0.6, 1.0])


def compute_surface() -> np.ndarray:
    frequencies = NORMALISED_FREQUENCIES * units.DEFAULT_BIT_RATE
    return ber_vs_sinusoidal_jitter(
        frequencies, AMPLITUDES_UI_PP,
        budget=CdrJitterBudget(), grid_step_ui=GRID,
    )


def render(surface: np.ndarray) -> str:
    table = TextTable(
        headers=["SJ amplitude [UIpp]"] + [f"f/fb={f:g}" for f in NORMALISED_FREQUENCIES],
        title="Figure 9: BER vs sinusoidal jitter frequency and amplitude (no frequency offset)",
    )
    for row, amplitude in enumerate(AMPLITUDES_UI_PP):
        table.add_row(f"{amplitude:.2f}",
                      *[f"{surface[row, col]:.2e}" for col in range(surface.shape[1])])
    return table.render()


def test_bench_fig09_ber_vs_sj(save_result):
    surface = compute_surface()
    save_result("fig09_ber_vs_sj", render(surface))

    # Shape check 1: low-frequency jitter is tolerated regardless of amplitude
    # (every column at f/fb = 1e-4 is below the 1e-12 target).
    assert np.all(surface[:, 0] < 1.0e-12)
    # Shape check 2: BER grows (or stays equal) with amplitude at every frequency.
    for col in range(surface.shape[1]):
        column = surface[:, col]
        assert np.all(np.diff(column) >= -1e-18)
    # Shape check 3: near the data rate, large amplitudes break the target ---
    # the "very little design margin" region the paper points out.
    assert surface[-1, -1] > 1.0e-12
    # Shape check 4: within the mask's frequency range (<= 1e-2 fb), the Table 1
    # environment plus 0.1 UIpp SJ still meets the target easily.
    assert np.all(surface[0, :3] < 1.0e-12)
