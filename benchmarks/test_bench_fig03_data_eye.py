"""Figure 3 — data eye diagram with the optimum sampling point.

Regenerates the conceptual figure: the horizontal eye opening of the incoming
(Table 1 jittered) data, the bathtub curve, and the optimum sampling instant
between two transitions.  In the gated-oscillator eye the optimum is *early*
of centre because the trigger-aligned left edge is clean.
"""

import numpy as np

from repro.reporting.tables import Series
from repro.statistical.bathtub import bathtub_curve
from repro.statistical.ber_model import CdrJitterBudget

GRID = 4.0e-3


def compute_bathtub():
    phases = np.arange(0.05, 1.0, 0.05)
    return bathtub_curve(budget=CdrJitterBudget(), phases_ui=phases, grid_step_ui=GRID)


def render(curve) -> str:
    series = Series("Figure 3: bathtub curve of the Table 1 data eye",
                    "sampling_phase_ui", "ber")
    series.extend(curve.phases_ui, np.maximum(curve.ber, 1e-30))
    optimum_phase, optimum_ber = curve.optimum()
    footer = (f"\noptimum sampling phase = {optimum_phase:.2f} UI, "
              f"BER at optimum = {optimum_ber:.2e}, "
              f"eye opening at 1e-12 = {curve.eye_opening_ui(1e-12):.2f} UI\n")
    return series.render() + footer


def test_bench_fig03_data_eye(save_result):
    curve = compute_bathtub()
    save_result("fig03_data_eye_bathtub", render(curve))

    # The eye is open at the target BER with the Table 1 jitter budget.
    assert curve.eye_opening_ui(1.0e-12) > 0.3
    # The right wall of the bathtub rises towards the late eye edge.
    assert curve.ber[-1] > curve.ber[len(curve.ber) // 2]
    # The optimum sampling instant lies between the crossings, not past centre.
    optimum_phase, _ = curve.optimum()
    assert 0.0 < optimum_phase <= 0.5
