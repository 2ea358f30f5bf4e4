"""Figure 11 — phase noise (kappa) versus power consumption trade-off.

Sweeps the oscillator tail current, evaluates the Hajimiri (equation 1) and
McNeill jitter figures of merit, and marks the maximum kappa allowed by the
0.01 UIrms @ CID = 5 budget — the graph the paper uses to choose the bias
current and device dimensions.
"""

import numpy as np

from repro.jitter.accumulation import OscillatorJitterBudget
from repro.phasenoise.tradeoff import minimum_power_for_budget, phase_noise_power_tradeoff
from repro.reporting.tables import TextTable


def compute_tradeoff():
    return phase_noise_power_tradeoff()


def render(curve, budget) -> str:
    table = TextTable(
        headers=["oscillator power [mW]", "tail current [uA]",
                 "kappa Hajimiri [sqrt(s)]", "kappa McNeill [sqrt(s)]",
                 "CID-5 jitter [UIrms]", "meets budget"],
        title=("Figure 11: phase noise - power consumption trade-off "
               f"(kappa_max = {budget.kappa_max:.3e} sqrt(s))"),
    )
    for point in curve.points[::6]:
        table.add_row(
            f"{point.oscillator_power_w * 1e3:.3f}",
            f"{point.tail_current_a * 1e6:.1f}",
            f"{point.kappa_hajimiri:.3e}",
            f"{point.kappa_mcneill:.3e}",
            f"{point.accumulated_jitter_ui_rms:.4f}",
            "yes" if point.meets_budget(budget) else "no",
        )
    return table.render()


def test_bench_fig11_tradeoff(save_result):
    curve = compute_tradeoff()
    budget = OscillatorJitterBudget()
    save_result("fig11_phase_noise_power", render(curve, budget))

    kappas = curve.kappas_hajimiri
    powers = curve.powers_w
    # Shape: kappa falls monotonically as power rises (the trade-off).
    order = np.argsort(powers)
    assert np.all(np.diff(kappas[order]) <= 1e-18)
    # The two formulas track each other within a small factor (both curves of Fig. 11).
    ratio = curve.kappas_mcneill / curve.kappas_hajimiri
    assert np.all((ratio > 0.5) & (ratio < 2.0))
    # The budget line crosses the curve inside the swept range, and the
    # crossing sits at a sub-milliwatt oscillator power.
    crossing = minimum_power_for_budget(budget)
    assert powers.min() < crossing.oscillator_power_w < powers.max()
    assert crossing.oscillator_power_w < 1.0e-3
