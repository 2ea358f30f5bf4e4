"""Ablation A3 — gated oscillator versus baselines (free-running, ideal PLL).

Quantifies why the topology exists: an ungated oscillator at a realistic
frequency offset fails completely, while the gated oscillator matches an ideal
PLL-based CDR everywhere except for untracked near-rate jitter — at a fraction
of the power.
"""

from repro.core.baselines import FreeRunningOscillatorBer, PllCdrBerModel
from repro.reporting.tables import TextTable
from repro.statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel

GRID = 4.0e-3

SCENARIOS = (
    ("Table 1, 100 ppm offset", CdrJitterBudget(frequency_offset=100e-6)),
    ("Table 1, 1 % offset", CdrJitterBudget(frequency_offset=0.01)),
    ("Table 1 + SJ 0.3 UIpp @ 1 MHz", CdrJitterBudget(sj_amplitude_ui_pp=0.3,
                                                      sj_frequency_hz=1.0e6)),
    ("Table 1 + SJ 0.3 UIpp @ fb/2", CdrJitterBudget(sj_amplitude_ui_pp=0.3,
                                                     sj_frequency_hz=1.25e9)),
)


def evaluate_scenarios():
    rows = []
    for name, budget in SCENARIOS:
        gcco = GatedOscillatorBerModel(budget, grid_step_ui=GRID).ber()
        ungated = FreeRunningOscillatorBer(budget, n_bits=5000, grid_step_ui=GRID).ber()
        pll = PllCdrBerModel(budget).ber()
        rows.append((name, gcco, ungated, pll))
    return rows


def render(rows) -> str:
    table = TextTable(
        headers=["scenario", "gated oscillator", "free-running oscillator", "ideal PLL CDR"],
        title="Ablation: gating versus baselines (statistical BER)",
    )
    for name, gcco, ungated, pll in rows:
        table.add_row(name, f"{gcco:.2e}", f"{ungated:.2e}", f"{pll:.2e}")
    return table.render()


def test_bench_ablation_gating(save_result):
    rows = evaluate_scenarios()
    save_result("ablation_gating", render(rows))

    results = {name: (gcco, ungated, pll) for name, gcco, ungated, pll in rows}

    # At the application's 100 ppm offset the gated oscillator meets 1e-12 while
    # the ungated oscillator fails by many orders of magnitude.
    gcco, ungated, _pll = results["Table 1, 100 ppm offset"]
    assert gcco < 1.0e-12
    assert ungated > 1.0e-3

    # Low-frequency sinusoidal jitter is tracked by both the gated oscillator
    # and the PLL.
    gcco, _ungated, pll = results["Table 1 + SJ 0.3 UIpp @ 1 MHz"]
    assert gcco < 1.0e-12
    assert pll < 1.0e-12

    # Near the bit rate the PLL also stops tracking; the gated oscillator's
    # edge-to-edge sensitivity makes it at least as vulnerable there — the
    # known weakness the paper's Figures 9/10 quantify.
    gcco, _ungated, pll = results["Table 1 + SJ 0.3 UIpp @ fb/2"]
    assert gcco >= pll * 0.1
