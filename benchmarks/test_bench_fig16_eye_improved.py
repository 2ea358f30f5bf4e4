"""Figure 16 — the same eye as Figure 14 with the improved (T/8-earlier) tap.

The paper's observation: "an obvious improvement in timing margin on the right
data edge, i.e. the eye opening is almost symmetrical around UI/2".  In the
clock-aligned eye this appears as the eye centre moving back towards the
sampling instant.
"""

import numpy as np

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs7
from repro.reporting.tables import TextTable

N_BITS = 4000
JITTER = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0,
                    sj_amplitude_ui_pp=0.10, sj_frequency_hz=250.0e6)


def simulate_both_taps():
    bits = prbs7(N_BITS)
    nominal = BehavioralCdrChannel(CdrChannelConfig.figure14_condition()).run(
        bits, jitter=JITTER, rng=np.random.default_rng(16))
    improved = BehavioralCdrChannel(
        CdrChannelConfig.figure14_condition(improved_sampling=True)).run(
        bits, jitter=JITTER, rng=np.random.default_rng(16))
    return nominal, improved


def render(nominal, improved) -> str:
    table = TextTable(
        headers=["metric", "nominal tap (Fig. 14)", "improved tap (Fig. 16)"],
        title="Figure 16: improved sampling tap vs Figure 14 (same conditions)",
    )
    nominal_metrics = nominal.eye_diagram().metrics()
    improved_metrics = improved.eye_diagram().metrics()
    table.add_row("eye opening [UI]",
                  f"{nominal_metrics.eye_opening_ui:.3f}",
                  f"{improved_metrics.eye_opening_ui:.3f}")
    table.add_row("eye centre vs sampling instant [UI]",
                  f"{nominal_metrics.eye_centre_ui:+.3f}",
                  f"{improved_metrics.eye_centre_ui:+.3f}")
    table.add_row("right margin from sampling instant [UI]",
                  f"{nominal_metrics.right_margin_ui:.3f}",
                  f"{improved_metrics.right_margin_ui:.3f}")
    table.add_row("median sampling phase in bit [UI]",
                  f"{float(np.median(nominal.sampling_phase_ui() % 1.0)):.3f}",
                  f"{float(np.median(improved.sampling_phase_ui() % 1.0)):.3f}")
    table.add_row("behavioural errors",
                  nominal.ber().errors, improved.ber().errors)
    return table.render()


def test_bench_fig16_eye_improved_tap(save_result):
    nominal, improved = simulate_both_taps()
    save_result("fig16_eye_improved", render(nominal, improved))

    nominal_metrics = nominal.eye_diagram().metrics()
    improved_metrics = improved.eye_diagram().metrics()
    # The improved tap samples one eighth of a period earlier...
    assert float(np.median(improved.sampling_phase_ui() % 1.0)) < \
        float(np.median(nominal.sampling_phase_ui() % 1.0))
    # ...which increases the margin to the eroded right edge...
    assert improved_metrics.right_margin_ui > nominal_metrics.right_margin_ui
    # ...and recentres the eye around the sampling instant (paper's wording:
    # "almost symmetrical around UI/2").
    assert abs(improved_metrics.eye_centre_ui) < abs(nominal_metrics.eye_centre_ui)
