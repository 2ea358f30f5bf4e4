"""Figure 14 — clock-aligned PRBS7 eye diagram, nominal sampling tap.

The paper's condition: behavioural (VHDL-level) simulation, 25k cycles of
PRBS7, CCO at 2.375 GHz (a 5 % slow oscillator versus the 2.5 Gbit/s data),
sinusoidal jitter 0.10 UIpp at 250 MHz.  The signature result is the eye
*asymmetry*: the left (trigger) crossing is narrow while the right crossing is
spread by the jitter and frequency error accumulated over the run.

The bit count is reduced to 4000 cycles to keep the benchmark fast; the shape
is already fully developed at that depth.
"""

import numpy as np

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs7
from repro.reporting.tables import Series, TextTable

N_BITS = 4000
JITTER = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0,
                    sj_amplitude_ui_pp=0.10, sj_frequency_hz=250.0e6)


def simulate_eye():
    config = CdrChannelConfig.figure14_condition()
    result = BehavioralCdrChannel(config).run(
        prbs7(N_BITS), jitter=JITTER, rng=np.random.default_rng(14))
    return result, result.eye_diagram()


def render(result, eye) -> str:
    metrics = eye.metrics()
    table = TextTable(headers=["metric", "value"],
                      title=("Figure 14: PRBS7 eye, CCO = 2.375 GHz, "
                             "SJ 0.10 UIpp @ 250 MHz, nominal tap"))
    table.add_row("crossings recorded", metrics.n_crossings)
    table.add_row("eye opening [UI]", f"{metrics.eye_opening_ui:.3f}")
    table.add_row("eye centre vs sampling instant [UI]", f"{metrics.eye_centre_ui:+.3f}")
    table.add_row("left-edge sigma [UI]", f"{metrics.left_edge_std_ui:.4f}")
    table.add_row("right-edge sigma [UI]", f"{metrics.right_edge_std_ui:.4f}")
    table.add_row("behavioural errors", result.ber().errors)
    histogram = Series("crossing histogram", "offset_ui", "count")
    histogram.extend(*map(list, zip(*eye.to_series(50))))
    return table.render() + "\n" + histogram.render()


def test_bench_fig14_eye_nominal_tap(save_result):
    result, eye = simulate_eye()
    save_result("fig14_eye_prbs7_nominal", render(result, eye))

    metrics = eye.metrics()
    # The eye is open but visibly eroded compared to the clean case.
    assert 0.1 < metrics.eye_opening_ui < 0.9
    # The paper's signature asymmetry: the right (late) crossing spreads much
    # more than the left (trigger) crossing.
    assert metrics.right_edge_std_ui > 2.0 * metrics.left_edge_std_ui
    assert metrics.n_crossings > 1000
