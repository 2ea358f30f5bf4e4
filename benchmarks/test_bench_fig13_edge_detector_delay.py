"""Figure 13 — edge-detector delay constraint (reliable only for T/2 < tau < T).

Sweeps the edge-detector delay through and beyond the paper's window under a
frequency offset plus jitter, counting errors in the behavioural model.  The
paper's finding: delays at or below T/2 fail to re-phase the oscillator (the
EDET release arrives before the frozen state has reached the output), while
delays inside the window work.  The sweep also exposes the second-order effect
the behavioural model reveals at the *top* of the window: very long delays
blank the end of long runs under a slow oscillator.
"""

import numpy as np

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.datapath.prbs import prbs7
from repro.reporting.tables import TextTable

DELAYS_UI = (0.2, 0.35, 0.45, 0.55, 0.65, 0.8, 0.95)
N_BITS = 1200
JITTER = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.02)
FREQUENCY_OFFSET = 0.02


def sweep_delay():
    bits = prbs7(N_BITS)
    rows = []
    for delay_ui in DELAYS_UI:
        config = (CdrChannelConfig.paper_nominal()
                  .with_frequency_offset(FREQUENCY_OFFSET)
                  .with_edge_detector_delay(delay_ui))
        result = BehavioralCdrChannel(config).run(
            bits, jitter=JITTER, rng=np.random.default_rng(3))
        measurement = result.ber()
        rows.append((delay_ui, measurement.errors, measurement.compared_bits,
                     result.missed_bits(), result.samples_per_bit()))
    return rows


def render(rows) -> str:
    table = TextTable(
        headers=["tau [UI of T_osc]", "errors", "bits", "missed bits", "samples/bit"],
        title=("Figure 13: edge-detector delay sweep "
               f"(2% slow oscillator, DJ 0.2 UIpp, RJ 0.02 UIrms, {N_BITS} bits)"),
    )
    for delay_ui, errors, bits, missed, spb in rows:
        table.add_row(f"{delay_ui:.2f}", errors, bits, missed, f"{spb:.3f}")
    return table.render()


def test_bench_fig13_edge_detector_delay(save_result):
    rows = sweep_delay()
    save_result("fig13_edge_detector_delay", render(rows))

    by_delay = {delay: errors for delay, errors, _bits, _missed, _spb in rows}
    samples_per_bit = {delay: spb for delay, _errors, _bits, _missed, spb in rows}
    # Inside the window (0.55 / 0.65) the CDR is essentially error free.
    assert by_delay[0.55] <= 3
    assert by_delay[0.65] <= 3
    # At or below ~T/2 the oscillator is no longer cleanly re-phased: the
    # release can arrive before the frozen state has reached the output, which
    # shows up as extra (double) clock edges and more errors than mid-window.
    assert by_delay[0.2] > by_delay[0.55]
    assert abs(samples_per_bit[0.2] - 1.0) > 0.03
    # Near the top of the window the gating of the next transition blanks the
    # end of long runs (slow oscillator), so errors grow again.
    assert by_delay[0.95] > by_delay[0.65]
    # The reliable operating points lie inside the paper's window.
    best_delay = min(by_delay, key=by_delay.get)
    assert 0.3 <= best_delay < 0.8
