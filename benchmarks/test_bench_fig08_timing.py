"""Figure 8 — timing diagram of the gated CCO around one data edge.

Reproduces the sequence of the paper's timing diagram with the event-driven
model: DIN edge -> EDET pulses low for the delay-line time -> the frozen state
reaches CKOUT after T/2 -> CKOUT rises T/2 after EDET is released, i.e. the
sampling instant sits half a bit after the (delayed) data edge regardless of
the delay-line value.
"""

import numpy as np

from repro.core.cdr_channel import BehavioralCdrChannel
from repro.core.config import CdrChannelConfig
from repro.datapath.nrz import JitterSpec
from repro.reporting.tables import TextTable

NO_JITTER = JitterSpec(dj_ui_pp=0.0, rj_ui_rms=0.0)


def simulate_single_edge():
    # One isolated rising edge followed by a run of ones.
    config = CdrChannelConfig(
        oscillator=CdrChannelConfig().oscillator,
        gate_jitter_sigma_fraction=0.0,
    )
    bits = np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0], dtype=np.uint8)
    result = BehavioralCdrChannel(config).run(bits, jitter=NO_JITTER,
                                              rng=np.random.default_rng(0))
    return config, result


def render(config, result) -> str:
    ui = config.unit_interval_s
    table = TextTable(headers=["signal", "event", "time [UI after first DIN edge]"],
                      title="Figure 8: GCCO timing around one data edge")
    din_edge = result.trace("din").edges("rising")[0]
    rows = []
    for name, polarity, label in [
        ("din", "rising", "data edge (DIN)"),
        ("edet", "falling", "EDET goes low"),
        ("edet", "rising", "EDET released"),
        ("ddin", "rising", "delayed data edge (DDIN)"),
        ("clock", "falling", "CKOUT forced low (freeze reaches output)"),
        ("clock", "rising", "CKOUT rises (sampling instant)"),
    ]:
        edges = result.trace(name).edges(polarity)
        edges = edges[edges >= din_edge - 1e-12]
        if edges.size:
            rows.append((name, label, (edges[0] - din_edge) / ui))
    for name, label, offset in rows:
        table.add_row(name, label, f"{offset:+.3f}")
    return table.render()


def test_bench_fig08_timing(save_result):
    config, result = simulate_single_edge()
    save_result("fig08_gcco_timing", render(config, result))

    ui = config.unit_interval_s
    din_edge = result.trace("din").edges("rising")[0]
    edet_fall = result.trace("edet").edges("falling")
    edet_rise = result.trace("edet").edges("rising")
    ddin_edge = result.trace("ddin").edges("rising")
    clock_rise = result.trace("clock").edges("rising")

    edet_fall = edet_fall[edet_fall > din_edge][0]
    edet_rise = edet_rise[edet_rise > edet_fall][0]
    ddin_edge = ddin_edge[ddin_edge > din_edge][0]
    first_sample = clock_rise[clock_rise > edet_rise][0]

    # EDET stays low for the delay-line delay (tau).
    assert abs((edet_rise - edet_fall) - config.edge_detector_delay_s) < 0.05 * ui
    # The sampling edge comes half an oscillator period after the release...
    assert abs((first_sample - edet_rise) - 0.5 * config.oscillator_period_s) < 0.05 * ui
    # ...which is half a bit after the *delayed* data edge: the delay-line value
    # cancels out, the paper's key argument for the topology.
    assert abs((first_sample - ddin_edge) - 0.5 * config.oscillator_period_s) < 0.05 * ui
