"""Figure 18 — eye diagram from the circuit-level ("transistor-level") simulation.

The paper validates the transistor-level design with a typical-case SPICE
simulation and shows the resulting eye diagram (no jitter applied).  The
reproduction's circuit substrate — nonlinear CML stages with RC output nodes —
plays the SPICE role: the benchmark runs a PRBS7 pattern through the full
analogue CDR (delay line, XNOR, gated ring, sampler) and reports the eye.
"""

import numpy as np

from repro.circuit.transient import CircuitCdrConfig, CircuitLevelCdr, calibrate_ring
from repro.datapath.prbs import prbs7
from repro.reporting.tables import TextTable

N_BITS = 180


def simulate_circuit_eye():
    config = calibrate_ring(CircuitCdrConfig())
    simulator = CircuitLevelCdr(config)
    result = simulator.simulate(prbs7(N_BITS), rng=np.random.default_rng(18))
    return config, result


def render(config, result) -> str:
    metrics = result.eye_diagram().metrics()
    measurement = result.ber()
    table = TextTable(headers=["metric", "value"],
                      title="Figure 18: circuit-level (typical case, no jitter) eye diagram")
    table.add_row("bit rate", f"{config.bit_rate_hz / 1e9:.2f} Gbit/s")
    table.add_row("stage tail current", f"{config.stage.bias.tail_current_a * 1e6:.0f} uA")
    table.add_row("stage swing", f"{config.stage.bias.swing_v:.2f} V")
    table.add_row("ring calibration (tau scale)", f"{config.tau_scale:.3f}")
    table.add_row("clock edges / bit",
                  f"{result.clock_rising_edges_s().size / N_BITS:.3f}")
    table.add_row("eye opening [UI]", f"{metrics.eye_opening_ui:.3f}")
    table.add_row("left-edge sigma [UI]", f"{metrics.left_edge_std_ui:.4f}")
    table.add_row("right-edge sigma [UI]", f"{metrics.right_edge_std_ui:.4f}")
    table.add_row("recovered-bit errors", f"{measurement.errors}/{measurement.compared_bits}")
    return table.render()


def test_bench_fig18_transistor_eye(save_result):
    config, result = simulate_circuit_eye()
    save_result("fig18_transistor_eye", render(config, result))

    metrics = result.eye_diagram().metrics()
    measurement = result.ber()
    # Typical case, no jitter: the eye is open and the data is recovered.
    assert metrics.eye_opening_ui > 0.2
    assert measurement.compared_bits > 100
    assert measurement.errors <= 2
    # One recovered clock edge per bit (the CDR is actually locked to the data).
    assert result.clock_rising_edges_s().size / N_BITS == np.clip(
        result.clock_rising_edges_s().size / N_BITS, 0.95, 1.05)
