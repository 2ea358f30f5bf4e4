"""Multi-channel receiver study (paper Figure 6).

Builds the four-channel receiver: one shared PLL locks to the bit rate and
distributes its control current; each channel runs a matched gated oscillator
with mirror/oscillator mismatch and its own lane skew.  The example prints the
shared-PLL acquisition, the per-channel statistical BER, a short behavioural
run of every channel, and the elastic-buffer budget towards the system clock.

Run with:  python examples/multichannel_receiver.py
"""

import numpy as np

from repro.core import ElasticBuffer, MultiChannelConfig, MultiChannelReceiver
from repro.pll import SharedPll
from repro.reporting import TextTable


def main() -> None:
    rng = np.random.default_rng(2026)
    config = MultiChannelConfig(n_channels=4, transmitter_offset_ppm=50.0)
    receiver = MultiChannelReceiver(config, rng=rng)

    # --- shared PLL acquisition -------------------------------------------
    pll_result = SharedPll(config.pll).simulate(duration_s=20.0e-6, time_step_s=2.0e-9)
    print(f"Shared PLL: locked to {pll_result.final_frequency_hz / 1e9:.4f} GHz "
          f"(error {pll_result.final_frequency_error * 1e6:+.1f} ppm) "
          f"in {pll_result.lock_time_s() * 1e6:.1f} us, "
          f"control current {pll_result.final_control_current_a * 1e6:.1f} uA\n")

    # --- per-channel statistical BER ---------------------------------------
    report = receiver.statistical_report()
    table = TextTable(
        headers=["channel", "frequency offset [ppm]", "lane skew [UI]", "BER"],
        title="Per-channel statistical BER (Table 1 jitter, matched oscillators)")
    for channel in report.channels:
        table.add_row(channel.channel_index, f"{channel.frequency_offset_ppm:+.1f}",
                      f"{channel.lane_skew_ui:.1f}", f"{channel.ber:.2e}")
    print(table.render())
    print(f"all channels meet 1e-12: {report.all_channels_pass}\n")

    # --- behavioural cross-check (fast-path backend) ------------------------
    behavioural = receiver.behavioural_run(n_bits=800, backend="fast")
    table = TextTable(headers=["channel", "errors", "bits", "lane skew [UI]"],
                      title="Behavioural run (800 PRBS7 bits per channel, fast backend)")
    for index, measurement in enumerate(behavioural.measurements):
        table.add_row(index, measurement.errors, measurement.compared_bits,
                      f"{behavioural.lane_skews_ui[index]:.1f}")
    print(table.render())
    print(f"aggregate behavioural BER: {behavioural.aggregate_ber:.2e}\n")

    # --- parallel lane sweep through the sweep runner ------------------------
    from repro.sweep import multichannel_sweep
    sweep = multichannel_sweep(config, n_bits=800, backend="fast", seed=2026)
    errors, compared = sweep.metrics["errors"], sweep.metrics["compared"]
    print("parallel sweep (SeedSequence-spawned lanes): "
          f"errors per lane {errors.tolist()}, "
          f"aggregate BER {errors.sum() / compared.sum():.2e}\n")

    # --- elastic buffer towards the system clock ----------------------------
    stats = ElasticBuffer.simulate_clock_domains(
        50_000,
        write_rate_hz=250.0e6 * (1.0 + 100e-6),  # recovered byte clock, +100 ppm
        read_rate_hz=250.0e6,                    # system byte clock
        depth=16,
    )
    print("Elastic buffer (depth 16, +100 ppm): occupancy "
          f"{stats.min_occupancy}..{stats.max_occupancy}, slips {stats.slips}")


if __name__ == "__main__":
    main()
