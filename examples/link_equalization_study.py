"""Link front end study: lossy channel, equalization, and the CDR behind it.

Demonstrates the `repro.link` subsystem end to end:

1. BER versus channel loss at Nyquist, unequalized versus FFE+CTLE, on the
   deterministic parallel sweep runner (both runs use the same seeds, so
   the comparison is paired) — equalization reopening the closed eye shows
   up as a monotone BER improvement at every loss.
2. The equalization-ablation ladder at one harsh loss point
   (none / FFE / CTLE / FFE+CTLE / +DFE).
3. The transmit-side eye opening of the raw and equalized streams against
   the InfiniBand receiver eye template.
4. The statistical hand-off: the channel's data-dependent jitter is fitted
   with the dual-Dirac model and folded into the analytic BER model's
   budget, giving sub-1e-12 predictions no time-domain run can reach.

Run with:  PYTHONPATH=src python examples/link_equalization_study.py
"""

import numpy as np

from repro.datapath import prbs_sequence
from repro.link import (
    LinkCdrChannel,
    LinkConfig,
    LinkPath,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    TxFfe,
    stream_eye_diagram,
)
from repro.reporting import TextTable
from repro.specs import infiniband_rx_eye_mask
from repro.statistical.ber_model import CdrJitterBudget, GatedOscillatorBerModel
from repro.sweep import (
    LINK_RESIDUAL_JITTER_SPEC,
    ber_vs_channel_loss_sweep,
    equalization_ablation_sweep,
)

LOSSES_DB = np.array([6.0, 10.0, 14.0, 16.0, 18.0])
HARSH_LOSS_DB = 16.0
N_BITS = 3000


def equalized_link() -> LinkConfig:
    return LinkConfig(tx_ffe=TxFfe.de_emphasis(post_db=3.5),
                      rx_ctle=RxCtle(peaking_db=6.0))


def ber_vs_loss_study() -> None:
    print("=== BER vs channel loss (PRBS7, %d bits/point, fast backend) ===" % N_BITS)
    raw = ber_vs_channel_loss_sweep(LOSSES_DB, n_bits=N_BITS, seed=7)
    equalized = ber_vs_channel_loss_sweep(LOSSES_DB, link=equalized_link(),
                                          n_bits=N_BITS, seed=7)
    table = TextTable(["loss @ Nyquist", "unequalized BER", "FFE+CTLE BER"])
    for index, loss in enumerate(LOSSES_DB):
        table.add_row(f"{loss:.0f} dB",
                      f"{raw.ber[index]:.2e}",
                      f"{equalized.ber[index]:.2e}")
    print(table.render())
    raw_errors, equalized_errors = raw.metrics["errors"], equalized.metrics["errors"]
    improvement = np.all(equalized_errors <= raw_errors)
    print(f"equalization never degrades a point: {improvement}")
    print(f"total errors: raw {raw_errors.sum()}, equalized {equalized_errors.sum()}\n")


def ablation_study() -> None:
    print(f"=== Equalization ablation at {HARSH_LOSS_DB:.0f} dB loss ===")
    result = equalization_ablation_sweep(HARSH_LOSS_DB, n_bits=N_BITS, seed=7,
                                         dfe=LmsDfe())
    table = TextTable(["line-up", "errors", "BER"])
    for label, errors, ber in zip(result.axes[0].labels, result.metrics["errors"],
                                  result.ber):
        table.add_row(label, str(int(errors)), f"{ber:.2e}")
    print(table.render())
    print()


def eye_mask_study() -> None:
    print(f"=== Transmit-side eye vs InfiniBand template ({HARSH_LOSS_DB:.0f} dB) ===")
    bits = prbs_sequence(7, N_BITS)
    channel = LossyLineChannel.for_loss_at_nyquist(HARSH_LOSS_DB)
    mask = infiniband_rx_eye_mask()
    table = TextTable(["line-up", "eye opening",
                       "mask (>= %.2f UI)" % mask.minimum_opening_ui])
    for label, link in [("unequalized", LinkConfig(channel=channel)),
                        ("FFE+CTLE", equalized_link().with_channel(channel))]:
        result = LinkCdrChannel(link).run(
            bits, jitter=LINK_RESIDUAL_JITTER_SPEC,
            rng=np.random.default_rng(7), pattern_period=127)
        opening = stream_eye_diagram(result.stream).eye_opening_ui()
        verdict = "PASS" if mask.passes(opening) else "FAIL"
        table.add_row(label, f"{opening:.3f} UI", verdict)
    print(table.render())
    print()


def statistical_handoff_study() -> None:
    print("=== Dual-Dirac DDJ fit -> analytic BER model ===")
    bits = prbs_sequence(9)
    # Table 1 with DJ zeroed: the deterministic part now comes from ISI.
    base = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.021)
    table = TextTable(["loss", "line-up", "DDJ DJ(dd)", "analytic BER"])
    for loss in (6.0, 12.0):
        channel = LossyLineChannel.for_loss_at_nyquist(loss)
        for label, link in [("raw", LinkConfig(channel=channel)),
                            ("FFE+CTLE", equalized_link().with_channel(channel))]:
            path = LinkPath(link)
            fit = path.ddj_decomposition(bits)
            budget = path.jitter_budget(bits, base_budget=base)
            ber = GatedOscillatorBerModel(budget).ber()
            table.add_row(f"{loss:.0f} dB", label,
                          f"{fit.dj_pp_ui:.3f} UI", f"{ber:.2e}")
    print(table.render())


def main() -> None:
    ber_vs_loss_study()
    ablation_study()
    eye_mask_study()
    statistical_handoff_study()


if __name__ == "__main__":
    main()
