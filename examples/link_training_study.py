"""Link-training study: closed eye -> trained lineup -> reopened eye.

Demonstrates the `repro.link.training` subsystem end to end:

1. A harsh lossy channel closes the unequalized statistical eye; link
   training searches the TX-FFE de-emphasis x RX-CTLE peaking plane on the
   statistical-eye objective (coarse grid + coordinate descent, cached and
   budget-capped) and reopens it — compared against PR 2's hand-tuned
   ``link_equalization_study`` lineup (FFE 3.5 dB + CTLE 6 dB).
2. The trained lineup is cross-checked bit-true through the CDR backends
   on a frequency-offset stress where errors are countable.
3. ``link_training_sweep`` runs the same study across a loss axis on the
   deterministic parallel runner, pairing fixed-lineup error counts with
   trained-versus-fixed openings per point.

Run with:  PYTHONPATH=src python examples/link_training_study.py
"""

import numpy as np

from repro.core.config import CdrChannelConfig
from repro.datapath.cid import measured_run_distribution
from repro.datapath.prbs import prbs_sequence
from repro.gates.ring import GccoParameters
from repro.link import (
    LinkConfig,
    LinkTrainer,
    LmsDfe,
    LossyLineChannel,
    RxCtle,
    TxFfe,
    statistical_eye,
)
from repro.reporting import TextTable
from repro.statistical.ber_model import CdrJitterBudget
from repro.sweep import link_training_sweep

HARSH_LOSS_DB = 16.0
TARGET_BER = 1.0e-12


def hand_tuned_link(channel) -> LinkConfig:
    """PR 2's hand-picked reference lineup (link_equalization_study.py)."""
    return LinkConfig(
        channel=channel,
        tx_ffe=TxFfe.de_emphasis(post_db=3.5),
        rx_ctle=RxCtle(peaking_db=6.0),
    )


def training_study() -> None:
    print(f"=== Training the {HARSH_LOSS_DB:.0f} dB channel (statistical-eye objective) ===")
    channel = LossyLineChannel.for_loss_at_nyquist(HARSH_LOSS_DB)

    closed = statistical_eye(LinkConfig(channel=channel))
    hand = statistical_eye(hand_tuned_link(channel))

    trainer = LinkTrainer(LinkConfig(channel=channel), dfe=LmsDfe(n_taps=2))
    trained = trainer.train()
    trained_eye = trained.eye

    table = TextTable(["lineup", "H opening (UI)", "V opening", "BER @ centre"])
    rows = [
        ("unequalized", closed.horizontal_opening_ui(TARGET_BER),
         closed.vertical_opening(TARGET_BER), closed.ber_at(0.5, 0.0)),
        ("hand-tuned (PR 2)", hand.horizontal_opening_ui(TARGET_BER),
         hand.vertical_opening(TARGET_BER), hand.ber_at(0.5, 0.0)),
        (trained.label, trained_eye.horizontal_ui, trained_eye.vertical,
         trained_eye.ber_nominal),
    ]
    for label, horizontal, vertical, ber in rows:
        table.add_row(label, f"{horizontal:.3f}", f"{vertical:.3f}", f"{ber:.2e}")
    print(table.render())
    print(f"search spent {trained.n_evaluations} statistical-eye solves; "
          f"coarse-grid best was (post={trained.coarse_tx_post_db:g} dB, "
          f"peak={trained.coarse_ctle_peaking_db:g} dB) "
          f"at score {trained.coarse_eye.score:.3f} -> refined to "
          f"{trained.eye.score:.3f}")
    if trained.dfe_weights:
        taps = ", ".join(f"{w:+.3f}" for w in trained.dfe_weights)
        print(f"adapted DFE taps: [{taps}]")
    print()


def cross_check_study() -> None:
    print("=== Bit-true cross-check (15 % slow oscillator, PRBS7) ===")
    offset = 0.15
    channel = LossyLineChannel.for_loss_at_nyquist(10.0)
    budget = CdrJitterBudget(dj_ui_pp=0.0, rj_ui_rms=0.0,
                             osc_sigma_ui_per_bit=0.0,
                             frequency_offset=offset)
    trainer = LinkTrainer(
        LinkConfig(channel=channel),
        budget=budget,
        run_lengths=measured_run_distribution(prbs_sequence(7, 127), max_run=7),
    )
    trained = trainer.train()
    config = CdrChannelConfig(
        oscillator=GccoParameters(jitter_sigma_fraction=0.0),
        frequency_offset=offset)
    check = trainer.cross_check(trained, config=config, n_bits=20000)
    print(f"trained lineup: {trained.label}")
    print(f"bit-true ({check.backend} backend): {check.errors} errors in "
          f"{check.compared_bits} bits -> BER {check.measured_ber:.3e}")
    print(f"statistical objective predicts {check.predicted_ber:.3e} "
          f"(ratio {check.ratio:.2f}, within 2x model-gap band: {check.within(2.0)};"
          f" a deterministic run, so a band, not a sampling interval)")
    print()


def sweep_study() -> None:
    print("=== link_training_sweep: trained vs fixed across channel loss ===")
    losses = np.array([8.0, 12.0, 16.0, 18.0])
    result = link_training_sweep(losses, n_bits=2000, seed=7)
    table = TextTable([
        "loss @ Nyquist", "fixed BER", "fixed V", "trained V",
        "trained lineup", "solves",
    ])
    metrics = result.metrics
    for index, loss in enumerate(losses):
        lineup = (f"post={metrics['trained_tx_post_db'][index]:g} dB, "
                  f"peak={metrics['trained_ctle_peaking_db'][index]:g} dB")
        table.add_row(
            f"{loss:.0f} dB",
            f"{result.ber[index]:.2e}",
            f"{metrics['fixed_vertical'][index]:.3f}",
            f"{metrics['trained_vertical'][index]:.3f}",
            lineup,
            f"{metrics['training_evaluations'][index]:.0f}",
        )
    print(table.render())
    never_worse = bool(np.all(metrics["trained_vertical"] >= metrics["fixed_vertical"]))
    print(f"training never shrinks the vertical opening: {never_worse}")


def main() -> None:
    training_study()
    cross_check_study()
    sweep_study()


if __name__ == "__main__":
    main()
