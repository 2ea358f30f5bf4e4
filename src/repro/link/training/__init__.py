"""Adaptive link training: CTLE/FFE co-optimization + DFE adaptation.

Every equalizer lineup elsewhere in the repository is hand-picked; this
package makes the receiver *train* instead, the way a real link does at
bring-up.  Given a channel environment (lossy line, optional crosstalk),
:class:`LinkTrainer` searches the TX-FFE de-emphasis × RX-CTLE peaking
plane with the statistical-eye solver as its fast inner objective
(:class:`StatEyeObjective` — cached, phase-aware, one shared timing
model), refines the coarse winner by deterministic coordinate descent
under a hard evaluation budget (:class:`TrainingBudget`), and adapts the
DFE — data-aided or decision-directed
(``LmsDfe(decision_directed=True)``) — inside every candidate.  The
result is a :class:`TrainedLineup` that drops into any existing scenario
(it carries the ``EqualizerLineup`` attribute surface) and a bit-true
:meth:`LinkTrainer.cross_check` through the existing CDR backends.

Quick start::

    from repro.link import LinkConfig, LossyLineChannel
    from repro.link.training import train_link

    link = LinkConfig(channel=LossyLineChannel.for_loss_at_nyquist(14.0))
    trained = train_link(link)
    print(trained.label, trained.eye.vertical, trained.eye.horizontal_ui)
    result_config = trained.apply(link)   # ready for LinkCdrChannel & co.
"""

from ..._exports import lazy_exports

__all__ = [
    "EyeScore",
    "StatEyeObjective",
    "LinkTrainer",
    "TrainedLineup",
    "TrainingBudget",
    "TrainingCrossCheck",
    "train_link",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "objective": ("EyeScore", "StatEyeObjective"),
        "search": (
            "LinkTrainer",
            "TrainedLineup",
            "TrainingBudget",
            "TrainingCrossCheck",
            "train_link",
        ),
    },
)
