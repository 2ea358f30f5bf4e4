"""Monte-Carlo cross-check of the analytic BER model.

The analytic model of :mod:`repro.statistical.ber_model` evaluates error
probabilities by PDF convolution; this module simulates exactly the same
random experiment by drawing samples, so the two can be cross-validated in the
BER range a Monte-Carlo simulation can reach (roughly down to 1e-5 with 1e7
trials).  The paper uses the same strategy in reverse: the VHDL time-domain
simulations confirm the statistical results at moderate error ratios.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import require_positive_int
from ..analysis.ber_counter import BerMeasurement
from ..datapath.cid import RunLengthDistribution, geometric_run_distribution
from .ber_model import CdrJitterBudget, NOMINAL_SAMPLING_PHASE_UI

__all__ = ["simulate_ber"]


def simulate_ber(
    budget: CdrJitterBudget | None = None,
    *,
    n_bits: int = 1_000_000,
    sampling_phase_ui: float = NOMINAL_SAMPLING_PHASE_UI,
    run_lengths: RunLengthDistribution | None = None,
    static_phase_error_ui: float = 0.0,
    rng: np.random.Generator | None = None,
) -> BerMeasurement:
    """Monte-Carlo estimate of the gated-oscillator CDR BER.

    The experiment mirrors the analytic model bit for bit: draw a run length
    and a position inside the run, draw the sampling-edge displacement
    (frequency-offset accumulation + oscillator random walk) and the relative
    displacement of the end-of-run transition (DJ and RJ on both edges plus
    differential SJ), and count an error whenever the sampling edge leaves the
    run.  Every one of the *n_bits* trials is a compared bit.
    """
    budget = budget or CdrJitterBudget()
    run_lengths = run_lengths or geometric_run_distribution(max_run=5)
    rng = rng or np.random.default_rng()  # repro-lint: disable=RPL001 — opt-in entropy
    n_bits = require_positive_int("n_bits", n_bits)

    max_run = run_lengths.max_run
    # Flattened joint (run length, position) distribution, precomputed as
    # arrays (run-major, matching the historical pair ordering so seeded
    # draws are unchanged).
    all_runs, all_positions, weights_array = run_lengths.flattened_position_weights()
    weights_array = weights_array / weights_array.sum()

    pair_indices = rng.choice(all_runs.size, size=n_bits, p=weights_array)
    run_k = all_runs[pair_indices]
    pos_i = all_positions[pair_indices]

    phi = sampling_phase_ui + static_phase_error_ui
    sampling_mean = (pos_i - 1 + phi) * (1.0 + budget.frequency_offset)
    osc_sigma = budget.osc_sigma_ui_per_bit * np.sqrt(pos_i.astype(float))
    sampling_edge = sampling_mean + rng.normal(0.0, 1.0, size=n_bits) * osc_sigma

    # Relative displacement of the end-of-run transition versus the trigger.
    # DJ is pattern-correlated and bounds the relative displacement (one draw);
    # RJ is independent per edge (sqrt(2) times the per-edge sigma).
    boundary = run_k.astype(float)
    if budget.dj_ui_pp > 0.0:
        half = 0.5 * budget.dj_ui_pp
        boundary = boundary + rng.uniform(-half, half, size=n_bits)
    if budget.rj_ui_rms > 0.0:
        boundary = boundary + rng.normal(0.0, budget.rj_ui_rms * math.sqrt(2.0), size=n_bits)
    if budget.sj_amplitude_ui_pp > 0.0:
        relative_pp = np.array(
            [budget.relative_sj_pp_over_gap(float(k)) for k in range(1, max_run + 1)]
        )[run_k - 1]
        phase = rng.uniform(0.0, 2.0 * np.pi, size=n_bits)
        boundary = boundary + 0.5 * relative_pp * np.sin(phase)

    errors = int(np.count_nonzero((sampling_edge > boundary) | (sampling_edge < 0.0)))
    return BerMeasurement(errors=errors, compared_bits=n_bits)
