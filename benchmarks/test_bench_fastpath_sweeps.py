"""Fast-path time-domain sweeps — the backend-switched companions of Figs 9/10.

The statistical benchmarks (``test_bench_fig09*``, ``test_bench_fig10*``)
evaluate the analytic model down to 1e-12; these benchmarks run the same
sweep *shapes* in the time domain through :mod:`repro.sweep` with the
vectorized fast-path backend, confirming the moderate-BER region the paper
verifies with VHDL simulation — and exercising the ``backend`` switch that
keeps the event kernel as the equivalence reference.

Each benchmark persists the engine's serializable
:class:`~repro.experiments.SweepResult` (JSON + CSV) into
``benchmarks/results/`` instead of hand-formatted text, so the numbers can
be reloaded losslessly with ``SweepResult.load``.
"""

import numpy as np

from repro.datapath.nrz import JitterSpec
from repro.experiments import SweepResult
from repro.sweep import ber_vs_frequency_offset_sweep, ber_vs_sj_sweep

#: Base jitter: milder than Table 1 so the 1500-bit runs sit near the
#: measurable BER floor instead of saturating; phase pi/2 avoids the
#: edge-grid nulls of a phase-0 sinusoid at rational f/fb.
BASE_JITTER = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01, sj_phase_rad=np.pi / 2)

NORMALISED_FREQUENCIES = np.array([1.0e-3, 1.0e-2, 0.3])
FREQUENCIES = NORMALISED_FREQUENCIES * 2.5e9
AMPLITUDES_UI_PP = np.array([0.1, 0.6, 1.0])
OFFSETS = np.array([0.0, 0.01, 0.05])
N_BITS = 1500


def test_bench_fastpath_ber_vs_sj(save_sweep_result):
    result = ber_vs_sj_sweep(
        FREQUENCIES, AMPLITUDES_UI_PP, base_jitter=BASE_JITTER,
        n_bits=N_BITS, backend="fast", seed=9, workers=1)
    path = save_sweep_result(result, "fastpath_ber_vs_sj")
    assert SweepResult.load(path).equals(result)

    # Low-frequency SJ is common mode: the re-phased oscillator tracks it
    # error-free.  (At 1.0 UIpp the displacement peaks at exactly +/-0.5 UI,
    # where the per-bit timing attribution of ber() flips unit intervals, so
    # the error-free claim is asserted on the unambiguous amplitudes.)
    errors = result.metrics["errors"]
    assert np.all(errors[:2, 0] == 0)
    # Near the data rate, large amplitudes break the run.
    assert errors[-1, -1] > 0
    # Errors never decrease with amplitude at the near-rate frequency.
    assert np.all(np.diff(errors[:, -1]) >= 0)


def test_bench_fastpath_ber_vs_offset(save_sweep_result):
    result = ber_vs_frequency_offset_sweep(
        OFFSETS, jitter=BASE_JITTER, n_bits=N_BITS,
        backend="fast", seed=9, workers=1)
    save_sweep_result(result, "fastpath_ber_vs_offset")

    # A 5 % slow oscillator erodes the late side of long runs: strictly
    # worse than the on-frequency case.
    assert result.metrics["errors"][-1] >= result.metrics["errors"][0]


def test_bench_fastpath_matches_event_backend(save_sweep_result):
    """One grid point cross-checked against the event kernel, end to end."""
    def both():
        fast = ber_vs_sj_sweep(
            FREQUENCIES[:1], AMPLITUDES_UI_PP[:1], base_jitter=BASE_JITTER,
            n_bits=800, backend="fast", seed=4, workers=1)
        event = ber_vs_sj_sweep(
            FREQUENCIES[:1], AMPLITUDES_UI_PP[:1], base_jitter=BASE_JITTER,
            n_bits=800, backend="event", seed=4, workers=1)
        return fast, event

    fast, event = both()
    assert np.array_equal(fast.metrics["errors"], event.metrics["errors"])
    assert np.array_equal(fast.metrics["compared"], event.metrics["compared"])
    assert fast.point_backends == ("fast",)
    assert event.point_backends == ("event",)
    save_sweep_result(fast, "fastpath_backend_crosscheck")
