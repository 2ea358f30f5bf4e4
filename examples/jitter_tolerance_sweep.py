"""Jitter- and frequency-tolerance study: statistical model + time domain.

Sweeps sinusoidal-jitter amplitude/frequency (the paper's Figures 9/10) and
frequency offset, for both the nominal and the improved sampling tap, and
compares the resulting tolerance against the InfiniBand mask (Figure 5).
The final section runs the same studies in the time domain through the
declarative :mod:`repro.experiments` engine: a frozen ``ScenarioSpec`` plus
``ParameterAxis`` objects describe each study, ``run_grid`` /
``run_tolerance_search`` execute it on the deterministic parallel pool, and
the serializable ``SweepResult`` renders straight through
:mod:`repro.reporting` — the measured companion of the analytic surfaces.

Run with:  python examples/jitter_tolerance_sweep.py [--backend auto|event|fast]
"""

import argparse

import numpy as np

from repro import units
from repro.datapath.nrz import JitterSpec
from repro.experiments import (
    ParameterAxis,
    ScenarioSpec,
    StimulusSpec,
    ToleranceSearch,
    run_grid,
    run_tolerance_search,
)
from repro.fastpath.backends import AUTO_BACKEND, BACKENDS
from repro.reporting import Series, TextTable
from repro.specs import infiniband_mask
from repro.statistical import (
    IMPROVED_SAMPLING_PHASE_UI,
    CdrJitterBudget,
    ber_vs_frequency_offset,
    ber_vs_sinusoidal_jitter,
    frequency_tolerance,
    jitter_tolerance_curve,
)

GRID = 4.0e-3


def ber_surface() -> None:
    """Figure 9/10-style BER table versus SJ frequency and amplitude."""
    normalised = np.array([1e-4, 1e-3, 1e-2, 0.1, 0.5])
    amplitudes = np.array([0.1, 0.3, 0.6])
    for offset, label in ((0.0, "no frequency offset"), (0.01, "1 % frequency offset")):
        surface = ber_vs_sinusoidal_jitter(
            normalised * units.DEFAULT_BIT_RATE, amplitudes,
            budget=CdrJitterBudget(frequency_offset=offset), grid_step_ui=GRID)
        table = TextTable(
            headers=["SJ amplitude [UIpp]"] + [f"f/fb={f:g}" for f in normalised],
            title=f"BER vs sinusoidal jitter ({label})")
        for row, amplitude in enumerate(amplitudes):
            table.add_row(f"{amplitude:.1f}",
                          *[f"{surface[row, col]:.1e}" for col in range(surface.shape[1])])
        print(table.render())


def tolerance_vs_mask() -> None:
    """Jitter tolerance at 1e-12 versus the InfiniBand mask."""
    mask = infiniband_mask()
    frequencies = mask.frequencies_for_sweep(points_per_decade=2)
    curve = jitter_tolerance_curve(frequencies, grid_step_ui=GRID, max_amplitude_ui_pp=20.0)
    series = Series("Jitter tolerance vs InfiniBand mask", "frequency_hz",
                    "tolerance_minus_mask_ui")
    margins = curve.margin_to_mask(np.asarray(mask.amplitude_ui_pp(frequencies)))
    series.extend(frequencies, margins)
    print(series.render())
    print(f"mask compliance: {'PASS' if np.all(margins >= 0) else 'FAIL'}\n")


def frequency_tolerance_study() -> None:
    """Figure 10 / 17-style frequency-offset study for both sampling taps."""
    offsets = np.array([0.0, 0.005, 0.01, 0.02, 0.04])
    budget = CdrJitterBudget(sj_amplitude_ui_pp=0.3, sj_frequency_hz=1.25e9)
    nominal = ber_vs_frequency_offset(offsets, budget=budget, grid_step_ui=GRID)
    improved = ber_vs_frequency_offset(offsets, budget=budget, grid_step_ui=GRID,
                                       sampling_phase_ui=IMPROVED_SAMPLING_PHASE_UI)
    table = TextTable(headers=["frequency offset", "BER nominal tap", "BER improved tap"],
                      title="Frequency offset sensitivity (SJ 0.3 UIpp at fb/2)")
    for index, offset in enumerate(offsets):
        table.add_row(f"{offset:+.1%}", f"{nominal[index]:.1e}", f"{improved[index]:.1e}")
    print(table.render())

    ftol = frequency_tolerance(grid_step_ui=GRID, max_offset=0.1, resolution=5e-4)
    print("Frequency tolerance (Table 1 jitter only): "
          f"+{ftol.positive_tolerance_ppm:.0f} / -{ftol.negative_tolerance_ppm:.0f} ppm "
          "(specification: +/-100 ppm)")


def time_domain_sweeps(backend: str) -> None:
    """Measured BER-vs-SJ surface and tolerance as declarative studies."""
    base = JitterSpec(dj_ui_pp=0.2, rj_ui_rms=0.01)
    normalised = np.array([1e-3, 1e-2, 0.3])

    # One frozen scenario + axes fully describe the study; the engine
    # resolves the backend per point (``auto`` keeps the fast path while
    # the configuration stays exactly equivalent) and runs the grid on
    # the deterministic parallel pool.
    scenario = ScenarioSpec(
        stimulus=StimulusSpec(kind="prbs", n_bits=1500, prbs_order=7),
        jitter=base,
        backend=backend,
    )
    surface = run_grid(
        scenario,
        [ParameterAxis("sj_amplitude_ui_pp", (0.1, 0.6, 1.0)),
         ParameterAxis("sj_frequency_hz",
                       tuple(normalised * units.DEFAULT_BIT_RATE))],
        name="Time-domain bit errors over 1500 PRBS7 bits",
        seed=9)
    print(TextTable.from_sweep_result(
        surface,
        title=f"{surface.name} (backend={backend} -> "
              f"{surface.point_backends[0]})").render())

    tolerance = run_tolerance_search(
        ScenarioSpec(stimulus=StimulusSpec(kind="prbs", n_bits=800),
                     jitter=base, backend=backend),
        [ParameterAxis("sj_frequency_hz", (2.5e5, 2.5e7, 7.5e8))],
        ToleranceSearch(axis="sj_amplitude_ui_pp", maximum=8.0,
                        target_errors=1),
        name="Measured SJ tolerance (<=1 error / 800 bits)",
        seed=5)
    print(Series.from_sweep_result(tolerance, "sj_amplitude_ui_pp").render())
    # The engine result serializes losslessly — e.g. for the benchmark
    # harness: tolerance.save("jtol.json"); SweepResult.load("jtol.json").


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend",
                        choices=sorted(BACKENDS) + [AUTO_BACKEND],
                        default=AUTO_BACKEND,
                        help="time-domain channel backend (default: auto, "
                             "resolved per scenario)")
    arguments = parser.parse_args()
    ber_surface()
    tolerance_vs_mask()
    frequency_tolerance_study()
    time_domain_sweeps(arguments.backend)


if __name__ == "__main__":
    main()
