"""Numerical probability-density algebra on a uniform grid.

The paper's statistical model ("In statistical models, the exact contributions
of different types of timing jitter can be accurately combined", section 3.1)
combines deterministic (uniform), random (Gaussian), sinusoidal (arcsine) and
oscillator jitter distributions and evaluates error probabilities down to
1e-12 — far beyond Monte-Carlo reach.  This module provides the small PDF
calculus that makes this possible:

* :class:`Pdf` — a density sampled on a uniform grid with exact helpers for
  mean, variance and tail probabilities,
* convolution of independent contributions (direct ``np.convolve``),
* constructors for the standard jitter shapes.

The public constructor ``Pdf(grid, density)`` checks its arrays, and so
do the shape constructors, whose grids come from the caller's centre and
step.  Convolution and :meth:`Pdf.normalised` build their outputs from
already-checked PDFs through the unchecked :meth:`Pdf._built` instead:
their grids are uniform and their densities non-negative by
construction, so the checks would pass and the clip to non-negative
values would change no byte.

All grids are expressed in unit intervals (UI) unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._validation import require_finite, require_non_negative, require_positive

__all__ = [
    "Pdf",
    "delta_pdf",
    "uniform_pdf",
    "gaussian_pdf",
    "sinusoidal_pdf",
    "dual_dirac_pdf",
    "convolve_pdfs",
    "DEFAULT_GRID_STEP_UI",
]

#: Default grid resolution used by the statistical model [UI].
DEFAULT_GRID_STEP_UI = 1.0e-3


#: Relative tolerance of the grid-uniformity check.
_STEP_RTOL = 1.0e-6


def _uniform_steps(steps: np.ndarray) -> bool:
    """Whether every grid step is within :data:`_STEP_RTOL` of the first.

    The same comparison as ``np.allclose(steps, steps[0], rtol=_STEP_RTOL,
    atol=0)`` on finite steps, at a fraction of its cost (every timing
    model builds dozens of :class:`Pdf` objects).  A NaN step fails it, and
    so does an infinite one — including the grid ``[-inf, 0, inf]``, which
    ``allclose`` accepts because it counts equal infinities as close: its
    step is infinite, so no moment or probability on it is finite.
    """
    first = float(steps[0])
    return math.isfinite(first) and bool(
        np.max(np.abs(steps - first)) <= _STEP_RTOL * abs(first)
    )


@dataclass(frozen=True)
class Pdf:
    """A probability density sampled on a uniform grid.

    Attributes
    ----------
    grid:
        Sample points (uniformly spaced, strictly increasing).
    density:
        Density values at the grid points; each stands for the cell of
        width ``step`` centred on its point, so the density integrates to
        ~1 with the rectangle rule ``sum(density) * step``.
    """

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        density = np.asarray(self.density, dtype=float)
        if grid.ndim != 1 or density.ndim != 1 or grid.size != density.size:
            raise ValueError("grid and density must be 1-D arrays of equal length")
        if grid.size < 2:
            raise ValueError("a Pdf needs at least two grid points")
        steps = np.diff(grid)
        if np.any(steps <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if not _uniform_steps(steps):
            raise ValueError("grid must be uniformly spaced")
        if np.any(density < -1.0e-12):
            raise ValueError("density must be non-negative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", np.clip(density, 0.0, None))

    @classmethod
    def _built(cls, grid: np.ndarray, density: np.ndarray) -> "Pdf":
        """A Pdf of float arrays this module computed, skipping the checks.

        Only for a strictly increasing uniform *grid* and a non-negative
        *density* of equal length: ``Pdf(grid, density)`` would return the
        same bytes.
        """
        pdf = object.__new__(cls)
        object.__setattr__(pdf, "grid", grid)
        object.__setattr__(pdf, "density", density)
        return pdf

    # -- basic properties ---------------------------------------------------

    @property
    def step(self) -> float:
        """Grid spacing."""
        return float(self.grid[1] - self.grid[0])

    @property
    def total_probability(self) -> float:
        """Integral of the density over the grid (should be ~1)."""
        return float(self.density.sum() * self.step)

    def normalised(self) -> "Pdf":
        """Return a copy scaled so the density integrates to exactly 1."""
        total = self.total_probability
        if total <= 0.0:
            raise ValueError("cannot normalise a zero density")
        return Pdf._built(self.grid, self.density / total)

    def mean(self) -> float:
        """First moment of the distribution."""
        return float(np.sum(self.grid * self.density) * self.step / self.total_probability)

    def variance(self) -> float:
        """Second central moment of the distribution."""
        mu = self.mean()
        return float(
            np.sum((self.grid - mu) ** 2 * self.density) * self.step / self.total_probability
        )

    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.variance()))

    def peak_to_peak(self, threshold: float = 1.0e-30) -> float:
        """Span between the first and last grid point with density above *threshold*."""
        significant = np.flatnonzero(self.density > threshold)
        if significant.size == 0:
            return 0.0
        return float(self.grid[significant[-1]] - self.grid[significant[0]])

    # -- probabilities ------------------------------------------------------

    def probability_below(self, threshold: float) -> float:
        """Return ``P(X < threshold)``.

        Each grid point carries the mass of the cell of width :attr:`step`
        centred on it, as every constructor builds it, spread evenly over
        that cell.
        """
        covered = np.clip((threshold - self.grid) / self.step + 0.5, 0.0, 1.0)
        return float(np.clip(np.dot(self.density, covered) * self.step, 0.0, 1.0))

    def probability_above(self, threshold: float) -> float:
        """Return ``P(X > threshold)``, on the cells of :meth:`probability_below`."""
        covered = np.clip((self.grid - threshold) / self.step + 0.5, 0.0, 1.0)
        return float(np.clip(np.dot(self.density, covered) * self.step, 0.0, 1.0))

    # -- transformations ----------------------------------------------------

    def shifted(self, offset: float) -> "Pdf":
        """Return the distribution of ``X + offset`` (grid is translated)."""
        return Pdf(self.grid + offset, self.density)

    def scaled(self, factor: float) -> "Pdf":
        """Return the distribution of ``factor * X`` for a non-zero factor."""
        if factor == 0.0:
            raise ValueError("scaling factor must be non-zero")
        if factor > 0.0:
            return Pdf(self.grid * factor, self.density / factor)
        grid = (self.grid * factor)[::-1]
        density = (self.density / abs(factor))[::-1]
        return Pdf(grid, density)

    def mirrored(self) -> "Pdf":
        """Return the distribution of ``-X``."""
        return self.scaled(-1.0)

    def convolve(self, other: "Pdf") -> "Pdf":
        """Return the distribution of the sum of two independent variables."""
        return convolve_pdfs(self, other)

    def resampled(self, grid: np.ndarray) -> "Pdf":
        """Interpolate the density onto a new uniform grid and renormalise."""
        density = np.interp(grid, self.grid, self.density, left=0.0, right=0.0)
        pdf = Pdf(np.asarray(grid, dtype=float), density)
        return pdf.normalised() if pdf.total_probability > 0 else pdf


# -- constructors -----------------------------------------------------------


def _symmetric_grid(half_span: float, step: float) -> np.ndarray:
    n = max(2, int(np.ceil(half_span / step)) + 1)
    return np.arange(-n, n + 1, dtype=float) * step


def delta_pdf(value: float = 0.0, step: float = DEFAULT_GRID_STEP_UI) -> Pdf:
    """A (discretised) Dirac delta at *value* — used for 'no jitter' components."""
    require_finite("value", value)
    require_positive("step", step)
    grid = np.array([value - step, value, value + step], dtype=float)
    density = np.array([0.0, 1.0 / step, 0.0])
    return Pdf(grid, density)


def uniform_pdf(peak_to_peak: float, step: float = DEFAULT_GRID_STEP_UI,
                centre: float = 0.0) -> Pdf:
    """Uniform density of the given peak-to-peak span (deterministic jitter)."""
    require_finite("centre", centre)
    require_non_negative("peak_to_peak", peak_to_peak)
    require_positive("step", step)
    if peak_to_peak == 0.0:
        return delta_pdf(centre, step)
    half = 0.5 * peak_to_peak
    offsets = _symmetric_grid(half + 2.0 * step, step)
    density = np.where(np.abs(offsets) <= half, 1.0 / peak_to_peak, 0.0)
    return Pdf(offsets + centre, density).normalised()


def gaussian_pdf(sigma: float, step: float = DEFAULT_GRID_STEP_UI,
                 centre: float = 0.0, n_sigma: float = 10.0) -> Pdf:
    """Gaussian density with standard deviation *sigma* (random jitter).

    The grid extends to ``n_sigma`` standard deviations; 10 sigma keeps the
    truncated tail below ~1e-23, far under the 1e-12 BER target.
    """
    require_finite("centre", centre)
    require_non_negative("sigma", sigma)
    require_positive("step", step)
    if sigma == 0.0:
        return delta_pdf(centre, step)
    offsets = _symmetric_grid(n_sigma * sigma, step)
    z = offsets / sigma
    density = np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))
    return Pdf(offsets + centre, density).normalised()


def sinusoidal_pdf(peak_to_peak: float, step: float = DEFAULT_GRID_STEP_UI,
                   centre: float = 0.0) -> Pdf:
    """Arcsine density of a sinusoid with the given peak-to-peak amplitude.

    A sampled sinusoid ``(A/2)·sin(θ)`` with uniformly random phase has the
    arcsine ("bathtub-shaped") density ``1/(π·sqrt((A/2)² - x²))``.
    """
    require_finite("centre", centre)
    require_non_negative("peak_to_peak", peak_to_peak)
    require_positive("step", step)
    if peak_to_peak == 0.0:
        return delta_pdf(centre, step)
    amplitude = 0.5 * peak_to_peak
    x = _symmetric_grid(amplitude + 2.0 * step, step)
    # Evaluate the analytic CDF difference per cell to avoid the integrable
    # singularities at +/- amplitude.
    left_edges = np.clip(x - 0.5 * step, -amplitude, amplitude)
    right_edges = np.clip(x + 0.5 * step, -amplitude, amplitude)
    cdf_left = 0.5 + np.arcsin(left_edges / amplitude) / np.pi
    cdf_right = 0.5 + np.arcsin(right_edges / amplitude) / np.pi
    density = (cdf_right - cdf_left) / step
    return Pdf(x + centre, density).normalised()


def dual_dirac_pdf(separation: float, step: float = DEFAULT_GRID_STEP_UI,
                   centre: float = 0.0) -> Pdf:
    """Dual-Dirac density: two equal impulses separated by *separation*.

    This is the standard model for data-dependent deterministic jitter used by
    jitter-decomposition methods.  The lower impulse sits on the grid point
    nearest ``centre - separation / 2`` and the upper one on its mirror
    image about ``centre``, so the mean is ``centre`` even when the
    separation is an odd number of grid steps (the nearest point is then a
    tie) and the separation is within one step of the requested one.
    """
    require_finite("centre", centre)
    require_non_negative("separation", separation)
    require_positive("step", step)
    if separation == 0.0:
        return delta_pdf(centre, step)
    half = 0.5 * separation
    grid = _symmetric_grid(half + 2.0 * step, step) + centre
    density = np.zeros_like(grid)
    lower = int(np.argmin(np.abs(grid - (centre - half))))
    density[lower] += 0.5 / step
    density[grid.size - 1 - lower] += 0.5 / step
    return Pdf(grid, density)


def convolve_pdfs(first: Pdf, second: Pdf) -> Pdf:
    """Distribution of the sum of two independent random variables.

    Both inputs are resampled onto the finer of the two grids before the
    direct (``np.convolve``) convolution so resolutions can be mixed freely.
    """
    step = min(first.step, second.step)
    if not np.isclose(first.step, step):
        span = first.grid[-1] - first.grid[0]
        grid = np.arange(first.grid[0], first.grid[0] + span + 0.5 * step, step)
        first = first.resampled(grid)
    if not np.isclose(second.step, step):
        span = second.grid[-1] - second.grid[0]
        grid = np.arange(second.grid[0], second.grid[0] + span + 0.5 * step, step)
        second = second.resampled(grid)

    density = np.convolve(first.density, second.density) * step
    start = first.grid[0] + second.grid[0]
    grid = start + np.arange(density.size, dtype=float) * step
    # Renormalise to remove accumulated quadrature error, preserving tails.
    return Pdf._built(grid, density).normalised()
