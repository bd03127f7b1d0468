"""Uniform-grid signals, quadrature, differentiation, norms, and the DFT.

Every quantity in the toolkit lives on a uniform grid.  Quadrature is the
composite trapezoid rule throughout; differentiation is central differences
with one-sided stencils at the grid ends.  The spectral convention is fixed
here once and shared by everything downstream (see :class:`Spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Grid",
    "SampledSignal",
    "Spectrum",
    "SPECTRUM_NORMALIZATION",
    "integrate",
    "derivative",
    "l1_norm",
    "l2_norm",
    "sup_norm",
    "mixed_norm",
    "dft",
    "idft",
]


@dataclass(frozen=True)
class Grid:
    """Uniform abscissa lattice: sample i sits at ``x_min + i * step``.

    Parameters
    ----------
    x_min : float
        Leftmost abscissa.
    step : float
        Spacing between samples; must be positive.
    count : int
        Number of samples; at least 2.
    """

    x_min: float
    step: float
    count: int

    def __post_init__(self):
        if not (self.step > 0):
            raise InvalidParameterError(f"grid step must be positive, got {self.step}")
        if self.count < 2:
            raise InvalidParameterError(f"grid needs at least 2 samples, got {self.count}")

    @property
    def x_max(self) -> float:
        return self.x_min + (self.count - 1) * self.step

    @property
    def span(self) -> float:
        return (self.count - 1) * self.step

    def abscissas(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.count)

    def index_of(self, x: float) -> int:
        """Index of the grid point nearest to ``x``; error if outside the grid."""
        pos = (x - self.x_min) / self.step
        # an infinite x, or a quotient that overflows, lies outside as well
        i = int(round(pos)) if np.isfinite(pos) else -1
        if i < 0 or i >= self.count:
            raise ValueError(f"x = {x} lies outside the grid [{self.x_min}, {self.x_max}]")
        return i


def _as_locked_array(values, count: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != count:
        raise ValueError(f"expected {count} values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("signal values must be finite (no NaN/Inf)")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class SampledSignal:
    """Real-valued function sampled on a :class:`Grid`.

    Immutable: the values array is copied and locked at construction, so
    signals can be shared freely across threads.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_locked_array(self.values, self.grid.count))

    def x(self) -> np.ndarray:
        return self.grid.abscissas()

    def value_at(self, x: float) -> float:
        return float(self.values[self.grid.index_of(x)])


SPECTRUM_NORMALIZATION = (
    "values[k] = step * exp(-1j*w_k*x_min) * sum_m f_m * exp(-2j*pi*k*m/N); "
    "w_k = 2*pi*k/(N*step) mapped to (-pi/step, pi/step], DC at bin 0, "
    "negative frequencies in the upper half of the array.  values[k] is the "
    "left-endpoint Riemann approximation of the continuous Fourier integral "
    "of f at w_k, so Parseval reads sum|f|^2*step = sum|values|^2*dw/(2*pi)."
)


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT values with an explicit frequency mapping.

    ``frequencies`` are in radians per abscissa unit.  ``normalization``
    documents the convention; see :data:`SPECTRUM_NORMALIZATION`.
    """

    frequencies: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    normalization: str = SPECTRUM_NORMALIZATION
    grid: Grid | None = None

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.complex128)
        if f.shape != v.shape or f.ndim != 1:
            raise ValueError("frequencies and values must be 1-d arrays of equal length")
        f = f.copy()
        v = v.copy()
        f.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)


def integrate(f: SampledSignal) -> float:
    """Composite-trapezoid approximation of the integral over the grid span."""
    v = f.values
    return float(f.grid.step * (v.sum() - 0.5 * (v[0] + v[-1])))


def derivative(f: SampledSignal) -> SampledSignal:
    """Central differences in the interior, one-sided at the two grid ends.

    The one-sided end stencils are first order; all signals of interest decay
    toward the grid ends, so this never dominates an error budget.
    """
    v = f.values
    h = f.grid.step
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (v[1] - v[0]) / h
    d[-1] = (v[-1] - v[-2]) / h
    return SampledSignal(f.grid, d)


def l1_norm(f: SampledSignal) -> float:
    return float(f.grid.step * (np.abs(f.values).sum() - 0.5 * (abs(f.values[0]) + abs(f.values[-1]))))


def l2_norm(f: SampledSignal) -> float:
    v2 = f.values * f.values
    return float(np.sqrt(f.grid.step * (v2.sum() - 0.5 * (v2[0] + v2[-1]))))


def sup_norm(f: SampledSignal) -> float:
    return float(np.max(np.abs(f.values)))


def mixed_norm(f: SampledSignal) -> float:
    """Size-plus-smoothness norm: ``l1_norm(f) + sup_norm(f')``."""
    return l1_norm(f) + sup_norm(derivative(f))


def _frequencies(count: int, step: float) -> np.ndarray:
    w = 2.0 * np.pi * np.fft.fftfreq(count, d=step)
    if count % 2 == 0:
        # fftfreq reports the shared Nyquist bin as negative; the convention
        # here maps bins into (-pi/step, pi/step].
        w = w.copy()
        w[count // 2] = np.pi / step
    return w


def dft(f: SampledSignal) -> Spectrum:
    """Discrete Fourier transform scaled to approximate the continuous one.

    Bin k of the result approximates the Fourier integral of f at frequency
    ``frequencies[k]``; see :data:`SPECTRUM_NORMALIZATION` for the exact
    scaling and phase convention.  ``idft`` inverts this exactly (to
    rounding), independent of how well the continuous integral is
    approximated.
    """
    g = f.grid
    w = _frequencies(g.count, g.step)
    raw = np.fft.fft(f.values)
    values = g.step * np.exp(-1j * w * g.x_min) * raw
    return Spectrum(frequencies=w, values=values, grid=g)


def idft(s: Spectrum) -> SampledSignal:
    """Invert :func:`dft`; requires the spectrum to carry its grid."""
    if s.grid is None:
        raise ValueError("spectrum does not carry a grid; cannot invert")
    g = s.grid
    w = s.frequencies
    raw = s.values * np.exp(1j * w * g.x_min) / g.step
    v = np.fft.ifft(raw)
    scale = max(float(np.max(np.abs(v))), np.finfo(float).tiny)
    if float(np.max(np.abs(v.imag))) > 1e-9 * scale:
        raise ValueError("spectrum is not the transform of a real signal")
    return SampledSignal(g, v.real)
