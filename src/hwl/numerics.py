"""Uniform-grid signals, quadrature, derivatives, norms, the DFT and odd-kernel sums.

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
    "check_integer",
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
    "odd_kernel_sum",
]


def check_integer(value, name: str, minimum: int) -> int:
    """``value`` as an ``int``, refused unless it is an integer >= ``minimum``.

    Python and NumPy integers and integral floats are accepted; anything
    else, a fraction included, raises :class:`InvalidParameterError` rather
    than being truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        result = int(value)
    elif isinstance(value, (float, np.floating)) and float(value).is_integer():
        result = int(value)
    else:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if result < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {result}")
    return result


@dataclass(frozen=True)
class Grid:
    """Uniform abscissa lattice: sample i sits at ``x_min + i * step``.

    Parameters
    ----------
    x_min : float
        Leftmost abscissa; must be finite.
    step : float
        Spacing between samples; must be finite and positive.
    count : int
        Number of samples; at least 2.  The last abscissa ``x_max`` must be
        finite as well.
    """

    x_min: float
    step: float
    count: int

    def __post_init__(self):
        if not (-np.inf < self.x_min < np.inf and 0.0 < self.step < np.inf):
            raise InvalidParameterError(f"grid needs a finite x_min and a finite positive "
                                        f"step, got {self.x_min} and {self.step}")
        object.__setattr__(self, "count", check_integer(self.count, "grid count", 2))
        try:
            finite = np.isfinite(self.x_max)
        except OverflowError:  # a count beyond the float range
            finite = False
        if not finite:
            raise InvalidParameterError(f"{self} has a last abscissa that overflows")

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


def _trapezoid(values: np.ndarray, step: float) -> float:
    return float(step * (values.sum() - 0.5 * (values[0] + values[-1])))


def integrate(f: SampledSignal) -> float:
    """Composite-trapezoid approximation of the integral over the grid span."""
    return _trapezoid(f.values, f.grid.step)


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
    return _trapezoid(np.abs(f.values), f.grid.step)


def l2_norm(f: SampledSignal) -> float:
    return float(np.sqrt(_trapezoid(f.values * f.values, f.grid.step)))


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


def _smooth_length(m: int) -> int:
    """Least 5-smooth integer (of the form 2^a 3^b 5^c) that is >= m."""
    best = 1 << max(0, m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to at least m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def odd_kernel_sum(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[i] = sum_p values[p] k(i - p) for the odd kernel k(-m) = -k(m)
    given by ``kernel[m-1] = k(m)``, m = 1..n-1.  The nonzero slice of
    ``values`` (s samples) enters one real-FFT linear convolution at the
    least 5-smooth length >= n + s - 1, so nothing wraps into the output."""
    n = values.shape[0]
    nz = np.flatnonzero(values)
    if nz.size == 0:
        return np.zeros(n)
    lo, hi = int(nz[0]), int(nz[-1])
    s = hi - lo + 1
    # k at the offsets i - p = -hi .. n-1-lo (kernel[:hi] is empty at hi = 0)
    k = np.concatenate((-kernel[:hi][::-1], [0.0], kernel[:n - 1 - lo]))
    size = _smooth_length(n + s - 1)
    conv = np.fft.irfft(np.fft.rfft(values[lo:hi + 1], size) * np.fft.rfft(k, size), size)
    return conv[s - 1:s - 1 + n]
