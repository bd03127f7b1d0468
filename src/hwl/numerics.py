"""Uniform-grid signals, quadrature, derivatives, norms, the DFT and odd-kernel sums.

Every quantity in the toolkit lives on a uniform grid.  Quadrature is the
composite trapezoid rule throughout; differentiation is central differences
with one-sided stencils at the grid ends.  The spectral convention is fixed
here once and shared by everything downstream (see :func:`dft`).
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
    "integrate",
    "derivative",
    "l1_norm",
    "l2_norm",
    "sup_norm",
    "mixed_norm",
    "dft",
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


GRID_TOLERANCE = 1e-9  # abscissas this fraction of a step apart are one grid point


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
            raise InvalidParameterError(
                f"x = {x} lies outside the grid [{self.x_min}, {self.x_max}]"
            )
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


@dataclass(frozen=True)
class Spectrum:
    """Complex values of :func:`dft` at ``frequencies`` (radians per abscissa
    unit), both 1-d arrays of equal length, locked read-only in place."""

    frequencies: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.complex128)
        if f.shape != v.shape or f.ndim != 1:
            raise ValueError("frequencies and values must be 1-d arrays of equal length")
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
        w[count // 2] = np.pi / step
    return w


def dft(f: SampledSignal) -> Spectrum:
    """Discrete Fourier transform scaled to approximate the continuous one.

    On a grid of N samples f_m at x_min + m*step, bin k holds

        values[k] = step * exp(-1j*w_k*x_min) * sum_m f_m * exp(-2j*pi*k*m/N),

    the left-endpoint Riemann sum of the Fourier integral of f at
    w_k = 2*pi*k/(N*step), with w_k mapped into (-pi/step, pi/step]: DC at
    bin 0, an even N's Nyquist bin positive, the negative frequencies in the
    upper half of the array.  Parseval reads
    sum|f_m|^2 * step = sum|values[k]|^2 * dw/(2*pi), dw = 2*pi/(N*step).
    """
    g = f.grid
    w = _frequencies(g.count, g.step)
    raw = np.fft.fft(f.values)
    values = g.step * np.exp(-1j * w * g.x_min) * raw
    return Spectrum(frequencies=w, values=values)


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
    size = _smooth_length(n + s - 1)
    # k at the offsets i - p = -hi .. n-1-lo, zero-padded to size
    k = np.zeros(size)
    np.negative(kernel[:hi][::-1], out=k[:hi])
    k[hi + 1:n + s - 1] = kernel[:n - 1 - lo]
    # each size-long buffer is dropped once the next one is made: the
    # kernel's samples, its spectrum, the product
    spectrum = np.fft.rfft(k)
    del k
    spectrum = np.fft.rfft(values[lo:hi + 1], size) * spectrum
    return np.fft.irfft(spectrum, size)[s - 1:s - 1 + n]
