"""Generators for the toolkit's test functions.

Haar family and boxes are exact step functions (:class:`PiecewiseConstant`);
B-spline scaling functions and compactly supported semi-orthogonal spline
wavelets are evaluated through the Cox-de Boor recursion; modulated windows
cover the bandlimited (sinc^2) and effectively-bandlimited (Gaussian) cases.

Conventions:

* every generator output is centered so its support midpoint is 0
  (windows are centered by construction);
* spline wavelets are scaled to unit L2 norm, computed in closed form from
  the autocorrelation identity for cardinal B-splines, so the scaling is
  grid-independent and bit-reproducible;
* step functions use half-open intervals [a, b) throughout;
* every compactly supported generator, step functions included, has a
  ``support`` (lo, hi); :func:`evaluate` computes it at the abscissas in
  [lo, hi] only, and it is exactly +0.0 outside, at infinite abscissas too;
* a NaN abscissa gives NaN for the spline kinds and the modulated windows,
  and 0.0 for step functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .numerics import Grid, SampledSignal, check_integer, check_real

__all__ = [
    "DEGREE_CAP",
    "PiecewiseConstant",
    "WaveletSpec",
    "make_haar_wavelet",
    "make_haar_scaling",
    "make_box",
    "make_bspline_scaling",
    "make_spline_wavelet",
    "make_modulated_window",
    "cardinal_bspline",
    "spline_wavelet_coefficients",
    "evaluate",
    "sample",
]

DEGREE_CAP = 20


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function: ``levels[i]`` on ``[breakpoints[i], breakpoints[i+1])``, 0 outside.

    Breakpoints and levels must be finite; evaluate with :func:`evaluate`.
    """

    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(check_real(b, "breakpoint") for b in self.breakpoints)
        lv = tuple(check_real(v, "level") for v in self.levels)
        if len(bp) != len(lv) + 1:
            raise InvalidParameterError(
                f"need len(breakpoints) == len(levels)+1, got {len(bp)} and {len(lv)}"
            )
        if not all(a < b for a, b in zip(bp, bp[1:])):
            raise InvalidParameterError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    @property
    def support(self) -> tuple[float, float]:
        """The first and last breakpoint."""
        return self.breakpoints[0], self.breakpoints[-1]


@dataclass(frozen=True)
class WaveletSpec:
    """Description of an analytic generator; evaluate with :func:`evaluate`.

    ``kind`` is one of ``bspline_scaling``, ``spline_wavelet``,
    ``modulated_window``; the other fields are populated as the kind
    requires.  ``support`` is None for the (unbounded) modulated windows.
    Step functions (Haar, boxes) are :class:`PiecewiseConstant` instead.

    An unknown ``kind`` is refused, and so is a modulated window unless its
    ``window_kind`` is ``sinc2`` or ``gauss``, its ``omega0`` is finite and
    >= 0, and its ``sigma`` is finite and > 0 for ``gauss`` and None for
    ``sinc2``.
    """

    kind: str
    support: tuple[float, float] | None
    degree: int | None = None
    window_kind: str | None = None
    omega0: float | None = None
    sigma: float | None = None
    coefficients: tuple[float, ...] | None = field(default=None, repr=False)
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bspline_scaling", "spline_wavelet", "modulated_window"):
            raise InvalidParameterError(f"unknown generator kind {self.kind!r}")
        if self.kind != "modulated_window":
            return
        if self.window_kind not in ("sinc2", "gauss"):
            raise InvalidParameterError(f"unknown window kind {self.window_kind!r}")
        object.__setattr__(self, "omega0", check_real(self.omega0, "omega0", 0.0))
        if self.window_kind == "gauss":
            object.__setattr__(self, "sigma", check_real(self.sigma, "sigma", 0.0, strict=True))
        elif self.sigma is not None:
            raise InvalidParameterError(
                f"sigma applies to the gauss window only, not {self.window_kind}")


def cardinal_bspline(order: int, t) -> np.ndarray:
    """Cardinal B-spline of the given order on [0, order], half-open base box.

    Evaluated by the Cox-de Boor recursion over the integer knot lattice;
    vectorized in ``t`` and O(order^2) in work.  A NaN ``t`` gives NaN, an infinite one 0.0.
    """
    order = check_integer(order, "order", 1)
    # inf * 0 in the recursion would give NaN; -1 lies outside every support
    t = np.where(np.isinf(t), -1.0, np.asarray(t, dtype=np.float64))
    cols = [((t - j >= 0.0) & (t - j < 1.0)).astype(np.float64) for j in range(order)]
    if order == 1:
        # the recursion carries a NaN t through its arithmetic; the base box
        # alone is an indicator and would give 0.0
        return np.where(np.isnan(t), np.nan, cols[0])[()]
    for m in range(2, order + 1):
        nxt = []
        for j in range(order - m + 1):
            uj = t - j
            nxt.append((uj * cols[j] + (m - uj) * cols[j + 1]) / (m - 1))
        cols = nxt
    return cols[0]


def _check_degree(degree: int) -> int:
    degree = check_integer(degree, "degree", 0)
    if degree > DEGREE_CAP:
        raise InvalidParameterError(f"degree must be <= {DEGREE_CAP}, got {degree}")
    return degree


def make_haar_wavelet() -> PiecewiseConstant:
    """The antisymmetric step wavelet: +1 on [-1, 0), -1 on [0, 1)."""
    return PiecewiseConstant(breakpoints=(-1.0, 0.0, 1.0), levels=(1.0, -1.0))


def make_haar_scaling() -> PiecewiseConstant:
    """Unit box on [0, 1), the standard Haar multiresolution generator."""
    return PiecewiseConstant(breakpoints=(0.0, 1.0), levels=(1.0,))


def make_box(a: float, b: float) -> PiecewiseConstant:
    """Unit-height box on [a, b)."""
    return PiecewiseConstant(breakpoints=(a, b), levels=(1.0,))


def make_bspline_scaling(degree: int) -> WaveletSpec:
    """Centered B-spline scaling function of the given degree.

    The (degree+1)-fold self-convolution of the unit box, shifted so the
    support midpoint is 0: support [-(degree+1)/2, (degree+1)/2].
    """
    degree = _check_degree(degree)
    half = (degree + 1) / 2.0
    return WaveletSpec(kind="bspline_scaling", degree=degree, support=(-half, half))


def spline_wavelet_coefficients(degree: int) -> np.ndarray:
    """Synthesis coefficients q_k of the compactly supported semi-orthogonal
    spline wavelet: psi(x) = sum_k q_k * N_m(2x - k), m = degree + 1,
    k = 0 .. 3m-2, with

        q_k = ((-1)^k / 2^(m-1)) * sum_l C(m, l) * N_{2m}(k - l + 1).
    """
    degree = _check_degree(degree)
    m = degree + 1
    # N_{2m}(k - l + 1) for every k - l + 1 in [1 - m, 3m - 1], at index k - l + m
    n2m = cardinal_bspline(2 * m, np.arange(-m, 3 * m) + 1.0)
    q = np.empty(3 * m - 1)
    for k in range(3 * m - 1):
        s = sum(math.comb(m, l) * n2m[k - l + m] for l in range(m + 1))
        q[k] = ((-1) ** k / 2.0 ** (m - 1)) * s
    return q


def _spline_wavelet_l2(q: np.ndarray, m: int) -> float:
    # ||psi||^2 = (1/2) sum_{k,k'} q_k q_k' N_{2m}(m + k - k'); the 1/2 is the
    # Jacobian of u = 2x - k.  auto[r + n - 1] = N_{2m}(m + r), exactly 0 for
    # |r| >= m.
    n = len(q)
    auto = cardinal_bspline(2 * m, m + np.arange(1.0 - n, n))
    total = 0.0
    for k1 in range(n):
        for k2 in range(n):
            total += q[k1] * q[k2] * auto[k1 - k2 + n - 1]
    return 0.5 * total


def make_spline_wavelet(degree: int) -> WaveletSpec:
    """Compactly supported semi-orthogonal spline wavelet of the given degree.

    Order m = degree + 1; built from half-scale B-splines with the synthesis
    coefficients of :func:`spline_wavelet_coefficients`, centered so the
    support [-(2m-1)/2, (2m-1)/2] has midpoint 0, and scaled to unit L2 norm.
    The construction carries m vanishing moments; degree 0 reproduces the
    Haar wavelet up to shift and normalization.
    """
    degree = _check_degree(degree)
    m = degree + 1
    q = spline_wavelet_coefficients(degree)
    amplitude = 1.0 / math.sqrt(_spline_wavelet_l2(q, m))
    half = (2 * m - 1) / 2.0
    return WaveletSpec(
        kind="spline_wavelet",
        degree=degree,
        support=(-half, half),
        coefficients=tuple(q),
        amplitude=amplitude,
    )


def make_modulated_window(window_kind: str, omega0: float,
                          sigma: float | None = None) -> WaveletSpec:
    """Modulated localization window x -> w(x) * cos(omega0*x).

    ``sinc2`` is w(x) = (sin x / x)^2 with w(0) = 1, bandlimited to (-2, 2),
    and takes no ``sigma`` (its spec carries None);
    ``gauss`` is w(x) = exp(-x^2 / (2 sigma^2)), with sigma 1.0 when not given.
    :class:`WaveletSpec` checks the parameters.
    """
    if window_kind == "gauss" and sigma is None:
        sigma = 1.0
    return WaveletSpec(
        kind="modulated_window",
        support=None,
        window_kind=window_kind,
        omega0=omega0,
        sigma=sigma,
    )


def _formula(spec: WaveletSpec | PiecewiseConstant, x: np.ndarray) -> np.ndarray:
    # the per-kind formula, at every abscissa it is given
    if isinstance(spec, PiecewiseConstant):
        # half-open [a, b) pieces; NaN sorts after every breakpoint, so gives 0.0
        return np.array((0.0, *spec.levels, 0.0))[np.searchsorted(spec.breakpoints, x, "right")]
    if spec.kind == "bspline_scaling":
        return cardinal_bspline(spec.degree + 1, x + (spec.degree + 1) / 2.0)
    if spec.kind == "spline_wavelet":
        m = spec.degree + 1
        xs = 2.0 * (x + (2 * m - 1) / 2.0)
        out = np.zeros_like(x)
        for k, qk in enumerate(spec.coefficients):
            out += qk * cardinal_bspline(m, xs - k)
        return spec.amplitude * out
    # a modulated window, the one kind left (WaveletSpec refuses any other)
    if spec.window_kind == "sinc2":
        w = np.ones_like(x)
        nz = x != 0.0
        w[nz] = (np.sin(x[nz]) / x[nz]) ** 2
    else:
        w = np.exp(-(x * x) / (2.0 * spec.sigma ** 2))
    return w * np.cos(spec.omega0 * x)


def evaluate(spec: WaveletSpec | PiecewiseConstant, x) -> np.ndarray:
    """Pointwise evaluation of a generator at arbitrary abscissas.

    A generator with a compact ``support`` is computed at the abscissas in
    it only and is exactly +0.0 outside it, an infinite abscissa included;
    a NaN abscissa gives NaN, or 0.0 for a step function.  A scalar ``x``
    gives a NumPy scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.support is None:
        return _formula(spec, x)
    lo, hi = spec.support
    inside = ~((x < lo) | (x > hi))  # NaN counts as inside
    out = np.zeros_like(x)
    out[inside] = _formula(spec, x[inside])
    return out[()]


def sample(spec: WaveletSpec | PiecewiseConstant, grid: Grid) -> SampledSignal:
    """Sample a generator on a grid through :func:`evaluate`.

    Samples outside a compact support are exactly +0.0, and only the
    samples inside it are computed.
    """
    return SampledSignal(grid, evaluate(spec, grid.abscissas()))
