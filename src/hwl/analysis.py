"""Empirical certification of the transform's decay, moment, smoothness,
modulation, and partition-of-unity behaviour.

Everything here works on sampled data, so each check pairs the quantity of
interest with an honest account of what sampling can resolve: moment reports
carry per-order truncation bounds, decay fits report the fit window and the
points excluded as rounding noise, bound certificates probe stability under
span doubling, and Sobolev membership is operationalized as grid-refinement
stability of the norm.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    FitWindowError, GridMismatchError, GridTooNarrowError, InvalidParameterError,
)
# nothing here calls ``derivative``; it is imported because the benchmark's
# tracer (hwlbench/trace.py) wraps it under this module's name
from .numerics import (  # noqa: F401
    GRID_TOLERANCE, Grid, SampledSignal, check_integer, check_real, derivative, dft, integrate,
    l1_norm, mixed_norm, sup_norm,
)
from .wavelets import PiecewiseConstant, WaveletSpec, evaluate, sample
from .hilbert import hilbert_spectral

__all__ = [
    "MomentReport",
    "DecayFit",
    "BoundCertificate",
    "SobolevEstimate",
    "moments",
    "fit_decay",
    "theorem_certificate",
    "tail_limit",
    "sobolev_norm",
    "smoothness_profile",
    "bedrosian_residual",
    "partition_deviation",
]

# Fitted points whose magnitude is below this multiple of eps * sup|f| are
# rounding noise, not signal, and are excluded from decay fits.
NOISE_FLOOR_FACTOR = 1e3 * np.finfo(float).eps

# A grid cuts a signal short when an edge sample exceeds this fraction of its
# sup: the certificate refuses such a psi, and the Bedrosian check such a
# window envelope (whose sup is 1).
_EDGE_FRACTION = 1e-4


@dataclass(frozen=True)
class MomentReport:
    """Moments integral(x^k f) for k = 0..k_max with truncation diagnostics.

    ``truncation_bound[k]`` is the heuristic |x_edge|^k * |f(edge)| * span,
    which for a tail decaying like 1/x^(k+2) reproduces the mass lost beyond
    the grid.  ``tolerances[k]`` is the threshold actually used for
    ``vanishing_count``: the caller's, or max(1e-6, 10 * truncation_bound[k])
    when the caller leaves it to the data.
    """

    moments: tuple[float, ...]
    truncation_bound: tuple[float, ...]
    tolerances: tuple[float, ...]
    vanishing_count: int


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit of a signal tail.

    ``exponent`` is p in |f(x)| ~ C / |x|^p (positive = decay);
    ``log_constant`` is ln C.  Two-sided fits average the two sides'
    exponents and report the worse r-squared.
    """

    exponent: float
    log_constant: float
    r_squared: float
    fit_window: tuple[float, float]
    side: str
    excluded_count: int


@dataclass(frozen=True)
class BoundCertificate:
    """Empirical constant for a decay inequality |Hf| <= C/(1+|x|^(n+1)).

    ``empirical_constant`` is sup |Hf(x)| (1+|x|^(n+1)) / norm_sum on the
    given grid; ``empirical_constant_doubled`` repeats the computation on a
    zero-extended, span-doubled grid (transform recomputed spectrally).
    ``stable`` means the constant moved by less than 5% either way under
    doubling: a genuine tail of lower order than asserted makes it grow
    roughly linearly with span, and a grid that cuts psi short makes it
    shrink.
    """

    theorem: str
    norm_bundle: dict[str, float]
    empirical_constant: float
    empirical_constant_doubled: float
    stable: bool


@dataclass(frozen=True)
class SobolevEstimate:
    """Spectral Sobolev norms over a gamma grid at two resolutions.

    ``stable[k]`` marks gammas whose norm moved by less than 10% between the
    full grid and its 2x-coarsened subsample.  ``smoothness_order`` is the
    largest n for which some stable gamma exceeds n + 1/2 (0 when no gamma
    above 1/2 is stable).
    """

    gammas: tuple[float, ...]
    norms: tuple[float, ...]
    norms_coarse: tuple[float, ...]
    stable: tuple[bool, ...]
    smoothness_order: int


def _weighted_signal(f: SampledSignal, power: int) -> SampledSignal:
    """x^power * f, with ``pow`` run only on the nonzero slice of f.

    Outside that slice f is +-0.0, so the product is a signed zero: the sign
    of x for an odd power, times the sign of f, which ``x * v`` (odd) or
    ``1.0 * v`` (even) gives without ``pow``.  An f that is nonzero at
    both ends (nothing to skip) or nowhere, or a power whose |x|^power
    overflows, takes ``x ** power * v`` on the whole grid, where 0 * inf
    is NaN (or raises under ``np.errstate``).
    """
    v = f.values
    nonzero = v != 0.0
    lo, hi = int(nonzero.argmax()), v.size - int(nonzero[::-1].argmax())
    # ``pow`` is monotone in |x|, so the first and last abscissas decide
    # whether |x|^power overflows
    with np.errstate(over="ignore"):
        ends = np.abs(np.array([f.grid.x_min, f.grid.x_max])) ** power
    if not nonzero[lo] or hi - lo == v.size or not np.isfinite(ends).all():
        return SampledSignal(f.grid, f.x() ** power * v)
    x = f.x()
    inner = x[lo:hi] ** power * v[lo:hi]
    out = np.multiply(x if power % 2 else 1.0, v, out=x)
    out[lo:hi] = inner
    return SampledSignal(f.grid, out)


def moments(f: SampledSignal, k_max: int, tolerance: float | None = None) -> MomentReport:
    """Trapezoid moments of orders 0..k_max with truncation-aware tolerances."""
    k_max = check_integer(k_max, "k_max", 0)
    tolerance = None if tolerance is None else check_real(tolerance, "tolerance", 0.0)
    x = f.x()
    edge_x = max(abs(x[0]), abs(x[-1]))
    edge_f = max(abs(f.values[0]), abs(f.values[-1]))
    span = f.grid.span
    ms, bounds, tols = [], [], []
    for k in range(k_max + 1):
        ms.append(integrate(_weighted_signal(f, k)))
        bound = edge_x ** k * edge_f * span
        bounds.append(bound)
        tols.append(tolerance if tolerance is not None else max(1e-6, 10.0 * bound))
    count = 0
    for m, tol in zip(ms, tols):
        if abs(m) < tol:
            count += 1
        else:
            break
    return MomentReport(
        moments=tuple(ms),
        truncation_bound=tuple(bounds),
        tolerances=tuple(tols),
        vanishing_count=count,
    )


def _fit_one_side(x: np.ndarray, v: np.ndarray, lo: float, hi: float, noise_floor: float):
    inside = (np.abs(x) >= lo) & (np.abs(x) <= hi)
    n_window = int(inside.sum())
    if n_window == 0:
        raise FitWindowError(f"window [{lo}, {hi}] contains no grid points on this side")
    mag = np.abs(v[inside])
    usable = mag > max(noise_floor, 0.0)
    excluded = n_window - int(usable.sum())
    if usable.sum() < 8 or excluded * 2 > n_window:
        raise FitWindowError(
            f"only {int(usable.sum())} of {n_window} window points usable "
            f"(need >= 8, and at most half may be skipped)"
        )
    lx = np.log(np.abs(x[inside][usable]))
    ly = np.log(mag[usable])
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    pred = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return -float(slope), float(intercept), r2, excluded


def fit_decay(f: SampledSignal, window: tuple[float, float], side: str = "two_sided") -> DecayFit:
    """Fit ln|f| against ln|x| over ``window`` (in |x|) on the requested side.

    Points with |f| exactly zero or below the rounding-noise floor are
    skipped and counted in ``excluded_count``; the fit errors out if fewer
    than 8 points survive or more than half the window is skipped.
    """
    try:
        lo, hi = (check_real(v, "window end") for v in window)
    except (TypeError, ValueError):
        raise FitWindowError(f"window must be two numbers lo, hi, got {window!r}") from None
    if not (0.0 < lo < hi):
        raise FitWindowError(f"window must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    if side not in ("left", "right", "two_sided"):
        raise InvalidParameterError(f"unknown side {side!r}")
    x = f.x()
    if side in ("right", "two_sided") and hi > x[-1] + 0.5 * f.grid.step:
        raise FitWindowError(f"window reaches {hi} but grid ends at {x[-1]}")
    if side in ("left", "two_sided") and -hi < x[0] - 0.5 * f.grid.step:
        raise FitWindowError(f"window reaches {-hi} but grid starts at {x[0]}")
    noise = NOISE_FLOOR_FACTOR * sup_norm(f)
    masks = [mask for s, mask in (("right", x > 0), ("left", x < 0)) if side in (s, "two_sided")]
    e, c, r2, ex = zip(*(_fit_one_side(x[m], f.values[m], lo, hi, noise) for m in masks))
    # (first + last) / 2 is the mean over two sides and exactly the value of one
    return DecayFit(exponent=(e[0] + e[-1]) / 2, log_constant=(c[0] + c[-1]) / 2,
                    r_squared=min(r2), fit_window=(lo, hi), side=side, excluded_count=sum(ex))


def _require_same_grid(f: SampledSignal, g: SampledSignal, what: str) -> None:
    """Raise unless ``f`` and ``g`` share a grid: equal counts, and first and
    last abscissas within ``GRID_TOLERANCE`` step, as the CSV reader checks."""
    a, b = f.grid, g.grid
    tol = GRID_TOLERANCE * a.step
    if a.count != b.count or abs(a.x_min - b.x_min) > tol or abs(a.x_max - b.x_max) > tol:
        raise GridMismatchError(
            f"{what} are on different grids: {a.count} samples on "
            f"[{a.x_min}, {a.x_max}] and {b.count} on [{b.x_min}, {b.x_max}]"
        )


def _norm_bundle(psi: SampledSignal, n: int) -> dict[str, float]:
    bundle = {
        "mixed(f)": mixed_norm(psi),
        f"mixed(x^{n + 1} f)": mixed_norm(_weighted_signal(psi, n + 1)),
    }
    if n >= 1:
        bundle[f"l1(x^{n} f)"] = l1_norm(_weighted_signal(psi, n))
    return bundle


def _empirical_constant(hpsi: SampledSignal, n: int, norm_sum: float) -> float:
    """max |Hpsi| (1 + |x|^(n+1)) over the grid, divided by ``norm_sum``,
    computed in place in one abscissa buffer."""
    t = hpsi.x()
    np.abs(t, out=t)
    t **= n + 1
    t += 1.0
    t *= np.abs(hpsi.values)
    return float(np.max(t) / norm_sum)


def _zero_extend_double_span(f: SampledSignal) -> SampledSignal:
    g = f.grid
    left = (g.count - 1) // 2
    grid2 = Grid(g.x_min - left * g.step, g.step, 2 * g.count - 1)
    return SampledSignal(grid2, np.pad(f.values, (left, g.count - 1 - left)))


def theorem_certificate(psi: SampledSignal, hpsi: SampledSignal, n: int) -> BoundCertificate:
    """Certify |H psi| <= C (1+|x|^(n+1))^-1 * (norm sum) empirically.

    n = 0 exercises the plain integrable-and-differentiable bound; n >= 1
    additionally assumes n vanishing moments, which the caller is
    responsible for.  The stability probe zero-extends psi to double the
    span and recomputes the transform with the spectral engine: smooth
    inputs whose tail genuinely matches the asserted order keep the
    constant flat, while an undersized decay (a scaling function probed
    with n >= 1) blows it up roughly linearly.  ``psi`` and ``hpsi`` must
    share a grid (:class:`GridMismatchError` otherwise).  A psi the grid
    cuts short, with an edge sample above 1e-4 of its sup, is refused
    (:class:`GridTooNarrowError`): zero-extending it would certify a
    constant for a signal that was never sampled.  So is an all-zero
    ``psi`` (:class:`InvalidParameterError`).
    """
    n = check_integer(n, "n", 0)
    _require_same_grid(psi, hpsi, "psi and hpsi")
    edge = max(abs(psi.values[0]), abs(psi.values[-1]))
    if edge > _EDGE_FRACTION * np.max(np.abs(psi.values)):
        raise GridTooNarrowError(
            f"psi is {edge:.2e} at the grid edge, more than {_EDGE_FRACTION:g} of its sup; "
            "widen the grid so the certificate sees all of psi"
        )
    bundle = _norm_bundle(psi, n)
    norm_sum = float(sum(bundle.values()))
    if norm_sum == 0.0:
        raise InvalidParameterError("psi is zero on the grid; the certificate divides by its norms")
    c1 = _empirical_constant(hpsi, n, norm_sum)

    psi2 = _zero_extend_double_span(psi)
    hpsi2 = hilbert_spectral(psi2)
    bundle2 = _norm_bundle(psi2, n)
    c2 = _empirical_constant(hpsi2, n, float(sum(bundle2.values())))

    return BoundCertificate(
        theorem="T1" if n == 0 else f"T2({n})",
        norm_bundle=bundle,
        empirical_constant=c1,
        empirical_constant_doubled=c2,
        stable=bool(abs(c2 - c1) < 0.05 * c1),
    )


def tail_limit(f: SampledSignal, hf: SampledSignal, x_probe: float) -> tuple[float, float]:
    """Probe x*Hf(x) against its limit, integral(f)/pi.

    ``x_probe`` is snapped to the nearest grid point and must lie well
    outside the support of f for the comparison to mean anything (the limit
    is the leading 1/x coefficient of the tail of Hf).  ``f`` and ``hf``
    must share a grid (:class:`GridMismatchError` otherwise).
    """
    _require_same_grid(f, hf, "f and hf")
    idx = f.grid.index_of(x_probe)
    x_snapped = f.grid.x_min + idx * f.grid.step
    probe_value = x_snapped * float(hf.values[idx])
    predicted = integrate(f) / math.pi
    return probe_value, predicted


def _sobolev_norms(f: SampledSignal, gammas) -> list[float]:
    """:func:`sobolev_norm` of ``f`` for every gamma, from one spectrum."""
    s = dft(f)
    dw = 2.0 * np.pi / (f.grid.count * f.grid.step)
    weight_base = 1.0 + s.frequencies ** 2
    power = np.abs(s.values) ** 2
    return [float(np.sqrt(np.sum(weight_base ** g * power) * dw / (2.0 * np.pi)))
            for g in gammas]


def sobolev_norm(f: SampledSignal, gamma: float) -> float:
    """Spectral Sobolev norm: (sum (1+w^2)^gamma |f^(w)|^2 dw/2pi)^(1/2)."""
    return _sobolev_norms(f, [check_real(gamma, "gamma", 0.0)])[0]


def _coarsen(f: SampledSignal) -> SampledSignal:
    g = f.grid
    values = f.values[::2]
    return SampledSignal(Grid(g.x_min, 2.0 * g.step, len(values)), values)


def smoothness_profile(f: SampledSignal, gamma_grid: Iterable[float]) -> SobolevEstimate:
    """Sobolev norms over a gamma grid with a 2x-coarsening stability probe.

    A sampled signal can never literally have an infinite norm, so
    membership in the gamma-smoothness class is read off stability: norms
    that keep growing as resolution increases are flagged unstable.
    """
    iterable = isinstance(gamma_grid, Iterable)  # a string is, and its characters are refused
    gammas = [check_real(g, "gamma", 0.0) for g in gamma_grid] if iterable else []
    if not gammas:
        raise InvalidParameterError(f"gamma_grid needs one or more numbers, got {gamma_grid!r}")
    if f.grid.count < 3:
        raise GridTooNarrowError("the 2x-coarsening probe needs at least 3 samples")
    coarse = _coarsen(f)
    norms = _sobolev_norms(f, gammas)
    norms_c = _sobolev_norms(coarse, gammas)
    stable = [abs(nf - nc) < 0.10 * nf if nf > 0 else True
              for nf, nc in zip(norms, norms_c)]
    # the largest certified n; a signal with no stable gamma above 1/2
    # reports 0 (nothing beyond plain square-integrability)
    best_stable = max((g for g, s in zip(gammas, stable) if s), default=0.0)
    order = max(0, math.ceil(best_stable - 0.5) - 1)
    return SobolevEstimate(
        gammas=tuple(gammas),
        norms=tuple(norms),
        norms_coarse=tuple(norms_c),
        stable=tuple(stable),
        smoothness_order=order,
    )


def bedrosian_residual(window: WaveletSpec, grid: Grid) -> float:
    """Sup distance between H[w(x)cos(omega0 x)] and w(x)sin(omega0 x).

    ``window`` is a modulated window (``wavelets.make_modulated_window``).
    Measured over the central half of the grid with the spectral engine.
    Vanishes (to sampling/truncation error) when the window is bandlimited
    below omega0; order-one when the modulation identity's hypothesis is
    violated.  Rejects grids whose edges still carry more than 1e-4 of the
    window envelope.
    """
    if not (isinstance(window, WaveletSpec) and window.kind == "modulated_window"):
        raise InvalidParameterError(
            f"the Bedrosian check needs a modulated window, got {window!r}"
        )
    x = grid.abscissas()
    # the unmodulated window: cos(0*x) is exactly 1
    w = evaluate(replace(window, omega0=0.0), x)
    envelope_edge = max(w[0], w[-1])
    if envelope_edge > _EDGE_FRACTION:
        raise GridTooNarrowError(
            f"window envelope is {envelope_edge:.2e} at the grid edge; "
            "widen the grid so truncation cannot masquerade as a residual"
        )
    transformed = hilbert_spectral(sample(window, grid))
    target = w * np.sin(window.omega0 * x)
    center = 0.5 * (x[0] + x[-1])
    central = np.abs(x - center) <= 0.25 * grid.span
    return float(np.max(np.abs(transformed.values - target)[central]))


def partition_deviation(spec: WaveletSpec | PiecewiseConstant, k_range: int,
                        transformed: bool, grid: Grid) -> SampledSignal:
    """Deviation of sum_{|k| <= K} g(x - k) from 1 on the grid.

    g is the scaling function itself or its spectral Hilbert transform.
    Only scaling-function generators are accepted (a B-spline, or a step
    function with one level, such as a box): the sum is only expected to be
    flat for partition-of-unity generators, and the point of the
    transformed variant is to show exactly that flatness being destroyed.
    """
    if isinstance(spec, WaveletSpec):
        if spec.kind != "bspline_scaling":
            raise InvalidParameterError(
                f"partition sums need a scaling-function generator, got {spec.kind!r}"
            )
    elif not isinstance(spec, PiecewiseConstant):
        raise InvalidParameterError("unsupported generator for a partition sum")
    elif len(spec.levels) != 1:
        raise InvalidParameterError(
            "partition sums need a scaling-function generator, got a step function "
            f"with {len(spec.levels)} levels"
        )
    k_range = check_integer(k_range, "k_range", 0)
    if not isinstance(transformed, (bool, np.bool_)):
        raise InvalidParameterError(f"transformed must be a bool, got {transformed!r}")
    x = grid.abscissas()
    total = np.zeros(grid.count)
    if not transformed:
        # only the translates whose support meets the grid add anything
        lo, hi = spec.support
        for k in range(math.ceil(max(x[0] - hi, -k_range)),
                       math.floor(min(x[-1] - lo, k_range)) + 1):
            # the samples in [k + lo, k + hi], and one more on each side
            # for rounding; the translate is +0.0 on every other sample
            i0 = max(int(np.searchsorted(x, k + lo)) - 1, 0)
            i1 = int(np.searchsorted(x, k + hi, side="right")) + 1
            total[i0:i1] += evaluate(spec, x[i0:i1] - k)
        return SampledSignal(grid, total - 1.0)
    shift = 1.0 / grid.step
    if abs(shift - round(shift)) > GRID_TOLERANCE:
        raise InvalidParameterError(
            "transformed partition sums need integer shifts to be grid-aligned: "
            f"1/step = {shift} is not an integer"
        )
    shift = int(round(shift))
    g = hilbert_spectral(sample(spec, grid)).values
    # a copy shifted by count samples or more lies entirely outside the grid
    reach = min(k_range, (grid.count - 1) // shift)
    padded = np.pad(g, reach * shift)
    for k in range(-reach, reach + 1):
        start = (reach - k) * shift
        total += padded[start:start + grid.count]
    return SampledSignal(grid, total - 1.0)
