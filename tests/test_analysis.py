"""Moment reports, decay fits, certificates, Sobolev profiles, Bedrosian,
tail limits, and partition sums."""

import math
import time

import numpy as np
import pytest

from hwl import analysis
from hwl.errors import (
    FitWindowError, GridMismatchError, GridTooNarrowError, InvalidParameterError,
)
from hwl.hilbert import hilbert_box_closed_form, hilbert_spectral
from hwl.numerics import Grid, SampledSignal, dft, integrate, l2_norm
from hwl.wavelets import (
    DEGREE_CAP,
    evaluate,
    make_box,
    make_bspline_scaling,
    make_haar_scaling,
    make_haar_wavelet,
    make_modulated_window,
    make_spline_wavelet,
    sample,
)

from conftest import STEP, make_grid, rng, traced_peak_mib

GAMMA_GRID = (0.0, 0.75, 1.5, 2.0, 2.75, 3.0, 3.25, 4.0)


def haar_closed_form_signal(grid) -> SampledSignal:
    """Closed-form transform of the Haar wavelet sampled on a grid; the three
    singular points (if on-grid) are set to 0 and excluded by callers."""
    x = grid.abscissas()
    dist = np.min(np.abs(x[:, None] - np.array([-1.0, 0.0, 1.0])), axis=1)
    vals = np.zeros_like(x)
    ok = dist > 1e-12
    vals[ok] = hilbert_box_closed_form(make_haar_wavelet(), x[ok])
    return SampledSignal(grid, vals)


class TestMoments:
    def test_haar(self):
        g = make_grid(-4.0, 4.0)
        rep = analysis.moments(sample(make_haar_wavelet(), g), 1, tolerance=1e-2)
        assert abs(rep.moments[0]) < STEP
        assert rep.moments[1] == pytest.approx(-1.0, abs=1e-2)
        assert rep.vanishing_count == 1

    def test_spline_wavelet_degree3(self, grid_64):
        rep = analysis.moments(sample(make_spline_wavelet(3), grid_64), 4, tolerance=1e-6)
        assert all(abs(m) < 1e-6 for m in rep.moments[:4])
        assert abs(rep.moments[4]) > 1e-6  # the first non-vanishing moment
        assert rep.vanishing_count == 4

    def test_transformed_haar_zero_mean_within_tail_budget(self, grid_64):
        # the grid truncates a 1/x^2 tail, so the zeroth moment can only be
        # trusted to ~ 2/(pi*span/2)
        hf = haar_closed_form_signal(grid_64)
        rep = analysis.moments(hf, 0)
        assert abs(rep.moments[0]) <= 2.0 / (np.pi * 64.0)
        # the recorded truncation heuristic reproduces that tail budget
        assert rep.truncation_bound[0] == pytest.approx(2.0 / (np.pi * 64.0), rel=0.05)

    def test_preservation_under_transform(self, grid_64):
        for d in range(4):
            f = sample(make_spline_wavelet(d), grid_64)
            hf = hilbert_spectral(f)
            before = analysis.moments(f, d).vanishing_count
            after = analysis.moments(hf, d).vanishing_count
            assert after >= before == d + 1, f"degree {d}"

    def test_negative_order_rejected(self, grid_8):
        f = sample(make_haar_wavelet(), grid_8)
        with pytest.raises(InvalidParameterError):
            analysis.moments(f, -1)

    def test_fractional_order_refused(self, grid_8):
        f = sample(make_haar_wavelet(), grid_8)
        with pytest.raises(InvalidParameterError, match="integer"):
            analysis.moments(f, 2.5)

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, 0.0, math.nan, math.inf])
    def test_bad_tolerance_refused(self, grid_8, tolerance):
        # these used to give vanishing_count 0 (or, for inf, every order)
        # silently; at 0.0 because |m| < 0 holds for no moment, 0.0 included
        f = sample(make_haar_wavelet(), grid_8)
        with pytest.raises(InvalidParameterError, match="tolerance"):
            analysis.moments(f, 2, tolerance=tolerance)


class TestSpectralMomentEquivalence:
    def test_dft_flat_at_dc_up_to_vanishing_order(self, grid_16):
        # finite-difference derivatives of |psi^(w)| at DC stay below the
        # scale set by the first non-vanishing moment m4: |FD_k| < m4*dw^(4-k)
        # for k < 4, while FD_4 lands on m4 itself
        f = sample(make_spline_wavelet(3), grid_16)
        m4 = abs(integrate(SampledSignal(grid_16, grid_16.abscissas() ** 4 * f.values)))
        s = dft(f)
        mags = np.abs(s.values)
        dw = 2 * np.pi / (grid_16.count * grid_16.step)
        for k in range(4):
            total = sum((-1) ** j * math.comb(k, j) * mags[(k // 2 - j) % len(mags)]
                        for j in range(k + 1))
            assert abs(total) / dw ** k < m4 * dw ** (4 - k), f"order {k}"
        total4 = sum((-1) ** j * math.comb(4, j) * mags[(2 - j) % len(mags)]
                     for j in range(5))
        assert abs(total4) / dw ** 4 > 0.5 * m4


class TestFitDecay:
    def test_known_power_law(self, grid_64):
        x = grid_64.abscissas()
        f = SampledSignal(grid_64, 1.0 / (1.0 + x ** 2))
        fit = analysis.fit_decay(f, (4.0, 64.0))
        assert fit.exponent == pytest.approx(2.0, abs=0.05)
        assert fit.r_squared > 0.999

    def test_transformed_haar(self, grid_64):
        fit = analysis.fit_decay(haar_closed_form_signal(grid_64), (4.0, 64.0))
        assert fit.exponent == pytest.approx(2.0, abs=0.1)

    def test_transformed_scaling_function(self, grid_64):
        phi = sample(make_bspline_scaling(3), grid_64)
        fit = analysis.fit_decay(hilbert_spectral(phi), (8.0, 48.0))
        assert fit.exponent == pytest.approx(1.0, abs=0.1)

    def test_scale_equivariance(self, grid_64):
        x = grid_64.abscissas()
        f = SampledSignal(grid_64, 1.0 / (1.0 + np.abs(x) ** 3))
        a = analysis.fit_decay(f, (4.0, 32.0))
        b = analysis.fit_decay(SampledSignal(grid_64, -17.5 * f.values), (4.0, 32.0))
        assert b.exponent == pytest.approx(a.exponent, abs=1e-12)
        assert b.r_squared == pytest.approx(a.r_squared, abs=1e-12)

    @pytest.mark.parametrize("window", [(3.0, 12.0, 99.0), (3.0,), 3.0, ("a", "b")])
    def test_window_must_be_two_numbers(self, grid_64, window):
        # a third number was dropped and fit [3, 12]; one number raised IndexError
        x = grid_64.abscissas()
        f = SampledSignal(grid_64, 1.0 / (1.0 + x ** 2))
        with pytest.raises(FitWindowError, match="two numbers"):
            analysis.fit_decay(f, window)

    def test_window_outside_grid(self, grid_8):
        f = SampledSignal(grid_8, np.ones(grid_8.count))
        with pytest.raises(FitWindowError):
            analysis.fit_decay(f, (4.0, 64.0))

    # a window between two samples; an unknown side; a grid that stops
    # short on the left only
    @pytest.mark.parametrize("grid, window, side, error, match", [
        (Grid(-8.0, 1.0, 17), (2.2, 2.8), "right", FitWindowError, "no grid points"),
        (Grid(-8.0, 1.0, 17), (2.0, 6.0), "both", InvalidParameterError, "unknown side"),
        (Grid(-8.0, 0.125, 577), (4.0, 32.0), "two_sided", FitWindowError,
         "grid starts at -8"),
        (Grid(-8.0, 0.125, 577), (4.0, 32.0), "left", FitWindowError, "grid starts at -8"),
    ], ids=["between-samples", "unknown-side", "past-the-left-end", "left-past-the-end"])
    def test_window_refusals(self, grid, window, side, error, match):
        f = SampledSignal(grid, 1.0 / (1.0 + grid.abscissas() ** 2))
        with pytest.raises(error, match=match):
            analysis.fit_decay(f, window, side=side)

    def test_too_few_usable_points(self, grid_64):
        f = SampledSignal(grid_64, np.zeros(grid_64.count))
        with pytest.raises(FitWindowError):
            analysis.fit_decay(f, (4.0, 64.0))

    def test_sides(self, grid_64):
        x = grid_64.abscissas()
        f = SampledSignal(grid_64, 1.0 / (1.0 + x ** 4))
        left = analysis.fit_decay(f, (4.0, 32.0), side="left")
        right = analysis.fit_decay(f, (4.0, 32.0), side="right")
        assert left.exponent == pytest.approx(right.exponent, abs=1e-9)

    def test_decay_monotone_in_degree(self, grid_32):
        exps = []
        for d in range(4):
            f = sample(make_spline_wavelet(d), grid_32)
            exps.append(analysis.fit_decay(hilbert_spectral(f), (3.0, 12.0)).exponent)
        assert all(a <= b + 1e-9 for a, b in zip(exps, exps[1:]))


class TestCertificates:
    def test_wavelet_full_order_stable(self, grid_16):
        psi = sample(make_spline_wavelet(3), grid_16)
        cert = analysis.theorem_certificate(psi, hilbert_spectral(psi), 4)
        assert cert.theorem == "T2(4)"
        assert cert.stable
        assert np.isfinite(cert.empirical_constant)
        assert set(cert.norm_bundle) == {"mixed(f)", "mixed(x^5 f)", "l1(x^4 f)"}

    def test_scaling_function_order_zero_stable(self, grid_16):
        phi = sample(make_bspline_scaling(3), grid_16)
        cert = analysis.theorem_certificate(phi, hilbert_spectral(phi), 0)
        assert cert.theorem == "T1"
        assert cert.stable

    def test_scaling_function_order_one_unstable(self, grid_16):
        # nonzero mean forces a 1/x tail, so |Hf|(1+x^2) grows with the span
        phi = sample(make_bspline_scaling(3), grid_16)
        cert = analysis.theorem_certificate(phi, hilbert_spectral(phi), 1)
        assert not cert.stable
        assert cert.empirical_constant_doubled > 1.5 * cert.empirical_constant

    def test_negative_order_rejected(self, grid_16):
        phi = sample(make_bspline_scaling(3), grid_16)
        with pytest.raises(InvalidParameterError):
            analysis.theorem_certificate(phi, phi, -1)

    def test_fractional_order_refused(self, grid_16):
        phi = sample(make_bspline_scaling(3), grid_16)
        with pytest.raises(InvalidParameterError, match="integer"):
            analysis.theorem_certificate(phi, phi, 1.5)

    @pytest.mark.parametrize("spec, lo, hi", [
        (make_modulated_window("gauss", 0.0, sigma=4.0), -8.0, 8.0),
        (make_box(-10.0, 10.0), -4.0, 4.0),
    ], ids=["gauss-cut", "box-cut"])
    def test_constant_that_shrinks_under_doubling_is_not_stable(self, spec, lo, hi):
        # a grid that cuts psi short (edge samples 0.135 and 1) halved the
        # constant under doubling (0.1735 -> 0.0872 and 0.4776 -> 0.0651),
        # which a one-sided test called stable; such a psi gets no constant
        psi = sample(spec, make_grid(lo, hi, 2.0 ** -6))
        with pytest.raises(GridTooNarrowError, match="at the grid edge"):
            analysis.theorem_certificate(psi, hilbert_spectral(psi), 0)

    @pytest.mark.parametrize("half_width", [64.0, 128.0])
    @pytest.mark.parametrize("degree", range(6))
    def test_spline_wavelets_are_certified_on_any_grid_that_holds_them(self, degree,
                                                                      half_width):
        # exactly 0 at the grid's edges, so the edge check passes
        psi = sample(make_spline_wavelet(degree), make_grid(-half_width, half_width, 2.0 ** -6))
        cert = analysis.theorem_certificate(psi, hilbert_spectral(psi), degree)
        assert cert.stable

    def test_edge_at_the_threshold_is_certified(self):
        # 1e-4 of the sup at an edge is the most the certificate accepts
        psi = sample(make_spline_wavelet(3), make_grid(-16.0, 16.0, 2.0 ** -6))
        peak = float(np.max(np.abs(psi.values)))
        edged = psi.values.copy()
        edged[0] = edged[-1] = 1e-4 * peak
        analysis.theorem_certificate(SampledSignal(psi.grid, edged), psi, 4)
        edged[-1] = 1.01e-4 * peak
        with pytest.raises(GridTooNarrowError):
            analysis.theorem_certificate(SampledSignal(psi.grid, edged), psi, 4)

    @pytest.mark.parametrize("degree", range(6))
    def test_spline_wavelets_stable_at_their_order(self, degree):
        psi = sample(make_spline_wavelet(degree), make_grid(-64.0, 64.0, 2.0 ** -6))
        cert = analysis.theorem_certificate(psi, hilbert_spectral(psi), degree)
        assert cert.stable

    def test_zero_psi_refused(self):
        # its norms are all zero, and the constant was 0/0 = NaN with two warnings
        z = SampledSignal(Grid(-4.0, 0.0625, 129), np.zeros(129))
        with pytest.raises(InvalidParameterError, match="psi is zero"):
            analysis.theorem_certificate(z, z, 2)

    @pytest.mark.parametrize("spec, n", [
        (make_spline_wavelet(3), 4), (make_spline_wavelet(2), 0), (make_bspline_scaling(3), 1),
        (make_haar_wavelet(), 1),
    ], ids=["cubic-4", "quadratic-0", "scaling-1", "haar-1"])
    def test_fields_are_those_of_the_old_order(self, spec, n):
        # the doubled grid's norms, taken before its transform, and psi2
        # dropped before the constant give every field's bits unchanged
        psi = sample(spec, make_grid(-32.0, 32.0, 2.0 ** -6))
        hpsi = hilbert_spectral(psi)
        cert = analysis.theorem_certificate(psi, hpsi, n)
        bundle = analysis._norm_bundle(psi, n)
        c1 = analysis._empirical_constant(hpsi, n, float(sum(bundle.values())))
        psi2 = analysis._zero_extend_double_span(psi)
        hpsi2 = hilbert_spectral(psi2)
        bundle2 = analysis._norm_bundle(psi2, n)
        c2 = analysis._empirical_constant(hpsi2, n, float(sum(bundle2.values())))
        assert cert == analysis.BoundCertificate(
            theorem="T1" if n == 0 else f"T2({n})", norm_bundle=bundle,
            empirical_constant=c1, empirical_constant_doubled=c2,
            stable=bool(abs(c2 - c1) < 0.05 * c1))
        assert _bits([*cert.norm_bundle.values(), cert.empirical_constant,
                      cert.empirical_constant_doubled]) \
            .tobytes() == _bits([*bundle.values(), c1, c2]).tobytes()


def _weighted_reference(f, power):
    """x^power * f as one whole-grid expression: the reference for the
    sliced ``_weighted_signal``."""
    return f.x() ** power * f.values


def _constant_reference(hpsi, n, norm_sum):
    """The certificate's constant as one whole-grid expression, written
    out of place: the reference for ``_empirical_constant``."""
    x = hpsi.x()
    return float(np.max(np.abs(hpsi.values) * (1.0 + np.abs(x) ** (n + 1))) / norm_sum)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _raised(fn):
    """(type, message) of the floating-point error ``fn`` raises under the
    CLI's ``np.errstate``."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError) as info:
            fn()
    return type(info.value), str(info.value)


def _signed_zero_signal():
    """A cubic wavelet on a grid of negative abscissas only, negated (so its
    zeros are -0.0) and with every other zero set back to +0.0, so both
    signs of zero lie outside its nonzero slice."""
    grid = Grid(-12.0, 2.0 ** -6, 513)
    v = -sample(make_spline_wavelet(3), Grid(-4.0, 2.0 ** -6, 513)).values
    v[(v == 0.0) & (np.arange(v.size) % 2 == 0)] = 0.0
    assert np.signbit(v[v == 0.0]).any() and not np.signbit(v[v == 0.0]).all()
    return SampledSignal(grid, v)


class TestExactPowers:
    """The certificate's and the moments' powers of x, computed on fewer
    samples, match the whole-grid expressions bit for bit."""

    SIGNALS = {
        "compact": lambda: sample(make_spline_wavelet(3), make_grid(-16.0, 16.0)),
        "signed-zeros": _signed_zero_signal,
        # nonzero at the left end only: the slice starts at sample 0
        "left-edge": lambda: sample(make_spline_wavelet(3), Grid(1.0, 2.0 ** -6, 1025)),
        "all-zero": lambda: SampledSignal(make_grid(-4.0, 4.0), np.zeros(2049)),
        "dense": lambda: SampledSignal(make_grid(-2.0, 2.0), rng(5).normal(size=1025)),
    }

    @pytest.mark.parametrize("name", SIGNALS)
    @pytest.mark.parametrize("power", range(DEGREE_CAP + 3))
    def test_weighted_signal_bits(self, name, power):
        f = self.SIGNALS[name]()
        got = analysis._weighted_signal(f, power).values
        np.testing.assert_array_equal(_bits(got), _bits(_weighted_reference(f, power)))

    @pytest.fixture(scope="class")
    def hpsi_pairs(self, grid_16):
        psi = sample(make_spline_wavelet(3), grid_16)
        return {"compact": psi, "dense": hilbert_spectral(psi)}

    @pytest.mark.parametrize("name", ["compact", "dense", "flat"])
    @pytest.mark.parametrize("n", range(DEGREE_CAP + 2))
    def test_empirical_constant_bits(self, hpsi_pairs, grid_16, name, n):
        if name == "flat":
            # |h| (1 + |x|^(n+1)) is 1 up to rounding on every sample, so the
            # largest of them is decided in the last bits
            x = grid_16.abscissas()
            hpsi = SampledSignal(grid_16, 1.0 / (1.0 + np.abs(x) ** (n + 1)))
        else:
            hpsi = hpsi_pairs[name]
        got = analysis._empirical_constant(hpsi, n, 1.7)
        assert _bits(got) == _bits(_constant_reference(hpsi, n, 1.7))

    @pytest.mark.parametrize("n", [7, 11, 21])
    def test_candidates_keep_a_sample_the_approximation_ranks_lower(self, grid_16, n):
        # a regression guard against approximating |x|^k by k - 1
        # multiplications: at sample i that chain puts 1 + |x|^k at least
        # 2 ulps above 1 + pow(|x|, k); sample j sits at x = 1, its exact
        # value in between, so the chain would rank i first and the exact
        # expression ranks j
        k = n + 1
        a = np.abs(grid_16.abscissas())
        chain = a.copy()
        for _ in range(k - 1):
            chain *= a
        exact = 1.0 + a ** k
        gap = (1.0 + chain).view(np.int64) - exact.view(np.int64)
        i = int(np.argmax(gap))
        assert gap[i] >= 2
        v = np.zeros(grid_16.count)
        v[i] = 1.0
        v[grid_16.index_of(1.0)] = np.nextafter(exact[i], np.inf) / 2.0
        hpsi = SampledSignal(grid_16, v)
        want = np.nextafter(exact[i], np.inf)
        assert analysis._empirical_constant(hpsi, n, 1.0) == _constant_reference(hpsi, n, 1.0) == want

    @pytest.mark.parametrize("power", [400, 2])
    def test_weighted_signal_overflow_raises_as_before(self, power):
        # |x|^400 overflows at the ends of [-16, 16], |x|^2 at those of
        # [-1e200, 1e200]; the wavelet is nonzero on a few central samples
        grid = make_grid(-16.0, 16.0) if power == 400 else Grid(-1e200, 1e198, 2001)
        f = SampledSignal(grid, np.where(np.abs(np.arange(grid.count) - grid.count // 2) < 3,
                                         1.0, 0.0))
        assert _raised(lambda: analysis._weighted_signal(f, power)) == \
            _raised(lambda: _weighted_reference(f, power))

    @pytest.mark.parametrize("case", ["order-399", "huge-x", "huge-h", "all-zero"])
    def test_empirical_constant_overflow_raises_as_before(self, hpsi_pairs, case):
        hpsi, n, norm_sum = hpsi_pairs["dense"], 1, 1.0
        if case == "order-399":
            n = 399
        elif case == "huge-x":
            grid = Grid(-1e200, 1e198, 2001)
            hpsi = SampledSignal(grid, np.linspace(1.0, 2.0, grid.count))
        elif case == "huge-h":
            # the weights are at most 1 + 16^4, finite, but |h| times them is not
            hpsi = SampledSignal(hpsi.grid, np.full(hpsi.grid.count, 1e305))
            n = 3
        else:
            hpsi, norm_sum = SampledSignal(hpsi.grid, np.zeros(hpsi.grid.count)), 0.0
        assert _raised(lambda: analysis._empirical_constant(hpsi, n, norm_sum)) == \
            _raised(lambda: _constant_reference(hpsi, n, norm_sum))

    def test_certificate_memory(self):
        # the 2^18+1-sample cubic-wavelet pair of the CLI pipeline; the
        # certificate peaks at 16.0 MiB, set by the doubled grid's transform,
        # since the constant is computed in one abscissa buffer: 2 MiB of
        # margin.  Norms taken beside the doubled transform peaked at 20.0
        grid = Grid(-128.0, 2.0 ** -10, 2 ** 18 + 1)
        psi = sample(make_spline_wavelet(3), grid)
        hpsi = hilbert_spectral(psi)
        assert traced_peak_mib(lambda: analysis.theorem_certificate(psi, hpsi, 4)) < 18.0


class TestTailLimit:
    def test_box_probe(self):
        g = make_grid(-128.0, 128.0)
        box = make_box(0.0, 1.0)
        f = sample(box, g)
        x = g.abscissas()
        ok = (x != 0.0) & (x != 1.0)
        vals = np.zeros_like(x)
        vals[ok] = hilbert_box_closed_form(box, x[ok])
        probe, predicted = analysis.tail_limit(f, SampledSignal(g, vals), 100.0)
        assert probe == pytest.approx(100.0 * math.log(100 / 99) / math.pi, abs=1e-12)
        assert predicted == pytest.approx(1.0 / math.pi, abs=1e-3)
        assert abs(probe / predicted - 1.0) < 0.006

    def test_haar_probe_tends_to_zero(self):
        g = make_grid(-128.0, 128.0)
        f = sample(make_haar_wavelet(), g)
        probe, predicted = analysis.tail_limit(f, haar_closed_form_signal(g), 100.0)
        assert abs(probe) < 0.0035
        assert predicted == pytest.approx(0.0, abs=1e-3)

    def test_linearity_in_f(self):
        g = make_grid(-128.0, 128.0)
        box = make_box(0.0, 1.0)
        f2 = SampledSignal(g, 2.0 * sample(box, g).values)
        _, predicted = analysis.tail_limit(f2, f2, 100.0)
        assert predicted == pytest.approx(2.0 / math.pi, abs=2e-3)

    def test_probe_outside_grid(self, grid_8):
        f = sample(make_box(0.0, 1.0), grid_8)
        with pytest.raises(InvalidParameterError):
            analysis.tail_limit(f, f, 100.0)
        with pytest.raises(InvalidParameterError):
            analysis.tail_limit(f, f, math.inf)


class TestGridMismatch:
    """Analyses that combine two signals refuse signals on different grids."""

    @pytest.mark.parametrize("x_min,count", [
        (-32.0, 16385),              # the span doubled
        (-16.0 + STEP / 2, 8193),    # same count, half a step off
        (-16.0, 8192),               # one sample short
    ])
    def test_rejected(self, grid_16, x_min, count):
        psi = sample(make_spline_wavelet(3), grid_16)
        hpsi = hilbert_spectral(sample(make_spline_wavelet(3), Grid(x_min, STEP, count)))
        with pytest.raises(GridMismatchError):
            analysis.tail_limit(psi, hpsi, 10.0)
        with pytest.raises(GridMismatchError):
            analysis.theorem_certificate(psi, hpsi, 4)

    def test_rounding_offset_accepted(self, grid_16):
        # the CSV reader's own uniformity tolerance, 1e-9 step
        psi = sample(make_spline_wavelet(3), grid_16)
        g = Grid(grid_16.x_min + 1e-12 * STEP, STEP, grid_16.count)
        hpsi = SampledSignal(g, hilbert_spectral(psi).values)
        want = analysis.theorem_certificate(psi, hilbert_spectral(psi), 4)
        got = analysis.theorem_certificate(psi, hpsi, 4)
        assert got.empirical_constant == pytest.approx(want.empirical_constant, rel=1e-12)
        assert analysis.tail_limit(psi, hpsi, 10.0) == pytest.approx(
            analysis.tail_limit(psi, hilbert_spectral(psi), 10.0), rel=1e-12)


class TestSobolev:
    def test_gamma_zero_is_l2(self, grid_16):
        f = sample(make_spline_wavelet(3), grid_16)
        assert analysis.sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-10)

    def test_transform_preserves_all_norms(self, grid_16):
        # same-grid spectral transform only flips phases bin by bin
        f = sample(make_spline_wavelet(3), grid_16)
        hf = hilbert_spectral(f, pad_factor=1)
        for gamma in (0.0, 1.0, 2.0, 3.0, 3.25):
            a = analysis.sobolev_norm(f, gamma)
            b = analysis.sobolev_norm(hf, gamma)
            assert b == pytest.approx(a, rel=1e-10), f"gamma {gamma}"

    def test_monotone_in_gamma(self, grid_16):
        f = sample(make_spline_wavelet(2), grid_16)
        norms = [analysis.sobolev_norm(f, g) for g in GAMMA_GRID]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_negative_gamma_rejected(self, grid_16):
        f = sample(make_spline_wavelet(2), grid_16)
        with pytest.raises(InvalidParameterError):
            analysis.sobolev_norm(f, -0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, grid_16, gamma):
        f = sample(make_spline_wavelet(2), grid_16)
        with pytest.raises(InvalidParameterError, match="finite"):
            analysis.sobolev_norm(f, gamma)
        with pytest.raises(InvalidParameterError, match="finite"):
            analysis.smoothness_profile(f, [1.0, gamma])

    def test_profile_cubic_wavelet(self, grid_16):
        f = sample(make_spline_wavelet(3), grid_16)
        est = analysis.smoothness_profile(f, GAMMA_GRID)
        assert est.smoothness_order == 2
        assert est.stable[GAMMA_GRID.index(3.25)]
        assert not est.stable[GAMMA_GRID.index(4.0)]

    def test_profile_is_sobolev_norm_per_gamma(self, grid_16, monkeypatch):
        # one spectrum per resolution, and the same arithmetic: bit-identical
        f = sample(make_spline_wavelet(3), grid_16)
        coarse = analysis._coarsen(f)
        calls = []
        monkeypatch.setattr(analysis, "dft", lambda g: calls.append(g) or dft(g))
        est = analysis.smoothness_profile(f, GAMMA_GRID)
        assert len(calls) == 2
        assert list(est.norms) == [analysis.sobolev_norm(f, g) for g in GAMMA_GRID]
        assert list(est.norms_coarse) == [analysis.sobolev_norm(coarse, g) for g in GAMMA_GRID]

    def test_profile_transform_matches(self, grid_16):
        f = sample(make_spline_wavelet(3), grid_16)
        hf = hilbert_spectral(f, pad_factor=1)
        assert analysis.smoothness_profile(hf, GAMMA_GRID).smoothness_order == 2

    def test_profile_haar(self, grid_16):
        f = sample(make_haar_wavelet(), grid_16)
        est = analysis.smoothness_profile(f, GAMMA_GRID)
        assert est.smoothness_order == 0
        assert not any(s for g, s in zip(est.gammas, est.stable) if g > 0.5)

    def test_profile_empty_gamma_grid(self, grid_16):
        f = sample(make_haar_wavelet(), grid_16)
        with pytest.raises(InvalidParameterError):
            analysis.smoothness_profile(f, [])

    @pytest.mark.parametrize("gamma_grid", ["12", 2.0, None], ids=repr)
    def test_profile_gamma_grid_of_numbers(self, grid_16, gamma_grid):
        # "12" gave the gammas (1.0, 2.0), and 2.0 raised a bare TypeError
        f = sample(make_haar_wavelet(), grid_16)
        with pytest.raises(InvalidParameterError, match="gamma"):
            analysis.smoothness_profile(f, gamma_grid)
        assert analysis.smoothness_profile(f, (np.int64(1), np.float32(0.5))).gammas == (1.0, 0.5)

    def test_profile_needs_three_samples(self):
        # the coarsened copy of two samples would be a one-sample grid
        f = SampledSignal(Grid(0.0, 1.0, 2), [0.0, 0.0])
        with pytest.raises(GridTooNarrowError):
            analysis.smoothness_profile(f, [0.0])


class TestBedrosian:
    def test_bandlimited_window_above_band(self):
        g = make_grid(-128.0, 128.0, 2.0 ** -7)
        assert analysis.bedrosian_residual(make_modulated_window("sinc2", 3.0), g) < 1e-4

    def test_hypothesis_violated_inside_band(self):
        g = make_grid(-128.0, 128.0, 2.0 ** -7)
        assert analysis.bedrosian_residual(make_modulated_window("sinc2", 1.0), g) > 1e-2

    def test_zero_frequency_degenerates_to_sup(self):
        g = make_grid(-128.0, 128.0, 2.0 ** -7)
        res = analysis.bedrosian_residual(make_modulated_window("sinc2", 0.0), g)
        w = sample(make_modulated_window("sinc2", 0.0), g)
        hw = hilbert_spectral(w)
        x = g.abscissas()
        central = np.abs(x) <= 64.0
        assert res == pytest.approx(float(np.max(np.abs(hw.values[central]))), abs=1e-12)

    def test_gauss_window_passes_when_wide(self):
        g = make_grid(-32.0, 32.0, 2.0 ** -7)
        assert analysis.bedrosian_residual(make_modulated_window("gauss", 4.0, sigma=1.0), g) < 1e-3

    def test_narrow_grid_rejected(self):
        g = make_grid(-4.0, 4.0)
        with pytest.raises(GridTooNarrowError):
            analysis.bedrosian_residual(make_modulated_window("gauss", 3.0, sigma=1.0), g)

    def test_gauss_residual_bits(self):
        # the residual the check gave when it took (kind, omega0, grid, sigma)
        g = Grid(-64.0, 0.0625, 2049)
        window = make_modulated_window("gauss", 4.0, sigma=1.5)
        assert analysis.bedrosian_residual(window, g) == 9.987449152172628e-10

    def test_envelope_edge_at_the_threshold_passes(self, monkeypatch):
        # the envelope may reach the edge fraction, and not exceed it
        g = make_grid(-8.0, 8.0)
        window = make_modulated_window("gauss", 4.0, sigma=2.0)
        w = evaluate(make_modulated_window("gauss", 0.0, sigma=2.0), g.abscissas())
        edge = max(w[0], w[-1])
        assert edge > analysis._EDGE_FRACTION  # this grid is refused as it stands
        monkeypatch.setattr(analysis, "_EDGE_FRACTION", edge)
        assert analysis.bedrosian_residual(window, g) > 0.0
        monkeypatch.setattr(analysis, "_EDGE_FRACTION", np.nextafter(edge, 0.0))
        with pytest.raises(GridTooNarrowError):
            analysis.bedrosian_residual(window, g)

    @pytest.mark.parametrize("window", [make_bspline_scaling(3), make_box(-1.0, 1.0), "sinc2"])
    def test_refuses_what_is_not_a_modulated_window(self, window):
        with pytest.raises(InvalidParameterError, match="modulated window"):
            analysis.bedrosian_residual(window, make_grid(-32.0, 32.0))


class TestPartition:
    def test_bspline_partition_holds(self, grid_64):
        dev = analysis.partition_deviation(make_bspline_scaling(3), 50, False, grid_64)
        x = grid_64.abscissas()
        assert np.max(np.abs(dev.values[np.abs(x) <= 40.0])) < 1e-9

    def test_haar_scaling_partition_holds(self, grid_64):
        dev = analysis.partition_deviation(make_haar_scaling(), 50, False, grid_64)
        x = grid_64.abscissas()
        assert np.max(np.abs(dev.values[np.abs(x) <= 40.0])) < 1e-12

    def test_transform_destroys_partition(self, grid_64):
        dev = analysis.partition_deviation(make_bspline_scaling(3), 50, True, grid_64)
        # the summed transform nearly telescopes: deviation at x = 1/2 is
        # -1 + (1/pi) ln((K + 1/2)/(K - 1/2)) for K = 50
        want = -1.0 + math.log(50.5 / 49.5) / math.pi
        assert dev.value_at(0.5) == pytest.approx(want, abs=2e-3)
        x = grid_64.abscissas()
        assert np.min(np.abs(dev.values[np.abs(x) <= 2.0])) > 0.9

    # on the last grid, 1 - 2^-53 lies below the box's translate [1, 2.5) by
    # k = 2, yet (1 - 2^-53) - 2 rounds to -1, inside the box
    @pytest.mark.parametrize("grid", [Grid(-8.3, 0.1, 171), make_grid(-8.0, 8.0, 0.125),
                                      Grid(-2.0 ** -53, 0.125, 129)],
                             ids=["step-0.1", "step-1/8", "rounding"])
    @pytest.mark.parametrize("spec", [make_bspline_scaling(3), make_haar_scaling(),
                                      make_box(-1.0, 0.5)], ids=["bspline3", "haar", "box"])
    @pytest.mark.parametrize("k_range", [0, 3, 50])
    def test_translates_on_their_slice_match_full_grid_sum(self, grid, spec, k_range):
        x = grid.abscissas()
        total = np.zeros(grid.count)
        for k in range(-k_range, k_range + 1):
            total += evaluate(spec, x - k)
        got = analysis.partition_deviation(spec, k_range, False, grid)
        assert got.values.tobytes() == (total - 1.0).tobytes()

    def test_wavelet_spec_rejected(self, grid_16):
        with pytest.raises(InvalidParameterError):
            analysis.partition_deviation(make_spline_wavelet(2), 10, False, grid_16)

    @pytest.mark.parametrize("transformed", [False, True])
    def test_non_generator_rejected(self, grid_16, transformed):
        with pytest.raises(InvalidParameterError, match="scaling-function generator, got 'box'"):
            analysis.partition_deviation("box", 10, transformed, grid_16)

    def test_transformed_shifts_must_be_whole_steps(self):
        # 1/step = 3.33...: a unit shift is not a whole number of samples
        with pytest.raises(InvalidParameterError, match="1/step = 3.33"):
            analysis.partition_deviation(make_bspline_scaling(1), 4, True, Grid(-6.0, 0.3, 41))
        # within GRID_TOLERANCE of an integer: shifts of 10 samples
        got = analysis.partition_deviation(make_bspline_scaling(1), 4, True,
                                           Grid(-8.3, 0.1, 171))
        assert got.grid.count == 171

    # 1/step = 5e-10 is within GRID_TOLERANCE of 0: a unit shift of 0
    # samples divided by zero; 1/step = inf could not be rounded
    @pytest.mark.parametrize("grid, shift", [(Grid(-1e10, 2e9, 11), "5e-10"),
                                             (Grid(0.0, 5e-324, 3), "inf")],
                             ids=["zero-samples", "infinite"])
    @pytest.mark.parametrize("spec", [make_bspline_scaling(1), make_box(-0.5, 0.5)],
                             ids=["bspline1", "box"])
    def test_transformed_shift_below_one_sample_refused(self, spec, grid, shift):
        with pytest.raises(InvalidParameterError, match=f"1/step = {shift} is not a positive"):
            analysis.partition_deviation(spec, 3, True, grid)

    # the Haar wavelet is a step function as the box is, but with two levels
    @pytest.mark.parametrize("transformed", [False, True])
    def test_step_wavelet_rejected(self, grid_16, transformed):
        with pytest.raises(InvalidParameterError, match="2 levels"):
            analysis.partition_deviation(make_haar_wavelet(), 10, transformed, grid_16)

    # any truthy value ran the transformed sum, and "no" gave True's bits
    @pytest.mark.parametrize("transformed", ["no", 1, None])
    def test_transformed_must_be_a_bool(self, grid_16, transformed):
        with pytest.raises(InvalidParameterError, match="transformed must be a bool, got"):
            analysis.partition_deviation(make_bspline_scaling(3), 4, transformed, grid_16)

    @pytest.mark.parametrize("flag", [np.True_, np.False_])
    def test_numpy_bool_is_a_bool(self, grid_16, flag):
        spec = make_bspline_scaling(3)
        got = analysis.partition_deviation(spec, 4, flag, grid_16)
        want = analysis.partition_deviation(spec, 4, bool(flag), grid_16)
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("k_range", [2.5, -1])
    def test_bad_k_range_refused(self, grid_16, k_range):
        for transformed in (False, True):
            with pytest.raises(InvalidParameterError, match="k_range"):
                analysis.partition_deviation(make_bspline_scaling(1), k_range,
                                             transformed, grid_16)

    def test_shifts_past_the_grid_add_nothing(self):
        # 9 samples one apart: shifts by 9 or more steps miss the grid entirely
        g = Grid(-4.0, 1.0, 9)
        wide = analysis.partition_deviation(make_bspline_scaling(1), 10, True, g)
        edge = analysis.partition_deviation(make_bspline_scaling(1), 8, True, g)
        np.testing.assert_array_equal(wide.values, edge.values)

    @pytest.mark.parametrize("transformed", [False, True])
    def test_huge_k_range_visits_only_translates_that_reach(self, transformed):
        # 257 samples on [-8, 8]: translates with |k| > 20 cannot reach them,
        # so K = 10**9 is K = 20, without visiting 2*10**9 + 1 translates
        g = Grid(-8.0, 0.0625, 257)
        spec = make_bspline_scaling(3)
        start = time.perf_counter()
        huge = analysis.partition_deviation(spec, 10**9, transformed, g)
        assert time.perf_counter() - start < 1.0
        covering = analysis.partition_deviation(spec, 20, transformed, g)
        np.testing.assert_array_equal(huge.values, covering.values)
