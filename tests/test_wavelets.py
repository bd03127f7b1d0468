"""Generators: Haar family, B-splines, spline wavelets, modulated windows."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hwl.cli import GENERATORS
from hwl.errors import InvalidParameterError
from hwl.numerics import Grid, SampledSignal, integrate, l2_norm
from hwl.wavelets import (
    DEGREE_CAP,
    PiecewiseConstant,
    WaveletSpec,
    cardinal_bspline,
    evaluate,
    make_box,
    make_bspline_scaling,
    make_haar_scaling,
    make_haar_wavelet,
    make_modulated_window,
    make_spline_wavelet,
    sample,
    spline_wavelet_coefficients,
)

from conftest import STEP, make_grid


class TestPiecewiseConstant:
    def test_haar_values(self):
        h = make_haar_wavelet()
        assert h.breakpoints == (-1.0, 0.0, 1.0)
        assert h.levels == (1.0, -1.0)
        assert evaluate(h, -0.5) == 1.0
        assert evaluate(h, 0.5) == -1.0
        assert evaluate(h, 1.5) == 0.0

    def test_half_open_convention(self):
        h = make_haar_wavelet()
        assert evaluate(h, 0.0) == -1.0  # right-continuous at the jump
        assert evaluate(h, -1.0) == 1.0
        assert evaluate(h, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseConstant(breakpoints=(0.0, 0.0, 1.0), levels=(1.0, 2.0))
        with pytest.raises(InvalidParameterError):
            PiecewiseConstant(breakpoints=(0.0, 1.0), levels=(1.0, 2.0))

    @pytest.mark.parametrize("breakpoints, levels", [
        ((-np.inf, 0.0), (1.0,)), ((0.0, np.inf), (1.0,)), ((np.nan, 1.0), (1.0,)),
        ((0.0, 1.0), (np.nan,)), ((0.0, 1.0, 2.0), (1.0, -np.inf)),
    ])
    def test_non_finite_refused(self, breakpoints, levels):
        # an infinite breakpoint made the support infinite, a NaN level made
        # the function NaN inside it
        with pytest.raises(InvalidParameterError, match="finite"):
            PiecewiseConstant(breakpoints=breakpoints, levels=levels)

    def test_lookup_matches_per_level_reference(self):
        # the per-level ``np.where`` the one lookup replaced, bit for bit, at
        # every breakpoint and its neighbours, at +-0.0, NaN and +-inf
        pc = PiecewiseConstant(breakpoints=(-2.0, -0.5, 0.0, 1.5), levels=(3.0, -0.0, -2.0))
        bp = np.array(pc.breakpoints)
        x = np.concatenate([np.linspace(-3.0, 3.0, 601), bp, np.nextafter(bp, -np.inf),
                            np.nextafter(bp, np.inf), [0.0, -0.0, np.nan, np.inf, -np.inf]])
        want = np.zeros_like(x)
        for a, b, v in zip(pc.breakpoints, pc.breakpoints[1:], pc.levels):
            want = np.where((x >= a) & (x < b), v, want)
        assert evaluate(pc, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
    def test_box_non_finite_refused(self, a, b):
        with pytest.raises(InvalidParameterError, match="finite"):
            make_box(a, b)

    def test_box_breakpoints_are_floats(self):
        # Python floats, at the values float(...) gives
        box = make_box(np.float32(0.1), np.int64(1))
        assert box.breakpoints == (0.10000000149011612, 1.0)
        assert all(type(b) is float for b in box.breakpoints + box.levels)

    def test_support_is_first_and_last_breakpoint(self):
        assert make_haar_wavelet().support == (-1.0, 1.0)
        assert make_haar_scaling().support == (0.0, 1.0)
        assert make_box(-0.5, 2.25).support == (-0.5, 2.25)
        # a property: the fields, repr and equality are those of the two tuples
        h = make_haar_wavelet()
        assert "support" not in repr(h)
        assert h == PiecewiseConstant((-1.0, 0.0, 1.0), (1.0, -1.0))
        with pytest.raises(AttributeError):
            h.support = (0.0, 1.0)

    def test_evaluated_through_evaluate_only(self):
        assert not callable(make_haar_wavelet())

    def test_haar_scaling_is_unit_box(self):
        s = make_haar_scaling()
        assert evaluate(s, 0.0) == 1.0
        assert evaluate(s, 0.999) == 1.0
        assert evaluate(s, 1.0) == 0.0
        assert evaluate(s, -0.001) == 0.0


class TestBsplineScaling:
    def test_degree0_is_centered_box(self):
        b0 = make_bspline_scaling(0)
        assert evaluate(b0, -0.5) == 1.0
        assert evaluate(b0, 0.0) == 1.0
        assert evaluate(b0, 0.5) == 0.0  # half-open right edge
        assert b0.support == (-0.5, 0.5)

    def test_cubic_peak_value(self):
        assert evaluate(make_bspline_scaling(3), 0.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_cubic_support(self):
        b3 = make_bspline_scaling(3)
        assert b3.support == (-2.0, 2.0)
        x = np.array([-2.5, -2.0, 2.0, 2.5])
        np.testing.assert_array_equal(evaluate(b3, x), 0.0)
        assert evaluate(b3, -1.999) > 0.0

    def test_degree_cap(self):
        with pytest.raises(InvalidParameterError):
            make_bspline_scaling(DEGREE_CAP + 1)
        with pytest.raises(InvalidParameterError):
            make_spline_wavelet(-1)

    def test_fractional_degree_refused(self):
        # both used to build degree 2 from 2.7
        for make in (make_bspline_scaling, make_spline_wavelet):
            with pytest.raises(InvalidParameterError, match="integer"):
                make(2.7)
            assert make(np.int64(3)) == make(3.0) == make(3)

    def test_partition_of_unity(self):
        for d in (1, 2, 3):
            spec = make_bspline_scaling(d)
            x = np.linspace(-3.0, 3.0, 601)
            total = np.zeros_like(x)
            for k in range(-8, 9):
                total += evaluate(spec, x - k)
            assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_refinement_by_convolution(self):
        # beta_d = beta_{d-1} * beta_0, checked by discrete convolution on the
        # half-step-offset lattice (no sample ever lands on a box edge, so the
        # midpoint rule applies cleanly)
        g = make_grid(-4.0, 4.0)
        x = g.abscissas()
        mid = x[:-1] + STEP / 2.0
        box = evaluate(make_bspline_scaling(0), mid)
        for d in (1, 2, 3):
            prev = evaluate(make_bspline_scaling(d - 1), mid)
            conv = np.convolve(prev, box) * STEP
            # conv[k] approximates the convolution at 2*x[0] + (k+1)*step, so
            # the integer grid starts at k0 = -x[0]/step - 1
            k0 = int(round(-x[0] / STEP)) - 1
            got = conv[k0:k0 + g.count]
            want = evaluate(make_bspline_scaling(d), x)
            assert np.max(np.abs(got - want)) < 1e-4, f"degree {d}"

    def test_integral_is_one(self):
        g = make_grid(-8.0, 8.0)
        assert integrate(sample(make_bspline_scaling(3), g)) == pytest.approx(1.0, abs=1e-6)


class TestSplineWavelet:
    def test_degree0_coefficients(self):
        np.testing.assert_allclose(spline_wavelet_coefficients(0), [1.0, -1.0])

    def test_degree0_reproduces_haar(self):
        # up to shift and normalization: the order-1 wavelet is the Haar shape
        # compressed to [-1/2, 1/2) and scaled to unit L2 norm
        g = make_grid(-2.0, 2.0)
        x = g.abscissas()
        w = sample(make_spline_wavelet(0), g)
        haar_half = evaluate(make_haar_wavelet(), 2 * x)
        haar_half = haar_half / np.sqrt(np.sum(haar_half ** 2) * STEP)
        assert min(np.max(np.abs(w.values - haar_half)),
                   np.max(np.abs(w.values + haar_half))) < 1e-12

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_support_length(self, degree):
        spec = make_spline_wavelet(degree)
        m = degree + 1
        half = (2 * m - 1) / 2.0
        assert spec.support == (-half, half)
        assert evaluate(spec, np.array([half + 0.01]))[0] == 0.0
        assert evaluate(spec, np.array([-half - 0.01]))[0] == 0.0
        assert abs(evaluate(spec, np.array([-half + 0.05]))[0]) > 0.0

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_vanishing_moments(self, degree):
        g = make_grid(-8.0, 8.0)
        f = sample(make_spline_wavelet(degree), g)
        x = g.abscissas()
        for k in range(degree + 1):
            mk = integrate(SampledSignal(g, x ** k * f.values))
            assert abs(mk) < 1e-8, f"moment {k} of degree {degree}"

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_unit_l2_norm(self, degree):
        g = make_grid(-12.0, 12.0)
        f = sample(make_spline_wavelet(degree), g)
        assert l2_norm(f) == pytest.approx(1.0, abs=1e-3)

    def test_deterministic(self):
        a = make_spline_wavelet(3)
        b = make_spline_wavelet(3)
        assert a.coefficients == b.coefficients
        assert a.amplitude == b.amplitude
        g = make_grid(-4.0, 4.0)
        np.testing.assert_array_equal(sample(a, g).values, sample(b, g).values)


class TestModulatedWindow:
    def test_sinc2_at_zero(self):
        w = make_modulated_window("sinc2", omega0=7.3)
        assert evaluate(w, 0.0) == 1.0

    def test_sinc2_node_at_pi(self):
        w = make_modulated_window("sinc2", omega0=0.0)
        assert abs(evaluate(w, np.pi)) < 1e-30

    def test_gauss_at_zero(self):
        w = make_modulated_window("gauss", omega0=2.0, sigma=1.0)
        assert evaluate(w, 0.0) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            make_modulated_window("hann", omega0=1.0)
        with pytest.raises(InvalidParameterError):
            make_modulated_window("sinc2", omega0=-1.0)
        for sigma in (0.0, np.inf, np.nan):
            with pytest.raises(InvalidParameterError):
                make_modulated_window("gauss", omega0=1.0, sigma=sigma)

    def test_sigma_belongs_to_gauss(self):
        # the library, not only the CLI, refuses a width the sinc2 window ignores
        for sigma in (2.0, 1.0, np.nan):
            with pytest.raises(InvalidParameterError,
                               match="sigma applies to the gauss window only, not sinc2"):
                make_modulated_window("sinc2", omega0=1.0, sigma=sigma)
        assert make_modulated_window("sinc2", omega0=1.0).sigma is None
        assert make_modulated_window("gauss", omega0=1.0).sigma == 1.0

    @pytest.mark.parametrize("fields", [
        dict(window_kind="gauss", omega0=np.nan, sigma=-1.0),
        dict(window_kind="gauss", omega0=1.0, sigma=-1.0),
        dict(window_kind="gauss", omega0=1.0, sigma=None),
        dict(window_kind="gauss", omega0=-1.0, sigma=1.0),
        dict(window_kind="sinc2", omega0=np.inf),
        dict(window_kind="sinc2", omega0=1.0, sigma=1.0),
        dict(window_kind="hann", omega0=1.0),
        dict(window_kind=None, omega0=1.0),
    ], ids=["nan-omega0-negative-sigma", "negative-sigma", "gauss-without-sigma",
            "negative-omega0", "infinite-omega0", "sinc2-with-sigma", "hann", "no-window-kind"])
    def test_spec_checks_its_fields(self, fields):
        # the spec itself, not only make_modulated_window, refuses what would
        # evaluate to NaN or to a window other than the one named
        with pytest.raises(InvalidParameterError):
            evaluate(WaveletSpec(kind="modulated_window", support=None, **fields),
                     make_grid(-8.0, 8.0).abscissas())

    def test_spec_refuses_an_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="unknown generator kind 'morlet'"):
            WaveletSpec(kind="morlet", support=None)

    def test_replaced_frequency_is_checked(self):
        window = make_modulated_window("gauss", 4.0, sigma=1.5)
        assert replace(window, omega0=0.0).omega0 == 0.0
        with pytest.raises(InvalidParameterError, match="omega0"):
            replace(window, omega0=-1.0)

    def test_no_phase(self):
        # the window is w(x) * cos(omega0 x); there is no phase to set
        with pytest.raises(TypeError):
            make_modulated_window("sinc2", omega0=1.0, phase=0.0)


class TestSample:
    def test_haar_at_zero_uses_half_open(self):
        g = make_grid(-2.0, 2.0)
        f = sample(make_haar_wavelet(), g)
        assert f.value_at(0.0) == -1.0


def _whole_array(spec, x):
    """The compact generators' formulas run at every abscissa, in or out of the support."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(spec, PiecewiseConstant):
        out = np.zeros_like(x)
        for a, b, v in zip(spec.breakpoints, spec.breakpoints[1:], spec.levels):
            out = np.where((x >= a) & (x < b), v, out)
        return out[()]
    m = spec.degree + 1
    if spec.kind == "bspline_scaling":
        return cardinal_bspline(m, x + m / 2.0)
    xs = 2.0 * (x + (2 * m - 1) / 2.0)
    out = np.zeros_like(x)
    for k, qk in enumerate(spec.coefficients):
        out += qk * cardinal_bspline(m, xs - k)
    return spec.amplitude * out


class TestSupportWindow:
    """``evaluate`` computes a compact generator on its support only."""

    @staticmethod
    def _assert_matches_whole_array(spec, x):
        # bytes, so that a -0.0 against a +0.0 counts as a difference
        lo, hi = spec.support
        near = np.nextafter([lo, lo, hi, hi], [-np.inf, np.inf, -np.inf, np.inf])
        x = np.array([lo, hi, *near, *x, 0.0, -0.0, 0.3, -1e6, 1e6])
        assert evaluate(spec, x).tobytes() == _whole_array(spec, x).tobytes()
        g = Grid(lo - 4.0, 0.125, int((hi - lo + 8.0) / 0.125) + 1)  # hits lo and hi
        assert sample(spec, g).values.tobytes() == _whole_array(spec, g.abscissas()).tobytes()
        got, want = evaluate(spec, 0.3), _whole_array(spec, 0.3)
        assert type(got) is type(want) is np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("make", [make_bspline_scaling, make_spline_wavelet])
    @pytest.mark.parametrize("degree", range(DEGREE_CAP + 1))
    def test_matches_whole_array_evaluation(self, make, degree):
        self._assert_matches_whole_array(make(degree), [])

    @pytest.mark.parametrize("spec", [make_haar_wavelet(), make_haar_scaling(),
                                      make_box(-0.5, 2.25)],
                             ids=["haar-wavelet", "haar-scaling", "box"])
    def test_step_functions_match_whole_array_evaluation(self, spec):
        # every breakpoint, not only the support's ends, and its neighbours
        bp = np.array(spec.breakpoints)
        near = [np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)]
        self._assert_matches_whole_array(spec, np.concatenate([bp, *near]))

    def test_outside_support_all_positive_zero(self):
        g = make_grid(10.0, 14.0)
        for spec in (make_bspline_scaling(3), make_spline_wavelet(3), make_box(0.0, 1.0)):
            f = sample(spec, g)
            assert np.all(f.values == 0.0) and not np.any(np.signbit(f.values))

    @pytest.mark.parametrize("make", [make_bspline_scaling, make_spline_wavelet,
                                      make_haar_wavelet, make_haar_scaling, make_box])
    def test_non_finite_abscissas(self, make):
        # the whole-array spline formulas give NaN at +-inf, and the spline
        # wavelet's also at 1e308, where 2x overflows; degree 0's base box
        # is an indicator, with no arithmetic to carry a NaN
        arguments = {make_bspline_scaling: [(0,), (3,)], make_spline_wavelet: [(0,), (3,)],
                     make_box: [(-0.5, 2.25)]}.get(make, [()])
        for spec in (make(*args) for args in arguments):
            out = evaluate(spec, np.array([np.inf, -np.inf, 1e308, -1e308, np.nan]))
            assert out[:4].tobytes() == np.zeros(4).tobytes()
            # a NaN abscissa means NaN for the spline kinds, 0.0 for step functions
            if isinstance(spec, PiecewiseConstant):
                assert out[4] == 0.0
            else:
                assert np.isnan(out[4]), spec


def test_cardinal_bspline_known_values():
    # hat function (order 2) and the cubic's knot values
    assert cardinal_bspline(2, np.array([1.0]))[0] == 1.0
    np.testing.assert_allclose(
        cardinal_bspline(4, np.array([1.0, 2.0, 3.0])), [1 / 6, 2 / 3, 1 / 6]
    )


@pytest.mark.parametrize("order, message", [
    (True, "order must be an integer, got True"),
    (2.5, "order must be an integer, got 2.5"),
    ("3", "order must be an integer, got '3'"),
    (0, "order must be >= 1, got 0"),
    (-1, "order must be >= 1, got -1"),
])
def test_cardinal_bspline_order_refused(order, message):
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        cardinal_bspline(order, np.array([0.5]))


def test_cardinal_bspline_integral_float_order():
    t = np.linspace(-1.0, 5.0, 61)
    assert cardinal_bspline(3.0, t).tobytes() == cardinal_bspline(3, t).tobytes()


def _cardinal_bspline_reference(order, t):
    """The Cox-de Boor recursion as written before infinite abscissas were
    mapped outside the support; exact for every finite ``t``."""
    t = np.asarray(t, dtype=np.float64)
    cols = [((t - j >= 0.0) & (t - j < 1.0)).astype(np.float64) for j in range(order)]
    if order == 1:
        return np.where(np.isnan(t), np.nan, cols[0])
    for m in range(2, order + 1):
        cols = [((t - j) * cols[j] + (m - (t - j)) * cols[j + 1]) / (m - 1)
                for j in range(order - m + 1)]
    return cols[0]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, DEGREE_CAP + 1])
class TestCardinalBsplineNonFinite:
    def test_infinite_abscissa_is_zero(self, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cardinal_bspline(order, np.array([np.inf, -np.inf, np.nan, 1e308]))
        assert out[[0, 1, 3]].tobytes() == np.zeros(3).tobytes()
        assert np.isnan(out[2])
        for t in (np.inf, -np.inf):
            assert cardinal_bspline(order, t).tobytes() == np.float64(0.0).tobytes()

    def test_finite_abscissas_unchanged(self, order):
        knots = np.arange(-1.0, order + 2.0)
        t = np.concatenate([
            np.linspace(-0.5, order + 0.5, 16 * order + 1), knots,
            np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            [-0.0, 1e308, -1e308],
        ])
        want = _cardinal_bspline_reference(order, t)
        assert cardinal_bspline(order, t).tobytes() == want.tobytes()


# parameters for each cli.GENERATORS entry
_GENERATOR_PARAMS = {
    "haar-scaling": (), "haar-wavelet": (), "bspline-scaling": (2,), "spline-wavelet": (3,),
    "sinc2-cos": (3.0,), "gauss-cos": (1.0, 3.0), "box": (-0.5, 1.0),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_scalar_abscissa_gives_numpy_scalar(name):
    factory, _ = GENERATORS[name]
    spec = factory(*_GENERATOR_PARAMS[name])
    for x in (0.25, -0.75, 100.0):  # inside and outside the supports
        assert type(evaluate(spec, x)) is np.float64
