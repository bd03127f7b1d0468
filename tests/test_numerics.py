"""Grid/signal containers, quadrature, differentiation, norms, DFT contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwl.errors import InvalidParameterError
from hwl.numerics import (
    Grid,
    SampledSignal,
    Spectrum,
    _smooth_length,
    check_integer,
    dft,
    derivative,
    integrate,
    l1_norm,
    l2_norm,
    mixed_norm,
    odd_kernel_sum,
    sup_norm,
)
from hwl.wavelets import make_box, make_bspline_scaling, make_haar_wavelet, sample

from conftest import STEP, make_grid


class TestGrid:
    def test_abscissa_mapping(self):
        g = Grid(-2.0, 0.5, 9)
        np.testing.assert_allclose(g.abscissas(), np.arange(-2.0, 2.5, 0.5))
        assert g.x_max == 2.0
        assert g.index_of(1.0) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, -1.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)

    @pytest.mark.parametrize("x_min,step", [
        (0.0, np.inf), (0.0, np.nan), (np.nan, 1.0), (-np.inf, 1.0), (np.inf, 1.0),
    ])
    def test_non_finite_origin_or_step_refused(self, x_min, step):
        with pytest.raises(InvalidParameterError, match="finite"):
            Grid(x_min, step, 3)

    @pytest.mark.parametrize("x_min,step,count", [
        (0.0, 1e308, 3), (-1e308, 1e308, 4), (1e308, 1e306, 2**20), (0.0, 1.0, 10**400),
    ])
    def test_overflowing_last_abscissa_refused(self, x_min, step, count):
        # x_max would be inf, and a generator sampled there would read 0 at
        # the infinite abscissa
        with pytest.raises(InvalidParameterError, match="Grid.*overflows"):
            Grid(x_min, step, count)
        assert Grid(-1e308, 5e307, 3).x_max == 0.0  # large, but every abscissa finite

    def test_fractional_count_refused(self):
        # refused here, not later by ``sample`` with a bare ValueError
        with pytest.raises(InvalidParameterError, match="integer"):
            Grid(0.0, 1.0, 2.5)
        assert type(Grid(0.0, 1.0, np.int64(3)).count) is int

    def test_index_of_outside(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(InvalidParameterError, match="outside the grid"):
            g.index_of(10.0)


def _odd_kernel_loop(values, kernel):
    """sum_p values[p] * k(i - p) with k(m) = kernel[m-1], k(-m) = -k(m)."""
    n = len(values)
    out = np.zeros(n)
    for i in range(n):
        for p in range(n):
            m = i - p
            if m:
                out[i] += values[p] * (kernel[m - 1] if m > 0 else -kernel[-m - 1])
    return out


def _odd_kernel_concatenated(values, kernel):
    """odd_kernel_sum with k built by concatenation and padded by rfft."""
    n = len(values)
    nz = np.flatnonzero(values)
    lo, hi = int(nz[0]), int(nz[-1])
    s = hi - lo + 1
    k = np.concatenate((-kernel[:hi][::-1], [0.0], kernel[:n - 1 - lo]))
    size = _smooth_length(n + s - 1)
    conv = np.fft.irfft(np.fft.rfft(values[lo:hi + 1], size) * np.fft.rfft(k, size), size)
    return conv[s - 1:s - 1 + n]


class TestOddKernelSum:
    @pytest.mark.parametrize("values", [
        [0.0] * 7,                      # all zero
        [2.5, 0, 0, 0, 0, 0, 0],        # one nonzero sample at index 0
        [0, 0, 0, 0, 0, 0, -1.5],       # ... and at n-1
        [0.75, 0.0], [0.0, 0.75], [1.0, -3.0],  # n = 2
        [0.0, 1.0, -2.0, 0.5, 0.0, 3.0, 0.0, 0.0],
    ])
    def test_matches_double_loop(self, values):
        values = np.array(values, dtype=float)
        n = len(values)
        for kernel in (1.0 / np.arange(1, n), np.random.default_rng(n).normal(size=n - 1)):
            got = odd_kernel_sum(values, kernel)
            assert got.shape == (n,)
            np.testing.assert_allclose(got, _odd_kernel_loop(values, kernel), rtol=0, atol=1e-14)

    def test_random_slices(self):
        rng = np.random.default_rng(5)
        for n in range(2, 40):
            values = np.zeros(n)
            lo, hi = sorted(rng.integers(0, n, size=2))
            values[lo:hi + 1] = rng.normal(size=hi - lo + 1)
            kernel = rng.normal(size=n - 1)
            np.testing.assert_allclose(odd_kernel_sum(values, kernel),
                                       _odd_kernel_loop(values, kernel), rtol=0, atol=1e-12)

    def test_zeroed_buffer_matches_concatenated_kernel(self):
        # the kernel written into a zeroed FFT-length buffer gives the same
        # bytes as the concatenated one zero-padded by rfft
        rng = np.random.default_rng(6)
        for n in (2, 3, 17, 1000, 4097):
            for lo, hi in ((0, n - 1), (0, 0), (n - 1, n - 1), (n // 3, n // 2)):
                values = np.zeros(n)
                values[lo:hi + 1] = rng.normal(size=hi - lo + 1)
                kernel = rng.normal(size=n - 1)
                assert (odd_kernel_sum(values, kernel).tobytes()
                        == _odd_kernel_concatenated(values, kernel).tobytes())


class TestCheckInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), 3.0, np.float32(3.0)])
    def test_integral_values_accepted(self, value):
        got = check_integer(value, "k", 0)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [2.5, 1.9, float("nan"), float("inf"), "3", None, True])
    def test_other_values_refused(self, value):
        with pytest.raises(InvalidParameterError, match="k must be an integer"):
            check_integer(value, "k", 0)

    def test_minimum(self):
        assert check_integer(-2, "k", -2) == -2
        with pytest.raises(InvalidParameterError, match="k must be >= 1"):
            check_integer(0.0, "k", 1)


class TestSampledSignal:
    def test_rejects_nan_and_length_mismatch(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            SampledSignal(g, [0.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            SampledSignal(g, [0.0, 1.0])

    def test_values_locked(self):
        s = SampledSignal(Grid(0.0, 1.0, 3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestIntegrate:
    def test_unit_box(self, grid_8):
        g = make_grid(-4.0, 4.0)
        assert integrate(sample(make_box(0.0, 1.0), g)) == pytest.approx(1.0, abs=STEP)

    def test_haar_zero_mean(self):
        g = make_grid(-4.0, 4.0)
        assert integrate(sample(make_haar_wavelet(), g)) == pytest.approx(0.0, abs=STEP)

    def test_cubic_bspline_normalized(self, grid_8):
        assert integrate(sample(make_bspline_scaling(3), grid_8)) == pytest.approx(1.0, abs=1e-6)

    def test_refinement_second_order(self):
        # halving the step must cut the error of a smooth integral ~4x
        errs = []
        for step in (2.0 ** -6, 2.0 ** -7):
            g = make_grid(-1.0, 1.0, step)
            f = SampledSignal(g, np.cos(g.abscissas()))
            errs.append(abs(integrate(f) - 2.0 * np.sin(1.0)))
        assert errs[1] < errs[0] / 3.0


class TestDerivative:
    def test_sin_to_cos(self):
        g = make_grid(-2.0, 2.0)
        d = derivative(SampledSignal(g, np.sin(g.abscissas())))
        assert np.max(np.abs(d.values[1:-1] - np.cos(g.abscissas())[1:-1])) < STEP ** 2

    def test_constant_is_zero(self, grid_8):
        d = derivative(SampledSignal(grid_8, np.full(grid_8.count, 3.5)))
        assert np.all(d.values == 0.0)

    def test_parabola_interior(self):
        g = make_grid(-1.0, 1.0)
        d = derivative(SampledSignal(g, g.abscissas() ** 2))
        interior = slice(1, -1)
        np.testing.assert_allclose(d.values[interior], 2.0 * g.abscissas()[interior],
                                   atol=1e-10)


class TestNorms:
    def test_zero_signal(self, grid_8):
        z = SampledSignal(grid_8, np.zeros(grid_8.count))
        assert l1_norm(z) == 0.0
        assert sup_norm(z) == 0.0
        assert mixed_norm(z) == 0.0

    def test_cubic_bspline_l1(self, grid_8):
        f = sample(make_bspline_scaling(3), grid_8)
        assert l1_norm(f) == pytest.approx(1.0, abs=1e-6)

    def test_cubic_bspline_sup(self, grid_8):
        # the centered cubic B-spline peaks at x = 0 with value 2/3
        f = sample(make_bspline_scaling(3), grid_8)
        assert sup_norm(f) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_mixed_norm_composition(self, grid_8):
        f = sample(make_bspline_scaling(3), grid_8)
        assert mixed_norm(f) == pytest.approx(l1_norm(f) + sup_norm(derivative(f)))


class TestDft:
    @pytest.mark.parametrize("count", [609, 610], ids=["odd", "even"])
    def test_offset_gaussian_matches_closed_form(self, count):
        # exp(-(x-c)^2/2) transforms to sqrt(2 pi) exp(-w^2/2 - i w c): pins
        # the phase exp(-i w x_min), the step scaling and the bin -> w mapping
        c = 0.75
        g = Grid(-9.3, 2.0 ** -5, count)
        s = dft(SampledSignal(g, np.exp(-(g.abscissas() - c) ** 2 / 2)))
        w = s.frequencies
        exact = np.sqrt(2 * np.pi) * np.exp(-w ** 2 / 2 - 1j * w * c)
        assert np.max(np.abs(s.values - exact)) < 1e-13

    def test_parseval(self):
        g = make_grid(-4.0, 4.0)
        x = g.abscissas()
        f = SampledSignal(g, np.exp(-2 * x ** 2))
        s = dft(f)
        dw = 2 * np.pi / (g.count * g.step)
        lhs = np.sum(f.values ** 2) * g.step
        rhs = np.sum(np.abs(s.values) ** 2) * dw / (2 * np.pi)
        assert abs(lhs - rhs) < 1e-10 * lhs

    def test_box_spectrum_matches_sinc(self):
        g = make_grid(-4.0, 4.0)
        s = dft(sample(make_box(0.0, 1.0), g))
        w = s.frequencies
        low = (np.abs(w) < 6.0) & (np.abs(w) > 1e-9)
        expected = np.abs(np.sin(w[low] / 2.0) / (w[low] / 2.0))
        assert np.max(np.abs(np.abs(s.values[low]) - expected)) < 1e-4

    def test_exact_bin_cosine_two_bins(self):
        n = 4096
        g = Grid(0.0, STEP, n)
        k = 64
        omega = 2 * np.pi * k / (n * STEP)
        s = dft(SampledSignal(g, np.cos(omega * g.abscissas())))
        mags = np.abs(s.values)
        assert (mags > 1e-10 * mags.max()).sum() == 2

    def test_frequency_mapping(self):
        g = Grid(0.0, 0.5, 8)
        s = dft(SampledSignal(g, np.ones(8)))
        w = s.frequencies
        assert w[0] == 0.0
        assert w[4] == pytest.approx(np.pi / 0.5)  # Nyquist mapped positive
        assert w[5] < 0  # upper half negative
        assert np.max(w) <= np.pi / 0.5 + 1e-12
        assert np.min(w) > -np.pi / 0.5 - 1e-12

    def test_spectrum_read_only(self):
        s = dft(SampledSignal(Grid(0.0, 0.5, 8), np.ones(8)))
        with pytest.raises(ValueError):
            s.values[0] = 0.0
        with pytest.raises(ValueError):
            s.frequencies[0] = 1.0
        # arrays of the right dtype are locked in place, not copied
        w, v = np.zeros(3), np.zeros(3, dtype=np.complex128)
        s = Spectrum(frequencies=w, values=v)
        assert s.frequencies is w and s.values is v
        assert not (w.flags.writeable or v.flags.writeable)

    def test_spectrum_shape_validation(self):
        with pytest.raises(ValueError):
            Spectrum(frequencies=np.array([0.0, 1.0]), values=np.array([1.0 + 0j]))


@st.composite
def signal_pairs(draw):
    n = draw(st.integers(min_value=8, max_value=64))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    r = np.random.default_rng(seed)
    g = Grid(-1.0, 2.0 / (n - 1), n)
    return (SampledSignal(g, r.normal(size=n)), SampledSignal(g, r.normal(size=n)))


class TestLinearity:
    @settings(max_examples=25, deadline=None)
    @given(signal_pairs(), st.floats(-3, 3), st.floats(-3, 3))
    def test_integrate_linear(self, pair, a, b):
        f, g = pair
        combo = SampledSignal(f.grid, a * f.values + b * g.values)
        assert integrate(combo) == pytest.approx(a * integrate(f) + b * integrate(g),
                                                 abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(signal_pairs(), st.floats(-3, 3), st.floats(-3, 3))
    def test_derivative_and_dft_linear(self, pair, a, b):
        f, g = pair
        combo = SampledSignal(f.grid, a * f.values + b * g.values)
        want = a * derivative(f).values + b * derivative(g).values
        np.testing.assert_allclose(derivative(combo).values, want, atol=1e-9)
        want_spec = a * dft(f).values + b * dft(g).values
        np.testing.assert_allclose(dft(combo).values, want_spec, atol=1e-9)


def test_l2_norm_matches_parseval():
    g = make_grid(-8.0, 8.0)
    x = g.abscissas()
    f = SampledSignal(g, np.exp(-x ** 2))
    s = dft(f)
    dw = 2 * np.pi / (g.count * g.step)
    spectral = np.sqrt(np.sum(np.abs(s.values) ** 2) * dw / (2 * np.pi))
    assert l2_norm(f) == pytest.approx(spectral, rel=1e-10)
