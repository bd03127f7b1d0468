"""Both transform engines, the step-function oracle, and the PV kernel."""

import math

import numpy as np
import pytest

from hwl import _pv_numpy
from hwl.analysis import fit_decay
from hwl.errors import InvalidParameterError, SingularPointError
from hwl.hilbert import (
    PV_BACKEND,
    fft_length,
    hilbert_box_closed_form,
    hilbert_pv,
    hilbert_spectral,
)
from hwl.numerics import (
    Grid, SampledSignal, _smooth_length, derivative, l2_norm, odd_kernel_sum,
)
from hwl.wavelets import (
    make_box,
    make_bspline_scaling,
    make_haar_wavelet,
    make_modulated_window,
    make_spline_wavelet,
    sample,
)

from conftest import STEP, make_grid, traced_peak_mib


def _complex_fft_reference(values: np.ndarray, pad: int) -> np.ndarray:
    """The multiplier -j*sign(w) through a complex FFT at exactly
    pad*count points, cropped back to the grid."""
    count = len(values)
    total = pad * count
    left = (total - count) // 2
    buf = np.zeros(total)
    buf[left:left + count] = values
    mult = -1j * np.sign(np.fft.fftfreq(total))
    if total % 2 == 0:
        mult[total // 2] = 0.0
    return np.fft.ifft(np.fft.fft(buf) * mult).real[left:left + count]


def _spectral_kernel_reference(count: int, total: int) -> np.ndarray:
    """The multiplier's discrete kernel at offsets r = 1..count-1, each
    case a whole-array expression."""
    r = np.arange(1, count)
    if 2 * (count - 1) > total:
        r = np.where(2 * r > total, r - total, r)
    t = np.pi * r / total
    if total % 2 == 0:
        return np.where(r % 2 == 1, 2.0 / (total * np.tan(t)), 0.0)
    return (np.cos(t) - np.where(r % 2 == 1, -1.0, 1.0)) / (total * np.sin(t))


def _direct_pv_sum(values: np.ndarray) -> np.ndarray:
    """sum_{j>=1} (f[i-j] - f[i+j])/j as one direct np.convolve of the
    nonzero slice with the kernel 1/m over offsets -(n-1)..n-1."""
    n = len(values)
    nz = np.flatnonzero(values)
    lo, hi = nz[0], nz[-1]
    inv = 1.0 / np.arange(1, n)
    conv = np.convolve(values[lo:hi + 1], np.concatenate((-inv[::-1], [0.0], inv)))
    return conv[n - 1 - lo:2 * n - 1 - lo]


class TestClosedForm:
    def test_haar_at_two(self):
        got = hilbert_box_closed_form(make_haar_wavelet(), 2.0)
        assert got == pytest.approx(math.log(3 / 4) / math.pi, abs=1e-15)

    def test_haar_at_ten(self):
        got = hilbert_box_closed_form(make_haar_wavelet(), 10.0)
        assert got == pytest.approx(math.log(99 / 100) / math.pi, abs=1e-15)

    def test_haar_reduces_to_single_log(self):
        # sum of piecewise logs collapses to (1/pi) ln(|x^2-1| / x^2)
        xs = np.array([-7.3, -2.1, 0.4, 0.6, 3.7, 50.0])
        got = hilbert_box_closed_form(make_haar_wavelet(), xs)
        want = np.log(np.abs(xs ** 2 - 1) / xs ** 2) / np.pi
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_box_at_two(self):
        got = hilbert_box_closed_form(make_box(0.0, 1.0), 2.0)
        assert got == pytest.approx(math.log(2.0) / math.pi, abs=1e-15)

    def test_breakpoint_is_singular(self):
        with pytest.raises(SingularPointError):
            hilbert_box_closed_form(make_haar_wavelet(), 1.0)
        with pytest.raises(SingularPointError):
            hilbert_box_closed_form(make_haar_wavelet(), np.array([2.0, 0.0]))
        with pytest.raises(SingularPointError):
            hilbert_box_closed_form(make_haar_wavelet(), np.array([np.inf, -1.0]))

    @pytest.mark.parametrize("p", [make_spline_wavelet(3), "haar", None],
                             ids=["spline-wavelet", "haar", "None"])
    def test_only_a_step_function(self, p):
        # a spline wavelet raised AttributeError
        with pytest.raises(InvalidParameterError, match="needs a step function"):
            hilbert_box_closed_form(p, 0.5)

    @pytest.mark.parametrize("p", [make_haar_wavelet(), make_box(-0.5, 2.0)],
                             ids=["haar", "box"])
    def test_infinite_abscissa_is_zero(self, p):
        # the transform decays like integral(f)/(pi x), and used to give NaN
        # with an "invalid value" warning from inf/inf
        for x in (np.inf, -np.inf):
            got = hilbert_box_closed_form(p, x)
            assert type(got) is float and math.copysign(1.0, got) == 1.0 and got == 0.0
        got = hilbert_box_closed_form(p, np.array([-np.inf, np.inf]))
        assert got.tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("p", [make_haar_wavelet(), make_box(-0.5, 2.0)],
                             ids=["haar", "box"])
    def test_finite_and_nan_abscissas_unchanged(self, p):
        # the piecewise-log sum on every finite abscissa, whatever else the
        # array holds; NaN stays NaN
        x = np.array([-1e6, -3.0, -0.75, 0.25, 1.5, 7.0, 1e6])
        want = np.zeros_like(x)
        for a, b, v in zip(p.breakpoints, p.breakpoints[1:], p.levels):
            want += (v / np.pi) * np.log(np.abs((x - a) / (x - b)))
        mixed = np.concatenate(([np.inf], x, [np.nan, -np.inf]))
        got = hilbert_box_closed_form(p, mixed)
        assert got[1:-2].tobytes() == want.tobytes()
        assert np.isnan(got[-2]) and math.isnan(hilbert_box_closed_form(p, np.nan))
        assert hilbert_box_closed_form(p, x).tobytes() == want.tobytes()

    def test_zero_d_array_keeps_its_shape(self):
        p = make_haar_wavelet()
        for x in (2.0, np.inf, np.nan):
            got = hilbert_box_closed_form(p, np.array(x))
            assert isinstance(got, np.ndarray) and got.shape == ()
            want = hilbert_box_closed_form(p, x)
            assert got.tobytes() == np.float64(want).tobytes()


class TestPv:
    def test_zero_in_zero_out(self):
        g = make_grid(-2.0, 2.0)
        out = hilbert_pv(SampledSignal(g, np.zeros(g.count)))
        assert np.all(out.values == 0.0)

    def test_haar_probe_at_two(self, grid_64):
        out = hilbert_pv(sample(make_haar_wavelet(), grid_64))
        assert out.value_at(2.0) == pytest.approx(math.log(3 / 4) / math.pi, abs=5e-3)

    def test_box_probe_at_two(self, grid_64):
        out = hilbert_pv(sample(make_box(0.0, 1.0), grid_64))
        assert out.value_at(2.0) == pytest.approx(math.log(2.0) / math.pi, abs=5e-3)

    def test_linearity(self):
        g = make_grid(-8.0, 8.0)
        f1 = sample(make_bspline_scaling(2), g)
        f2 = sample(make_spline_wavelet(1), g)
        combo = SampledSignal(g, 2.5 * f1.values - 0.5 * f2.values)
        want = 2.5 * hilbert_pv(f1).values - 0.5 * hilbert_pv(f2).values
        np.testing.assert_allclose(hilbert_pv(combo).values, want, atol=1e-12)

    def test_oracle_agreement_away_from_jumps(self, grid_64):
        # sample() gives a jump its one-sided value (half-open intervals), so
        # the trapezoid sum sees a grid-aligned jump half a step off; that
        # adds ~ jump/(2*pi*k) at k steps, and the quadrature is accurate
        # once this term has died off.  With the mean of the one-sided levels
        # at the jump the term is gone: acceptance criterion 1 checks that
        # case at 5e-3 from 4 steps on.
        f = sample(make_haar_wavelet(), grid_64)
        out = hilbert_pv(f).values
        x = grid_64.abscissas()
        dist = np.min(np.abs(x[:, None] - np.array([-1.0, 0.0, 1.0])), axis=1)
        ok = dist > 1e-9
        want = np.zeros_like(x)
        want[ok] = hilbert_box_closed_form(make_haar_wavelet(), x[ok])
        err = np.abs(out - want)
        assert np.max(err[dist > 0.35]) < 5e-3
        assert np.max(err[dist > 4 * STEP]) < 7e-2

    def test_parity_transport(self):
        g = make_grid(-16.0, 16.0)
        x = g.abscissas()
        odd = SampledSignal(g, x * np.exp(-x ** 2))
        h_odd = hilbert_pv(odd).values
        assert np.max(np.abs(h_odd - h_odd[::-1])) < 1e-9  # even output
        even = sample(make_bspline_scaling(3), g)
        h_even = hilbert_pv(even).values
        assert np.max(np.abs(h_even + h_even[::-1])) < 1e-9  # odd output

    def test_correction_term_matters(self, grid_32):
        # the plain trapezoid sum, without the central-cell term, is first
        # order and visibly worse on a smooth input
        psi = sample(make_spline_wavelet(3), grid_32)
        ref = hilbert_spectral(psi, pad_factor=16).values
        on = hilbert_pv(psi).values
        n = grid_32.count
        off = odd_kernel_sum(psi.values, 1.0 / np.arange(1, n)) / np.pi
        scale = np.max(np.abs(ref))
        central = np.abs(grid_32.abscissas()) <= 16.0
        err_on = np.max(np.abs(on - ref)[central]) / scale
        err_off = np.max(np.abs(off - ref)[central]) / scale
        assert err_on < 1e-4
        assert err_off > 10 * err_on


class TestSpectral:
    def test_cosine_to_sine_exact_bin(self):
        n = 4096
        g = Grid(0.0, STEP, n)
        k = 64
        omega = 2 * np.pi * k / (n * STEP)
        x = g.abscissas()
        out = hilbert_spectral(SampledSignal(g, np.cos(omega * x)),
                               pad_factor=1)
        assert np.max(np.abs(out.values - np.sin(omega * x))) < 1e-10

    def test_sine_to_minus_cosine(self):
        n = 4096
        g = Grid(0.0, STEP, n)
        omega = 2 * np.pi * 64 / (n * STEP)
        x = g.abscissas()
        out = hilbert_spectral(SampledSignal(g, np.sin(omega * x)),
                               pad_factor=1)
        assert np.max(np.abs(out.values + np.cos(omega * x))) < 1e-10

    def test_energy_preserved_for_zero_mean(self):
        # the grid must hold essentially all of Hf's energy: for Haar the
        # 1/x^2 tail cropped beyond +-L costs ~ 2/(3 pi^2 L^3) of |f|^2, so
        # L = 32 is the first power of two inside the 1e-6 budget
        g = make_grid(-32.0, 32.0)
        for d in range(4):
            f = sample(make_spline_wavelet(d), g)
            hf = hilbert_spectral(f)
            assert l2_norm(hf) == pytest.approx(l2_norm(f), rel=1e-6), f"degree {d}"
        haar = sample(make_haar_wavelet(), g)
        assert l2_norm(hilbert_spectral(haar)) == pytest.approx(l2_norm(haar), rel=1e-6)

    def test_linearity(self):
        g = make_grid(-8.0, 8.0)
        f1 = sample(make_bspline_scaling(1), g)
        f2 = sample(make_spline_wavelet(2), g)
        combo = SampledSignal(g, 1.5 * f1.values + 2.0 * f2.values)
        want = 1.5 * hilbert_spectral(f1).values + 2.0 * hilbert_spectral(f2).values
        np.testing.assert_allclose(hilbert_spectral(combo).values, want, atol=1e-12)

    def test_padding_changes_tail(self, grid_64):
        # with no padding the slowly decaying kernel wraps around and
        # measurably pollutes the tail
        phi = sample(make_bspline_scaling(3), grid_64)
        h1 = hilbert_spectral(phi, pad_factor=1)
        h16 = hilbert_spectral(phi, pad_factor=16)
        assert abs(h1.value_at(48.0) - h16.value_at(48.0)) > 1e-3

    def test_smooth_length_is_least_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        def least_smooth_from(m):
            while not smooth(m):
                m += 1
            return m

        ms = range(1, 5001)
        assert [_smooth_length(m) for m in ms] == [least_smooth_from(m) for m in ms]

    @pytest.mark.parametrize("count", [2, 4096, 4097, 2 ** 18 + 1])
    def test_fft_length(self, count):
        assert fft_length(count, 1) == count
        assert fft_length(count) == _smooth_length(16 * count)

    # the cubic wavelet on an odd grid, where 16*count is not 5-smooth; and
    # noise with a nonzero mean, whose DC and Nyquist bins are far from 0, at
    # counts where pad*count is itself the multiplier's period N, odd (1875)
    # or even (with N/2 even or, at 2002, odd)
    @pytest.mark.parametrize("signal,count,pad", [
        ("cubic", 2 ** 12 + 1, 16), ("cubic", 2 ** 12 + 1, 1),
        ("noise", 1875, 1), ("noise", 2000, 1), ("noise", 2002, 1), ("noise", 1875, 16),
    ])
    def test_matches_complex_fft_at_pad_times_count(self, signal, count, pad):
        g = Grid(-32.0, 64.0 / (count - 1), count)
        if signal == "cubic":
            f = sample(make_spline_wavelet(3), g)
        else:
            f = SampledSignal(g, 0.5 + np.random.default_rng(0).normal(size=count))
        want = _complex_fft_reference(f.values, pad)
        got = hilbert_spectral(f, pad_factor=pad).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("count,pad", [
        (2 ** 12 + 1, 16), (2 ** 12 + 1, 1), (1875, 1), (2000, 1), (2002, 1), (1875, 16),
        (3, 1), (2, 1),
    ])
    def test_kernel_built_in_place_is_the_reference_kernel(self, count, pad):
        # pad 1 wraps offsets past N/2, which flips their parity when N is odd
        f = SampledSignal(Grid(0.0, 1.0, count), np.random.default_rng(count).normal(size=count))
        want = odd_kernel_sum(f.values, _spectral_kernel_reference(count, fft_length(count, pad)))
        assert hilbert_spectral(f, pad_factor=pad).values.tobytes() == want.tobytes()

    def test_doubled_grid_peak_memory(self):
        # the certificate's span-doubled cubic wavelet (2^19+1 samples, about
        # 4 MiB a buffer); a chain of whole-array temporaries takes 24 MiB,
        # and a kernel the caller still holds during the FFTs 12.4 MiB
        f = sample(make_spline_wavelet(3), Grid(-256.0, 2.0 ** -10, 2 ** 19 + 1))
        assert traced_peak_mib(lambda: hilbert_spectral(f)) < 10.0

    def test_huge_pad_holds_no_buffer(self):
        # N = fft_length(count, 10**18) is far beyond memory; the engine only
        # evaluates the kernel at the grid's offsets, and the tail is pad 16's
        f = sample(make_spline_wavelet(3), make_grid(-16.0, 16.0))
        got = hilbert_spectral(f, pad_factor=10 ** 18).values
        want = hilbert_spectral(f).values
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_pad_factor_validation(self):
        # a fractional pad is refused, not truncated (1.9 would run at pad 1)
        f = SampledSignal(Grid(0.0, 1.0, 8), np.arange(8.0))
        for pad in (0, -3, 1.9, 2.7):
            with pytest.raises(InvalidParameterError):
                fft_length(4097, pad)
            with pytest.raises(InvalidParameterError):
                hilbert_spectral(f, pad_factor=pad)


class TestMethodAgreement:
    """The two engines run one convolution (``odd_kernel_sum``) with
    independent kernels, the trapezoid weights 1/m and the padded
    multiplier's exact discrete kernel; agreement on smooth compactly
    supported (or decaying) inputs cross-validates the two discretizations.
    Generators with corners (degree-1 splines) sit at the contract's
    smoothness boundary; the C1 ones used here all clear 1e-3 relative sup
    distance."""

    @pytest.mark.parametrize("name,spec", [
        ("bspline1", make_bspline_scaling(1)),
        ("bspline2", make_bspline_scaling(2)),
        ("bspline3", make_bspline_scaling(3)),
        ("spline_wavelet2", make_spline_wavelet(2)),
        ("spline_wavelet3", make_spline_wavelet(3)),
        ("gauss_cos", make_modulated_window("gauss", omega0=3.0, sigma=1.5)),
        ("sinc2_cos", make_modulated_window("sinc2", omega0=3.0)),
    ])
    def test_pv_vs_spectral(self, name, spec, grid_32):
        f = sample(spec, grid_32)
        pv = hilbert_pv(f).values
        sp = hilbert_spectral(f, pad_factor=16).values
        central = np.abs(grid_32.abscissas()) <= 16.0
        rel = np.max(np.abs(pv - sp)[central]) / np.max(np.abs(sp))
        assert rel < 1e-3, f"{name}: {rel:.2e}"


class TestBackends:
    def test_numpy_fallback_matches_formula(self):
        # tiny case checked against a literal double loop
        f = np.array([0.0, 1.0, -2.0, 0.5, 0.0, 3.0])
        n = len(f)
        want = np.zeros(n)
        for i in range(n):
            for j in range(1, n):
                left = f[i - j] if 0 <= i - j else 0.0
                right = f[i + j] if i + j < n else 0.0
                want[i] += (left - right) / j
        np.testing.assert_allclose(_pv_numpy.pv_sum(f), want, atol=1e-14)

    def test_backend_name(self):
        # benchmark records read this constant
        assert PV_BACKEND == "numpy"


class TestPinnedTolerance:
    """Both engines against references that do not go through
    ``odd_kernel_sum``, on the cubic wavelet at 2^14+1 samples: each within
    1e-14 of sup, and the [6, 24] decay exponent within 1e-8."""

    @staticmethod
    def _check(got, want, grid):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        fit_got = fit_decay(SampledSignal(grid, got), (6.0, 24.0))
        fit_want = fit_decay(SampledSignal(grid, want), (6.0, 24.0))
        assert abs(fit_got.exponent - fit_want.exponent) <= 1e-8

    def test_pv_against_direct_sum(self, grid_32):
        f = sample(make_spline_wavelet(3), grid_32)
        want = (_direct_pv_sum(f.values) - grid_32.step * derivative(f).values) / np.pi
        self._check(hilbert_pv(f).values, want, grid_32)

    def test_spectral_against_complex_fft(self, grid_32):
        f = sample(make_spline_wavelet(3), grid_32)
        self._check(hilbert_spectral(f).values, _complex_fft_reference(f.values, 16), grid_32)
