"""Both transform engines, the step-function oracle, and the PV kernel."""

import math

import numpy as np
import pytest

from hwl import _pv_numpy
from hwl.errors import SingularPointError
from hwl.hilbert import (
    PV_BACKEND,
    PvConfig,
    SpectralConfig,
    hilbert_box_closed_form,
    hilbert_pv,
    hilbert_spectral,
)
from hwl.numerics import Grid, SampledSignal, l2_norm
from hwl.wavelets import (
    make_box,
    make_bspline_scaling,
    make_haar_wavelet,
    make_modulated_window,
    make_spline_wavelet,
    sample,
)

from conftest import STEP, make_grid


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
        # without the central-cell term the scheme is first order and visibly
        # worse on a smooth input
        psi = sample(make_spline_wavelet(3), grid_32)
        ref = hilbert_spectral(psi, SpectralConfig(pad_factor=16)).values
        on = hilbert_pv(psi, PvConfig(singularity_correction=True)).values
        off = hilbert_pv(psi, PvConfig(singularity_correction=False)).values
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
                               SpectralConfig(pad_factor=1))
        assert np.max(np.abs(out.values - np.sin(omega * x))) < 1e-10

    def test_sine_to_minus_cosine(self):
        n = 4096
        g = Grid(0.0, STEP, n)
        omega = 2 * np.pi * 64 / (n * STEP)
        x = g.abscissas()
        out = hilbert_spectral(SampledSignal(g, np.sin(omega * x)),
                               SpectralConfig(pad_factor=1))
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
        h1 = hilbert_spectral(phi, SpectralConfig(pad_factor=1))
        h16 = hilbert_spectral(phi, SpectralConfig(pad_factor=16))
        assert abs(h1.value_at(48.0) - h16.value_at(48.0)) > 1e-3

    def test_pad_factor_validation(self):
        with pytest.raises(ValueError):
            SpectralConfig(pad_factor=0)


class TestMethodAgreement:
    """The two engines share no code path; agreement on smooth compactly
    supported (or decaying) inputs cross-validates both.  Generators with
    corners (degree-1 splines) sit at the contract's smoothness boundary;
    the C1 ones used here all clear 1e-3 relative sup distance."""

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
        sp = hilbert_spectral(f, SpectralConfig(pad_factor=16)).values
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
