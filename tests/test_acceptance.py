"""Acceptance suite: every quantitative claim the toolkit certifies, each at
its stated tolerance, one printed PASS/FAIL line per criterion clause.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Two clauses are implemented exactly as stated and are expected to fail.  Each
cap sits below the exact closed-form value, so the failure is a calibration
defect of the stated tolerance, not an implementation defect; the printed
detail carries the measured margin:

* 4b  -- the exact transform of the step wavelet satisfies
         |Hpsi(x)|*pi*x^2 = x^2*|ln(1-1/x^2)| = 1 + 1/(2x^2) + O(x^-4) > 1,
         4*ln(4/3) = 1.1507 at |x| = 2: above the 1.05 cap until |x| ~ 3.267.
* 9a  -- the exact probe is 100*ln(100/99) - 1 = 0.50336% away from its
         limit; the 0.5% cap sits just below the true value (5-digit
         rounding of the two numbers gives 0.4995%, which is how the cap
         was evidently chosen).

Two clauses are stated on the case the exact transform supports:

* 1   -- ``sample`` gives a step function its one-sided value at a jump
         (half-open intervals), which puts a grid-aligned jump half a step
         off in the trapezoid sum and adds ~ D/(2*pi*k) at k steps from a
         jump of height D (0.06 at k = 5).  With the mean of the one-sided
         levels at each breakpoint the jump sits on its node, and the error
         left is the Euler-Maclaurin term ~ D/(12*pi*k^2) (2e-3 at k = 5).
* 5a  -- the degree-3 wavelet's transform changes sign near x ~ 3.05 and
         x ~ 4.5 before settling into the x^-5 regime; the exact function's
         own log-log fit over [3, 12] gives slope 3.84 and r^2 0.85, so the
         fit is taken over [6, 24], past the last sign change.
"""

import numpy as np

from hwl import analysis
from hwl.hilbert import (
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

GAMMA_GRID = (0.0, 0.75, 1.5, 2.0, 2.75, 3.0, 3.25, 4.0)


def check(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {cid}: {detail}"


def haar_closed_form_signal(grid) -> SampledSignal:
    x = grid.abscissas()
    dist = np.min(np.abs(x[:, None] - np.array([-1.0, 0.0, 1.0])), axis=1)
    vals = np.zeros_like(x)
    ok = dist > 1e-12
    vals[ok] = hilbert_box_closed_form(make_haar_wavelet(), x[ok])
    return SampledSignal(grid, vals)


def test_criterion_01_pv_matches_closed_form_oracle(grid_64):
    """PV transform of the step wavelet vs the exact piecewise-log oracle:
    absolute error < 5e-3 at every grid point more than 4 steps from a
    breakpoint, on [-64, 64], with each breakpoint sample set to the mean
    of its one-sided levels so the jump sits on its node."""
    x = grid_64.abscissas()
    vals = sample(make_haar_wavelet(), grid_64).values.copy()
    for b, mean in ((-1.0, 0.5), (0.0, 0.0), (1.0, -0.5)):
        vals[x == b] = mean
    got = hilbert_pv(SampledSignal(grid_64, vals)).values
    dist = np.min(np.abs(x[:, None] - np.array([-1.0, 0.0, 1.0])), axis=1)
    want = haar_closed_form_signal(grid_64).values
    err = np.abs(got - want)
    mask = dist > 4 * STEP
    worst = float(np.max(err[mask]))
    far = float(np.max(err[dist > 0.35]))
    check(
        "1",
        worst < 5e-3,
        f"max |pv - closed form| = {worst:.2e} at >4 steps from breakpoints "
        f"(tolerance 5e-3), mean values at the jumps; Euler-Maclaurin predicts "
        f"D/(12 pi k^2) = 2.12e-03 at k = 5; beyond dist > 0.35 the same "
        f"maximum is {far:.2e}",
    )


def test_criterion_02_engine_cross_validation(grid_32):
    """The space-domain and frequency-domain engines agree on the cubic
    spline wavelet to relative sup distance < 1e-3 on the central half."""
    psi = sample(make_spline_wavelet(3), grid_32)
    pv = hilbert_pv(psi).values
    sp = hilbert_spectral(psi, pad_factor=16).values
    central = np.abs(grid_32.abscissas()) <= 16.0
    rel = float(np.max(np.abs(pv - sp)[central]) / np.max(np.abs(sp[central])))
    check("2", rel < 1e-3, f"relative sup distance = {rel:.2e} (tolerance 1e-3)")


def test_criterion_03_scaling_function_decay(grid_64):
    """The transform of the cubic B-spline scaling function decays like
    1/|x|: fitted exponent 1.0 +- 0.1 with r^2 > 0.99 over [8, 48]."""
    phi = sample(make_bspline_scaling(3), grid_64)
    fit = analysis.fit_decay(hilbert_spectral(phi), (8.0, 48.0))
    ok = abs(fit.exponent - 1.0) <= 0.1 and fit.r_squared > 0.99
    check("3", ok, f"exponent = {fit.exponent:.4f} (want 1.0 +- 0.1), "
                   f"r^2 = {fit.r_squared:.6f} (want > 0.99)")


def test_criterion_04a_haar_decay_exponent(grid_64):
    """The transformed step wavelet decays like 1/x^2: fitted exponent
    2.0 +- 0.1 over [4, 64] on the closed form."""
    fit = analysis.fit_decay(haar_closed_form_signal(grid_64), (4.0, 64.0))
    check("4a", abs(fit.exponent - 2.0) <= 0.1,
          f"exponent = {fit.exponent:.4f} (want 2.0 +- 0.1), r^2 = {fit.r_squared:.6f}")


def test_criterion_04b_haar_tail_bound(grid_64):
    """|Hpsi(x)| * pi * x^2 <= 1 + 5e-2 at every grid point with |x| > 2."""
    hf = haar_closed_form_signal(grid_64)
    x = grid_64.abscissas()
    mask = np.abs(x) > 2.0
    ratio = np.abs(hf.values[mask]) * np.pi * x[mask] ** 2
    worst = float(np.max(ratio))
    where = float(x[mask][np.argmax(ratio)])
    beyond_4 = float(np.max(ratio[np.abs(x[mask]) >= 4.0]))
    check(
        "4b",
        worst <= 1.05,
        f"sup |H|pi x^2 = {worst:.4f} at x = {where:+.4f} (cap 1.05); the exact "
        f"ratio is 1 + 1/(2x^2) + O(x^-4), i.e. above the cap until |x| ~ 3.267; "
        f"sup over |x| >= 4 is {beyond_4:.4f}",
    )


def test_criterion_05a_wavelet_decay_order(grid_32):
    """The transformed cubic spline wavelet approaches 1/x^5: fitted
    exponent >= 4.2 with r^2 > 0.95 over [6, 24], past the transform's last
    sign change (x ~ 4.5)."""
    psi = sample(make_spline_wavelet(3), grid_32)
    fit = analysis.fit_decay(hilbert_spectral(psi), (6.0, 24.0))
    ok = fit.exponent >= 4.2 and fit.r_squared > 0.95
    check(
        "5a",
        ok,
        f"exponent = {fit.exponent:.3f} (want >= 4.2), r^2 = {fit.r_squared:.3f} "
        f"(want > 0.95) over [6, 24]; over [3, 12] the exact transform changes "
        f"sign near 3.05 and 4.5 and fits slope 3.84, r^2 0.85",
    )


def test_criterion_05b_decay_monotone_in_degree(grid_32):
    """Fitted decay exponents of the transformed spline wavelets are
    nondecreasing in the degree for degrees 0..3."""
    exps = []
    for d in range(4):
        psi = sample(make_spline_wavelet(d), grid_32)
        exps.append(analysis.fit_decay(hilbert_spectral(psi), (3.0, 12.0)).exponent)
    ok = all(a <= b + 1e-9 for a, b in zip(exps, exps[1:]))
    check("5b", ok, "exponents by degree: " + ", ".join(f"{e:.3f}" for e in exps))


def test_criterion_06_moment_preservation(grid_64):
    """The cubic spline wavelet has exactly 4 vanishing moments (tolerance
    1e-6), and its transform retains all 4 at truncation-aware tolerance."""
    psi = sample(make_spline_wavelet(3), grid_64)
    before = analysis.moments(psi, 4, tolerance=1e-6)
    hpsi = hilbert_spectral(psi)
    after = analysis.moments(hpsi, 3)  # truncation-aware default tolerance
    ok = before.vanishing_count == 4 and after.vanishing_count == 4
    check(
        "6",
        ok,
        f"vanishing_count(psi) = {before.vanishing_count} (want 4, 5th moment "
        f"{before.moments[4]:.3e}); vanishing_count(H psi) = {after.vanishing_count} "
        f"(want 4; |moments| {['%.1e' % abs(m) for m in after.moments]} vs "
        f"tolerances {['%.1e' % t for t in after.tolerances]})",
    )


def test_criterion_07_sobolev_preservation(grid_16):
    """Same-grid spectral transform preserves every Sobolev norm to 1e-10
    relative; both signals certify smoothness order 2; gamma = 4.0 is
    grid-unstable."""
    psi = sample(make_spline_wavelet(3), grid_16)
    hpsi = hilbert_spectral(psi, pad_factor=1)
    rels = []
    for gamma in (0.0, 1.0, 2.0, 3.0, 3.25):
        a = analysis.sobolev_norm(psi, gamma)
        b = analysis.sobolev_norm(hpsi, gamma)
        rels.append(abs(a - b) / a)
    est_psi = analysis.smoothness_profile(psi, GAMMA_GRID)
    est_h = analysis.smoothness_profile(hpsi, GAMMA_GRID)
    unstable_4 = not est_psi.stable[GAMMA_GRID.index(4.0)]
    ok = (max(rels) < 1e-10 and est_psi.smoothness_order == 2
          and est_h.smoothness_order == 2 and unstable_4)
    check(
        "7",
        ok,
        f"max norm mismatch = {max(rels):.2e} (tolerance 1e-10); smoothness "
        f"orders {est_psi.smoothness_order}/{est_h.smoothness_order} (want 2/2); "
        f"gamma=4.0 unstable: {unstable_4}",
    )


def test_criterion_08_bedrosian():
    """Modulation identity: residual < 1e-4 for the bandlimited window at
    omega0 = 3; residual > 1e-2 at omega0 = 1 where the hypothesis fails."""
    g = make_grid(-128.0, 128.0, 2.0 ** -7)
    res_hi = analysis.bedrosian_residual(make_modulated_window("sinc2", 3.0), g)
    res_lo = analysis.bedrosian_residual(make_modulated_window("sinc2", 1.0), g)
    ok = res_hi < 1e-4 and res_lo > 1e-2
    check("8", ok, f"residual(omega0=3) = {res_hi:.2e} (want < 1e-4); "
                   f"residual(omega0=1) = {res_lo:.2e} (want > 1e-2)")


def test_criterion_09a_tail_limit_box():
    """x * Hf(x) at x = 100 for the unit box equals 1/pi within 0.5%."""
    g = make_grid(-128.0, 128.0)
    box = make_box(0.0, 1.0)
    f = sample(box, g)
    x = g.abscissas()
    ok_pts = (x != 0.0) & (x != 1.0)
    vals = np.zeros_like(x)
    vals[ok_pts] = hilbert_box_closed_form(box, x[ok_pts])
    probe, predicted = analysis.tail_limit(f, SampledSignal(g, vals), 100.0)
    rel = abs(probe - predicted) / abs(predicted)
    check(
        "9a",
        rel < 0.005,
        f"probe = {probe:.6f}, predicted = {predicted:.6f}, relative gap = "
        f"{rel:.6f} (cap 0.005); the exact gap is 100*ln(100/99) - 1 = 0.0050336",
    )


def test_criterion_09b_tail_limit_haar():
    """The same probe for the zero-mean step wavelet is below 0.0035."""
    g = make_grid(-128.0, 128.0)
    f = sample(make_haar_wavelet(), g)
    probe, predicted = analysis.tail_limit(f, haar_closed_form_signal(g), 100.0)
    check("9b", abs(probe) < 0.0035,
          f"|probe| = {abs(probe):.6f} (cap 0.0035), predicted = {predicted:.2e}")


def test_criterion_10_partition_breakdown(grid_64):
    """Integer translates of the cubic B-spline sum to 1 within 1e-9
    centrally; translates of its transform miss 1 by more than 0.9."""
    x = grid_64.abscissas()
    plain = analysis.partition_deviation(make_bspline_scaling(3), 50, False, grid_64)
    max_plain = float(np.max(np.abs(plain.values[np.abs(x) <= 40.0])))
    transformed = analysis.partition_deviation(make_bspline_scaling(3), 50, True, grid_64)
    min_trans = float(np.min(np.abs(transformed.values[np.abs(x) <= 2.0])))
    ok = max_plain < 1e-9 and min_trans > 0.9
    check("10", ok, f"plain sum deviation = {max_plain:.2e} (cap 1e-9); "
                    f"transformed deviation from 1 >= {min_trans:.4f} (want > 0.9)")


def test_criterion_11_unitarity():
    """Exact-bin cosine maps to sine below 1e-10; the transform preserves
    the L2 norm of every zero-mean test wavelet to 1e-6 relative."""
    n = 4096
    g = Grid(0.0, STEP, n)
    omega = 2 * np.pi * 64 / (n * STEP)
    x = g.abscissas()
    out = hilbert_spectral(SampledSignal(g, np.cos(omega * x)),
                           pad_factor=1)
    sin_err = float(np.max(np.abs(out.values - np.sin(omega * x))))

    wide = make_grid(-32.0, 32.0)
    energy_rels = []
    for name, spec in [("haar", make_haar_wavelet())] + [
            (f"spline{d}", make_spline_wavelet(d)) for d in range(4)]:
        f = sample(spec, wide)
        energy_rels.append(abs(l2_norm(hilbert_spectral(f)) / l2_norm(f) - 1.0))
    ok = sin_err < 1e-10 and max(energy_rels) < 1e-6
    check("11", ok, f"cos->sin sup error = {sin_err:.2e} (cap 1e-10); worst "
                    f"energy drift = {max(energy_rels):.2e} (cap 1e-6)")


def test_criterion_12_certificates(grid_32):
    """Empirical bound constants: stable for the full-order wavelet bound
    and the order-zero scaling bound; unstable when a vanishing moment is
    asserted that the scaling function lacks."""
    psi = sample(make_spline_wavelet(3), grid_32)
    phi = sample(make_bspline_scaling(3), grid_32)
    c_wavelet = analysis.theorem_certificate(psi, hilbert_spectral(psi), 4)
    c_phi0 = analysis.theorem_certificate(phi, hilbert_spectral(phi), 0)
    c_phi1 = analysis.theorem_certificate(phi, hilbert_spectral(phi), 1)
    ok = c_wavelet.stable and c_phi0.stable and not c_phi1.stable
    check(
        "12",
        ok,
        f"wavelet n=4 stable={c_wavelet.stable} (C={c_wavelet.empirical_constant:.4f}); "
        f"scaling n=0 stable={c_phi0.stable} (C={c_phi0.empirical_constant:.4f}); "
        f"scaling n=1 stable={c_phi1.stable} "
        f"(C {c_phi1.empirical_constant:.3f} -> {c_phi1.empirical_constant_doubled:.3f})",
    )
