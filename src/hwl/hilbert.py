"""The two Hilbert transform engines and the step-function oracle.

``hilbert_pv`` discretizes the principal-value convolution with 1/(pi*t)
directly in space; ``hilbert_spectral`` applies the -j*sign(w) multiplier in
frequency.  The two share no code path beyond the grid container, so their
agreement on smooth inputs is a genuine cross-check.  For step functions,
``hilbert_box_closed_form`` gives the exact transform and serves as the
independent oracle for both.

PV discretization
-----------------
With grid step h, the symmetric-cancellation form

    Hf(x) = (1/pi) * integral_0^inf [f(x-t) - f(x+t)] / t dt

is split into cells whose boundaries are the offset abscissas
t = (j + 1/2)*h, so the singularity at t = 0 is never touched: it sits
strictly inside the central cell, where the integrand has the finite limit
-2 f'(x).  The outer cells are summed by the composite trapezoid rule over
the integrand samples g(j*h) = (f[i-j] - f[i+j]) / (j*h), giving weights
1/j; the central contribution is the correction term -h*f'(x)/pi obtained
from that limit.  Switching the correction off
(``hilbert_pv(f, singularity_correction=False)``) drops the scheme from
second to first order on smooth inputs.

The outer-cell sum is one NumPy direct convolution (``_pv_numpy.pv_sum``);
``PV_BACKEND`` names it in benchmark records.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularPointError
from .numerics import SampledSignal, check_integer, derivative
from .wavelets import PiecewiseConstant
from . import _pv_numpy

PV_BACKEND = "numpy"

__all__ = [
    "PV_BACKEND",
    "fft_length",
    "hilbert_pv",
    "hilbert_spectral",
    "hilbert_box_closed_form",
]


def fft_length(count: int, pad_factor: int = 16) -> int:
    """FFT length the spectral engine uses for a signal of ``count`` samples.

    Pad factor 1 keeps the signal's own bins (exactly ``count``); any larger
    padding is rounded up to the least length >= pad_factor * count with no
    prime factor above 5, which FFTs handle fastest.  ``pad_factor`` must be
    an integer >= 1 (:class:`InvalidParameterError` otherwise).
    """
    pad = check_integer(pad_factor, "pad_factor", 1)
    return count if pad == 1 else _smooth_length(pad * count)


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


def hilbert_pv(f: SampledSignal, *, singularity_correction: bool = True) -> SampledSignal:
    """Principal-value quadrature transform of a sampled signal.

    ``singularity_correction`` adds the central-cell term -h*f'(x)/pi, which
    second-order accuracy requires.  Samples of f outside the grid are
    treated as zero, so inputs should be compactly supported or decayed at
    the grid edges.  Discontinuous inputs produce large-but-finite values
    near their jumps, mirroring the transform's logarithmic blow-up there.
    A jump sampled with its one-sided value (the half-open convention of
    ``sample``) sits half a step off its node in the trapezoid sum, which
    adds an error of order jump/(2*pi*k) at k steps, dominant in a band of a
    few dozen steps around the jump.  With the mean of the two one-sided
    levels at the jump's node that term is gone, and what remains is of
    order jump/(12*pi*k^2).
    """
    s = _pv_numpy.pv_sum(f.values)
    if singularity_correction:
        s = s - f.grid.step * derivative(f).values
    return SampledSignal(f.grid, s / np.pi)


def hilbert_spectral(f: SampledSignal, *, pad_factor: int = 16) -> SampledSignal:
    """Spectral multiplier transform: -j*sign(w) on the zero-padded DFT.

    The signal is zero-padded (as symmetrically as the lengths allow) to
    ``fft_length(count, pad_factor)`` points and transformed with a real
    FFT.  Padding pushes the periodic images of the slowly decaying kernel
    away from the observation window.  Every positive-frequency bin is
    multiplied by -j, the DC bin and, for even lengths, the sign-ambiguous
    Nyquist bin are set to 0, and the inverse real FFT is cropped back to
    the input grid.  The output is real by construction.
    """
    n = f.grid.count
    total = fft_length(n, pad_factor)
    left = (total - n) // 2
    buf = np.zeros(total)
    buf[left:left + n] = f.values
    spec = np.fft.rfft(buf)
    spec *= -1j
    # irfft would drop these two bins' imaginary values anyway; zeroing them
    # keeps the multiplier as stated
    spec[0] = 0.0
    if total % 2 == 0:
        spec[-1] = 0.0
    out = np.fft.irfft(spec, total)
    return SampledSignal(f.grid, out[left:left + n])


def hilbert_box_closed_form(p: PiecewiseConstant, x) -> float | np.ndarray:
    """Exact transform of a step function via piecewise-log integration:

        Hf(x) = sum_i (levels[i]/pi) * ln| (x - b_i) / (x - b_{i+1}) |.

    Raises :class:`SingularPointError` when any evaluation point coincides
    with a breakpoint, where the transform has a logarithmic singularity.
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    bp = np.asarray(p.breakpoints)
    if np.any(np.isin(x, bp)):
        offending = x[np.isin(x, bp)][0]
        raise SingularPointError(f"x = {offending} is a breakpoint of the step function")
    out = np.zeros_like(x)
    for a, b, v in zip(p.breakpoints, p.breakpoints[1:], p.levels):
        out += (v / np.pi) * np.log(np.abs((x - a) / (x - b)))
    return float(out[0]) if scalar else out
