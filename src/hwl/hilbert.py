"""The two Hilbert transform engines and the step-function oracle.

``hilbert_pv`` discretizes the principal-value convolution with 1/(pi*t)
in space; ``hilbert_spectral`` applies the -j*sign(w) multiplier of a
padded DFT.  Both run one convolution, ``numerics.odd_kernel_sum``, with
independent kernels (trapezoid weights 1/m against the multiplier's exact
discrete kernel), so their agreement on smooth inputs cross-checks the two
discretizations.  For step functions, ``hilbert_box_closed_form`` gives the
exact transform and serves as the independent oracle for both.

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

The outer-cell sum is ``_pv_numpy.pv_sum``; ``PV_BACKEND`` names it in
benchmark records.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularPointError
from .numerics import SampledSignal, _smooth_length, check_integer, derivative, odd_kernel_sum
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
    """Period N of the DFT multiplier ``hilbert_spectral`` reproduces.

    Pad factor 1 keeps the signal's own bins (exactly ``count``); any larger
    padding is rounded up to the least length >= pad_factor * count with no
    prime factor above 5.  ``pad_factor`` must be an integer >= 1
    (:class:`InvalidParameterError` otherwise).
    """
    pad = check_integer(pad_factor, "pad_factor", 1)
    return count if pad == 1 else _smooth_length(pad * count)


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

    The output is the signal zero-padded to N = ``fft_length(count, pad_factor)``
    points, times -j*sign(w) (0 at DC and an even N's Nyquist bin) and cropped
    back, computed with no N-point buffer as ``odd_kernel_sum`` with the exact
    kernel at offsets r reduced to (-N/2, N/2]: (2/N) cot(pi r/N) for odd r and
    0 for even r if N is even, (cos(pi r/N) - (-1)^r) / (N sin(pi r/N)) if N is
    odd.  Padding pushes the kernel's periodic images away from the grid."""
    n = f.grid.count
    total = fft_length(n, pad_factor)
    # one float buffer holds the offsets r, then t = pi r / N, then the kernel
    kernel = np.arange(1, n, dtype=np.float64)
    wrapped = 2 * (n - 1) > total  # pad 1: offsets past N/2 wrap to their periodic image
    if wrapped:
        kernel[total // 2:] -= total
    kernel *= np.pi
    kernel /= total
    if total % 2 == 0:
        np.tan(kernel, out=kernel)
        kernel *= total
        np.divide(2.0, kernel, out=kernel)
        kernel[1::2] = 0.0  # even r = i + 1; r - N has the same parity
    else:
        # (-1)^r for r = i + 1, and for the wrapped r - N, of the other parity
        sign = np.ones(n - 1)
        sign[::2] = -1.0
        if wrapped:
            sign[total // 2:] *= -1.0
        sin = np.sin(kernel)
        sin *= total
        np.cos(kernel, out=kernel)
        kernel -= sign
        kernel /= sin
    return SampledSignal(f.grid, odd_kernel_sum(f.values, kernel))


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
