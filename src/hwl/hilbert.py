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
from that limit.  Switching the correction off (PvConfig) drops the scheme
from second to first order on smooth inputs.

The outer-cell sum is one NumPy direct convolution (``_pv_numpy.pv_sum``);
``PV_BACKEND`` names it in benchmark records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SingularPointError
from .numerics import SampledSignal, derivative
from .wavelets import PiecewiseConstant
from . import _pv_numpy

PV_BACKEND = "numpy"

__all__ = [
    "PvConfig",
    "SpectralConfig",
    "PV_BACKEND",
    "hilbert_pv",
    "hilbert_spectral",
    "hilbert_box_closed_form",
]


@dataclass(frozen=True)
class PvConfig:
    """Knob for the PV engine.

    ``singularity_correction`` toggles the central-cell term -h*f'(x)/pi
    (on by default; required for second-order accuracy).
    """

    singularity_correction: bool = True


@dataclass(frozen=True)
class SpectralConfig:
    """Zero-padding factor for the spectral engine; total FFT length is
    pad_factor * count.  Padding pushes the periodic images of the slowly
    decaying kernel away from the observation window."""

    pad_factor: int = 16

    def __post_init__(self):
        if int(self.pad_factor) < 1:
            raise InvalidParameterError(f"pad_factor must be >= 1, got {self.pad_factor}")


def hilbert_pv(f: SampledSignal, cfg: PvConfig | None = None) -> SampledSignal:
    """Principal-value quadrature transform of a sampled signal.

    Samples of f outside the grid are treated as zero, so inputs should be
    compactly supported or decayed at the grid edges.  Discontinuous inputs
    produce large-but-finite values near their jumps, mirroring the
    transform's logarithmic blow-up there.  A jump sampled with its one-sided
    value (the half-open convention of ``sample``) sits half a step off its
    node in the trapezoid sum, which adds an error of order jump/(2*pi*k) at
    k steps, dominant in a band of a few dozen steps around the jump.  With
    the mean of the two one-sided levels at the jump's node that term is
    gone, and what remains is of order jump/(12*pi*k^2).
    """
    cfg = cfg or PvConfig()
    s = _pv_numpy.pv_sum(f.values)
    if cfg.singularity_correction:
        s = s - f.grid.step * derivative(f).values
    return SampledSignal(f.grid, s / np.pi)


def hilbert_spectral(f: SampledSignal, cfg: SpectralConfig | None = None) -> SampledSignal:
    """Spectral multiplier transform: -j*sign(w) on the zero-padded DFT.

    The signal is zero-padded (as symmetrically as the lengths allow) to
    pad_factor * count, transformed, multiplied bin-wise by -j*sign(w_k)
    with the DC bin forced to 0 and, for even lengths, the sign-ambiguous
    Nyquist bin forced to 0, inverse-transformed, and cropped back to the
    input grid.  The result is real to rounding; an imaginary residue above
    1e-10 (relative) raises.
    """
    cfg = cfg or SpectralConfig()
    n = f.grid.count
    total = int(cfg.pad_factor) * n
    left = (total - n) // 2
    buf = np.zeros(total)
    buf[left:left + n] = f.values
    spec = np.fft.fft(buf)
    w = np.fft.fftfreq(total)
    mult = -1j * np.sign(w)
    if total % 2 == 0:
        mult[total // 2] = 0.0
    out = np.fft.ifft(spec * mult)
    scale = max(float(np.max(np.abs(out.real))), np.finfo(float).tiny)
    residue = float(np.max(np.abs(out.imag)))
    if residue > 1e-10 * scale:
        raise RuntimeError(
            f"spectral transform lost realness: imaginary residue {residue:.3e} "
            f"vs scale {scale:.3e}"
        )
    return SampledSignal(f.grid, out.real[left:left + n])


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
