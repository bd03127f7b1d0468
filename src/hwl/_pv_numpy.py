"""The principal-value quadrature inner loop in NumPy.

S_i = sum_{j>=1} (f[i-j] - f[i+j])/j with out-of-range samples treated as
zero, realized as one direct (not FFT) convolution of the nonzero slice of f
against the odd harmonic kernel.
"""

from __future__ import annotations

import numpy as np


def pv_sum(f: np.ndarray) -> np.ndarray:
    n = f.shape[0]
    nz = np.flatnonzero(f)
    if nz.size == 0:
        return np.zeros(n)
    lo, hi = int(nz[0]), int(nz[-1])
    g = f[lo:hi + 1]
    # kernel over all occurring sample-minus-output offsets m = p - i
    m = np.arange(lo - (n - 1), hi + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        w = np.where(m == 0.0, 0.0, -1.0 / m)
    conv = np.convolve(g, w[::-1])
    return conv[len(w) - n + np.arange(n)]
