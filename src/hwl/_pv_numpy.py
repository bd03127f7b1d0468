"""The principal-value quadrature sum S_i = sum_{j>=1} (f[i-j] - f[i+j])/j,
samples outside the grid being zero: the odd kernel k(m) = 1/m through
``numerics.odd_kernel_sum``."""

import numpy as np

from .numerics import odd_kernel_sum


def pv_sum(f: np.ndarray) -> np.ndarray:
    return odd_kernel_sum(f, 1.0 / np.arange(1, f.shape[0]))
