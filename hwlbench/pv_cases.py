"""The principal-value kernel on its own, on the three inputs of
``benchmarks/bench_pv.py``: compact support on a wide grid (Haar, 32769
samples), wide support (cubic wavelet, 16385) and dense noise (8193).

Each case is timed through the kernel's span (median of ``REPEATS`` calls)
and checked against direct sums at a few indices.
"""

from __future__ import annotations

import statistics

import numpy as np

import hwl
from hwl import _pv_numpy

from .trace import TARGETS, Tracer

REPEATS = 5
TOLERANCE = 1e-9
_KERNEL = [t for t in TARGETS if t[:2] == ("hwl._pv_numpy", "pv_sum")]


def cases(seed: int) -> dict[str, np.ndarray]:
    step = 2.0 ** -8
    return {
        "haar_32769": hwl.sample(hwl.make_haar_wavelet(), hwl.Grid(-64.0, step, 32769)).values,
        "cubic_16385": hwl.sample(hwl.make_spline_wavelet(3),
                                  hwl.Grid(-32.0, step, 16385)).values,
        "dense_8193": np.random.default_rng(seed).normal(size=8193),
    }


def reference_error(f: np.ndarray, out: np.ndarray) -> float:
    """Largest error of ``out`` against S_i = sum_{j>=1} (f[i-j] - f[i+j])/j
    at nine indices, relative to sum_j (|f[i-j]| + |f[i+j]|)/j, the size of
    what the sum cancels."""
    n = f.shape[0]
    padded = np.concatenate([np.zeros(n), f, np.zeros(n)])
    j = np.arange(1, n + 1)
    worst = 0.0
    for i in np.linspace(0, n - 1, 9).astype(int):
        left, right = padded[n + i - j], padded[n + i + j]
        scale = max(float(np.sum((np.abs(left) + np.abs(right)) / j)), np.finfo(float).tiny)
        worst = max(worst, abs(float(np.sum((left - right) / j)) - float(out[i])) / scale)
    return worst


def run(seed: int) -> tuple[dict[str, float], int, list[dict]]:
    """Metrics ``pv_case.<case>_s`` and ``_madds``, cases attempted, failures."""
    metrics, failures = {}, []
    inputs = cases(seed)
    for name, f in inputs.items():
        with Tracer(_KERNEL) as tracer:
            for _ in range(REPEATS):
                out = _pv_numpy.pv_sum(f)
        metrics[f"pv_case.{name}_s"] = statistics.median(s.duration for s in tracer.spans)
        metrics[f"pv_case.{name}_madds"] = float(tracer.spans[0].counts["madds"])
        worst = reference_error(f, out)
        if not worst <= TOLERANCE:
            failures.append({"op": f"pv_case {name}",
                             "problems": [f"differs from the direct sum by {worst:.3e}"]})
    return metrics, len(inputs), failures
