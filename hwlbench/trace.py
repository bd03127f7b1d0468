"""In-memory span tracing of ``hwl``'s layers, installed from outside.

The tracer replaces a function at the name its callers look it up under
(``hwl.cli.read_signal_csv``, ``hwl.analysis.hilbert_spectral``,
``numpy.fft.fft``, ...) with a wrapper that records a span: name, layer,
start, end and the span that was open when it was called.  Untraced runs
never install it, so they execute the unpatched program.  ``restore`` puts
every original object back.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans, so the layers'
self times add up to the time covered by top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

import numpy as np

from .stats import largest_prime_factor

LAYERS = ("cli", "report_io", "wavelets", "hilbert", "pv_kernel", "fft", "numerics", "analysis")


def _file_bytes(arg_index):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[arg_index])}


def _sample_count(args, kwargs, result):
    return {"samples": args[1].count}


def _pv_work(args, kwargs, result):
    f = args[0]
    nz = np.flatnonzero(f)
    span = int(nz[-1] - nz[0] + 1) if nz.size else 0
    # one multiply-add per (nonzero input sample, output sample) pair of the
    # direct convolution; computed from the sizes, not counted by hardware
    return {"madds": span * f.shape[0]}


def _fft_length(args, kwargs, result):
    return {"points": int(result.shape[-1])}


# (module, attribute, span name, layer, counter).  Each row is one name under
# which some caller -- the CLI, another module, or the benchmark's library
# workload -- looks the function up at call time.
TARGETS = (
    ("hwl.cli", "main", "cli.main", "cli", None),
    ("hwl.cli", "_digest", "cli.digest", "cli", _file_bytes(0)),
    ("hwl.cli", "read_signal_csv", "report_io.read_signal_csv", "report_io", _file_bytes(0)),
    ("hwl.cli", "write_signal_csv", "report_io.write_signal_csv", "report_io", _file_bytes(1)),
    ("hwl.cli", "write_report_json", "report_io.write_report_json", "report_io", None),
    # the CLI's own writer for the run-record report kinds; it is JSON report
    # writing, so it is booked with report_io
    ("hwl.cli", "_write_run_json", "report_io.write_run_json", "report_io", None),
    ("hwl.cli", "render_figure", "report_io.render_figure", "report_io", None),
    ("hwl.cli", "hilbert_pv", "hilbert.hilbert_pv", "hilbert", None),
    ("hwl.cli", "hilbert_spectral", "hilbert.hilbert_spectral", "hilbert", None),
    ("hwl.wavelets", "sample", "wavelets.sample", "wavelets", _sample_count),
    ("hwl.wavelets", "evaluate", "wavelets.evaluate", "wavelets", None),
    ("hwl.hilbert", "derivative", "numerics.derivative", "numerics", None),
    ("hwl._pv_numpy", "pv_sum", "pv_kernel.pv_sum", "pv_kernel", _pv_work),
    ("hwl.analysis", "hilbert_spectral", "hilbert.hilbert_spectral", "hilbert", None),
    ("hwl.analysis", "sample", "wavelets.sample", "wavelets", _sample_count),
    ("hwl.analysis", "evaluate", "wavelets.evaluate", "wavelets", None),
    ("hwl.analysis", "dft", "numerics.dft", "numerics", None),
    ("hwl.analysis", "derivative", "numerics.derivative", "numerics", None),
    ("hwl.analysis", "moments", "analysis.moments", "analysis", None),
    ("hwl.analysis", "fit_decay", "analysis.fit_decay", "analysis", None),
    ("hwl.analysis", "smoothness_profile", "analysis.smoothness_profile", "analysis", None),
    ("hwl.analysis", "theorem_certificate", "analysis.theorem_certificate", "analysis", None),
    ("hwl.analysis", "tail_limit", "analysis.tail_limit", "analysis", None),
    ("hwl.analysis", "bedrosian_residual", "analysis.bedrosian_residual", "analysis", None),
    ("hwl.analysis", "partition_deviation", "analysis.partition_deviation", "analysis", None),
    ("hwl", "sample", "wavelets.sample", "wavelets", _sample_count),
    ("hwl", "hilbert_pv", "hilbert.hilbert_pv", "hilbert", None),
    ("hwl", "hilbert_spectral", "hilbert.hilbert_spectral", "hilbert", None),
    ("hwl", "moments", "analysis.moments", "analysis", None),
    ("hwl", "fit_decay", "analysis.fit_decay", "analysis", None),
    ("hwl", "smoothness_profile", "analysis.smoothness_profile", "analysis", None),
    ("hwl", "theorem_certificate", "analysis.theorem_certificate", "analysis", None),
    ("numpy.fft", "fft", "fft.fft", "fft", _fft_length),
    ("numpy.fft", "ifft", "fft.ifft", "fft", _fft_length),
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "counts": self.counts}


class Tracer:
    """Records spans around the functions named in ``targets``.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original objects.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, layer, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, time.perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, layer, counter in self.targets:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, counter))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the direct children's durations."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans, chain_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced chain pass.

    ``chain_s`` is the traced pass's wall time; the part of it no top-level
    span covers is reported as ``self.unattributed_s``, so the ``self.*``
    values add up to it.
    """
    own = self_times(spans)
    calls, incl, excl, counts = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        excl[s.name] = excl.get(s.name, 0.0) + t
        layer_self[s.layer] += t
        for key, value in s.counts.items():
            counts[(s.name, key)] = counts.get((s.name, key), 0) + value
    fft_lengths = {s.counts["points"] for s in spans if s.layer == "fft"}

    def c(name):
        return float(calls.get(name, 0))

    def i(name):
        return incl.get(name, 0.0)

    def x(name):
        return excl.get(name, 0.0)

    def n(name, key):
        return float(counts.get((name, key), 0))

    m = {
        "cli.calls": c("cli.main"),
        "cli.self_s": x("cli.main"),
        "cli.digest_s": i("cli.digest"),
        "cli.digest_bytes": n("cli.digest", "bytes"),
        "report_io.csv_read_calls": c("report_io.read_signal_csv"),
        "report_io.csv_read_s": i("report_io.read_signal_csv"),
        "report_io.csv_read_bytes": n("report_io.read_signal_csv", "bytes"),
        "report_io.csv_write_calls": c("report_io.write_signal_csv"),
        "report_io.csv_write_s": i("report_io.write_signal_csv"),
        "report_io.csv_write_bytes": n("report_io.write_signal_csv", "bytes"),
        "report_io.json_write_s": i("report_io.write_report_json") + i("report_io.write_run_json"),
        "report_io.svg_s": i("report_io.render_figure"),
        "wavelets.sample_calls": c("wavelets.sample"),
        "wavelets.sample_s": i("wavelets.sample"),
        "wavelets.samples": n("wavelets.sample", "samples"),
        "wavelets.evaluate_s": i("wavelets.evaluate"),
        "hilbert.pv_calls": c("hilbert.hilbert_pv"),
        "hilbert.pv_self_s": x("hilbert.hilbert_pv"),
        "hilbert.spectral_calls": c("hilbert.hilbert_spectral"),
        "hilbert.spectral_self_s": x("hilbert.hilbert_spectral"),
        "pv_kernel.calls": c("pv_kernel.pv_sum"),
        "pv_kernel.s": i("pv_kernel.pv_sum"),
        "pv_kernel.madds": n("pv_kernel.pv_sum", "madds"),
        "fft.calls": c("fft.fft") + c("fft.ifft"),
        "fft.s": i("fft.fft") + i("fft.ifft"),
        "fft.points": n("fft.fft", "points") + n("fft.ifft", "points"),
        "fft.max_prime": float(max((largest_prime_factor(k) for k in fft_lengths), default=0)),
        "numerics.dft_calls": c("numerics.dft"),
        "numerics.dft_self_s": x("numerics.dft"),
        "numerics.derivative_s": i("numerics.derivative"),
        "analysis.fit_decay_s": i("analysis.fit_decay"),
        "analysis.moments_s": i("analysis.moments"),
        "analysis.smoothness_profile_self_s": x("analysis.smoothness_profile"),
        "analysis.certificate_self_s": x("analysis.theorem_certificate"),
        "analysis.tail_limit_s": i("analysis.tail_limit"),
        "analysis.bedrosian_self_s": x("analysis.bedrosian_residual"),
        "analysis.partition_self_s": x("analysis.partition_deviation"),
    }
    covered = sum(s.duration for s in spans if s.parent < 0)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = layer_self[layer]
    m["self.unattributed_s"] = chain_s - covered
    return m
