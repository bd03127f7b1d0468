"""Tests of the benchmark's own helpers.

Run with ``python -m pytest hwlbench/tests`` from the repository root.
"""

import importlib

import pytest

from hwlbench.stats import largest_prime_factor, summarize
from hwlbench.trace import LAYERS, TARGETS, Span, Tracer, layer_metrics, self_times
from hwlbench.workloads import WORKLOADS, prepare


def _span(name, layer, start, end, parent):
    s = Span(name, layer, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", "cli", 0.0, 10.0, -1),
        _span("hilbert.hilbert_pv", "hilbert", 1.0, 4.0, 0),
        _span("pv_kernel.pv_sum", "pv_kernel", 2.0, 3.0, 1),
        _span("report_io.write_signal_csv", "report_io", 5.0, 6.0, 0),
        _span("cli.main", "cli", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_layer_self_times_add_up_to_the_chain():
    spans = [
        _span("cli.main", "cli", 0.0, 10.0, -1),
        _span("hilbert.hilbert_pv", "hilbert", 1.0, 4.0, 0),
        _span("pv_kernel.pv_sum", "pv_kernel", 2.0, 3.0, 1),
        _span("report_io.read_signal_csv", "report_io", 5.0, 6.0, 0),
    ]
    m = layer_metrics(spans, chain_s=10.5)
    assert m["cli.self_s"] == 6.0
    assert m["hilbert.pv_self_s"] == 2.0
    assert m["pv_kernel.s"] == 1.0
    assert m["report_io.csv_read_calls"] == 1.0
    assert m["self.unattributed_s"] == pytest.approx(0.5)
    assert sum(m[f"self.{layer}_s"] for layer in LAYERS) + m["self.unattributed_s"] \
        == pytest.approx(10.5)


@pytest.mark.parametrize("n, expected", [
    (1, 1), (2, 2), (97, 97), (1024, 2), (65537, 65537),
    (2 ** 20 + 1, 61681),                 # 17 * 61681
    (16 * (2 ** 18 + 1), 109),            # 2^18+1 = 5 * 13 * 37 * 109
    (16 * (2 ** 19 + 1), 174763),         # the certificate's doubled CLI grid
])
def test_largest_prime_factor(n, expected):
    assert largest_prime_factor(n) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(25, 0, -1))  # 1..25, unsorted
    s = summarize(values)
    assert s["n"] == 25 and s["median"] == 13
    assert s["tail_pct"] == pytest.approx(60.0)  # rank 15 of 25
    assert s["tail"] == 15
    assert sum(v > s["tail"] for v in values) == 10


def test_tail_percentile_absent_below_eleven_samples():
    s = summarize([3.0, 1.0, 2.0] * 3 + [5.0])
    assert s["n"] == 10 and s["tail"] is None and s["tail_pct"] is None
    assert summarize([2.0, 4.0])["median"] == 3.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_inputs(name, tmp_path):
    a, b = prepare(name, 7, tmp_path), prepare(name, 7, tmp_path)
    assert a.params == b.params
    assert [op.name for op in a.ops] == [op.name for op in b.ops]
    other = prepare(name, 8, tmp_path)
    assert other.params != a.params
    assert other.params["count"] == a.params["count"]


def test_cli_pipeline_grid_keeps_its_count_for_every_shift(tmp_path):
    from hwl.cli import parse_grid

    for seed in range(20):
        grid = prepare("cli-pipeline", seed, tmp_path).params["grid"]
        assert parse_grid(grid).count == 2 ** 18 + 1


def test_tracer_restores_every_wrapped_name(tmp_path):
    from hwl import cli

    originals = [getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS]
    with Tracer() as tracer:
        wrapped = [getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS]
        psi = tmp_path / "psi.csv"
        assert cli.main(["gen", "--wavelet", "spline-wavelet,1", "--grid", "-4:4:0.0625",
                         "--out", str(psi)]) == 0
        assert cli.main(["hilbert", "--method", "spectral", "--in", str(psi),
                         "--out", str(tmp_path / "h.csv")]) == 0
    assert all(w is not o for w, o in zip(wrapped, originals))
    after = [getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS]
    assert all(a is o for a, o in zip(after, originals))

    names = [s.name for s in tracer.spans]
    assert names.count("cli.main") == 2
    for name in ("wavelets.sample", "report_io.write_signal_csv",
                 "report_io.read_signal_csv", "hilbert.hilbert_spectral", "fft.fft"):
        assert name in names
    fft = next(s for s in tracer.spans if s.name == "fft.fft")
    assert tracer.spans[fft.parent].name == "hilbert.hilbert_spectral"
    assert fft.counts == {"points": 16 * 129}


def test_pv_reference_accepts_the_kernel_and_rejects_a_wrong_sum():
    import numpy as np
    from hwl import _pv_numpy

    from hwlbench.pv_cases import reference_error

    f = np.random.default_rng(0).normal(size=257)
    out = _pv_numpy.pv_sum(f)
    assert reference_error(f, out) < 1e-12
    assert reference_error(f, out + 1e-3) > 1e-6
