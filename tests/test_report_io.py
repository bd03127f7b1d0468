"""CSV round trips, JSON report schema, SVG figure rendering."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hwl import analysis, report_io
from hwl.errors import InvalidParameterError, ParseError, SchemaError
from hwl.hilbert import hilbert_spectral
from hwl.numerics import Grid, SampledSignal
from hwl.report_io import (
    PanelSpec,
    read_report_json,
    read_signal_csv,
    render_figure,
    write_report_json,
    write_signal_csv,
)
from hwl.wavelets import make_bspline_scaling, make_spline_wavelet, sample

from conftest import rng, traced_peak_mib
from test_cli import _CSV


@pytest.fixture
def awkward_signal():
    # values exercising the full float width: subnormal-ish, huge, negative
    g = Grid(-1.25, 1.0 / 3.0, 9)
    r = rng(3)
    v = r.normal(size=9) * np.logspace(-150, 150, 9)
    return SampledSignal(g, v)


class TestSignalCsv:
    def test_round_trip_bit_identical(self, tmp_path, awkward_signal):
        p = tmp_path / "sig.csv"
        write_signal_csv(awkward_signal, p)
        back = read_signal_csv(p)
        np.testing.assert_array_equal(back.values, awkward_signal.values)
        assert back.grid.count == awkward_signal.grid.count
        assert back.grid.x_min == awkward_signal.grid.x_min

    def test_header_and_row_shape(self, tmp_path):
        g = Grid(0.0, 0.5, 3)
        p = tmp_path / "sig.csv"
        write_signal_csv(SampledSignal(g, [1.0, 2.0, 3.0]), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 4

    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_blocks_write_the_one_shot_bytes(self, tmp_path, extra):
        block = report_io._WRITE_BLOCK
        count = 2 * block + 1 if extra is None else block + extra
        sig = SampledSignal(Grid(-1.25, 1.0 / 3.0, count), rng(count).normal(size=count))
        rows = [f"{x:.17g},{v:.17g}" for x, v in zip(sig.x().tolist(), sig.values.tolist())]
        p = tmp_path / "sig.csv"
        write_signal_csv(sig, p)
        assert p.read_bytes() == ("\n".join(["x,value", *rows]) + "\n").encode()

    @pytest.mark.parametrize("block", [1, 5, 40, None])
    def test_fast_parse_takes_a_plain_file_in_any_block(self, tmp_path, awkward_signal, block):
        p = tmp_path / "sig.csv"
        write_signal_csv(awkward_signal, p)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(report_io, "_READ_BLOCK", block)
            x, v = report_io._parse_rows_fast(p.read_bytes())
        assert x.tobytes() == awkward_signal.x().tobytes()
        assert v.tobytes() == awkward_signal.values.tobytes()

    def test_shuffled_x_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,value\n0.0,1.0\n2.0,1.0\n1.0,1.0\n")
        with pytest.raises(ParseError, match="non-uniform"):
            read_signal_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_signal_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("t,y\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ParseError, match="header"):
            read_signal_csv(p)

    def test_non_finite_rejected_with_row(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("x,value\n0.0,1.0\n1.0,inf\n2.0,0.0\n")
        with pytest.raises(ParseError) as err:
            read_signal_csv(p)
        assert err.value.row == 3

    def test_undecodable_bytes_rejected(self, tmp_path):
        p = tmp_path / "binary.csv"
        p.write_bytes(b"x,value\n0.0,1.0\n\xff,2.0\n")
        with pytest.raises(ParseError, match="not text"):
            read_signal_csv(p)

    def test_garbage_row_number(self, tmp_path):
        p = tmp_path / "garbled.csv"
        p.write_text("x,value\n0.0,1.0\n1.0,two\n")
        with pytest.raises(ParseError) as err:
            read_signal_csv(p)
        assert err.value.row == 3

    @settings(max_examples=30, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(min_value=2, max_value=40),
            elements=st.floats(-1e12, 1e12, allow_nan=False, width=64),
        ),
        x_min=st.floats(-1e3, 1e3),
        # step well above the abscissa rounding jitter at |x| ~ 1e3, so the
        # reader's 1e-9-relative spacing validation cannot trip on ulps
        step=st.floats(1e-3, 1e3),
    )
    def test_round_trip_is_identity(self, values, x_min, step):
        import tempfile
        from pathlib import Path

        sig = SampledSignal(Grid(x_min, step, len(values)), values)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "prop.csv"
            write_signal_csv(sig, p)
            np.testing.assert_array_equal(read_signal_csv(p).values, sig.values)


@settings(max_examples=300, deadline=None)
@given(csv=_CSV)
# three fields then one: as many fields as two good rows
@example(csv=b"x,value\n0,1,2\n3\n")
# fields float takes and loadtxt refuses: underscores, full-width digits
@example(csv=b"x,value\n1_0,1\n2_0,2\n")
@example(csv="x,value\n\uff11,1\n\uff12,2\n".encode())
# fields loadtxt would take and float refuses: U+001F strips as whitespace,
# and '#' starts a comment unless comments=None
@example(csv=b"x,value\n1\x1f,1\n2,2\n")
@example(csv=b"x,value\n0,1.5#c\n1,2\n")
def test_fast_parse_matches_row_parser(tmp_path_factory, csv):
    """NumPy's parse returns what the row-by-row parser returns, bit for
    bit, or lets it raise the same error for the same row."""
    _assert_fast_parse_matches_row_parser(tmp_path_factory, csv)


@settings(max_examples=300, deadline=None)
@given(csv=_CSV, block=st.integers(1, 64))
@example(csv=b"x,value\n0,1\n1,2\n2,3\n3,4\n", block=4)
def test_fast_parse_matches_row_parser_in_small_blocks(tmp_path_factory, csv, block):
    """The same with the reader's block cut to a few bytes, so that rows and
    line ends straddle block boundaries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report_io, "_READ_BLOCK", block)
        _assert_fast_parse_matches_row_parser(tmp_path_factory, csv)


def _assert_fast_parse_matches_row_parser(tmp_path_factory, csv):
    path = tmp_path_factory.getbasetemp() / "fast_parse.csv"
    path.write_bytes(csv)

    def outcome():
        try:
            f = read_signal_csv(path)
        except Exception as exc:  # noqa: BLE001 -- compared, not handled
            return type(exc), getattr(exc, "row", None), str(exc)
        return repr(f.grid), f.values.tobytes()

    fast = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report_io, "_parse_rows_fast", lambda data: None)
        assert outcome() == fast


class TestSignalCsvMemory:
    """Peak traced allocation of the CSV writer and reader on the 2^18+1-sample
    spectral transform of the cubic wavelet, a file of about 9 MiB; a list of
    every row or line, one str each, would take over 40 MiB."""

    @pytest.fixture(scope="class")
    def transform(self):
        grid = Grid(-128.0, 2.0 ** -10, 2 ** 18 + 1)
        return hilbert_spectral(sample(make_spline_wavelet(3), grid))

    def test_writer_holds_a_block(self, tmp_path, transform):
        assert traced_peak_mib(lambda: write_signal_csv(transform, tmp_path / "h.csv")) < 8.0

    def test_reader_holds_the_bytes_once(self, tmp_path, transform):
        p = tmp_path / "h.csv"
        write_signal_csv(transform, p)
        assert traced_peak_mib(lambda: read_signal_csv(p)) < 24.0


def sample_reports(grid):
    psi = sample(make_spline_wavelet(3), grid)
    hpsi = hilbert_spectral(psi)
    return {
        "moment_report": analysis.moments(psi, 4, tolerance=1e-6),
        "decay_fit": analysis.fit_decay(hpsi, (4.0, 12.0)),
        "bound_certificate": analysis.theorem_certificate(psi, hpsi, 4),
        "sobolev_estimate": analysis.smoothness_profile(psi, [0.0, 1.0, 3.25, 4.0]),
    }


# the record kinds of CLI runs, as ``(kind, fields)``
SAMPLE_RECORDS = {
    "hilbert_run": {"method": "spectral", "pad_factor": 16},
    "bedrosian_residual": {"residual": 1.5e-7},
    "tail_limit": {"probe_value": 0.3167, "predicted": 1 / math.pi},
    "partition_deviation": {"max_abs_central": 2.2e-16, "min_abs_central": 0.0},
}


class TestReportJson:
    def test_round_trip_all_kinds(self, tmp_path, grid_16):
        reports = {**sample_reports(grid_16),
                   **{kind: (kind, fields) for kind, fields in SAMPLE_RECORDS.items()}}
        assert len(reports) == 8
        for kind, report in reports.items():
            p = tmp_path / f"{kind}.json"
            write_report_json(report, p, input_digest="abc123", extra={"pass": True})
            payload = json.loads(p.read_text())
            assert payload["kind"] == kind
            assert payload["tool_version"].startswith("hwl ")
            assert payload["input_digest"] == "abc123"
            back = read_report_json(p)
            if kind in SAMPLE_RECORDS:
                assert back == {**payload, **SAMPLE_RECORDS[kind], "pass": True}
            else:
                assert back == report

    def test_deterministic_bytes(self, tmp_path, grid_16):
        report = sample_reports(grid_16)["decay_fit"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(report, p1, input_digest="d")
        write_report_json(report, p2, input_digest="d")
        assert p1.read_bytes() == p2.read_bytes()

    def test_certificate_carries_both_constants(self, tmp_path, grid_16):
        cert = sample_reports(grid_16)["bound_certificate"]
        p = tmp_path / "cert.json"
        write_report_json(cert, p)
        payload = json.loads(p.read_text())
        assert "empirical_constant" in payload
        assert "empirical_constant_doubled" in payload

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "mystery", "fields": 1}))
        with pytest.raises(SchemaError, match="unknown report kind"):
            read_report_json(p)

    def test_missing_fields_rejected(self, tmp_path):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({"kind": "decay_fit", "exponent": 2.0}))
        with pytest.raises(SchemaError, match="missing"):
            read_report_json(p)
        p.write_text(json.dumps({"kind": "tail_limit", "probe_value": 0.3}))
        with pytest.raises(SchemaError, match="missing fields: \\['predicted'\\]"):
            read_report_json(p)
        with pytest.raises(SchemaError, match="missing"):
            write_report_json(("tail_limit", {"probe_value": 0.3}), tmp_path / "w.json")
        assert not (tmp_path / "w.json").exists()

    def test_non_finite_field_refused(self, tmp_path, grid_16):
        zero = SampledSignal(grid_16, np.zeros(grid_16.count))
        with np.errstate(invalid="ignore", divide="ignore"):
            cert = analysis.theorem_certificate(zero, hilbert_spectral(zero), 2)
        assert math.isnan(cert.empirical_constant)
        p = tmp_path / "cert.json"
        with pytest.raises(SchemaError, match="empirical_constant,"):
            write_report_json(cert, p)
        with pytest.raises(SchemaError, match="not finite: parameters$"):
            write_report_json(("bedrosian_residual", {"residual": 0.0}), p,
                              extra={"parameters": {"gammas": [0.0, math.inf]}})
        assert not p.exists()

    def test_reader_refuses_non_standard_tokens(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('{"kind": "bedrosian_residual", "residual": NaN}')
        with pytest.raises(SchemaError, match="strict JSON: NaN"):
            read_report_json(p)

    def test_numpy_scalars_serialize(self, tmp_path):
        p = tmp_path / "np.json"
        write_report_json(("bedrosian_residual", {"residual": np.float32(0.5)}), p,
                          extra={"pass": np.bool_(True), "parameters": {"k": np.int64(4)}})
        payload = read_report_json(p)
        assert payload["residual"] == 0.5
        assert payload["pass"] is True and payload["parameters"] == {"k": 4}

    def test_extra_fields_cannot_shadow_schema(self, tmp_path, grid_16):
        report = sample_reports(grid_16)["decay_fit"]
        with pytest.raises(InvalidParameterError):
            write_report_json(report, tmp_path / "x.json", extra={"exponent": 0.0})
        with pytest.raises(InvalidParameterError):
            write_report_json(("tail_limit", {"probe_value": 0.3, "predicted": 0.3,
                                              "input_digest": "x"}), tmp_path / "x.json")


class TestFigures:
    def _curve_count(self, path):
        root = ET.parse(path).getroot()
        return len(root.findall(".//{http://www.w3.org/2000/svg}polyline"))

    def test_multi_panel_figure(self, tmp_path, grid_8):
        panels = []
        for d in range(4):
            sig = sample(make_spline_wavelet(d), grid_8)
            panels.append(PanelSpec(
                curves=((sig, "original"), (hilbert_spectral(sig), "transformed")),
                title=f"degree {d}",
            ))
        p = tmp_path / "fig3.svg"
        render_figure(panels, p)
        assert self._curve_count(p) == 8

    def test_kernel_panel_clipped(self, tmp_path):
        step = 2.0 ** -8
        g = Grid(-4.0 + step / 2, step, int(8 / step))
        x = g.abscissas()
        kern = SampledSignal(g, 1.0 / (np.pi * x))
        p = tmp_path / "fig2.svg"
        render_figure([PanelSpec(curves=((kern, "kernel"),), y_range=(-5.0, 5.0))], p)
        root = ET.parse(p).getroot()  # well-formed XML
        assert root.tag.endswith("svg")

    def test_empty_panel_list_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            render_figure([], tmp_path / "empty.svg")
        assert not (tmp_path / "empty.svg").exists()

    def test_unknown_role_rejected(self, grid_8):
        sig = sample(make_bspline_scaling(1), grid_8)
        with pytest.raises(InvalidParameterError):
            PanelSpec(curves=((sig, "dashed"),))
