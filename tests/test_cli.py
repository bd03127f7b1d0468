"""End-to-end command-line runs: exit codes, files produced, pipelines."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hwl import cli
from hwl.report_io import read_signal_csv


def run(args) -> int:
    """Invoke the CLI in-process; argparse usage failures exit via SystemExit."""
    try:
        return cli.main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def assert_refused(capsys, args, code: int) -> None:
    """The CLI exits with ``code`` and one ``hwl:`` message, no traceback."""
    assert run(args) == code, args
    err = capsys.readouterr().err
    assert err.startswith("hwl: ") and "Traceback" not in err, err


@pytest.fixture(scope="module")
def small_signal(tmp_path_factory):
    """A cubic spline wavelet on 513 samples, for runs that refuse an option."""
    path = tmp_path_factory.mktemp("small") / "w3.csv"
    assert run(["gen", "--wavelet", "spline-wavelet,3", "--grid", "-16:16:0.0625",
                "--out", path]) == 0
    return path


class TestGen:
    def test_haar_row_count(self, tmp_path):
        out = tmp_path / "psi.csv"
        code = run(["gen", "--wavelet", "haar-wavelet",
                    "--grid", "-64:64:0.00390625", "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 32769 + 1  # header + count

    def test_spline_wavelet_with_degree(self, tmp_path):
        out = tmp_path / "w3.csv"
        assert run(["gen", "--wavelet", "spline-wavelet,3",
                    "--grid", "-8:8:0.00390625", "--out", out]) == 0
        sig = read_signal_csv(out)
        assert np.max(np.abs(sig.values)) > 0.5

    def test_unknown_wavelet_is_usage_error(self, tmp_path):
        assert run(["gen", "--wavelet", "nosuch",
                    "--grid", "-1:1:0.25", "--out", tmp_path / "x.csv"]) == 2
        # a degree that is not an integer is refused, not truncated
        assert run(["gen", "--wavelet", "spline-wavelet,2.7",
                    "--grid", "-1:1:0.25", "--out", tmp_path / "x.csv"]) == 2

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run(["gen", "--wavelet", "haar-wavelet",
                    "--grid", "4:-4:0.25", "--out", tmp_path / "x.csv"]) == 2
        assert run(["gen", "--wavelet", "haar-wavelet",
                    "--grid", "oops", "--out", tmp_path / "x.csv"]) == 2
        assert run(["gen", "--wavelet", "haar-wavelet",
                    "--grid", "0:inf:1", "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("wavelet,grid", [
        ("bspline-scaling,2.7", "-1:1:0.25"),
        ("haar-wavelet", "-1e308:1e308:1"),  # the sample count overflows
        ("sinc2-cos,1e308", "-4:4:1"),  # finite parameters, non-finite samples
    ])
    def test_refusals_name_the_problem(self, tmp_path, capsys, wavelet, grid):
        assert_refused(capsys, ["gen", "--wavelet", wavelet, "--grid", grid,
                                "--out", tmp_path / "x.csv"], 2)
        assert not (tmp_path / "x.csv").exists()

    def test_grid_count_cap(self, tmp_path):
        assert run(["gen", "--wavelet", "haar-wavelet",
                    "--grid", "-64:64:1e-9", "--out", tmp_path / "x.csv"]) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["gen", "--wavelet", "spline-wavelet,2",
                 "--grid", "-4:4:0.015625", "--out", out])
        assert a.read_bytes() == b.read_bytes()


class TestHilbert:
    def test_pv_pipeline_probe(self, tmp_path):
        psi = tmp_path / "psi.csv"
        hpsi = tmp_path / "hpsi.csv"
        run(["gen", "--wavelet", "haar-wavelet", "--grid", "-64:64:0.00390625",
             "--out", psi])
        assert run(["hilbert", "--method", "pv", "--in", psi, "--out", hpsi]) == 0
        sig = read_signal_csv(hpsi)
        assert sig.value_at(2.0) == pytest.approx(math.log(3 / 4) / math.pi, abs=5e-3)
        meta = json.loads((tmp_path / "hpsi.csv.meta.json").read_text())
        assert meta["method"] == "pv"
        assert meta["singularity_correction"] is True
        assert len(meta["input_digest"]) == 64

    def test_spectral_padding_study(self, tmp_path):
        phi = tmp_path / "phi.csv"
        run(["gen", "--wavelet", "bspline-scaling,3", "--grid", "-64:64:0.00390625",
             "--out", phi])
        outs = {}
        for pad in (1, 16):
            out = tmp_path / f"h{pad}.csv"
            assert run(["hilbert", "--method", "spectral", "--pad", pad,
                        "--in", phi, "--out", out]) == 0
            outs[pad] = read_signal_csv(out)
        # periodization shows up measurably in the tail
        assert abs(outs[1].value_at(48.0) - outs[16].value_at(48.0)) > 1e-3
        meta = json.loads((tmp_path / "h16.csv.meta.json").read_text())
        assert meta == {**meta, "method": "spectral", "pad_factor": 16}

    def test_missing_input_flag_is_usage_error(self, tmp_path):
        assert run(["hilbert", "--method", "pv", "--out", tmp_path / "o.csv"]) == 2

    def test_unreadable_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,value\n0.0,1.0\n5.0,2.0\n6.0,3.0\n")
        assert run(["hilbert", "--method", "pv", "--in", bad,
                    "--out", tmp_path / "o.csv"]) == 3


class TestAnalyze:
    @pytest.fixture
    def haar_pv(self, tmp_path):
        psi = tmp_path / "psi.csv"
        hpsi = tmp_path / "hpsi.csv"
        run(["gen", "--wavelet", "haar-wavelet", "--grid", "-64:64:0.00390625",
             "--out", psi])
        run(["hilbert", "--method", "pv", "--in", psi, "--out", hpsi])
        return psi, hpsi

    def test_decay_report(self, tmp_path, haar_pv):
        _, hpsi = haar_pv
        report = tmp_path / "decay.json"
        assert run(["analyze", "decay", "--in", hpsi, "--window", "4:64",
                    "--expect-exponent", 2.0, "--exponent-tol", 0.1,
                    "--json", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["kind"] == "decay_fit"
        assert payload["pass"] is True
        assert abs(payload["exponent"] - 2.0) < 0.1

    def test_decay_failure_still_writes_report(self, tmp_path, haar_pv):
        _, hpsi = haar_pv
        report = tmp_path / "decay.json"
        assert run(["analyze", "decay", "--in", hpsi, "--window", "4:64",
                    "--expect-exponent", 7.0, "--exponent-tol", 0.01,
                    "--json", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["pass"] is False

    def test_moments_report(self, tmp_path, haar_pv):
        _, hpsi = haar_pv
        report = tmp_path / "moments.json"
        assert run(["analyze", "moments", "--in", hpsi, "--max-order", 3,
                    "--expect-count", 1, "--json", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["kind"] == "moment_report"
        assert payload["vanishing_count"] >= 1
        assert payload["pass"] is True

    def test_bedrosian_report(self, tmp_path):
        report = tmp_path / "bed.json"
        assert run(["analyze", "bedrosian", "--window", "sinc2", "--omega0", 3,
                    "--grid", "-128:128:0.0078125", "--max-residual", 1e-4,
                    "--json", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["pass"] is True
        assert payload["residual"] < 1e-4

    def test_certificate_report(self, tmp_path):
        psi = tmp_path / "w3.csv"
        hpsi = tmp_path / "hw3.csv"
        run(["gen", "--wavelet", "spline-wavelet,3", "--grid", "-16:16:0.00390625",
             "--out", psi])
        run(["hilbert", "--method", "spectral", "--in", psi, "--out", hpsi])
        report = tmp_path / "cert.json"
        assert run(["analyze", "certificate", "--psi", psi, "--hpsi", hpsi,
                    "--order", 4, "--expect-stable", "true", "--json", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["kind"] == "bound_certificate"
        assert payload["stable"] is True
        assert payload["pass"] is True

    def test_tail_limit_report(self, tmp_path):
        f = tmp_path / "box.csv"
        hf = tmp_path / "hbox.csv"
        run(["gen", "--wavelet", "box,0,1", "--grid", "-128:128:0.0078125",
             "--out", f])
        run(["hilbert", "--method", "spectral", "--in", f, "--out", hf])
        report = tmp_path / "tail.json"
        assert run(["analyze", "tail-limit", "--in", f, "--hilbert", hf,
                    "--probe", 100, "--rel-tol", 0.02, "--json", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["predicted"] == pytest.approx(1 / math.pi, abs=1e-3)
        assert payload["pass"] is True

    def test_sobolev_report(self, tmp_path):
        psi = tmp_path / "w3.csv"
        run(["gen", "--wavelet", "spline-wavelet,3", "--grid", "-16:16:0.00390625",
             "--out", psi])
        report = tmp_path / "sob.json"
        assert run(["analyze", "sobolev", "--in", psi, "--expect-order", 2,
                    "--json", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["kind"] == "sobolev_estimate"
        assert payload["smoothness_order"] == 2
        assert payload["pass"] is True

    @pytest.mark.parametrize("window", ["4", "4:x", "4:8:9", "4:inf"])
    def test_bad_window_is_usage_error(self, tmp_path, capsys, small_signal, window):
        assert_refused(capsys, ["analyze", "decay", "--in", small_signal, "--window", window,
                                "--json", tmp_path / "d.json"], 2)

    @pytest.mark.parametrize("gammas", ["a,b", "1,,2", "nan"])
    def test_bad_gammas_is_usage_error(self, tmp_path, capsys, small_signal, gammas):
        assert_refused(capsys, ["analyze", "sobolev", "--in", small_signal, "--gammas", gammas,
                                "--json", tmp_path / "s.json"], 2)

    def test_signals_on_different_grids_are_data_error(self, tmp_path, capsys):
        narrow, wide = tmp_path / "narrow.csv", tmp_path / "wide.csv"
        for path, grid in ((narrow, "-16:16:0.00390625"), (wide, "-32:32:0.00390625")):
            run(["gen", "--wavelet", "spline-wavelet,3", "--grid", grid, "--out", path])
        capsys.readouterr()
        assert_refused(capsys, ["analyze", "tail-limit", "--in", narrow, "--hilbert", wide,
                                "--probe", 10, "--json", tmp_path / "t.json"], 3)
        assert_refused(capsys, ["analyze", "certificate", "--psi", narrow, "--hpsi", wide,
                                "--order", 4, "--json", tmp_path / "c.json"], 3)
        assert not (tmp_path / "t.json").exists()
        assert not (tmp_path / "c.json").exists()

    def test_partition_report(self, tmp_path):
        report = tmp_path / "part.json"
        assert run(["analyze", "partition", "--wavelet", "bspline-scaling,3",
                    "--k", 50, "--grid", "-64:64:0.00390625",
                    "--max-central", 1e-9, "--json", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["pass"] is True
        assert payload["max_abs_central"] < 1e-9


class TestFigure:
    @pytest.mark.parametrize("fid,panels", [(1, 2), (2, 1), (3, 4)])
    def test_renders(self, tmp_path, fid, panels):
        out = tmp_path / f"fig{fid}.svg"
        assert run(["figure", "--id", fid, "--out", out]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count("<clipPath") == panels

    def test_bad_id_is_usage_error(self, tmp_path):
        assert run(["figure", "--id", 9, "--out", tmp_path / "f.svg"]) == 2


# one field of a numeric option: floats as Python prints them (nan, inf and
# the extremes included), small integers, and short junk
_FIELD = st.one_of(
    st.floats().map(repr),
    st.integers(-40, 40).map(str),
    st.text(alphabet="0123456789.+-eEinfax ", max_size=6),
)


def _joined(sep: str):
    return st.lists(_FIELD, min_size=0, max_size=4).map(sep.join)


_WAVELET = st.tuples(
    st.sampled_from(cli.WAVELET_NAMES + ("nosuch",)), st.lists(_FIELD, max_size=3),
).map(lambda t: ",".join((t[0], *t[1])))


@settings(max_examples=150, deadline=None)
@given(wavelet=_WAVELET, grid=_joined(":"), window=_joined(":"), gammas=_joined(","))
def test_parse_points_exit_cleanly(small_signal, wavelet, grid, window, gammas):
    """Whatever the text of --wavelet, --grid, --window or --gammas, the CLI
    exits 0, 2 or 3 and never raises."""
    out = small_signal.parent
    with pytest.MonkeyPatch.context() as mp:
        # a small cap keeps every accepted grid small; the cap path is the
        # same code as at 2^24
        mp.setattr(cli, "MAX_GRID_COUNT", 4097)
        assert run(["gen", "--wavelet", wavelet, "--grid", grid,
                    "--out", out / "gen.csv"]) in (0, 2, 3)
    assert run(["analyze", "decay", "--in", small_signal, "--window", window,
                "--json", out / "decay.json"]) in (0, 2, 3)
    assert run(["analyze", "sobolev", "--in", small_signal, "--gammas", gammas,
                "--json", out / "sobolev.json"]) in (0, 2, 3)
