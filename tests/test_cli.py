"""End-to-end command-line runs: exit codes, files produced, pipelines."""

import argparse
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hwl import cli
from hwl.numerics import Grid, SampledSignal
from hwl.report_io import read_signal_csv, write_signal_csv


def run(args) -> int:
    """Invoke the CLI in-process; argparse usage failures exit via SystemExit."""
    try:
        return cli.main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def assert_refused(capsys, args, code: int) -> str:
    """The CLI exits with ``code`` and prints exactly one ``hwl:`` line,
    which is returned."""
    assert run(args) == code, args
    err = capsys.readouterr().err
    assert err.startswith("hwl: ") and err.count("\n") == 1, err
    return err


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
        ("haar-wavelet", "-inf:0:1"),
        ("sinc2-cos,1e308", "-4:4:1"),  # finite parameters, non-finite samples
        ("sinc2-cos,3,0.5", "-4:4:1"),  # the modulated windows take no phase
        ("gauss-cos,1,3,0", "-4:4:1"),
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
        assert set(meta) == {"kind", "tool_version", "input_digest", "method"}
        assert meta["kind"] == "hilbert_run" and meta["method"] == "pv"
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
        assert set(meta) == {"kind", "tool_version", "input_digest", "method",
                             "pad_factor", "fft_length"}
        assert meta == {**meta, "kind": "hilbert_run", "method": "spectral", "pad_factor": 16}
        # the padded multiplier's period N: 5-smooth and at least pad * count
        length = meta["fft_length"]
        assert length >= 16 * outs[16].grid.count
        for p in (2, 3, 5):
            while length % p == 0:
                length //= p
        assert length == 1

    def test_missing_input_flag_is_usage_error(self, tmp_path):
        assert run(["hilbert", "--method", "pv", "--out", tmp_path / "o.csv"]) == 2

    # the PV engine has one scheme; the first-order switch is gone
    def test_no_correction_flag_is_usage_error(self, tmp_path, capsys, small_signal):
        out = tmp_path / "o.csv"
        assert_refused(capsys, ["hilbert", "--method", "pv", "--no-correction",
                                "--in", small_signal, "--out", out], 2)
        assert list(tmp_path.iterdir()) == []

    # pad * count above 16 * MAX_GRID_COUNT: before the cap these raised
    # MemoryError and NumPy's "Maximum allowed dimension exceeded"; the engine
    # no longer holds that buffer, and the refusal stays as a contract
    @pytest.mark.parametrize("pad", ["1000000000000", "99999999999999999999"])
    def test_huge_pad_is_usage_error(self, tmp_path, capsys, pad):
        haar = tmp_path / "haar.csv"
        assert run(["gen", "--wavelet", "haar-wavelet", "--grid", "-2:2:0.25",
                    "--out", haar]) == 0
        assert_refused(capsys, ["hilbert", "--method", "spectral", "--pad", pad,
                                "--in", haar, "--out", tmp_path / "o.csv"], 2)
        assert not (tmp_path / "o.csv").exists()

    def test_unreadable_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,value\n0.0,1.0\n5.0,2.0\n6.0,3.0\n")
        assert run(["hilbert", "--method", "pv", "--in", bad,
                    "--out", tmp_path / "o.csv"]) == 3

    # finite abscissas whose span or one adjacent difference overflows
    @pytest.mark.parametrize("method", ["pv", "spectral"])
    @pytest.mark.parametrize("xs", [[-1.7e308, 1.7e308], [0.0, 1.7e308, -1.7e308, 3.0]])
    def test_overflowing_abscissas_are_data_error(self, tmp_path, capsys, method, xs):
        huge = tmp_path / "huge.csv"
        huge.write_text("x,value\n" + "".join(f"{x!r},0\n" for x in xs))
        assert_refused(capsys, ["hilbert", "--method", method, "--in", huge,
                                "--out", tmp_path / "o.csv"], 3)
        assert not (tmp_path / "o.csv").exists()


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
        # the sinc2 window has no width, so the report records none
        assert "sigma" not in payload["parameters"]

    @pytest.mark.parametrize("sigma, want", [(None, 1.0), (2, 2.0)])
    def test_bedrosian_gauss_records_sigma(self, tmp_path, sigma, want):
        report = tmp_path / "bed.json"
        extra = [] if sigma is None else ["--sigma", sigma]
        assert run(["analyze", "bedrosian", "--window", "gauss", "--omega0", 3,
                    "--grid", "-32:32:0.0625", *extra, "--json", report]) == 0
        assert json.loads(report.read_text())["parameters"]["sigma"] == want

    def test_bedrosian_sigma_with_sinc2_is_usage_error(self, tmp_path, capsys):
        err = assert_refused(capsys, ["analyze", "bedrosian", "--window", "sinc2",
                                      "--omega0", 3, "--sigma", 1, "--grid", "-8:8:0.0625",
                                      "--json", tmp_path / "bed.json"], 2)
        assert "--sigma applies to --window gauss only" in err
        assert not (tmp_path / "bed.json").exists()

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

    # a dash value that is not a number ("-inf", "-nan") is left to argparse
    @pytest.mark.parametrize("window", ["4", "4:x", "4:8:9", "4:inf", "-inf:4", "-nan"])
    def test_bad_window_is_usage_error(self, tmp_path, capsys, small_signal, window):
        assert_refused(capsys, ["analyze", "decay", "--in", small_signal, "--window", window,
                                "--json", tmp_path / "d.json"], 2)

    # float reads PEP 515 underscores ("1_0" is 10.0); no CSV number holds one
    def test_underscore_in_a_number_is_data_error(self, tmp_path, capsys):
        sig = tmp_path / "underscore.csv"
        sig.write_text("x,value\n0,1_0\n1,2\n2,3\n")
        err = assert_refused(capsys, ["analyze", "decay", "--in", sig, "--window", "1:2",
                                      "--json", tmp_path / "d.json"], 3)
        assert "unparseable number in '0,1_0'" in err
        assert not (tmp_path / "d.json").exists()

    # 1e300 is finite, but the Sobolev weight (1 + w^2)^gamma overflows
    @pytest.mark.parametrize("gammas", ["a,b", "1,,2", "nan", "0,1e300"])
    def test_bad_gammas_is_usage_error(self, tmp_path, capsys, small_signal, gammas):
        assert_refused(capsys, ["analyze", "sobolev", "--in", small_signal, "--gammas", gammas,
                                "--json", tmp_path / "s.json"], 2)
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("argv", [
        ["moments", "--in", "SIGNAL", "--max-order", 2, "--tolerance", "nan"],
        ["bedrosian", "--window", "sinc2", "--omega0", 3, "--grid", "-8:8:0.0625",
         "--sigma", "inf"],
        ["partition", "--wavelet", "bspline-scaling,1", "--k", 4, "--grid", "-8:8:0.0625",
         "--central-halfwidth", "inf"],
    ])
    def test_non_finite_option_is_usage_error(self, tmp_path, capsys, small_signal, argv):
        argv = [small_signal if a == "SIGNAL" else a for a in argv]
        err = assert_refused(capsys, ["analyze", *argv, "--json", tmp_path / "r.json"], 2)
        assert f"invalid finite_float value: '{argv[-1]}'" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        # the certificate's constant is sup|Hpsi|(...) / norm_sum = 0/0
        ["certificate", "--psi", "ZERO", "--hpsi", "ZERO", "--order", 2],
        # sigma ** 2 overflows a Python float
        ["bedrosian", "--window", "gauss", "--omega0", 0, "--grid", "-8:8:0.0625",
         "--sigma", "1.4e154"],
        # a negative half-width selects no central sample
        ["partition", "--wavelet", "bspline-scaling,1", "--k", 4, "--grid", "-8:8:0.0625",
         "--central-halfwidth", -1],
    ])
    def test_out_of_range_run_is_usage_error(self, tmp_path, capsys, argv):
        zero = tmp_path / "zero.csv"
        write_signal_csv(SampledSignal(Grid(-4.0, 0.0625, 129), np.zeros(129)), zero)
        argv = [zero if a == "ZERO" else a for a in argv]
        assert_refused(capsys, ["analyze", *argv, "--json", tmp_path / "r.json"], 2)
        assert not (tmp_path / "r.json").exists()

    # |x|^401 and, from order 256 on, |x|^k overflow at the ends of
    # [-16, 16], though not on the wavelet's support; the zero signal's
    # constant is 0/0
    @pytest.mark.parametrize("argv, message", [
        (["certificate", "--psi", "SIGNAL", "--hpsi", "SIGNAL", "--order", 400],
         "overflow encountered in power"),
        (["moments", "--in", "SIGNAL", "--max-order", 400], "overflow encountered in power"),
        (["certificate", "--psi", "ZERO", "--hpsi", "ZERO", "--order", 2],
         "invalid value encountered in scalar divide"),
    ], ids=["certificate-order-400", "moments-order-400", "certificate-zero"])
    def test_overflowing_power_names_the_operation(self, tmp_path, capsys, small_signal,
                                                   argv, message):
        zero = tmp_path / "zero.csv"
        write_signal_csv(SampledSignal(Grid(-4.0, 0.0625, 129), np.zeros(129)), zero)
        argv = [{"SIGNAL": small_signal, "ZERO": zero}.get(a, a) for a in argv]
        err = assert_refused(capsys, ["analyze", *argv, "--json", tmp_path / "r.json"], 2)
        assert err == f"hwl: arithmetic out of range ({message}); check the inputs and options\n"
        assert not (tmp_path / "r.json").exists()

    def test_negative_tolerance_is_usage_error(self, tmp_path, capsys, small_signal):
        err = assert_refused(capsys, ["analyze", "moments", "--in", small_signal,
                                      "--max-order", 2, "--tolerance", -1,
                                      "--json", tmp_path / "m.json"], 2)
        assert "tolerance" in err
        assert not (tmp_path / "m.json").exists()

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

    @pytest.mark.parametrize("wavelet", ["haar-scaling", "box,-0.5,0.5"])
    def test_partition_of_a_box(self, tmp_path, wavelet):
        report = tmp_path / "part.json"
        assert run(["analyze", "partition", "--wavelet", wavelet, "--k", 4,
                    "--grid", "-8:8:0.0625", "--json", report]) == 0
        assert json.loads(report.read_text())["max_abs_central"] == 0.0

    # the Haar wavelet is a step function, as the boxes are, and the same
    # wavelet as spline-wavelet,0 up to shift and scale
    @pytest.mark.parametrize("wavelet", ["haar-wavelet", "spline-wavelet,0"])
    def test_partition_of_a_wavelet_is_usage_error(self, tmp_path, capsys, wavelet):
        err = assert_refused(capsys, ["analyze", "partition", "--wavelet", wavelet,
                                      "--k", 4, "--grid", "-8:8:0.0625",
                                      "--json", tmp_path / "p.json"], 2)
        assert "scaling-function generator" in err
        assert not (tmp_path / "p.json").exists()


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


def _leaf_parsers(parser, words=()):
    """(command words, parser) for every runnable subcommand of ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, words + (name,))
            return
    yield words, parser


_LEAVES = tuple(_leaf_parsers(cli._build_parser()))
_INPUT_FLAGS = ("--in", "--hilbert", "--psi", "--hpsi")
_OUTPUT_FLAGS = ("--out", "--json", "--out-csv")


def test_negative_values_parse_as_separate_tokens():
    """A negative number or grid given after its option as its own token is
    that option's value, for every float option and for --grid/--window."""
    checked = 0
    for words, parser in _LEAVES:
        for action in parser._actions:
            flag = action.option_strings[0]
            if action.type is not cli.finite_float and (
                    flag not in ("--grid", "--window") or action.choices):
                continue
            # argparse alone takes "-2.5" for a value, but not "-2.5e0" or a grid
            value = "-2.5e0" if action.type is cli.finite_float else "-8:-0.5"
            argv = [*words, flag, value]
            for other in parser._actions:
                if other.required and other is not action:
                    argv += [other.option_strings[0], str(next(iter(other.choices or [1])))]
            args = cli._build_parser().parse_args(cli._absorb_dash_values(argv))
            assert getattr(args, action.dest) == (-2.5 if value == "-2.5e0" else value), argv
            checked += 1
    assert checked >= 16


def test_one_parser_serves_every_command(tmp_path, capsys, small_signal):
    """Refused and valid commands in turn, across subcommands: the parser
    built once per process gives each the exit code, stderr and files that
    a parser built for it alone gives."""
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n0,1\n")
    commands = [
        ["gen", "--wavelet", "spline-wavelet,2", "--grid", "-4:4:0.25", "--out", "{out}"],
        ["gen", "--wavelet", "nosuch", "--grid", "-4:4:0.25", "--out", "{out}"],
        ["hilbert", "--method", "spectral", "--in", small_signal, "--out", "{out}"],
        ["hilbert", "--method", "fourier", "--in", small_signal, "--out", "{out}"],
        ["hilbert", "--method", "pv", "--in", bad, "--out", "{out}"],
        ["analyze", "moments", "--in", small_signal, "--max-order", "3", "--json", "{out}"],
        ["analyze", "moments", "--in", small_signal, "--json", "{out}"],
        ["analyze", "sobolev", "--in", small_signal, "--gammas", "0,1", "--json", "{out}"],
        ["analyze", "nosuch", "--json", "{out}"],
        ["figure", "--id", "2", "--out", "{out}"],
        ["figure", "--id", "9", "--out", "{out}"],
        [],
    ]

    def outcomes(tag):
        results = []
        for i, argv in enumerate(commands):
            work = tmp_path / f"{tag}{i}"
            work.mkdir()
            code = run([str(a).replace("{out}", str(work / "out")) for a in argv])
            files = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
            results.append((code, capsys.readouterr().err, files))
        return results

    assert cli._build_parser() is cli._build_parser()
    once = outcomes("once")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert outcomes("fresh") == once
    assert [code for code, _, _ in once] == [0, 2, 0, 2, 3, 0, 2, 0, 2, 0, 2, 2]
    assert all(err.startswith("hwl: ") == bool(code) for code, err, _ in once)


def _mostly(sane, junk=_FIELD):
    """Three draws in four from ``sane``, one from ``junk``: junk in every
    flag would stop nearly every run at the first option parsed."""
    return st.integers(0, 3).flatmap(lambda k: sane if k else junk)


_TEXT_OPTIONS = {
    "--grid": _mostly(st.sampled_from(["-8:8:0.0625", "-16:16:0.125", "-4:4:1"]), _joined(":")),
    "--window": _mostly(st.sampled_from(["2:8", "4:12", "1:3"]), _joined(":")),
    "--gammas": _mostly(st.sampled_from(["0,1,2", "0,0.75,1.5,3.25"]), _joined(",")),
    "--wavelet": _mostly(st.sampled_from(["spline-wavelet,3", "bspline-scaling,1", "haar-scaling",
                                          "box,0,1", "gauss-cos,1,3", "sinc2-cos,3"]), _WAVELET),
}
# integer options stay small (or fail to parse): a large --pad or --k is a
# legitimately large run, not a refusal
_INT = _mostly(st.integers(-2, 12).map(str),
               _FIELD.filter(lambda s: not s.strip().lstrip("+-").isdigit()))
_FLOAT = _mostly(st.floats(0.0, 20.0).map(repr))
# CSV bytes: anything, rows of option-like fields, or a uniform grid whose
# values are moderate or reach the extremes of binary64
_CSV = st.one_of(
    st.binary(max_size=48),
    st.lists(st.tuples(_FIELD, _FIELD), max_size=6).map(
        lambda rows: "x,value\n" + "".join(f"{a},{b}\n" for a, b in rows)).map(str.encode),
    st.builds(
        lambda x0, step, values: ("x,value\n" + "".join(
            f"{x0 + i * step!r},{v!r}\n" for i, v in enumerate(values))).encode(),
        st.floats(-20, 20), st.floats(0.01, 1.0),
        st.one_of(st.lists(st.floats(-10, 10), min_size=2, max_size=48),
                  st.lists(st.floats(), min_size=2, max_size=48)),
    ),
)


def _option_value(action, inputs, outputs):
    flag = action.option_strings[0]
    if flag in _INPUT_FLAGS:
        return st.sampled_from(inputs)
    if flag in _OUTPUT_FLAGS:
        return st.just(outputs[flag])
    if action.choices is not None:
        return _mostly(st.sampled_from([str(c) for c in action.choices]))
    if flag in _TEXT_OPTIONS:
        return _TEXT_OPTIONS[flag]
    return _INT if action.type is int else _FLOAT


def _refuse_constant(token):
    raise ValueError(f"report is not strict JSON: {token}")


@pytest.fixture(scope="module")
def small_transform(small_signal):
    path = small_signal.parent / "hw3.csv"
    assert run(["hilbert", "--method", "spectral", "--in", small_signal, "--out", path]) == 0
    return path


@settings(max_examples=300, deadline=None)
@given(csv=_CSV, data=st.data())
def test_argv_and_csv_exit_cleanly(small_signal, small_transform, csv, data):
    """Any subcommand with any subset of its flags, fed any CSV bytes, exits
    0, 2 or 3, and every report an ``analyze`` exit 0 leaves is strict JSON."""
    work = small_signal.parent / "fuzz"
    work.mkdir(exist_ok=True)
    fuzzed = work / "fuzzed.csv"
    fuzzed.write_bytes(csv)
    inputs = (fuzzed, small_signal, small_transform, work / "missing.csv")
    outputs = {flag: work / f"out{flag}" for flag in _OUTPUT_FLAGS}
    for path in outputs.values():
        path.unlink(missing_ok=True)
    words, parser = data.draw(st.sampled_from(_LEAVES))
    argv = list(words)
    for action in data.draw(st.permutations(parser._actions)):
        if not action.option_strings or action.option_strings[0] == "-h":
            continue
        # required flags are mostly given, so most runs get past argparse
        if not data.draw(st.integers(0, 9).map(bool) if action.required else st.booleans()):
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(str(data.draw(_option_value(action, inputs, outputs))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MAX_GRID_COUNT", 4097)
        code = run(argv)
    assert code in (0, 2, 3), argv
    if code == 0 and words[0] == "analyze":
        json.loads(outputs["--json"].read_text(), parse_constant=_refuse_constant)
