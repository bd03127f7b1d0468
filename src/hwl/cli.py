"""Command-line surface: generate signals, transform them, analyze, render.

Subcommands
-----------
gen      write a generator sampled on a grid to CSV
hilbert  transform a signal CSV by either engine (sidecar JSON records the
         method and configuration)
analyze  decay | moments | sobolev | bedrosian | certificate | tail-limit |
         partition; always writes a JSON report, with a ``pass`` flag when
         an expectation was given (CI consumes reports, not exit codes)
figure   render one of the three standard figures as SVG

Grids are given as ``min:max:step`` with count = floor((max-min)/step) + 1;
exit codes: 0 success, 2 usage error (including a non-finite option value,
a ``--pad`` asking for more than 16 * MAX_GRID_COUNT FFT points, and
arithmetic that overflows or turns invalid), 3 data error (unreadable or
inconsistent input files, such as two signals on different grids).  Every
refusal, argparse's included, is one ``hwl:`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np

from .errors import (
    FitWindowError,
    GridMismatchError,
    GridTooNarrowError,
    InvalidParameterError,
    ParseError,
    SchemaError,
)
from .numerics import GRID_TOLERANCE, Grid, SampledSignal
from . import wavelets
from .hilbert import fft_length, hilbert_pv, hilbert_spectral
from . import analysis
from .report_io import (
    PanelSpec,
    read_signal_csv,
    render_figure,
    write_report_json,
    write_signal_csv,
)

MAX_GRID_COUNT = 2 ** 24

class UsageError(ValueError):
    pass


def parse_numbers(text: str, sep: str, what: str, count: int | None = None) -> list[float]:
    """Split ``text`` on ``sep`` into finite floats (exactly ``count`` of
    them when given); anything else is a :class:`UsageError`."""
    parts = text.split(sep)
    if count is not None and len(parts) != count:
        raise UsageError(f"{what} needs {count} fields separated by {sep!r}, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{what} fields must be numbers: {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{what} fields must be finite: {text!r}")
    return values


def finite_float(text: str) -> float:
    """The argparse type of every float option: one finite number."""
    return parse_numbers(text, ",", "option value", count=1)[0]


def parse_grid(text: str) -> Grid:
    """Parse ``min:max:step``; count = floor((max-min)/step) + 1."""
    lo, hi, step = parse_numbers(text, ":", "grid min:max:step", count=3)
    if not (lo < hi and step > 0):
        raise UsageError(f"grid needs min < max and step > 0, got {text!r}")
    steps = (hi - lo) / step
    # also catches a quotient that overflows to inf
    if not steps + GRID_TOLERANCE < MAX_GRID_COUNT:
        raise UsageError(f"grid {text!r} has more than {MAX_GRID_COUNT} samples (the cap)")
    count = int(np.floor(steps + GRID_TOLERANCE)) + 1
    if count < 2:
        raise UsageError(f"grid has fewer than 2 samples: {text!r}")
    return Grid(lo, step, count)


# NAME -> (factory of the parsed parameters, parameter count)
GENERATORS = {
    "haar-scaling": (wavelets.make_haar_scaling, 0),
    "haar-wavelet": (wavelets.make_haar_wavelet, 0),
    "bspline-scaling": (wavelets.make_bspline_scaling, 1),
    "spline-wavelet": (wavelets.make_spline_wavelet, 1),
    "sinc2-cos": (lambda omega0: wavelets.make_modulated_window("sinc2", omega0), 1),
    "gauss-cos": (lambda sigma, omega0:
                  wavelets.make_modulated_window("gauss", omega0, sigma=sigma), 2),
    "box": (wavelets.make_box, 2),
}
WAVELET_NAMES = tuple(GENERATORS)


def parse_wavelet(text: str):
    """Parse ``NAME[,param,...]`` into a generator object.

    Parameter grammar: bspline-scaling,DEG  spline-wavelet,DEG
    sinc2-cos,OMEGA0  gauss-cos,SIGMA,OMEGA0  box,A,B.
    """
    name, comma, raw = text.partition(",")
    if name not in GENERATORS:
        raise UsageError(f"unknown wavelet {name!r}; choose from {', '.join(WAVELET_NAMES)}")
    factory, count = GENERATORS[name]
    params = parse_numbers(raw, ",", f"{name} parameter") if comma else []
    if len(params) != count:
        raise UsageError(f"{name} takes {count} parameter(s), got {len(params)}")
    return factory(*params)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read(*paths):
    """The signals in ``paths`` and their comma-joined SHA-256 digest."""
    return [read_signal_csv(p) for p in paths], ",".join(map(_digest, paths))


# the benchmark's tracer (hwlbench/trace.py) wraps the writer under this name
_write_run_json = write_report_json


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def cmd_gen(args) -> int:
    spec = parse_wavelet(args.wavelet)
    grid = parse_grid(args.grid)
    write_signal_csv(wavelets.sample(spec, grid), args.out)
    return 0


def cmd_hilbert(args) -> int:
    (f,), digest = _read(getattr(args, "in"))
    if args.method == "pv":
        out = hilbert_pv(f)
        meta = {"method": "pv"}
    else:
        # a contract, not a memory guard (no N-point buffer); pad 16 reaches it at the top grid
        if args.pad * f.grid.count > 16 * MAX_GRID_COUNT:
            raise UsageError(f"--pad {args.pad} on {f.grid.count} samples asks for more "
                             f"than {16 * MAX_GRID_COUNT} FFT points (the cap)")
        out = hilbert_spectral(f, pad_factor=args.pad)
        meta = {"method": "spectral", "pad_factor": args.pad,
                "fft_length": fft_length(f.grid.count, args.pad)}
    write_signal_csv(out, args.out)
    write_report_json(("hilbert_run", meta), str(args.out) + ".meta.json", input_digest=digest)
    return 0


def cmd_analyze(args) -> int:
    """Run one analysis and write its report: the analysis's fields, then
    the run's ``parameters``, the ``checks`` applied and their ``pass``."""
    report, digest, checks, params = args.analyze(args)
    write_report_json(report, args.json, input_digest=digest, extra={
        "parameters": params, "checks": checks, "pass": all(checks.values()),
    })
    return 0


# Each analysis returns (report, input digest, checks, parameters); a check
# is present only when its expectation was given.

def analyze_decay(args):
    (f,), digest = _read(getattr(args, "in"))
    lo, hi = parse_numbers(args.window, ":", "window lo:hi", count=2)
    fit = analysis.fit_decay(f, (lo, hi), side=args.side)
    checks = {}
    if args.expect_exponent is not None:
        checks["exponent"] = abs(fit.exponent - args.expect_exponent) <= args.exponent_tol
    if args.min_exponent is not None:
        checks["min_exponent"] = fit.exponent >= args.min_exponent
    if args.min_r2 is not None:
        checks["r_squared"] = fit.r_squared > args.min_r2
    return fit, digest, checks, {"window": [lo, hi], "side": args.side}


def analyze_moments(args):
    (f,), digest = _read(getattr(args, "in"))
    report = analysis.moments(f, args.max_order, tolerance=args.tolerance)
    checks = {}
    if args.expect_count is not None:
        checks["vanishing_count"] = report.vanishing_count >= args.expect_count
    params = {"max_order": args.max_order, "tolerance": args.tolerance}
    return report, digest, checks, params


def analyze_sobolev(args):
    (f,), digest = _read(getattr(args, "in"))
    gammas = parse_numbers(args.gammas, ",", "gammas")
    est = analysis.smoothness_profile(f, gammas)
    checks = {}
    if args.expect_order is not None:
        checks["smoothness_order"] = est.smoothness_order == args.expect_order
    return est, digest, checks, {"gammas": gammas}


def analyze_bedrosian(args):
    grid = parse_grid(args.grid)
    params = {"window": args.window, "omega0": args.omega0, "grid": args.grid}
    if args.window == "gauss":
        params["sigma"] = 1.0 if args.sigma is None else args.sigma
    elif args.sigma is not None:
        raise UsageError(f"--sigma applies to --window gauss only, not {args.window}")
    residual = analysis.bedrosian_residual(args.window, args.omega0, grid,
                                           sigma=params.get("sigma", 1.0))
    checks = {}
    if args.max_residual is not None:
        checks["max_residual"] = residual < args.max_residual
    if args.min_residual is not None:
        checks["min_residual"] = residual > args.min_residual
    return ("bedrosian_residual", {"residual": residual}), "", checks, params


def analyze_certificate(args):
    (psi, hpsi), digest = _read(args.psi, args.hpsi)
    cert = analysis.theorem_certificate(psi, hpsi, args.order)
    checks = {}
    if args.expect_stable is not None:
        checks["stable"] = cert.stable == (args.expect_stable == "true")
    return cert, digest, checks, {"order": args.order}


def analyze_tail_limit(args):
    (f, hf), digest = _read(getattr(args, "in"), args.hilbert)
    probe, predicted = analysis.tail_limit(f, hf, args.probe)
    checks = {}
    if args.rel_tol is not None:
        checks["relative_agreement"] = abs(probe - predicted) <= args.rel_tol * abs(predicted)
    record = ("tail_limit", {"probe_value": probe, "predicted": predicted})
    return record, digest, checks, {"probe": args.probe}


def analyze_partition(args):
    spec = parse_wavelet(args.wavelet)
    grid = parse_grid(args.grid)
    dev = analysis.partition_deviation(spec, args.k, args.transformed, grid)
    x = dev.x()
    center = 0.5 * (x[0] + x[-1])
    central = np.abs(x - center) <= args.central_halfwidth
    if not central.any():
        raise UsageError(f"--central-halfwidth {args.central_halfwidth} selects no sample")
    max_abs = float(np.max(np.abs(dev.values[central])))
    min_abs = float(np.min(np.abs(dev.values[central])))
    checks = {}
    if args.max_central is not None:
        checks["max_central_deviation"] = max_abs < args.max_central
    if args.min_central is not None:
        checks["min_central_deviation"] = min_abs > args.min_central
    if args.out_csv:
        write_signal_csv(dev, args.out_csv)
    record = ("partition_deviation", {"max_abs_central": max_abs, "min_abs_central": min_abs})
    params = {"wavelet": args.wavelet, "k": args.k, "transformed": args.transformed,
              "grid": args.grid, "central_halfwidth": args.central_halfwidth}
    return record, "", checks, params


# --------------------------------------------------------------------------
# figures
# --------------------------------------------------------------------------

_FIGURE_STEP = 2.0 ** -8


def _pair_panels(grid: Grid, titled_specs) -> list[PanelSpec]:
    """One panel per ``(title, generator)``: its samples and their transform."""
    panels = []
    for title, spec in titled_specs:
        sig = wavelets.sample(spec, grid)
        panels.append(PanelSpec(
            curves=((sig, "original"), (hilbert_spectral(sig), "transformed")), title=title))
    return panels


def _kernel_panel() -> list[PanelSpec]:
    # grid offset by half a step so the singular point x = 0 is never
    # sampled; the column through it is clipped by the y-range
    grid = Grid(-4.0 + _FIGURE_STEP / 2.0, _FIGURE_STEP, int(8 / _FIGURE_STEP))
    kernel = SampledSignal(grid, 1.0 / (np.pi * grid.abscissas()))
    return [PanelSpec(curves=((kernel, "kernel"),),
                      title="convolution kernel 1/(pi x)", y_range=(-5.0, 5.0))]


# figure id -> the generator -> transform -> panel chain that builds it:
# 1 scaling-function breakup, 2 kernel, 3 wavelet pairs
FIGURES = {
    1: lambda: _pair_panels(Grid(-8.0, _FIGURE_STEP, int(16 / _FIGURE_STEP) + 1), (
        ("(a) Haar scaling function", wavelets.make_haar_scaling()),
        ("(b) cubic B-spline", wavelets.make_bspline_scaling(3)))),
    2: _kernel_panel,
    3: lambda: _pair_panels(Grid(-6.0, _FIGURE_STEP, int(12 / _FIGURE_STEP) + 1), (
        (f"degree {d}", wavelets.make_spline_wavelet(d)) for d in range(4))),
}


def cmd_figure(args) -> int:
    render_figure(FIGURES[args.id](), args.out)
    return 0


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with a :class:`UsageError`, so ``main`` reports
    them like every other refusal: one ``hwl:`` line and exit 2."""

    def error(self, message):
        command = self.prog.partition(" ")[2]
        raise UsageError(f"{command}: {message}" if command else message)


# built at the first call, not at import, and kept: argparse's parse does
# not change the parser, and building one costs milliseconds per command
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hwl",
        description="Hilbert transforms of wavelets: generators, dual engines, certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a generator to CSV")
    p.add_argument("--wavelet", required=True, help="NAME[,param,...]; see docs")
    p.add_argument("--grid", required=True, help="min:max:step")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("hilbert", help="transform a signal CSV")
    p.add_argument("--method", required=True, choices=("pv", "spectral"))
    p.add_argument("--pad", type=int, default=16, help="spectral zero-padding factor")
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hilbert)

    pa = sub.add_parser("analyze", help="run an analysis and write a JSON report")
    asub = pa.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("decay")
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--window", required=True, help="lo:hi in |x|")
    p.add_argument("--side", default="two_sided", choices=("left", "right", "two_sided"))
    p.add_argument("--expect-exponent", type=finite_float, default=None)
    p.add_argument("--exponent-tol", type=finite_float, default=0.1)
    p.add_argument("--min-exponent", type=finite_float, default=None)
    p.add_argument("--min-r2", type=finite_float, default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_analyze, analyze=analyze_decay)

    p = asub.add_parser("moments")
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--tolerance", type=finite_float, default=None,
                   help="absolute moment tolerance (default: truncation-aware)")
    p.add_argument("--expect-count", type=int, default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_analyze, analyze=analyze_moments)

    p = asub.add_parser("sobolev")
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--gammas", default="0,0.75,1.5,2,2.75,3,3.25,4")
    p.add_argument("--expect-order", type=int, default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_analyze, analyze=analyze_sobolev)

    p = asub.add_parser("bedrosian")
    p.add_argument("--window", required=True, choices=("sinc2", "gauss"))
    p.add_argument("--omega0", type=finite_float, required=True)
    p.add_argument("--sigma", type=finite_float, default=None,
                   help="Gaussian width, for --window gauss only (default 1)")
    p.add_argument("--grid", required=True)
    p.add_argument("--max-residual", type=finite_float, default=None)
    p.add_argument("--min-residual", type=finite_float, default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_analyze, analyze=analyze_bedrosian)

    p = asub.add_parser("certificate")
    p.add_argument("--psi", required=True)
    p.add_argument("--hpsi", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--expect-stable", choices=("true", "false"), default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_analyze, analyze=analyze_certificate)

    p = asub.add_parser("tail-limit")
    p.add_argument("--in", required=True, dest="in")
    p.add_argument("--hilbert", required=True)
    p.add_argument("--probe", type=finite_float, required=True)
    p.add_argument("--rel-tol", type=finite_float, default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_analyze, analyze=analyze_tail_limit)

    p = asub.add_parser("partition")
    p.add_argument("--wavelet", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--transformed", action="store_true")
    p.add_argument("--grid", required=True)
    p.add_argument("--central-halfwidth", type=finite_float, default=2.0)
    p.add_argument("--max-central", type=finite_float, default=None)
    p.add_argument("--min-central", type=finite_float, default=None)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_analyze, analyze=analyze_partition)

    p = sub.add_parser("figure", help="render a standard figure as SVG")
    p.add_argument("--id", type=int, required=True, choices=FIGURES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    return parser


# a negative number or grid ("-" then a digit or "."), which argparse would
# take for a flag; joined to its option with "=" before parsing
_DASH_VALUE = re.compile(r"-[0-9.]")


def _absorb_dash_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and _DASH_VALUE.match(argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_absorb_dash_values(list(argv)))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ArithmeticError as exc:  # NumPy's FloatingPointError, Python's OverflowError
        print(f"hwl: arithmetic out of range ({exc}); check the inputs and options",
              file=sys.stderr)
        return 2
    except (UsageError, InvalidParameterError, GridTooNarrowError) as exc:
        print(f"hwl: {exc}", file=sys.stderr)
        return 2
    except (ParseError, SchemaError, FitWindowError, GridMismatchError, OSError) as exc:
        print(f"hwl: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
