"""The benchmark's three workloads, built from a seed.

Each workload is a list of operations that drive ``hwl`` through its public
entry points: ``hwl.cli.main`` with an argv list (in-process) or the library
API.  The seed changes generator parameters, never sample counts, so the
work per pass does not depend on it.  Every operation carries its own
correctness checks; expectations and windows come from the README and the
acceptance criteria in ``tests/test_acceptance.py``.

Functions are looked up on their modules at call time (``cli.main``,
``hwl.hilbert_pv``), so a tracer that replaces those names sees the calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hwl
from hwl import cli

WORKLOADS = ("cli-pipeline", "dense-tail", "library-sweep")

# per-command wall times; analyze_s is the sum of the analyze_* entries
COMMANDS = (
    "gen", "hilbert_pv", "hilbert_spectral",
    "analyze_decay", "analyze_moments", "analyze_sobolev", "analyze_certificate",
    "analyze_tail_limit", "analyze_bedrosian", "analyze_partition", "figure",
)

# acceptance criterion 2: the engines agree to 1e-3 of sup on the central
# half for smooth inputs
ENGINE_GAP_CAP = 1e-3
GAMMA_GRID = (0.0, 0.75, 1.5, 2.0, 2.75, 3.0, 3.25, 4.0)


@dataclass
class Op:
    """One operation: a CLI call or a library call, booked under ``command``.

    ``run(state)`` returns the result; ``check(state, result)`` returns a
    list of problems (empty when the output is correct).  ``artifacts`` are
    files in the work directory whose bytes must repeat on every pass;
    library results are digested from the returned object instead.
    """

    name: str
    command: str
    run: Callable[[dict], object]
    check: Callable[[dict, object], list[str]] = lambda state, result: []
    artifacts: tuple[str, ...] = ()


@dataclass
class Workload:
    params: dict
    workdir: Path
    ops: list[Op]
    # (label, pv, spectral, smooth) from one pass; smooth pairs must meet
    # ENGINE_GAP_CAP
    engine_pairs: Callable[[dict], list[tuple[str, np.ndarray, np.ndarray, bool]]]
    pass_checks: list[tuple[str, Callable[[dict], list[str]]]] = field(default_factory=list)

    def command_times(self, op_times: dict[str, float]) -> dict[str, float]:
        """One pass's wall time per command, plus ``analyze`` for all analyses."""
        out = dict.fromkeys(COMMANDS, 0.0)
        for op in self.ops:
            out[op.command] += op_times[op.name]
        out["analyze"] = sum(v for k, v in out.items() if k.startswith("analyze_"))
        return out

    def engine_gaps(self, state: dict) -> tuple[dict[str, float], int, list[dict]]:
        """Gap of every PV/spectral pair, how many were checked (the smooth
        ones), and the failures among those."""
        gaps, checked, failures = {}, 0, []
        for label, pv, spectral, smooth in self.engine_pairs(state):
            gaps[label] = engine_gap(pv, spectral)
            checked += smooth
            if smooth and not gaps[label] < ENGINE_GAP_CAP:
                failures.append({"op": f"engine gap {label}",
                                 "problems": [f"{gaps[label]:.3e} >= {ENGINE_GAP_CAP:g}"]})
        return gaps, checked, failures


def engine_gap(pv: np.ndarray, spectral: np.ndarray) -> float:
    """sup|pv - spectral| / sup|spectral| over the central half of the grid."""
    n = pv.shape[0]
    idx = np.arange(n)
    central = np.abs(idx - 0.5 * (n - 1)) <= 0.25 * (n - 1)
    return float(np.max(np.abs(pv - spectral)[central]) / np.max(np.abs(spectral)[central]))


def _fmt(v: float) -> str:
    return repr(float(v))


def _cli_op(name, command, workdir, argv, report=None, outputs=()):
    """A CLI call that must exit 0 and, when it writes a report with a
    ``pass`` flag, pass.  ``Path`` entries of ``argv`` name files in the
    work directory."""
    argv = [str(workdir / a) if isinstance(a, Path) else a for a in argv]

    def check(state, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        if report is None:
            return []
        payload = json.loads((workdir / report).read_text())
        if payload.get("pass") is False:
            return [f"report {report}: pass=false, checks {payload.get('checks')}"]
        return []

    files = tuple(outputs) + ((report,) if report else ())
    return Op(name, command, lambda state: cli.main(argv), check, files)


def _read_csv_values(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)


def cli_pipeline(seed: int, workdir: Path) -> Workload:
    """Cubic spline wavelet on the odd CLI grid -128:128:2^-10 (2^18+1
    samples), shifted by a sub-step multiple of 2^-20 chosen by the seed."""
    rng = np.random.default_rng(seed)
    step = 2.0 ** -10
    shift = int(rng.integers(0, 1024)) * 2.0 ** -20
    lo, hi = -128.0 + shift, 128.0 + shift  # exact in binary64: count stays 2^18+1
    grid = f"{_fmt(lo)}:{_fmt(hi)}:{_fmt(step)}"
    ops = [
        _cli_op("gen", "gen", workdir,
                ["gen", "--wavelet", "spline-wavelet,3", "--grid", grid, "--out", Path("psi.csv")],
                outputs=("psi.csv",)),
        _cli_op("hilbert pv", "hilbert_pv", workdir,
                ["hilbert", "--method", "pv", "--in", Path("psi.csv"), "--out", Path("hpv.csv")],
                outputs=("hpv.csv", "hpv.csv.meta.json")),
        _cli_op("hilbert spectral", "hilbert_spectral", workdir,
                ["hilbert", "--method", "spectral", "--in", Path("psi.csv"), "--out", Path("hsp.csv")],
                outputs=("hsp.csv", "hsp.csv.meta.json")),
        # criterion 5a's wide window: the 1/x^5 tail past the zero crossing
        _cli_op("analyze decay", "analyze_decay", workdir,
                ["analyze", "decay", "--in", Path("hsp.csv"), "--window", "6:24",
                 "--min-exponent", "4", "--json", Path("decay.json")], report="decay.json"),
        # criterion 6: the transform keeps the 4 vanishing moments
        _cli_op("analyze moments", "analyze_moments", workdir,
                ["analyze", "moments", "--in", Path("hsp.csv"), "--max-order", "3",
                 "--expect-count", "4", "--json", Path("moments.json")], report="moments.json"),
        _cli_op("analyze sobolev", "analyze_sobolev", workdir,
                ["analyze", "sobolev", "--in", Path("hsp.csv"), "--json", Path("sobolev.json")],
                report="sobolev.json"),
        _cli_op("analyze certificate", "analyze_certificate", workdir,
                ["analyze", "certificate", "--psi", Path("psi.csv"), "--hpsi", Path("hsp.csv"),
                 "--order", "3", "--expect-stable", "true", "--json", Path("certificate.json")],
                report="certificate.json"),
    ]

    def pairs(state):
        return [("spline-wavelet,3", _read_csv_values(workdir / "hpv.csv"),
                 _read_csv_values(workdir / "hsp.csv"), True)]

    return Workload({"grid": grid, "count": 2 ** 18 + 1}, workdir, ops, pairs)


def dense_tail(seed: int, workdir: Path) -> Workload:
    """Nowhere-zero Gaussian gauss-cos,SIGMA,0 with SIGMA in [6, 8] from the
    seed, on -64:64:2^-9 (2^16+1 samples); both transforms are checked for
    the 1/x tail and its limit integral(f)/pi."""
    rng = np.random.default_rng(seed)
    sigma = round(6.0 + 2.0 * float(rng.random()), 6)
    grid = "-64:64:0.001953125"
    ops = [
        _cli_op("gen", "gen", workdir,
                ["gen", "--wavelet", f"gauss-cos,{sigma!r},0", "--grid", grid, "--out", Path("g.csv")],
                outputs=("g.csv",)),
        _cli_op("hilbert pv", "hilbert_pv", workdir,
                ["hilbert", "--method", "pv", "--in", Path("g.csv"), "--out", Path("hpv.csv")],
                outputs=("hpv.csv", "hpv.csv.meta.json")),
        _cli_op("hilbert spectral", "hilbert_spectral", workdir,
                ["hilbert", "--method", "spectral", "--in", Path("g.csv"), "--out", Path("hsp.csv")],
                outputs=("hsp.csv", "hsp.csv.meta.json")),
    ]
    for engine in ("pv", "sp"):
        # exponent 1 +- 0.1 and r^2 > 0.99 as in criterion 3; the window
        # starts at 5 sigma_max, where the Gaussian's mass is all inside |x|
        ops.append(_cli_op(
            f"analyze decay {engine}", "analyze_decay", workdir,
            ["analyze", "decay", "--in", Path(f"h{engine}.csv"), "--window", "40:60",
             "--expect-exponent", "1", "--exponent-tol", "0.1", "--min-r2", "0.99",
             "--json", Path(f"decay_{engine}.json")], report=f"decay_{engine}.json"))
    for engine in ("pv", "sp"):
        # x*Hf(x) -> integral(f)/pi; the next term is sigma^2/x^2 <= 2% at 56
        ops.append(_cli_op(
            f"analyze tail-limit {engine}", "analyze_tail_limit", workdir,
            ["analyze", "tail-limit", "--in", Path("g.csv"), "--hilbert", Path(f"h{engine}.csv"),
             "--probe", "56", "--rel-tol", "0.05", "--json", Path(f"tail_{engine}.json")],
            report=f"tail_{engine}.json"))

    def pairs(state):
        return [(f"gauss-cos,{sigma!r},0", _read_csv_values(workdir / "hpv.csv"),
                 _read_csv_values(workdir / "hsp.csv"), True)]

    params = {"sigma": sigma, "grid": grid, "count": 2 ** 16 + 1}
    return Workload(params, workdir, ops, pairs)


def _expect(ok: bool, problem: str) -> list[str]:
    return [] if ok else [problem]


def library_sweep(seed: int, workdir: Path) -> Workload:
    """Spline wavelets of degree 0..5 on a 2^15+1 grid through the library,
    then the in-memory CLI commands (bedrosian, partition, figures).  Writes
    no CSV."""
    rng = np.random.default_rng(seed)
    omega_hi = round(2.5 + 1.5 * float(rng.random()), 4)  # above the sinc^2 band (-2, 2)
    omega_lo = round(0.5 + 1.0 * float(rng.random()), 4)  # inside it
    grid = hwl.Grid(-64.0, 2.0 ** -8, 2 ** 15 + 1)
    ops: list[Op] = []
    for d in range(6):
        ops += [
            Op(f"sample {d}", "gen",
               lambda st, d=d: hwl.sample(hwl.make_spline_wavelet(d), grid)),
            Op(f"hilbert_pv {d}", "hilbert_pv",
               lambda st, d=d: hwl.hilbert_pv(st[f"sample {d}"])),
            Op(f"hilbert_spectral {d}", "hilbert_spectral",
               lambda st, d=d: hwl.hilbert_spectral(st[f"sample {d}"])),
            # a wavelet of degree d has d+1 vanishing moments, and so does
            # its transform (criterion 6 for d = 3)
            Op(f"moments {d}", "analyze_moments",
               lambda st, d=d: hwl.moments(st[f"hilbert_spectral {d}"], d),
               lambda st, r, d=d: _expect(r.vanishing_count == d + 1,
                                          f"vanishing_count {r.vanishing_count}, want {d + 1}")),
            # criterion 5b's window; monotonicity is a pass check below
            Op(f"fit_decay {d}", "analyze_decay",
               lambda st, d=d: hwl.fit_decay(st[f"hilbert_spectral {d}"], (3.0, 12.0))),
            # criterion 7: the cubic's transform certifies smoothness order 2
            Op(f"smoothness_profile {d}", "analyze_sobolev",
               lambda st, d=d: hwl.smoothness_profile(st[f"hilbert_spectral {d}"], GAMMA_GRID),
               lambda st, r, d=d: _expect(d != 3 or r.smoothness_order == 2,
                                          f"smoothness_order {r.smoothness_order}, want 2")),
            # criterion 12: the full-order bound T2(d+1) is stable
            Op(f"theorem_certificate {d}", "analyze_certificate",
               lambda st, d=d: hwl.theorem_certificate(
                   st[f"sample {d}"], st[f"hilbert_spectral {d}"], d + 1),
               lambda st, r: _expect(r.stable, f"T2 certificate unstable: {r}")),
        ]
    ops += [
        # criterion 8: residual < 1e-4 above the band, > 1e-2 inside it
        _cli_op("analyze bedrosian above", "analyze_bedrosian", workdir,
                ["analyze", "bedrosian", "--window", "sinc2", "--omega0", _fmt(omega_hi),
                 "--grid", "-128:128:0.0078125", "--max-residual", "1e-4",
                 "--json", Path("bedrosian_above.json")], report="bedrosian_above.json"),
        _cli_op("analyze bedrosian inside", "analyze_bedrosian", workdir,
                ["analyze", "bedrosian", "--window", "sinc2", "--omega0", _fmt(omega_lo),
                 "--grid", "-128:128:0.0078125", "--min-residual", "1e-2",
                 "--json", Path("bedrosian_inside.json")], report="bedrosian_inside.json"),
        # criterion 10: translates sum to 1 within 1e-9 on |x| <= 40; the
        # transformed translates miss 1 by more than 0.9 on |x| <= 2
        _cli_op("analyze partition", "analyze_partition", workdir,
                ["analyze", "partition", "--wavelet", "bspline-scaling,3", "--k", "50",
                 "--grid", "-64:64:0.00390625", "--central-halfwidth", "40",
                 "--max-central", "1e-9", "--json", Path("partition.json")],
                report="partition.json"),
        _cli_op("analyze partition transformed", "analyze_partition", workdir,
                ["analyze", "partition", "--wavelet", "bspline-scaling,3", "--k", "50",
                 "--transformed", "--grid", "-64:64:0.00390625", "--central-halfwidth", "2",
                 "--min-central", "0.9", "--json", Path("partition_transformed.json")],
                report="partition_transformed.json"),
        _cli_op("figure 1", "figure", workdir,
                ["figure", "--id", "1", "--out", Path("figure1.svg")], outputs=("figure1.svg",)),
        _cli_op("figure 3", "figure", workdir,
                ["figure", "--id", "3", "--out", Path("figure3.svg")], outputs=("figure3.svg",)),
    ]

    def monotone_decay(st):
        exps = [st[f"fit_decay {d}"].exponent for d in range(4)]
        return _expect(all(a <= b + 1e-9 for a, b in zip(exps, exps[1:])),
                       f"decay exponents not nondecreasing in degree 0..3: {exps}")

    def pairs(st):
        return [(f"spline-wavelet,{d}", st[f"hilbert_pv {d}"].values,
                 st[f"hilbert_spectral {d}"].values, d == 3) for d in range(6)]

    params = {"omega0_above": omega_hi, "omega0_inside": omega_lo, "count": grid.count}
    return Workload(params, workdir, ops, pairs,
                    pass_checks=[("criterion 5b: decay monotone in degree", monotone_decay)])


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Build workload ``name`` for ``seed``; files go to ``workdir``."""
    makers = {"cli-pipeline": cli_pipeline, "dense-tail": dense_tail,
              "library-sweep": library_sweep}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return makers[name](int(seed), Path(workdir))
