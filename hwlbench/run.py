#!/usr/bin/env python3
"""Run one hwl benchmark workload and print its metrics.

    python3 hwlbench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics on the unpatched program:
per-command and whole-chain wall times, set-up time (fresh interpreters
importing ``hwl.cli``), peak memory and the gap between the two Hilbert
engines.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics from the spans of a traced one, plus the
principal-value kernel cases.  Metric names, units and bounds come from
``BENCHMARK.json`` at the repository root.

Everything runs in this one process on one thread; the program's outputs
are checked on every pass (exit codes, stated expectations, bytes repeated
across passes).  Human-readable lines go first, and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A full record -- environment, every metric's median and tail
percentile with its sample count, artifact digests and, when tracing, the
spans -- is written to ``hwlbench/results/``.
"""

from __future__ import annotations

import os

# one worker thread everywhere; set before NumPy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "HWL_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from hwlbench.stats import summarize  # noqa: E402
from hwlbench.trace import Tracer, layer_metrics  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 9


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_digest(result) -> str:
    """Digest of an in-memory library result: signals by grid and value
    bytes, report dataclasses by their exact repr."""
    values = getattr(result, "values", None)
    if values is not None and hasattr(values, "tobytes"):
        return _sha256(repr(result.grid).encode() + values.tobytes())
    return _sha256(repr(result).encode())


class Pass:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        self.state: dict = {}
        self.op_times: dict[str, float] = {}
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0

    @property
    def chain_s(self) -> float:
        return sum(self.op_times.values())


def run_pass(wl, reference: dict[str, str] | None) -> Pass:
    """Run every operation once, timing each call alone, then check it and
    compare its output bytes with ``reference`` (the first pass's)."""
    p = Pass()
    for op in wl.ops:
        p.attempted += 1
        problems = []
        t0 = time.perf_counter()
        try:
            result = op.run(p.state)
        except SystemExit as exc:  # argparse rejects argv this way
            result = exc.code
        except Exception:  # an uncaught exception is a failed operation
            result = None
            problems.append(traceback.format_exc(limit=4))
        p.op_times[op.name] = time.perf_counter() - t0
        p.state[op.name] = result
        if not problems:
            try:
                problems = op.check(p.state, result)
            except Exception:
                problems = [traceback.format_exc(limit=4)]
        if op.artifacts:
            for rel in op.artifacts:
                path = wl.workdir / rel
                p.digests[rel] = _sha256(path.read_bytes()) if path.exists() else "missing"
        elif result is not None:
            p.digests[op.name] = _result_digest(result)
        if reference is not None:
            changed = [k for k in op.artifacts or (op.name,)
                       if p.digests.get(k) != reference.get(k)]
            if changed:
                problems.append(f"output bytes differ from the first pass: {changed}")
        if problems:
            p.failures.append({"op": op.name, "problems": problems})
    for label, check in wl.pass_checks:
        p.attempted += 1
        problems = check(p.state) if not p.failures else ["skipped: an operation failed"]
        if problems:
            p.failures.append({"op": label, "problems": problems})
    return p


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports ``hwl.cli`` and builds
    the workload's inputs; every CLI invocation pays this.

    The child prints its own ``perf_counter`` when done.  That clock is
    CLOCK_MONOTONIC, shared by all processes on Linux, and reading it in the
    child avoids the 50 ms polling steps of waiting with a timeout.
    """
    code = (
        "import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import hwl.cli; "
        "from hwlbench.workloads import prepare; "
        "prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5]); print(repr(time.perf_counter()))"
    )
    argv = [sys.executable, "-c", code, str(SRC), str(ROOT), workload, str(seed),
            str(ROOT / "hwlbench" / "work")]
    t0 = time.perf_counter()
    done = subprocess.run(argv, check=True, timeout=120, capture_output=True, text=True,
                          cwd=ROOT)
    return float(done.stdout.split()[-1]) - t0


def measure(args, wl) -> tuple[dict, dict]:
    """The end-to-end run: set-up samples, then untraced passes."""
    setup = [measure_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        if passes:
            # only the last pass's outputs are kept (for the engine gaps), so
            # peak_rss_mb does not grow with the number of passes
            passes[-1].state = {}
        passes.append(run_pass(wl, passes[0].digests if passes else None))
    gaps, gap_checks, gap_failures = wl.engine_gaps(passes[-1].state)
    samples = {"chain_s": [p.chain_s for p in passes], "setup_s": setup}
    per_command = [wl.command_times(p.op_times) for p in passes]
    for cmd in per_command[0]:
        samples[f"{cmd}_s"] = [c[cmd] for c in per_command]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    samples["engine_gap"] = [max(gaps.values())]
    extra = {"engine_gaps": gaps, "samples": samples}
    return samples, _outcome(passes, gap_checks, gap_failures, extra)


def measure_traced(args, wl) -> tuple[dict, dict]:
    """Untraced and traced passes in turn; per-layer metrics from the spans."""
    from hwlbench import pv_cases

    untraced, traced, spans = [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < args.seconds:
        untraced.append(run_pass(wl, untraced[0].digests if untraced else None))
        untraced[-1].state = {}
        with Tracer() as tracer:
            traced.append(run_pass(wl, untraced[0].digests))
        traced[-1].state = {}
        spans.append(tracer.spans)
    # every layer number comes from one traced pass, the median one, so its
    # self times add up to that pass's chain time
    order = sorted(range(len(traced)), key=lambda i: traced[i].chain_s)
    mid = order[(len(order) - 1) // 2]
    samples = {k: [v] for k, v in layer_metrics(spans[mid], traced[mid].chain_s).items()}
    per_command = [wl.command_times(p.op_times) for p in untraced]
    for cmd in per_command[0]:
        samples[f"cmd.{cmd}_s"] = [c[cmd] for c in per_command]
    samples["trace.chain_s"] = [traced[mid].chain_s]
    samples["trace.untraced_chain_s"] = [p.chain_s for p in untraced]
    plain = statistics.median(samples["trace.untraced_chain_s"])
    samples["trace.overhead_s"] = [traced[mid].chain_s - plain]
    samples["trace.overhead_ratio"] = [(traced[mid].chain_s - plain) / plain]
    case_metrics, case_count, case_failures = pv_cases.run(args.seed)
    samples.update({k: [v] for k, v in case_metrics.items()})
    extra = {"traced_chain_s": [p.chain_s for p in traced],
             "spans": [s.as_dict() for s in spans[mid]]}
    return samples, _outcome(untraced + traced, case_count, case_failures, extra)


def _outcome(passes, extra_checks: int, extra_failures: list[dict], extra: dict) -> dict:
    failures = [dict(f, **{"pass": i}) for i, p in enumerate(passes) for f in p.failures]
    digests = passes[0].digests
    return dict(
        extra,
        passes=len(passes),
        attempted=sum(p.attempted for p in passes) + extra_checks,
        failures=failures + extra_failures,
        artifact_digests=digests,
        # one digest over all outputs: equal across commits whose outputs are
        outputs_sha256=_sha256(json.dumps(digests, sort_keys=True).encode()),
    )


def environment(args) -> dict:
    import numpy

    import hwl

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hwl": hwl.__version__,
        "pv_backend": hwl.PV_BACKEND,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str | None:
    """HEAD's commit, or None outside a git repository (the benchmark also
    runs on plain source checkouts); no repository above ROOT is searched."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hwl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hwl" / "__init__.py").is_file():
        print(f"hwlbench: no hwl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import hwl

    if Path(hwl.__file__).resolve().parent != (SRC / "hwl").resolve():
        print(f"hwlbench: imported hwl from {hwl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from hwlbench.workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        print(f"hwlbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = ROOT / "hwlbench" / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = prepare(args.workload, args.seed, workdir)
        samples, outcome = (measure_traced if args.trace else measure)(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        metrics[m["name"]] = dict(summarize(samples[m["name"]]), unit=m["unit"])
    # the other per-command times of an untraced run: printed and recorded,
    # not reported as metrics (the traced run reports them as cmd.*_s)
    commands = {} if args.trace else {
        k: dict(summarize(v), unit="s") for k, v in samples.items()
        if k.endswith("_s") and k not in metrics}
    failed = len({(f.get("pass"), f["op"]) for f in outcome["failures"]})
    record = {
        "environment": environment(args),
        "params": wl.params,
        "metrics": metrics,
        "commands": commands,
        "failed_ratio": failed / outcome["attempted"],
        **outcome,
    }
    if args.trace:
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "chain_s")
        record["overhead_flagged"] = abs(samples["trace.overhead_ratio"][0]) > bound
    results = ROOT / "hwlbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    _print_report(args, record, out_path)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v["median"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def _print_report(args, record, out_path) -> None:
    env = record["environment"]
    print(f"hwlbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} params={json.dumps(record['params'])}")
    print(f"  on {env['cpu']} (nproc {env['nproc']}), Python {env['python']}, "
          f"NumPy {env['numpy']}, PV backend {env['pv_backend']}, commit {env['commit']}")
    for title, block in (("metrics", record["metrics"]),
                         ("other commands (not bounded)", record["commands"])):
        if block:
            print(f"  {title}:")
        for name, rec in block.items():
            tail = (f"p{rec['tail_pct']:.1f} {rec['tail']:.6g}" if rec["tail"] is not None
                    else "tail n/a")
            print(f"    {name:<38} {rec['median']:>14.6g} {rec['unit']:<14} n={rec['n']:<4} {tail}")
    if args.trace:
        m = record["metrics"]
        layers = sum(v["median"] for k, v in m.items() if k.startswith("self."))
        print(f"  self times sum to {layers:.6g} s of the traced chain's "
              f"{m['trace.chain_s']['median']:.6g} s")
        if record["overhead_flagged"]:
            print(f"  FLAG: traced and untraced chains differ by "
                  f"{m['trace.overhead_ratio']['median']:+.1%}, more than chain_s's bound")
    print(f"  failed_ratio {record['failed_ratio']:.4g} "
          f"({len(record['failures'])} failure(s) in {record['attempted']} attempted)")
    for f in record["failures"][:10]:
        print(f"  FAILED {f['op']}: {f['problems']}")
    print(f"  outputs sha256 {record['outputs_sha256']}")
    print(f"  record: {out_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
