#!/usr/bin/env python3
"""Benchmark of the `conewave` command on seeded workloads.

    python3 bench/run.py --workload op-apply --seed 1 --seconds 30 --trace 0

Run from a source checkout: the package is imported from ./src and the
commands run in-process through `conewave.cli.main`.  With `--trace 0` the
run times passes over the workload's commands with tracing off and prints
the end-to-end metrics; with `--trace 1` it alternates untraced and traced
passes and prints the per-layer metrics of the traced ones.  End-to-end
times are rescaled to a reference core speed (see `reference`), because a
shared host's cores change speed from minute to minute.  Metric names and
units come from BENCHMARK.json at the checkout root.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the details (quartiles, pass count, failure fraction, gated checks, report
drift, environment).  Scratch files live under .bench/ in the checkout;
results and traces stay there, inputs are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench"

SETUPS = 9  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # timed passes per run, however long they take

# One BLAS thread: the benchmark measures the program's own --jobs
# parallelism, and a BLAS pool on top of it would oversubscribe the cores.
# Set before numpy is imported here or in a set-up process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Speed reference.  The cores of a shared host change speed by tens of per
# cent from one minute to the next.  Every timed command and set-up is
# bracketed by a fixed pure-Python loop, and its time is rescaled to a core
# that runs the loop in REF_S seconds: seconds at reference speed.
REF_LOOPS = 300_000
REF_S = 0.02


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed) -> dict:
    """What the numbers depend on besides the code: recorded with every result."""
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_revision": rev,
        "seed": seed,
    }


def reference() -> float:
    """Seconds the fixed reference loop takes on this core now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOPS):
        acc += i * 0.5
    return time.perf_counter() - t0


def _at_reference(seconds, ref_before, ref_after) -> float:
    return seconds * REF_S / (0.5 * (ref_before + ref_after))


def _blas_threads():
    # numpy wheels bundle OpenBLAS under a prefixed name; ask the loaded copy
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


# ---------------------------------------------------------------------------
# set-up


def set_up(workload, seed, jobs, work, count) -> tuple:
    """Run `count` fresh-process set-ups; return (medians, input dir).

    The medians are of the set-ups' seconds at reference speed and as
    measured.  Every set-up must write byte-identical inputs.
    """
    times, scaled, dirs = [], [], []
    ref = reference()
    for i in range(count):
        dest = work / f"setup{i}"
        dest.mkdir(parents=True)
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which would quantize the measurement
        subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--dest", ".", "--jobs", str(jobs), "--src", str(SRC)],
            cwd=dest, check=True,
        )
        times.append(time.perf_counter() - t0)
        ref_after = reference()
        scaled.append(_at_reference(times[-1], ref, ref_after))
        ref = ref_after
        dirs.append(dest)
    first = _tree_bytes(dirs[0])
    if any(_tree_bytes(d) != first for d in dirs[1:]):
        raise RuntimeError("set-ups with one seed wrote different inputs")
    return {"at_reference": statistics.median(scaled),
            "measured": statistics.median(times)}, dirs[0]


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One pass over the commands: wall time, exit codes, report bytes.

    `scaled` is the wall time at reference speed, `refs` the reference
    times around the commands; both are set only when `speed` was asked for.
    """

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self.refs = []
        self.codes = {}
        self.reports = {}
        self.errors = {}


def run_pass(cli, commands, tracer=None, speed=False) -> Pass:
    result = Pass()
    if speed:
        result.refs.append(reference())
    for cmd in commands:
        label, argv = cmd["label"], cmd["argv"]
        report = Path("out", label, "report.json")
        if report.exists():
            report.unlink()
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.command(label, lambda: cli.main(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a raising command is a failed command; keep going
                code = None
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        result.wall += seconds
        if speed:
            result.refs.append(reference())
            result.scaled += _at_reference(seconds, *result.refs[-2:])
        result.codes[label] = code
        result.reports[label] = report.read_bytes() if report.exists() else None
        if code not in (0, 2) or result.reports[label] is None:
            result.errors[label] = err.getvalue()[-2000:]
    return result


def _report_ok(code, raw) -> bool:
    # exit 2 is a numerical verdict; the report must agree with the exit code
    try:
        rep = json.loads(raw)
    except ValueError:
        return False
    return rep.get("passed") is (code == 0)


def output_checks(workload, commands, reports) -> list:
    """Workload-specific checks on the first pass's outputs; returns problems."""
    problems = []
    for cmd in commands:
        label = cmd["label"]
        raw = reports.get(label)
        if raw is None:
            continue
        rep = json.loads(raw)
        if rep.get("seed") != int(cmd["argv"][cmd["argv"].index("--seed") + 1]):
            problems.append(f"{label}: report seed differs from --seed")
        if label.startswith("norm-test") and rep.get("region") not in ("RegionI", "RegionII"):
            problems.append(f"{label}: probe point classified {rep.get('region')}")
        if label == "scan-region" and sum(rep.get("tally", {}).values()) != rep.get("points"):
            problems.append(f"{label}: region tally does not cover the scanned points")
        if label.startswith("verify-") and rep.get("suite") != label[len("verify-"):]:
            problems.append(f"{label}: report names suite {rep.get('suite')}")
        if label.startswith("op-apply-"):
            inp = Path(f"{label[len('op-apply-'):]}.field")
            res = Path("out", label, "result.field")
            if not res.exists() or res.stat().st_size != inp.stat().st_size:
                problems.append(f"{label}: result.field missing or not the input's shape")
    return problems


def summarize(workload, commands, passes) -> dict:
    """Failure counts, gated checks and drift over a run's passes."""
    first = passes[0]
    attempted = failed = 0
    for p in passes:
        for label, code in p.codes.items():
            attempted += 1
            raw = p.reports[label]
            if code not in (0, 2) or raw is None or not _report_ok(code, raw):
                failed += 1
    drift = sorted({label for p in passes[1:] for label, raw in p.reports.items()
                    if raw != first.reports[label]})
    records = [r for raw in first.reports.values() if raw is not None
               for r in json.loads(raw).get("records", [])]
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "checks_total": len(records),
        "checks_failed": sum(1 for r in records if not r["passed"]),
        "report_drift": len(drift),
        "drifted": drift,
        "exit_codes": first.codes,
        "problems": output_checks(workload, commands, first.reports),
        "errors": {k: v for p in passes for k, v in p.errors.items()},
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _another(rounds, start, seconds, least) -> bool:
    # start a round only while one more is expected to end within the budget
    if len(rounds) < least:
        return True
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


def measure(cli, commands, seconds):
    """Untraced passes for `seconds`, and at least MIN_PASSES of them."""
    passes, walls = [], []
    start = time.perf_counter()
    while _another(walls, start, seconds, MIN_PASSES):
        passes.append(run_pass(cli, commands, speed=True))
        walls.append(passes[-1].wall)
    return passes


def measure_traced(cli, commands, seconds):
    """Pairs of an untraced and a traced pass for `seconds`, at least one pair."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, layer_runs, checks, orphans, rounds = [], [], [], [], [], []
    start = time.perf_counter()
    while _another(rounds, start, seconds, 1):
        t0 = time.perf_counter()
        plain.append(run_pass(cli, commands))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(cli, commands, tracer))
        finally:
            tracer.uninstall()
        layers, check = tracer.metrics()
        layer_runs.append(layers)
        checks.append(check)
        orphans.append(tracer.orphans())
        rounds.append(time.perf_counter() - t0)
    return plain, traced, layer_runs, checks, orphans, tracer


def _end_to_end(cli, commands, seconds, setup_s):
    passes = measure(cli, commands, seconds)
    scaled = [p.scaled for p in passes]
    refs = [r for p in passes for r in p.refs]
    q1, q3 = _quartiles(scaled)
    values = {
        "wall_s": statistics.median(scaled),
        "setup_s": setup_s["at_reference"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "wall_s_at_reference": {"median": values["wall_s"], "q1": q1, "q3": q3,
                                "each": scaled},
        "setup_s_measured": setup_s["measured"],
        "reference_s": {"median": statistics.median(refs), "min": min(refs),
                        "max": max(refs), "count": len(refs)},
    }
    return passes, passes, values, extra


def _per_layer(cli, commands, seconds, trace_path):
    plain, traced, layer_runs, checks, orphans, tracer = measure_traced(cli, commands, seconds)
    problems = []
    counts = [{k: v for k, v in lr.items() if not k.endswith("_s")} for lr in layer_runs]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    if max(checks) > 1e-6:
        problems.append("layer times plus cli miss the traced wall time, "
                        "or a thread's layer segments miss its spans")
    if max(orphans):
        problems.append("library spans recorded outside every command")
    values = dict(layer_runs[-1])
    for key in [k for k in values if k.endswith("_s")]:
        values[key] = statistics.median(lr[key] for lr in layer_runs)
    values["trace_overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in plain))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)
    extra = {
        "problems": problems,
        "attribution_error": max(checks),
        "orphan_spans": max(orphans),
        "traced_wall_s": [p.wall for p in traced],
        "layers": values,
        "per_command": {c["label"]: tracer.metrics(c["label"])[0] for c in commands},
    }
    return plain + traced, plain, values, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "conewave" / "cli.py").is_file():
        _fail(f"no conewave sources under {SRC}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; choose from {names}")

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"workload {args.workload!r} has no generator in bench/workloads.py")
    work = SCRATCH / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    here = os.getcwd()
    try:
        setup_s, inputs = set_up(args.workload, args.seed, len(os.sched_getaffinity(0)),
                                 work, 1 if args.trace else SETUPS)
        import conewave
        from conewave import cli

        if Path(conewave.__file__).resolve().parent != SRC / "conewave":
            _fail(f"imported conewave from {conewave.__file__}, not from {SRC}")
        os.chdir(inputs)
        commands = json.loads(Path("commands.json").read_text(encoding="utf-8"))
        if args.trace:
            trace_path = SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.json"
            passes, plain, values, extra = _per_layer(cli, commands, args.seconds, trace_path)
        else:
            passes, plain, values, extra = _end_to_end(cli, commands, args.seconds, setup_s)
        summary = summarize(args.workload, commands, passes)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)

    walls = [p.wall for p in plain]
    q1, q3 = _quartiles(walls)
    problems = summary["problems"] + extra.pop("problems", [])
    correct = summary["failed"] == 0 and summary["report_drift"] == 0 and not problems
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "wall_s_measured": {"median": statistics.median(walls), "q1": q1, "q3": q3,
                            "passes": len(walls), "each": walls},
        **{k: summary[k] for k in ("fail_frac", "checks_failed", "checks_total",
                                   "report_drift", "drifted", "exit_codes")},
        "problems": problems,
        "environment": environment(args.seed),
        **extra,
    }
    if summary["errors"]:
        detail["errors"] = summary["errors"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (SCRATCH / "results").mkdir(parents=True, exist_ok=True)
    out = SCRATCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n",
                   encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
