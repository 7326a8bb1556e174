#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seed S]

Checks, in about a minute on two cores:

* the wall-time attribution on a hand-built two-thread span set;
* `sweep` reports and CSVs are byte-identical at --jobs 1 and --jobs nproc;
* for every workload, a traced pass writes the same output bytes as an
  untraced one into an emptied out/, its layer times plus `cli` add up to
  its wall time, every span lies in a command, and removing the tracer
  restores every original function;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads
from tracer import Tracer, attribute

FAILURES = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""), flush=True)
    if not ok:
        FAILURES.append(name)


def check_attribution():
    # thread 1: fields [0, 4] with specialfn [1, 2] inside; thread 2: conop
    # [1, 3]; one command [0, 5].  Shares: fields 1 + 0.5 + 1, specialfn
    # 0.5, conop 0.5 + 0.5, cli 1 (nothing open in [4, 5]).
    spans = [
        (1, 0, "fields", "f", 0.0, 4.0, 1, 9),
        (2, 1, "specialfn", "g", 1.0, 2.0, 1, 9),
        (3, 0, "conop", "h", 1.0, 3.0, 2, 9),
    ]
    times, err = attribute(spans, [(9, "cmd", 0.0, 5.0)])
    want = {"fields": 2.5, "specialfn": 0.5, "conop": 1.0, "cli": 1.0}
    ok = all(abs(times.get(k, 0.0) - v) < 1e-12 for k, v in want.items()) and err < 1e-12
    check("attribution on a two-thread span set", ok, f"got {times}")
    _, err = attribute(spans, [(9, "cmd", 0.0, 2.0)])
    check("attribution flags spans outside their command", err > 0.1, f"error {err:.3g}")


def _outputs(dest: Path) -> dict:
    return run._tree_bytes(dest / "out")


def run_in(dest: Path, fn):
    here = os.getcwd()
    os.chdir(dest)
    try:
        return fn()
    finally:
        os.chdir(here)


def check_jobs_identity(cli, seed, nproc, work: Path):
    outs = {}
    for jobs in (1, nproc):
        dest = work / f"sweep-jobs{jobs}"
        cmds = workloads.prepare("sweep", seed, str(dest), jobs)
        p = run_in(dest, lambda: run.run_pass(cli, cmds))
        check(f"sweep at --jobs {jobs} runs cleanly", not p.errors, str(p.errors or "")[:300])
        outs[jobs] = _outputs(dest)
    same = outs[1] == outs[nproc]
    diff = sorted(k for k in set(outs[1]) | set(outs[nproc])
                  if outs[1].get(k) != outs[nproc].get(k))
    check(f"sweep outputs byte-identical at --jobs 1 and --jobs {nproc}", same, f"differ: {diff}")


def check_trace_identity(cli, specialfn, seed, nproc, work: Path):
    tracer = Tracer()
    originals = {(ns.__name__, name): val for ns, name, val in _bindings(tracer)}
    for workload in workloads.WORKLOADS:
        dest = work / workload
        cmds = workloads.prepare(workload, seed, str(dest), nproc)
        plain = run_in(dest, lambda: run.run_pass(cli, cmds))
        before = _outputs(dest)
        # the traced pass starts from an empty out/, so a file it fails to
        # write shows as a difference rather than as the untraced copy
        shutil.rmtree(dest / "out")
        tracer.reset()
        tracer.install()
        try:
            traced = run_in(dest, lambda: run.run_pass(cli, cmds, tracer))
        finally:
            tracer.uninstall()
        after = _outputs(dest)
        errors = {**plain.errors, **traced.errors}
        check(f"{workload}: traced and untraced passes run cleanly", not errors,
              str(errors or "")[:300])
        diff = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
        check(f"{workload}: traced pass writes the untraced pass's bytes", not diff,
              f"differ: {diff}")
        layers, err = tracer.metrics()
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        check(f"{workload}: layer self times plus cli equal the traced wall", err < 1e-9,
              f"sum {total:.4f} s over {traced.wall:.4f} s of passes")
        check(f"{workload}: every library span lies in a command", tracer.orphans() == 0,
              f"{tracer.orphans()} outside")
    tracer.reset()
    tracer.install()
    try:
        specialfn.gamma_fn(0.5)
    finally:
        tracer.uninstall()
    check("a library call outside every command counts as an orphan span",
          tracer.orphans() == 2, f"{tracer.orphans()} orphans")
    restored = {(ns.__name__, name): val for ns, name, val in _bindings(tracer)}
    check("uninstall restores every rebound function", restored == originals)


def _bindings(tracer):
    for ns in tracer._namespaces:
        for name, val in vars(ns).items():
            if callable(val) and not name.startswith("_"):
                yield ns, name, val


def check_refuses_bare_copy(work: Path):
    bare = work / "bare"
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check("without src/ the benchmark exits non-zero and prints no result",
          proc.returncode != 0 and not proc.stdout.strip(),
          f"exit {proc.returncode}, stdout {proc.stdout.strip()[:100]!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="self-test of the benchmark")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from conewave import cli, specialfn

    nproc = len(os.sched_getaffinity(0))
    run.SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
    try:
        check_attribution()
        check_jobs_identity(cli, args.seed, nproc, work)
        check_trace_identity(cli, specialfn, args.seed, nproc, work)
        check_refuses_bare_copy(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
