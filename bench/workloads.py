"""Seeded inputs and command lists for the benchmark workloads.

A workload is a list of `conewave` command lines plus the files they read.
Everything is derived from the benchmark seed; the program sees only the
generated files and `--seed`.  Paths are relative to the directory the
inputs are written to, and the commands run with that directory as the
working directory, so two set-ups with the same seed are byte-identical
and so are the reports that echo those paths.

Run as a script it performs one set-up (import the package, generate and
write the inputs) into `--dest`; the benchmark times that as `setup_s`:

    python3 bench/workloads.py --workload op-apply --seed 1 --dest DIR --jobs 2 --src src
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

WORKLOADS = ("op-apply", "sweep", "verify")
VERIFY_SUITES = ("bessel", "ft-identity", "case-bounds", "stein-weiss", "crucial", "mixed-norm")

# norm-test probe orders: two below the Region-I threshold alpha = 1/2 (n = 1)
# and two above it, so the three draws land in Region I or II and share
# 1 to 3 distinct kernels
_NORM_ALPHAS = (0.3, 0.4, 0.6, 0.7)


def _write(dest, name, text):
    with open(os.path.join(dest, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _ini(sections: dict) -> str:
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def _argv(label, seed, jobs, command, config=None):
    head = ["--seed", str(seed), "--jobs", str(jobs), "--out", os.path.join("out", label)]
    if config is not None:
        head = ["--config", config] + head
    return {"label": label, "argv": head + command}


def _norm_point(rng):
    """A scaling-line point (alpha, 1/p) in Region I or II for n = 1.

    Region II: alpha < 1/2 and 1/2 < 1/p < 1/2 + alpha.  Region I:
    alpha >= 1/2 and alpha < 1/p < 1.  A 0.02 margin keeps the point off
    the region edges, and 1/p is rounded to two decimals.
    """
    alpha = float(rng.choice(_NORM_ALPHAS))
    lo, hi = (0.5, 0.5 + alpha) if alpha < 0.5 else (alpha, 1.0)
    inv_p = round(float(rng.uniform(lo + 0.02, hi - 0.02)), 2)
    return alpha, inv_p


def _op_apply(dest, seed, jobs):
    from conewave.ensembles import gaussian_spacetime, wave_packet
    from conewave.fields import Grid, SpacetimeField, SpacetimeGrid, save_field

    rng = np.random.default_rng(seed)
    # the default boxes at a quarter (n = 1, 256^2) and a sixty-fourth
    # (n = 2, 32^3) of the default points: a pass takes seconds, so a run
    # holds enough passes for a steady median
    cases = (
        ("n1", 1, SpacetimeGrid(Grid(1, 256, 64.0), 256, 64.0), (0.8, 2.0), (0.25, 1.0)),
        ("n2", 2, SpacetimeGrid(Grid(2, 32, 32.0), 32, 32.0), (1.5, 3.0), (0.1, 0.4)),
    )
    commands = []
    for label, n, grid, widths, freqs in cases:
        blob = gaussian_spacetime(grid, float(rng.uniform(*widths)))
        packet = wave_packet(grid, float(rng.uniform(*widths)),
                             k_x=float(rng.uniform(*freqs)),
                             k_t=float(rng.uniform(-freqs[0], freqs[0])))
        amp = float(rng.uniform(0.5, 1.0))
        field = SpacetimeField(grid, blob.samples + amp * packet.samples)
        save_field(field, os.path.join(dest, f"{label}.field"))
        cfg = _write(dest, f"{label}.ini", _ini({
            "kernel": {"n": n, "alpha": 0.5},
            "op-apply": {"input": f"{label}.field"},
        }))
        commands.append(_argv(f"op-apply-{label}", seed, 1, ["op-apply"], cfg))
    return commands


def _sweep(dest, seed, jobs):
    rng = np.random.default_rng(seed)
    cfg = _write(dest, "scan.ini", _ini({"scan-region": {"with_ratios": "true"}}))
    commands = [_argv("scan-region", seed, jobs, ["scan-region"], cfg)]
    for i in range(3):
        alpha, inv_p = _norm_point(rng)
        cfg = _write(dest, f"norm{i}.ini", _ini({
            "norm-test": {"alpha": alpha, "n": 1, "inv_p": inv_p},
        }))
        commands.append(_argv(f"norm-test-{i}", seed, jobs, ["norm-test"], cfg))
    return commands


def _verify(dest, seed, jobs):
    # case-bounds at n = 1 runs the same scalar remainder path as the
    # n = 2 default at a twentieth of its cost
    cfg = _write(dest, "case.ini", _ini({"case-bounds": {"n": 1}}))
    commands = []
    for suite in VERIFY_SUITES:
        commands.append(_argv(f"verify-{suite}", seed, 1, ["verify", suite],
                              cfg if suite == "case-bounds" else None))
    return commands


_GENERATORS = {"op-apply": _op_apply, "sweep": _sweep, "verify": _verify}


def prepare(workload: str, seed: int, dest: str, jobs: int) -> list:
    """Write the workload's inputs into dest and return its commands.

    The command list is also written to dest/commands.json.
    """
    os.makedirs(dest, exist_ok=True)
    commands = _GENERATORS[workload](dest, seed, jobs)
    _write(dest, "commands.json", json.dumps(commands, indent=1) + "\n")
    return commands


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write one workload's seeded inputs")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dest", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--src", required=True, help="directory holding the conewave package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import conewave.cli  # noqa: F401  (the import is part of set-up)

    prepare(args.workload, args.seed, args.dest, args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
