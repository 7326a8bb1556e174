#!/usr/bin/env python3
"""Fold the results under .bench/results into one trajectory entry.

    python3 bench/trajectory.py --label NAME --revision REV [--results DIR] [--note TEXT]

Each run of bench/run.py leaves .bench/results/<workload>-seed<S>-trace<T>.json.
This script groups the results in DIR (default .bench/results) by workload
and writes bench/trajectory/NAME.json, tagged with the program revision REV:
for each end-to-end metric the median and quartiles over the untraced runs'
values, the failure, check and drift figures, and the per-layer metrics of
each traced run, together with the environment the runs recorded.  A change
that claims a gain cites two entries measured with the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH.parent / ".bench" / "results"


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "iqr_over_median": (q3 - q1) / med if med else None}


def fold(results) -> dict:
    by_workload = defaultdict(lambda: {"untraced": [], "traced": []})
    for res in results:
        d = res["detail"]
        by_workload[d["workload"]]["traced" if d["trace"] else "untraced"].append(res)
    out, envs = {}, set()
    for workload, runs in sorted(by_workload.items()):
        entry = {}
        plain = runs["untraced"]
        if plain:
            names = plain[0]["result"]["metrics"]
            entry["end_to_end"] = {
                name: {"unit": plain[0]["result"]["metrics"][name]["unit"],
                       **_spread([r["result"]["metrics"][name]["value"] for r in plain])}
                for name in names
            }
            entry["seeds"] = sorted(r["detail"]["environment"]["seed"] for r in plain)
            entry["passes_per_run"] = [r["detail"]["wall_s_measured"]["passes"] for r in plain]
            entry["wall_s_measured"] = _spread(
                [r["detail"]["wall_s_measured"]["median"] for r in plain])
            for key in ("fail_frac", "checks_failed", "checks_total", "report_drift"):
                entry[key] = sorted({r["detail"][key] for r in plain})
            entry["all_correct"] = all(r["result"]["correct"] for r in plain)
        entry["traced"] = [
            {"seed": r["detail"]["environment"]["seed"], "correct": r["result"]["correct"],
             "untraced_wall_s": r["detail"]["wall_s_measured"]["median"],
             "traced_wall_s": r["detail"]["traced_wall_s"],
             "layers": r["detail"]["layers"], "per_command": r["detail"]["per_command"]}
            for r in runs["traced"]
        ]
        out[workload] = entry
        for r in plain + runs["traced"]:
            env = dict(r["detail"]["environment"])
            env.pop("seed")
            envs.add(json.dumps(env, sort_keys=True))
    return {"environment": [json.loads(e) for e in sorted(envs)], "workloads": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--revision", required=True, help="revision of the measured program")
    ap.add_argument("--results", type=Path, default=RESULTS)
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    results = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(args.results.glob("*.json"))]
    if not results:
        raise SystemExit(f"no results under {args.results}")
    entry = {"label": args.label, "revision": args.revision, "note": args.note,
             **fold(results)}
    dest = BENCH / "trajectory" / f"{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(dest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
