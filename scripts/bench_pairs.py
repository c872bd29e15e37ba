#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

Runs `perfbench/run.py` of two checkouts in turn, one workload, and writes
the workload's block of a benchmark record (`BENCH_*.json`): per end-to-end
metric of BENCHMARK.json, the runs, q1, median and q3 of each side
(inclusive quartiles), the change/parent ratio of the medians,
`change_lower_pairs` and whether the ratio is within the metric's bound. Pair p runs at
seeds[p mod len(seeds)]; the parent runs first in even pairs and the
change in odd ones. Other workloads already in the output file are kept.
Each checkout needs `src/`, `perfbench/`, `tests/golden/` (the `plane`
workload compares its figures with them) and `BENCHMARK.json`.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cover-sweep \\
        --pairs 10 --seeds 1 2 3 4 --out BENCH.json [--claim wall_s]

With `--claim`, the file's `claim` names that metric of the workload with
its parent interquartile spread, the gap between the medians, and `met`:
lower in at least nine of ten pairs and by more than that spread, with
every run correct and no more failed operations on the change side than on
the parent side. Each run takes BENCHMARK.json's run length, the default of
`perfbench/run.py`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result line of one benchmark run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def side_summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def metric_block(spec: dict, parent: list, change: list) -> dict:
    ratio = statistics.median(change) / statistics.median(parent)
    lower = spec["better"] == "lower"
    return {
        "unit": spec["unit"],
        "parent": side_summary(parent),
        "change": side_summary(change),
        "ratio_change_over_parent": round(ratio, 4),
        "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
        "bound": spec["bound"],
        "within_bound": ratio <= 1 + spec["bound"] if lower else ratio >= 1 - spec["bound"],
    }


def claim_block(workload: str, metric: str, run: dict) -> dict:
    block = run["metrics"][metric]
    parent, change = block["parent"], block["change"]
    iqr = parent["q3"] - parent["q1"]
    gap = parent["median"] - change["median"]
    lower = block["change_lower_pairs"]
    return {
        "workload": workload,
        "metric": metric,
        "ratio_change_over_parent": block["ratio_change_over_parent"],
        "change_lower_pairs": lower,
        "pairs": run["pairs"],
        "parent_iqr": iqr,
        "median_difference": gap,
        "met": (
            10 * lower >= 9 * run["pairs"]
            and gap > iqr
            and run["correct"]
            and run["failed"]["change"] <= run["failed"]["parent"]
        ),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--claim", default=None, help="end-to-end metric the change claims to improve")
    args = p.parse_args()
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    specs = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    results: dict = {"parent": [], "change": []}
    first, seeds = [], []
    for n in range(args.pairs):
        seed = args.seeds[n % len(args.seeds)]
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], args.workload, seed))
        first.append(order[0])
        seeds.append(seed)
        print(f"pair {n + 1}/{args.pairs} seed {seed} done", file=sys.stderr)

    every = results["parent"] + results["change"]
    block = {
        "pairs": args.pairs,
        "correct": all(r["correct"] for r in every),
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
        "first": first,
        "seeds": seeds,
        "metrics": {
            s["name"]: metric_block(
                s,
                [r["metrics"][s["name"]]["value"] for r in results["parent"]],
                [r["metrics"][s["name"]]["value"] for r in results["change"]],
            )
            for s in specs
        },
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("workloads", {})[args.workload] = block
    if args.claim:
        data["claim"] = claim_block(args.workload, args.claim, block)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if block["correct"] and not any(block["failed"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
