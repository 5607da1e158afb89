#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with medians, IQRs and wins.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent ../parent --change . --workload no_isl \
        --pairs 10 --seed0 301 --seconds 25 [--record BENCH_n.json]

PARENT and CHANGE are checkouts. Pair i runs `perfbench/run.py --workload W
--seed S+i --seconds T --trace 0` once in each checkout, in that checkout's
own directory with its own interpreter process: the parent first in even
pairs, the change first in odd ones. The last line each run prints is its JSON
result. A run that is not correct, or that fails an operation, stops the tool.
Every run sets PYTHONDONTWRITEBYTECODE=1, and the tool stops before the first
pair, naming the directory, while any `__pycache__` lies under either
checkout's src/ or perfbench/: a side with compiled bytecode skips the
compile, which moves its set-up time and peak memory.

For every end-to-end metric of the change's BENCHMARK.json it prints the
median and the interquartile range of each side, the change/parent ratio of
the medians and how many pairs the change won (ties count for neither side),
then two verdicts per metric. The bound verdict is "unresolved" when fewer
than 10 pairs ran, or when either side's IQR, as a fraction of that side's
median, is wider than the metric's `bound` in BENCHMARK.json, unless every
change run is better than every parent run. Otherwise the change is "beyond
bound" when its median is worse than the parent's by more than the bound,
taken as a fraction of the parent's median, and "within bound" if not. It
shows a gain ("gain shown") when at least 10 pairs ran, it won at least 9 in
10 of them and its median beats the parent's by more than the parent's IQR.
With --record the summary, verdicts included, is appended to that JSON
file's list of sets for the workload, so a second set run to resolve an
"unresolved" verdict sits beside the first. The tool itself writes nothing
else; each run.py keeps its own records in its checkout's perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pairs: {tree} {workload} seed {seed} is not correct: {lines[-1]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdicts(s: dict, bound: float) -> tuple[str, str]:
    """The bound verdict and the gain verdict of one metric's summary."""
    sign = 1.0 if s["better"] == "higher" else -1.0
    parent, change = s["parent_median"], s["change_median"]
    pairs = len(s["parent_runs"])
    all_better = min(sign * v for v in s["change_runs"]) > max(sign * v for v in s["parent_runs"])
    wide = any(s[f"{side}_iqr"] > bound * abs(s[f"{side}_median"]) for side in ("parent", "change"))
    if pairs < 10 or (wide and not all_better):
        bound_verdict = "unresolved"
    elif sign * (parent - change) > bound * abs(parent):
        bound_verdict = "beyond bound"
    else:
        bound_verdict = "within bound"
    gain = (pairs >= 10 and 10 * s["change_wins"] >= 9 * pairs
            and sign * (change - parent) > s["parent_iqr"])
    return bound_verdict, "gain shown" if gain else "no gain shown"


def summarize(runs: dict[str, list[dict]], metrics: dict[str, dict]) -> dict:
    """Per end-to-end metric ({name: its BENCHMARK.json entry}): medians, IQRs, wins, verdicts."""
    summary = {}
    for metric, entry in metrics.items():
        sides = {side: [run[metric] for run in side_runs] for side, side_runs in runs.items()}
        stats = {side: quartiles(values) for side, values in sides.items()}
        sign = 1.0 if entry["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        s = summary[metric] = {
            **{f"{side}_median": stats[side][1] for side in sides},
            **{f"{side}_iqr": stats[side][2] - stats[side][0] for side in sides},
            "change_over_parent": stats["change"][1] / stats["parent"][1],
            "change_wins": wins,
            "better": entry["better"],
            **{f"{side}_runs": values for side, values in sides.items()},
        }
        s["bound_verdict"], s["gain_verdict"] = verdicts(s, entry["bound"])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--record", type=Path, help="JSON file to append the summary to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    caches = [str(cache) for tree in trees.values() for sub in ("src", "perfbench")
              for cache in sorted((tree / sub).rglob("__pycache__"))]
    if caches:
        sys.exit("bench_pairs: delete the compiled bytecode first, so neither side skips "
                 "the compile: " + ", ".join(caches))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): " + ", ".join(
            f"{m} {runs['parent'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}" for m in metrics),
            flush=True)

    summary = summarize(runs, metrics)
    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed0}..{args.seed0 + args.pairs - 1}, "
          f"--seconds {args.seconds:g}")
    print(f"{'metric':12s} {'parent median':>14s} {'IQR':>9s} {'change median':>14s} {'IQR':>9s} "
          f"{'ratio':>7s} {'wins':>6s}")
    for metric, s in summary.items():
        print(f"{metric:12s} {s['parent_median']:14.5g} {s['parent_iqr']:9.3g} "
              f"{s['change_median']:14.5g} {s['change_iqr']:9.3g} {s['change_over_parent']:7.3f} "
              f"{s['change_wins']:>3d}/{args.pairs}")
    print()
    for metric, s in summary.items():
        bound = metrics[metric]["bound"]
        print(f"{metric:12s} {s['bound_verdict']} ({bound:g}), {s['gain_verdict']}")
    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        sets = record.get(args.workload, [])
        if isinstance(sets, dict):  # a record written when a workload held one set
            sets = [sets]
        sets.append({"pairs": args.pairs, "seeds": [args.seed0, args.seed0 + args.pairs - 1],
                     "seconds": args.seconds, "metrics": summary})
        record[args.workload] = sets
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
