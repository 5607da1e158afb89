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

For every end-to-end metric of the change's BENCHMARK.json it prints the
median and the interquartile range of each side, the change/parent ratio of
the medians and how many pairs the change won (ties count for neither side).
With --record the summary is merged into that JSON file under the workload's
name. The tool itself writes nothing else; each run.py keeps its own records
in its checkout's perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800)
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


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    summary = {}
    for metric, direction in better.items():
        sides = {side: [run[metric] for run in side_runs] for side, side_runs in runs.items()}
        stats = {side: quartiles(values) for side, values in sides.items()}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        summary[metric] = {
            **{f"{side}_median": stats[side][1] for side in sides},
            **{f"{side}_iqr": stats[side][2] - stats[side][0] for side in sides},
            "change_over_parent": stats["change"][1] / stats["parent"][1],
            "change_wins": wins,
            "better": direction,
            **{f"{side}_runs": values for side, values in sides.items()},
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--record", type=Path, help="JSON file to merge the summary into")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): " + ", ".join(
            f"{m} {runs['parent'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}" for m in better),
            flush=True)

    summary = summarize(runs, better)
    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed0}..{args.seed0 + args.pairs - 1}, "
          f"--seconds {args.seconds:g}")
    print(f"{'metric':12s} {'parent median':>14s} {'IQR':>9s} {'change median':>14s} {'IQR':>9s} "
          f"{'ratio':>7s} {'wins':>6s}")
    for metric, s in summary.items():
        print(f"{metric:12s} {s['parent_median']:14.5g} {s['parent_iqr']:9.3g} "
              f"{s['change_median']:14.5g} {s['change_iqr']:9.3g} {s['change_over_parent']:7.3f} "
              f"{s['change_wins']:>3d}/{args.pairs}")
    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record[args.workload] = {"pairs": args.pairs, "seeds": [args.seed0, args.seed0 + args.pairs - 1],
                                 "seconds": args.seconds, "metrics": summary}
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
