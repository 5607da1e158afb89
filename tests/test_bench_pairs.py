"""The verdicts of tools/bench_pairs.py on hand-made parent/change runs."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"iters_per_s": {"name": "iters_per_s", "better": "higher", "bound": 0.25},
           "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25}}
PARENT_RATE = [9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5, 11.0]  # median 10, IQR 0
PARENT_SETUP = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, IQR 0.45


def verdicts(change_rate, change_setup, pairs=10):
    runs = {side: [{"iters_per_s": r, "setup_s": s} for r, s in zip(rate[:pairs], setup[:pairs])]
            for side, rate, setup in [("parent", PARENT_RATE, PARENT_SETUP),
                                      ("change", change_rate, change_setup)]}
    summary = bench_pairs.summarize(runs, METRICS)
    return {m: (s["bound_verdict"], s["gain_verdict"]) for m, s in summary.items()}


def test_a_median_worse_than_the_bound_is_beyond_it():
    # a median rate of 7.4 is 26% below the parent's 10
    got = verdicts([7.4] * 10, PARENT_SETUP)
    assert got["iters_per_s"] == ("beyond bound", "no gain shown")
    assert got["setup_s"] == ("within bound", "no gain shown")


def test_a_median_worse_inside_the_bound_is_within_it():
    # 24% slower set-up and 20% fewer iterations per second
    got = verdicts([8.0] * 10, [1.45 * 1.24] * 10)
    assert got == {"iters_per_s": ("within bound", "no gain shown"),
                   "setup_s": ("within bound", "no gain shown")}


def test_a_gain_needs_ten_pairs_nine_wins_in_ten_and_a_median_beyond_the_parents_iqr():
    # set-up 0.9 s below the parent in every pair, beyond its 0.45 s IQR
    faster = [s - 0.9 for s in PARENT_SETUP]
    assert verdicts(PARENT_RATE, faster)["setup_s"] == ("within bound", "gain shown")
    # the first 6 of those pairs alone
    assert verdicts(PARENT_RATE, faster, pairs=6)["setup_s"] == ("within bound", "no gain shown")
    # the same median with only 8 wins in 10
    setup = [s - 0.9 for s in PARENT_SETUP[:8]] + [2.0, 2.0]
    assert verdicts(PARENT_RATE, setup)["setup_s"] == ("within bound", "no gain shown")
    # 10 wins, but a median 0.3 s better is inside the parent's IQR
    assert verdicts(PARENT_RATE, [s - 0.3 for s in PARENT_SETUP])["setup_s"] == (
        "within bound", "no gain shown")
