"""The verdicts of tools/bench_pairs.py on hand-made parent/change runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"iters_per_s": {"name": "iters_per_s", "better": "higher", "bound": 0.25},
           "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25}}
PARENT_RATE = [9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5, 11.0]  # median 10, IQR 0
# median 3.45, IQR 0.45: 13% of the median, inside the 25% bound
PARENT_SETUP = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]


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
    got = verdicts([8.0] * 10, [3.45 * 1.24] * 10)
    assert got == {"iters_per_s": ("within bound", "no gain shown"),
                   "setup_s": ("within bound", "no gain shown")}


def test_a_gain_needs_ten_pairs_nine_wins_in_ten_and_a_median_beyond_the_parents_iqr():
    # set-up 0.9 s below the parent in every pair, beyond its 0.45 s IQR
    faster = [s - 0.9 for s in PARENT_SETUP]
    assert verdicts(PARENT_RATE, faster)["setup_s"] == ("within bound", "gain shown")
    # the first 6 of those pairs alone
    assert verdicts(PARENT_RATE, faster, pairs=6)["setup_s"] == ("unresolved", "no gain shown")
    # the same median with only 8 wins in 10
    setup = [s - 0.9 for s in PARENT_SETUP[:8]] + [4.0, 4.0]
    assert verdicts(PARENT_RATE, setup)["setup_s"] == ("within bound", "no gain shown")
    # 10 wins, but a median 0.3 s better is inside the parent's IQR
    assert verdicts(PARENT_RATE, [s - 0.3 for s in PARENT_SETUP])["setup_s"] == (
        "within bound", "no gain shown")


def test_fewer_than_ten_pairs_leave_the_bound_unresolved():
    # 3 pairs whose median rate is 26% below the parent's
    got = verdicts([7.4] * 10, PARENT_SETUP, pairs=3)
    assert got["iters_per_s"] == ("unresolved", "no gain shown")
    assert got["setup_s"] == ("unresolved", "no gain shown")


def test_a_side_spread_wider_than_the_bound_leaves_it_unresolved():
    # the change's set-up IQR is 2.25 s around a 3.45 s median; the parent's rates
    # have an IQR of 5.5 around a median of 10
    spread = [1.0, 1.5, 2.0, 2.5, 3.4, 3.5, 4.0, 4.5, 5.0, 5.5]
    wide_parent = [5.0, 6.0, 7.0, 8.0, 9.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    assert verdicts(PARENT_RATE, spread)["setup_s"] == ("unresolved", "no gain shown")
    runs = {"parent": [{"iters_per_s": r, "setup_s": s} for r, s in zip(wide_parent, PARENT_SETUP)],
            "change": [{"iters_per_s": 10.0, "setup_s": s} for s in PARENT_SETUP]}
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["iters_per_s"]["bound_verdict"] == "unresolved"
    assert summary["setup_s"]["bound_verdict"] == "within bound"


def test_every_change_run_better_than_every_parent_run_is_within_bound_however_wide():
    # set-up spread over 0.1..1.0 s, a 0.45 s IQR around 0.55 s, every run below the parent's 3.0
    faster = [s - 2.9 for s in PARENT_SETUP]
    assert verdicts(PARENT_RATE, faster)["setup_s"] == ("within bound", "gain shown")
    # the same, with one change run at the parent's fastest
    assert verdicts(PARENT_RATE, faster[:-1] + [3.0])["setup_s"] == ("unresolved", "gain shown")


def checkouts(tmp_path) -> dict[str, Path]:
    """Parent and change checkouts holding the repository's BENCHMARK.json and no bytecode."""
    spec_text = (Path(__file__).parents[1] / "BENCHMARK.json").read_text()
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "src" / "leofl").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "BENCHMARK.json").write_text(spec_text)
    return trees


@pytest.mark.parametrize("side, cache", [("parent", "src/leofl/__pycache__"),
                                         ("change", "perfbench/__pycache__")])
def test_bytecode_in_either_checkout_stops_the_tool_before_any_run(tmp_path, monkeypatch,
                                                                   side, cache):
    # a side with compiled bytecode skips the compile, which lowers its peak memory
    calls = []
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: calls.append(args))
    trees = checkouts(tmp_path)
    (trees[side] / cache).mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                          "--workload", "no_isl", "--pairs", "2", "--seed0", "1"])
    assert str(trees[side] / cache) in str(exc.value.code)
    assert calls == []


def test_run_once_writes_no_bytecode(tmp_path, monkeypatch):
    seen = {}
    line = json.dumps({"correct": True, "failed": 0, "metrics": {"setup_s": {"value": 0.5}}})
    def fake_run(cmd, **kwargs):
        seen.update(kwargs)
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")
    monkeypatch.setattr(subprocess, "run", fake_run)
    assert bench_pairs.run_once(tmp_path, "no_isl", 1, 25.0) == {"setup_s": 0.5}
    assert seen["cwd"] == tmp_path and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"


def test_record_keeps_every_set_of_pairs_of_a_workload(tmp_path, monkeypatch):
    # every run reads the same; only the seeds tell the sets apart
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds: dict.fromkeys(
        ["setup_s", "iters_per_s", "iter_ms_p50", "iter_ms_p90", "peak_rss_mb"], 1.0))
    change = checkouts(tmp_path)["change"]
    record = tmp_path / "BENCH.json"
    # a file written when each workload held one set
    record.write_text(json.dumps({"kp_sweep": {"seeds": [1, 10]}}))
    for workload, seed0 in (("dense_full", 101), ("dense_full", 201), ("no_isl", 301),
                            ("kp_sweep", 401)):
        assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(change),
                                 "--workload", workload, "--pairs", "2", "--seed0", str(seed0),
                                 "--record", str(record)]) == 0
    kept = json.loads(record.read_text())
    assert [s["seeds"] for s in kept["dense_full"]] == [[101, 102], [201, 202]]
    assert [s["seeds"] for s in kept["no_isl"]] == [[301, 302]]
    assert [s["seeds"] for s in kept["kp_sweep"]] == [[1, 10], [401, 402]]
    assert kept["dense_full"][1]["metrics"]["setup_s"]["bound_verdict"] == "unresolved"
