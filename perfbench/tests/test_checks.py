"""Each output check of the benchmark passes a right value and fails a wrong one.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import GS_ID, CheckError  # noqa: E402

N_D, Q, EB = 7850, 79, 45


def ring_hops(bits_of_j, k=8, sink=0):
    """Hop records of one ring round: arcs toward `sink`, then its downlink."""
    asc = [(sink - off) % k for off in range(k // 2, 0, -1)]
    desc = [(sink + off) % k for off in range(k - 1 - k // 2, 0, -1)]
    hops = []
    for arc in (asc, desc):
        chain = arc + [sink]
        hops += [(a, b, bits_of_j(j)) for j, (a, b) in enumerate(zip(chain, chain[1:]), start=1)]
    return hops + [(sink, GS_ID, bits_of_j(k))]


def test_entry_bits_and_q():
    assert checks.entry_bits(N_D) == EB
    assert checks.q_entries(0.01, N_D) == Q


def test_dense_budget():
    checks.check_dense_budget(10_048_000, 5, 8, N_D)
    with pytest.raises(CheckError):
        checks.check_dense_budget(10_048_000 - 32, 5, 8, N_D)


def test_clsia_hops():
    checks.check_clsia_hops(ring_hops(lambda j: Q * EB), 8, N_D, Q)
    with pytest.raises(CheckError):
        checks.check_clsia_hops(ring_hops(lambda j: (Q - 1) * EB), 8, N_D, Q)
    with pytest.raises(CheckError):
        checks.check_clsia_hops(ring_hops(lambda j: Q * EB)[1:], 8, N_D, Q)


def test_sia_hops_bound_per_position():
    checks.check_sia_hops(ring_hops(lambda j: j * Q * EB), 8, N_D, Q)
    assert checks.contributors(ring_hops(lambda j: 0))[0] == 8
    too_big = ring_hops(lambda j: j * Q * EB)
    src, dst, bits = too_big[1]
    too_big[1] = (src, dst, bits + EB)
    with pytest.raises(CheckError):
        checks.check_sia_hops(too_big, 8, N_D, Q)
    with pytest.raises(CheckError):  # not a whole number of entries
        checks.check_sia_hops(ring_hops(lambda j: j * Q * EB - 1), 8, N_D, Q)
    with pytest.raises(CheckError):  # a satellite left out of the ring
        checks.check_sia_hops(ring_hops(lambda j: Q * EB)[1:], 8, N_D, Q)


def test_no_isl_hops():
    good = [(GS_ID, s, N_D * 32) for s in range(8)] + [(s, GS_ID, Q * EB) for s in range(8)]
    checks.check_no_isl_hops(good, 8, N_D, Q)
    with pytest.raises(CheckError):
        checks.check_no_isl_hops(good[:-1] + [(7, GS_ID, (Q + 1) * EB)], 8, N_D, Q)
    with pytest.raises(CheckError):
        checks.check_no_isl_hops([(GS_ID, 0, N_D * 32 - 1)] + good[1:], 8, N_D, Q)


def test_sweep():
    ks = (8, 12, 16, 20, 24, 28)
    cl = {k: k * Q * EB for k in ks}
    sia = {k: k * k * 1000.0 for k in ks}
    checks.check_sweep(sia, cl, N_D, Q)
    with pytest.raises(CheckError):  # per-satellite bits flat from 12 to 16
        checks.check_sweep({**sia, 16: 16 * 12 * 1000.0}, cl, N_D, Q)
    with pytest.raises(CheckError):  # ratio below 4 at K=28
        checks.check_sweep({**sia, 28: 3.9 * cl[28]}, cl, N_D, Q)
    with pytest.raises(CheckError):
        checks.check_sweep(sia, {**cl, 8: cl[8] + EB}, N_D, Q)


def test_conservation():
    rng = np.random.default_rng(0)
    g, old, new = rng.normal(size=(3, 50))
    agg = g + old - new
    checks.check_conservation(agg, new, g, old)
    with pytest.raises(CheckError):
        checks.check_conservation(agg * (1 + 1e-6), new, g, old)


def test_accuracy():
    x = np.eye(3)
    w = np.hstack([np.eye(3), np.zeros((3, 1))]).ravel()
    assert checks.accuracy_of(w, x, np.array([0, 1, 2])) == 1.0
    # a row with tied logits counts as the first class
    assert checks.accuracy_of(np.zeros(12), x, np.array([0, 1, 2])) == pytest.approx(1 / 3)
    checks.check_accuracy(0.9, 0.9, 0.5)
    with pytest.raises(CheckError):
        checks.check_accuracy(0.91, 0.9, 0.5)
    with pytest.raises(CheckError):
        checks.check_accuracy(0.2, 0.2, 0.5)
    checks.check_accuracy(0.2, 0.2, 0.0)


def test_time_increasing():
    checks.check_time_increasing([1.0, 2.0, 3.0])
    for bad in ([1.0, 1.0], [2.0, 1.0], [0.0]):
        with pytest.raises(CheckError):
            checks.check_time_increasing(bad)


def _day_of_windows():
    from leofl.constants import CONSTANTS
    from leofl.orbital import GroundStation, OrbitPlane, visibility_windows

    plane = {"altitude_m": 2e6, "inclination_rad": math.radians(85.0), "raan_rad": 0.0, "num_sats": 8}
    station = {"latitude_rad": math.radians(53.08), "longitude_rad": math.radians(8.8)}
    min_el = math.radians(10.0)
    windows = visibility_windows(
        OrbitPlane(2e6, plane["inclination_rad"], 0.0, 8),
        3, GroundStation(station["latitude_rad"], station["longitude_rad"], min_el), 0.0, 86400.0)

    def elevation(t):
        return checks.elevation_rad(plane, 3, station, t, CONSTANTS)

    return [(w.start_s, w.end_s) for w in windows], elevation, min_el


def test_windows_right_and_wrong():
    windows, elevation, min_el = _day_of_windows()
    assert len(windows) >= 3
    checks.check_windows(windows, elevation, min_el, 0.0, 86400.0)
    start, end = windows[1]
    wrong = [
        windows[:1] + [(start + 3.0, end)] + windows[2:],  # start refined 3 s late
        windows[:1] + [(start, end - 3.0)] + windows[2:],  # end refined 3 s early
        windows[:1] + [(start - 60.0, end)] + windows[2:],  # begins before the pass
        windows[:1] + [(end + 100.0, end + 200.0)] + windows[2:],  # not a pass at all
        [windows[1], windows[0]] + windows[2:],  # out of order
    ]
    for bad in wrong:
        with pytest.raises(CheckError):
            checks.check_windows(bad, elevation, min_el, 0.0, 86400.0)


def test_tracer_self_time_and_hit_ratio():
    calls = []

    def leaf():
        calls.append("leaf")

    def cached(self):
        calls.append("cached")
        if len(calls) < 3:
            fake.visibility_windows()

    fake = types.SimpleNamespace(visibility_windows=leaf)
    fake.WindowCache = type("WindowCache", (), {"next_window": cached})
    mods = {name: types.SimpleNamespace() for name in ("config", "data", "learn", "sparsify")}
    mods["protocol"] = fake
    for layer, owner, attr in tracing.LAYERS:
        target = mods[owner.split(".")[0]] if owner != "protocol.WindowCache" else fake.WindowCache
        if not hasattr(target, attr):
            setattr(target, attr, lambda *a, **k: None)

    def iteration(*args):
        fake.WindowCache().next_window()
        fake.WindowCache().next_window()

    fake.run_global_iteration = iteration
    tracer = tracing.Tracer()
    tracer.install(mods)
    tracer.enabled = True
    fake.run_global_iteration()
    tracer.restore()
    assert fake.run_global_iteration is iteration
    layers = tracer.layer_metrics(setups=1)
    assert layers["protocol.next_window.calls_per_iter"] == 2
    assert layers["orbital.visibility_windows.calls_per_iter"] == 1
    assert layers["protocol.next_window.hit_ratio"] == 0.5
    total = tracer.end[0] - tracer.start[0]
    children = sum(end - start for _, start, end, parent in tracer.spans if parent == 0)
    assert layers["protocol.run_global_iteration.self_ms_per_iter"] == pytest.approx(1e3 * (total - children))


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["workloads"] and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        f"{layer}.{stat}": tracing.UNITS[stat] for layer, stat in tracing.PER_LAYER}
