"""End-to-end acceptance checks; run with `pytest tests/test_acceptance.py -s`
to see one pass/fail line per criterion."""

import dataclasses
import math

import numpy as np
import pytest

from leofl import learn
from leofl.config import ExperimentConfig, build_simulation, config_from_dict, load_datasets
from leofl.data import Dataset, partition
from leofl.harness import run_experiment, run_sweep
from leofl.orbital import GroundStation, OrbitPlane, orbital_period, visibility_windows
from leofl.protocol import Scheme, run_global_iteration
from leofl.sparsify import (
    ErrorState,
    SparseGradient,
    clsia_step,
    q_to_count,
    sia_step,
    top_q,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def cross_entropy(w, x, label):
    """-log softmax(Wx + b)[label] for one sample, computed independently of learn."""
    xa = np.append(x, 1.0)
    logits = w.reshape(-1, len(xa)) @ xa
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


def small_config(**overrides):
    cfg = ExperimentConfig()
    return config_from_dict(dataclasses.asdict(dataclasses.replace(
        cfg,
        constellation=dataclasses.replace(cfg.constellation, planes=1, sats_per_plane=8),
        dataset=dataclasses.replace(cfg.dataset, train_samples=400, test_samples=100),
        **overrides,
    )))


def test_criterion_1_dense_budget_identity():
    rows = run_experiment(small_config(scheme="DENSE_IA", training=learn.HyperParams(rounds=1)))
    bits = rows[0].plane_bits
    report(
        "1 dense budget identity",
        bits == 8 * 7850 * 32 == 2_009_600,
        f"plane bits per iteration = {bits}",
    )


def test_criterion_2_clsia_constant_budget():
    cfg = small_config(scheme="CLSIA", q=0.01)
    planes, hp, w, test, m = build_simulation(cfg)
    hop_bits = set()
    t = 0.0
    for n in range(1, 4):
        w, metrics, t = run_global_iteration(planes, Scheme.CLSIA, w, hp, t, n, 79, test)
        for pm in metrics.plane_metrics:
            hop_bits.update(bits for _, _, bits in pm.hop_records)
    report(
        "2 CL-SIA constant budget",
        hop_bits == {3555},
        f"distinct hop sizes over 3 rounds = {sorted(hop_bits)} (expect exactly 3555)",
    )


def test_criterion_3_bandwidth_efficiency_ratio():
    cfg = small_config()
    cfg = dataclasses.replace(
        cfg, dataset=dataclasses.replace(cfg.dataset, train_samples=2800, test_samples=100),
        training=dataclasses.replace(cfg.training, rounds=11),
    )
    kp_values = [8, 12, 16, 20, 24, 28]
    axes = {"constellation.sats_per_plane": kp_values, "q": [0.01], "scheme": ["SIA", "CLSIA"]}
    rows = run_sweep(dataclasses.asdict(cfg), axes)
    sia = {kp: bits for kp, _, scheme, bits in rows if scheme == "SIA"}
    cl = {kp: bits for kp, _, scheme, bits in rows if scheme == "CLSIA"}

    ratio = sia[28] / cl[28]
    linear = all(cl[kp] == kp * 3555 for kp in kp_values)
    per_sat = [sia[kp] / kp for kp in kp_values]
    superlinear = all(a < b for a, b in zip(per_sat, per_sat[1:]))
    report(
        "3 bandwidth-efficiency ratio",
        ratio >= 4.0 and linear and superlinear,
        f"SIA/CL-SIA at K_p=28 = {ratio:.2f} (>=4), CL-SIA linear={linear}, "
        f"SIA superlinear={superlinear}",
    )


def test_criterion_4_q1_scheme_collapse():
    rounds = 3
    runs = {}
    for scheme in ("DENSE_IA", "SIA", "CLSIA"):
        planes, hp, w, test, m = build_simulation(small_config(scheme=scheme, q=1.0))
        history = []
        t = 0.0
        for n in range(1, rounds + 1):
            w, _, t = run_global_iteration(planes, Scheme[scheme], w, hp, t, n, m.dim, test)
            history.append(w.copy())
        runs[scheme] = history

    # centralized FedAvg oracle on the same shards and per-round rng streams
    planes, hp, w, test, m = build_simulation(small_config(scheme="DENSE_IA"))
    state = planes[0]
    oracle = []
    for n in range(1, rounds + 1):
        total = np.zeros(m.dim)
        total_d = 0
        for sat, node in enumerate(state.nodes):
            w_local = learn.sat_learn_proc(w, node.dataset, hp, state.round_rng(sat, n))
            total += node.data_size * (w_local - w)
            total_d += node.data_size
        w = w + total / total_d
        oracle.append(w.copy())

    worst = 0.0
    for n in range(rounds):
        scale = max(np.abs(oracle[n]).max(), 1e-30)
        for scheme in runs:
            worst = max(worst, np.abs(runs[scheme][n] - oracle[n]).max() / scale)
    report(
        "4 q=1 scheme collapse",
        worst <= 1e-9,
        f"max relative deviation from centralized FedAvg over {rounds} rounds = {worst:.2e}",
    )


def test_criterion_5_telescoping_identities():
    rng = np.random.default_rng(12)
    rounds_checked = 0
    worst_cl = 0.0
    for chain in range(12):
        k = int(rng.integers(2, 9))
        dim = int(rng.integers(8, 257))
        q = int(rng.integers(1, max(2, dim // 4)))
        sizes = rng.integers(1, 50, size=k).astype(float)
        sia_errs = [ErrorState.zeros(dim) for _ in range(k)]
        cl_errs = [ErrorState.zeros(dim) for _ in range(k)]
        for _ in range(10):
            gs = [rng.normal(size=dim) for _ in range(k)]

            # SIA: sink aggregate equals the chain-ordered sum of contributions
            agg = SparseGradient.empty(dim)
            expected = np.zeros(dim)
            for i in range(k):
                compensated = sizes[i] * gs[i] + sia_errs[i].residual
                own = top_q(compensated, q).values
                agg, sia_errs[i] = sia_step(gs[i], sizes[i], sia_errs[i], agg, q)
                expected += own
            assert np.array_equal(agg.values, expected)

            # CL-SIA: aggregate plus new residuals telescopes to the inputs
            agg = SparseGradient.empty(dim)
            inputs = np.zeros(dim)
            new_residuals = np.zeros(dim)
            for i in range(k):
                inputs += sizes[i] * gs[i] + cl_errs[i].residual
                agg, cl_errs[i] = clsia_step(gs[i], sizes[i], cl_errs[i], agg, q)
                new_residuals += cl_errs[i].residual
            lhs = agg.values + new_residuals
            scale = max(np.abs(inputs).max(), 1e-30)
            worst_cl = max(worst_cl, np.abs(lhs - inputs).max() / scale)
            rounds_checked += 1
    report(
        "5 telescoping error identities",
        rounds_checked >= 100 and worst_cl <= 1e-9,
        f"{rounds_checked} random rounds, worst CL-SIA relative error = {worst_cl:.2e}",
    )


def test_criterion_6_figure_trace_goldens():
    dim, q = 12, 3

    def vec(support, values):
        v = np.zeros(dim)
        v[list(support)] = values
        return v

    # golden supports, 1-based {4,8,10}, {2,4,12}, {2,4,11} -> 0-based below
    g1 = vec([3, 7, 9], [5.0, -4.0, 3.0])
    g2 = vec([1, 3, 11], [6.0, 2.0, -7.0])
    g3 = vec([1, 3, 10], [1.5, 2.5, -3.5])

    # sparse incremental aggregation: supports merge at the common index
    errs = [ErrorState.zeros(dim) for _ in range(3)]
    out1, errs[0] = sia_step(g1, 1.0, errs[0], SparseGradient.empty(dim), q)
    out2, errs[1] = sia_step(g2, 1.0, errs[1], out1, q)
    sia_ok = (
        list(np.flatnonzero(out1.sent)) == [3, 7, 9]
        and list(np.flatnonzero(out2.sent)) == [1, 3, 7, 9, 11]
        and out2.nnz == 5
        and out2.values[3] == g1[3] + g2[3]
    )

    # constant-length variant: every hop carries exactly 3 entries
    errs = [ErrorState.zeros(dim) for _ in range(3)]
    c1, errs[0] = clsia_step(g1, 1.0, errs[0], SparseGradient.empty(dim), q)
    c2, errs[1] = clsia_step(g2, 1.0, errs[1], c1, q)
    c3, errs[2] = clsia_step(g3, 1.0, errs[2], c2, q)
    cl_ok = (
        list(np.flatnonzero(c1.sent)) == [3, 7, 9]
        and list(np.flatnonzero(c2.sent)) == [1, 3, 11]
        and [c.nnz for c in (c1, c2, c3)] == [3, 3, 3]
    )
    report(
        "6 figure-trace goldens",
        sia_ok and cl_ok,
        f"merge hops 3->5 entries: {sia_ok}; constant-length hops 3,3,3: {cl_ok}",
    )


def label_skew_chunks(train, num_sats, seed):
    """The pathological non-IID split of McMahan et al. (2017): the sample indices sorted by
    label (stably) and cut into 2 * num_sats chunks, in the order of a seeded permutation.

    Satellite s holds chunks 2s and 2s + 1. At 4,000 samples on 40 satellites each
    satellite then holds one to three classes."""
    chunks = np.array_split(np.argsort(train.labels, kind="stable"), 2 * num_sats)
    return [chunks[i] for i in np.random.default_rng(seed).permutation(2 * num_sats)]


def label_skew_shards(train, num_sats, seed):
    """`data.partition` cuts of one read-only reordering of `train`: its label-skew chunks,
    concatenated. Where the chunks are equal, each shard is two chunks, as the helper can
    train it."""
    idx = np.concatenate(label_skew_chunks(train, num_sats, seed))
    skewed = Dataset(train.rows[idx], train.labels[idx])
    skewed.rows.flags.writeable = skewed.labels.flags.writeable = False
    return partition(skewed, num_sats)


@pytest.mark.slow
def test_criterion_7_convergence_parity():
    rounds, target = 80, 0.80
    cfg = ExperimentConfig()
    cfg = dataclasses.replace(
        cfg, dataset=dataclasses.replace(cfg.dataset, train_samples=4000, test_samples=1000)
    )
    train, _ = load_datasets(cfg)
    c = cfg.constellation
    shards = label_skew_shards(train, c.planes * c.sats_per_plane, cfg.seed)
    chunks = label_skew_chunks(train, c.planes * c.sats_per_plane, cfg.seed)
    for sat, shard in enumerate(shards):  # each satellite's two chunks, gathered
        idx = np.concatenate(chunks[2 * sat:2 * sat + 2])
        assert shard.rows.tobytes() == train.rows[idx].tobytes()
        assert shard.labels.tobytes() == train.labels[idx].tobytes()

    def run(scheme, stop_at_target=False):
        """(iteration, simulated time, accuracy) per global iteration on the skewed shards."""
        planes, hp, w, test, m = build_simulation(dataclasses.replace(cfg, scheme=scheme))
        nodes = [node for state in planes for node in state.nodes]
        for node, shard in zip(nodes, shards, strict=True):
            node.dataset = shard
        q_count = q_to_count(cfg.q, m.dim)
        rows, t = [], 0.0
        for n in range(1, rounds + 1):
            w, metrics, t = run_global_iteration(planes, Scheme[scheme], w, hp, t, n, q_count, test)
            rows.append((n, t, metrics.accuracy))
            if stop_at_target and metrics.accuracy >= target:
                break
        return rows

    runs = {scheme: run(scheme) for scheme in ("DENSE_IA", "SIA", "CLSIA")}
    runs["NO_ISL_DIRECT"] = run("NO_ISL_DIRECT", stop_at_target=True)

    def first_at_target(rows):
        """(iteration, simulated time) of the first iteration at the target accuracy."""
        return next(((n, t) for n, t, acc in rows if acc >= target), (math.inf, math.inf))

    reached = {scheme: first_at_target(rows) for scheme, rows in runs.items()}
    final = {s: runs[s][-1][2] for s in ("DENSE_IA", "SIA", "CLSIA")}
    parity = all(abs(final[s] - final["DENSE_IA"]) <= 0.02 for s in ("SIA", "CLSIA"))
    threshold = all(final[s] >= 0.85 for s in ("SIA", "CLSIA"))
    faster = all(reached[s][1] < reached["NO_ISL_DIRECT"][1] for s in ("SIA", "CLSIA"))
    prompt = all(reached[s][0] <= 15 * reached["DENSE_IA"][0] for s in ("SIA", "CLSIA"))
    report(
        "7 convergence parity under label skew",
        parity and threshold and faster and prompt,
        f"final acc {({s: round(a, 4) for s, a in final.items()})}, "
        f"first at {target} (iteration, simulated s): "
        + ", ".join(f"{s} ({n}, {t:.0f})" for s, (n, t) in reached.items()),
    )


def test_criterion_8_orbital_and_gradient_sanity():
    period_ok = abs(orbital_period(2000e3) - 7627.89) < 1.0

    rng = np.random.default_rng(9)
    dim, classes = 30, 5
    w = 0.5 * rng.normal(size=learn.model_dim(dim, classes))
    x = rng.uniform(0, 1, size=dim)
    label = 3
    grad = learn.loss_gradient_sum(w, np.append(x, 1.0)[None, :], np.array([label]))
    h = 1e-5
    probes = rng.choice(len(w), size=100, replace=False)
    grad_ok = True
    for i in probes:
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd = (cross_entropy(wp, x, label) - cross_entropy(wm, x, label)) / (2 * h)
        if abs(grad[i] - fd) > 1e-5 * max(abs(fd), 1e-3):
            grad_ok = False

    plane = OrbitPlane(2000e3, math.radians(85.0), 0.0, 8)
    gs = GroundStation(math.radians(53.08), math.radians(8.80), math.radians(10.0))
    windows_ok = bool(visibility_windows(plane, 0, gs, 0.0, 86400.0))

    report(
        "8 orbital/link sanity",
        period_ok and grad_ok and windows_ok,
        f"period within 1 s: {period_ok}, gradient vs finite differences: {grad_ok}, "
        f"Bremen 24 h windows nonempty: {windows_ok}",
    )
