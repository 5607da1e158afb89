import dataclasses
import math

import numpy as np
import pytest

from leofl import learn, protocol
from leofl.config import ExperimentConfig, build_simulation
from leofl.data import Dataset
from leofl.constants import CONSTANTS
from leofl.link import LinkParams, data_rate
from leofl.orbital import GroundStation, OrbitPlane, gs_position_vec, propagate_vec
from leofl.protocol import (
    GS_ID,
    SCHEMES,
    PlaneState,
    RoundPlan,
    SatelliteNode,
    Scheme,
    first_visible,
    run_global_iteration,
    run_no_isl_round,
    run_round,
    shortest_path_hops,
    split_arcs,
)
from leofl.sparsify import ErrorState, SizeModel, q_to_count
from test_reference_oracles import fixed_plan

PARAMS = LinkParams(40.0, 32.13, 32.13, 500e6, 20e9, 354.0)
BREMEN = GroundStation(math.radians(53.08), math.radians(8.80), math.radians(10.0))


def make_trainer(gradients_by_shard):
    """Trainer stub returning w_global + a preset gradient per shard, keyed by its identity."""

    def trainer(w_global, node, hp, rng):
        return w_global + gradients_by_shard[id(node.dataset)]

    return trainer


def toy_plane_state(gradients, dim, h_km=8000.0, compute_time=0.0):
    """Small ring high enough that any K >= 3 has neighbor LOS."""
    k = len(gradients)
    plane = OrbitPlane(h_km * 1e3, math.radians(85.0), 0.0, k)
    nodes = [
        SatelliteNode(Dataset(np.ones((1, 5)), np.zeros(1, dtype=np.int64)), ErrorState.zeros(dim))
        for _ in range(k)
    ]
    return PlaneState(
        plane_id=0,
        plane=plane,
        gs=BREMEN,
        params=PARAMS,
        size_model=SizeModel(dim),
        nodes=nodes,
        compute_time_s=compute_time,
        seed=0,
        trainer=make_trainer({id(node.dataset): g for node, g in zip(nodes, gradients)}),
    )


@pytest.fixture
def chain_plan(monkeypatch):
    """Plan every round as one chain into `sink`, from source 0."""

    def install(k, sink):
        arc = tuple(i for i in range(k) if i != sink)
        monkeypatch.setattr(protocol, "plan_round",
                            fixed_plan(RoundPlan(source_id=0, sink_id=sink, arcs=(arc, ()))))

    return install


def hop_bits(metrics):
    return [bits for _, _, bits in metrics.hop_records]


HP = learn.HyperParams(learning_rate=0.1, rounds=1)


class TestRingHelpers:
    def test_self_distance(self):
        assert shortest_path_hops(8, 3, 3) == 0

    def test_diametric(self):
        assert shortest_path_hops(8, 0, 4) == 4

    def test_bounded_by_half(self):
        for k in range(2, 13):
            for a in range(k):
                for b in range(k):
                    assert shortest_path_hops(k, a, b) <= k // 2

    def test_split_covers_ring(self):
        for k in range(2, 11):
            for sink in range(k):
                a, b = split_arcs(k, sink)
                assert sorted(a + b) == [i for i in range(k) if i != sink]

    def test_split_arc_lengths(self):
        a, b = split_arcs(8, 0)
        assert {len(a), len(b)} == {4, 3}

    def test_arcs_are_consecutive_toward_sink(self):
        for sink in range(6):
            for arc in split_arcs(6, sink):
                chain = list(arc) + [sink]
                for u, v in zip(chain, chain[1:]):
                    assert (v - u) % 6 in (1, 5)


@pytest.fixture(scope="module")
def selection_state():
    plane = OrbitPlane(2000e3, math.radians(85.0), 0.0, 8)
    nodes = [
        SatelliteNode(Dataset(np.ones((1, 5)), np.zeros(1, dtype=np.int64)), ErrorState.zeros(10))
        for _ in range(8)
    ]
    return PlaneState(0, plane, BREMEN, PARAMS, SizeModel(10), nodes, 1.0, 0)


class TestSourceSinkSelection:
    @pytest.fixture
    def state(self, selection_state):
        return selection_state

    def test_source_minimizes_window_start(self, state):
        t = 1000.0
        chosen = first_visible(state, t)
        chosen_start = max(state.windows.next_window(chosen, t).start_s, t)
        for sat in range(8):
            other = max(state.windows.next_window(sat, t).start_s, t)
            assert chosen_start <= other

    def test_source_in_los_now(self, state):
        w = state.windows.next_window(0, 0.0)
        mid = 0.5 * (w.start_s + w.end_s)
        chosen = first_visible(state, mid)
        cw = state.windows.next_window(chosen, mid)
        assert cw.start_s <= mid < cw.end_s

    def test_sink_minimizes_wait(self, state):
        ready = 5000.0
        chosen = first_visible(state, ready)
        chosen_wait = max(0.0, state.windows.next_window(chosen, ready).start_s - ready)
        for sat in range(8):
            wait = max(0.0, state.windows.next_window(sat, ready).start_s - ready)
            assert chosen_wait <= wait

    def test_ties_go_to_the_lower_index(self, state):
        # times at which two or more satellites already see the station
        tied = 0
        for t in np.arange(0.0, 86400.0, 60.0):
            in_view = [sat for sat in range(8)
                       if state.windows.next_window(sat, t).start_s <= t]
            if len(in_view) > 1:
                tied += 1
                assert first_visible(state, t) == in_view[0]
        assert tied > 10


class TestGroundTransfer:
    BITS = 251_203

    @pytest.fixture
    def state(self, selection_state):
        return selection_state

    def expected_arrival(self, state, sat, t_start):
        dist = float(np.linalg.norm(
            propagate_vec(state.plane, sat, t_start) - gs_position_vec(state.gs, t_start)))
        rate = data_rate(PARAMS, dist)
        return (t_start + self.BITS / rate) + dist / CONSTANTS.light_speed

    def test_inside_a_window_starts_at_t(self, state):
        w = state.windows.next_window(3, 20000.0)
        t = w.start_s + 0.4 * (w.end_s - w.start_s)
        assert state.ground_transfer(3, t, self.BITS) == self.expected_arrival(state, 3, t)

    def test_before_a_window_starts_at_its_start(self, state):
        w = state.windows.next_window(5, 20000.0)
        t = w.start_s - 1234.5
        assert state.windows.next_window(5, t) == w
        assert state.ground_transfer(5, t, self.BITS) == self.expected_arrival(state, 5, w.start_s)


class TestDenseRound:
    def test_three_satellite_exact_sum(self, chain_plan):
        rng = np.random.default_rng(1)
        gradients = [rng.normal(size=20) for _ in range(3)]
        state = toy_plane_state(gradients, dim=20)
        chain_plan(3, sink=2)
        agg, metrics, _ = run_round(
            state, Scheme.DENSE_IA, np.zeros(20), HP, 0.0, 1, q_count=20
        )
        np.testing.assert_allclose(agg, sum(gradients), rtol=1e-12)

    def test_hop_bits_all_dense(self, chain_plan):
        gradients = [np.ones(20)] * 3
        state = toy_plane_state(gradients, dim=20)
        chain_plan(3, sink=2)
        _, metrics, _ = run_round(
            state, Scheme.DENSE_IA, np.zeros(20), HP, 0.0, 1, q_count=20
        )
        assert hop_bits(metrics) == [20 * 32] * 3
        assert metrics.total_plane_bits == 3 * 20 * 32
        assert metrics.gs_bits == 20 * 32


def fig_gradients(dim=12):
    def vec(support, values):
        v = np.zeros(dim)
        v[list(support)] = values
        return v

    g1 = vec([3, 7, 9], [5.0, -4.0, 3.0])
    g2 = vec([1, 3, 11], [6.0, 2.0, -7.0])
    g3 = vec([1, 3, 10], [1.5, 2.5, -3.5])
    return [g1, g2, g3]


class TestSparseRounds:
    def test_sia_hop_sizes_grow(self, chain_plan):
        state = toy_plane_state(fig_gradients(), dim=12)
        chain_plan(3, sink=2)
        agg, metrics, _ = run_round(
            state, Scheme.SIA, np.zeros(12), HP, 0.0, 1, q_count=3
        )
        entry = 32 + state.size_model.index_bits
        # satellite 1 sends 3 entries, satellite 2 sends 5 (one common index)
        assert hop_bits(metrics)[0] == 3 * entry
        assert hop_bits(metrics)[1] == 5 * entry

    def test_clsia_constant_hops(self, chain_plan):
        state = toy_plane_state(fig_gradients(), dim=12)
        chain_plan(3, sink=2)
        _, metrics, _ = run_round(
            state, Scheme.CLSIA, np.zeros(12), HP, 0.0, 1, q_count=3
        )
        entry = 32 + state.size_model.index_bits
        assert hop_bits(metrics) == [3 * entry] * 3

    def test_sia_aggregate_is_sum_of_contributions(self):
        rng = np.random.default_rng(2)
        gradients = [rng.normal(size=30) for _ in range(6)]
        state = toy_plane_state(gradients, dim=30)
        agg, metrics, _ = run_round(
            state, Scheme.SIA, np.zeros(30), HP, 0.0, 1, q_count=4
        )
        # every satellite holds data_size 1 and zero initial error, so the sink
        # aggregate is the sum of individual Top-4 contributions
        from leofl.sparsify import top_q

        expected = sum(top_q(g, 4).densify() for g in gradients)
        np.testing.assert_allclose(agg, expected, rtol=1e-12, atol=1e-12)

    def test_sia_hops_nondecreasing_per_arc(self):
        rng = np.random.default_rng(3)
        gradients = [rng.normal(size=60) for _ in range(8)]
        state = toy_plane_state(gradients, dim=60)
        _, metrics, _ = run_round(
            state, Scheme.SIA, np.zeros(60), HP, 0.0, 1, q_count=3
        )
        isl = [(src, dst, bits) for src, dst, bits in metrics.hop_records if dst != GS_ID]
        by_dst = {}
        # walk each arc from its end satellite toward the sink
        arcs = {rec[0]: rec for rec in isl}
        chains = {}
        for src, dst, bits in isl:
            chains[src] = (dst, bits)
        starts = set(chains) - {dst for dst, _ in chains.values()}
        for start in starts:
            sizes = []
            cur = start
            while cur in chains:
                nxt, bits = chains[cur]
                sizes.append(bits)
                cur = nxt
            assert sizes == sorted(sizes)


class TestTracedNames:
    """The benchmark's tracer rebinds these protocol attributes from outside, so
    run_round must look them up at call time or the traced spans read zero."""

    @pytest.mark.parametrize("scheme, step", [(Scheme.SIA, "sia_step"), (Scheme.CLSIA, "clsia_step")])
    def test_steps_and_sink_merge_use_module_names(self, monkeypatch, scheme, step):
        k = 6
        rng = np.random.default_rng(6)
        state = toy_plane_state([rng.normal(size=30) for _ in range(k)], dim=30)
        calls = dict.fromkeys(["sia_step", "clsia_step", "sparse_add"], 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(protocol, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(protocol, name, counted)
        run_round(state, scheme, np.zeros(30), HP, 0.0, 1, q_count=4)
        # every satellite steps once; the sink merges the two arc messages
        assert calls == {"sia_step": 0, "clsia_step": 0, step: k, "sparse_add": 2}


class TestSchemeRecord:
    def test_every_scheme_has_a_record(self):
        assert set(SCHEMES) == set(Scheme)

    @pytest.mark.parametrize("scheme", [s for s in Scheme if SCHEMES[s].ring])
    def test_hop_bits_within_worst_case(self, monkeypatch, scheme):
        """Every hop sent from arc position j (1 = far end) carries at most the
        record's worst-case bits at j, which the sink estimate sums; the dense
        and constant-length schemes reach it exactly."""
        planes, hp, w, test, m = build_simulation(ExperimentConfig(scheme=scheme.value))
        q_count = q_to_count(0.01, m.dim)
        plans = []

        def recorded(*args, _plan_round=protocol.plan_round):
            result = _plan_round(*args)
            plans.append(result[0])
            return result

        monkeypatch.setattr(protocol, "plan_round", recorded)
        checked, t = 0, 0.0
        for n in range(1, 4):
            plans.clear()
            w, metrics, t = run_global_iteration(planes, scheme, w, hp, t, n, q_count, test)
            for plan, pm in zip(plans, metrics.plane_metrics, strict=True):
                for src, dst, bits in pm.hop_records:
                    if dst == GS_ID:
                        continue
                    j = next(arc.index(src) + 1 for arc in plan.arcs if src in arc)
                    worst = SCHEMES[scheme].hop_bits(j, m, q_count)
                    assert bits <= worst
                    if scheme in (Scheme.DENSE_IA, Scheme.CLSIA):
                        assert bits == worst
                    checked += 1
        assert checked == 3 * 5 * 7


class TestSchemeEquivalenceAtQ1:
    def build(self, scheme):
        cfg = ExperimentConfig(scheme=scheme, q=1.0)
        cfg = dataclasses.replace(
            cfg,
            constellation=dataclasses.replace(cfg.constellation, planes=1, sats_per_plane=8),
            dataset=dataclasses.replace(cfg.dataset, train_samples=400, test_samples=100),
        )
        return build_simulation(cfg)

    def test_all_schemes_match_centralized_fedavg(self):
        results = {}
        for scheme in ("DENSE_IA", "SIA", "CLSIA"):
            planes, hp, w0, test, m = self.build(scheme)
            w1, _, _ = run_global_iteration(
                planes, Scheme[scheme], w0, hp, 0.0, 1, q_count=m.dim, test_set=test
            )
            results[scheme] = w1

        # independent FedAvg oracle on the same shards and rngs
        planes, hp, w0, test, m = self.build("DENSE_IA")
        state = planes[0]
        total = np.zeros(m.dim)
        total_d = 0
        for sat, node in enumerate(state.nodes):
            w_local = learn.sat_learn_proc(
                w0, node.dataset, hp, state.round_rng(sat, 1)
            )
            total += node.data_size * (w_local - w0)
            total_d += node.data_size
        oracle = w0 + total / total_d

        scale = np.abs(oracle).max()
        for scheme, w in results.items():
            np.testing.assert_allclose(w, oracle, rtol=0, atol=1e-9 * scale)


class TestNoIslRound:
    def test_bits_accounting(self):
        rng = np.random.default_rng(4)
        gradients = [rng.normal(size=30) for _ in range(5)]
        state = toy_plane_state(gradients, dim=30)
        q = 4
        agg, metrics, t_done = run_no_isl_round(state, np.zeros(30), HP, 0.0, 1, q)
        m = state.size_model
        expected = 5 * m.dense_bits() + 5 * q * (32 + m.index_bits)
        assert metrics.total_plane_bits == expected
        assert metrics.gs_bits == expected

    def test_aggregate_equals_sum_of_topq(self):
        rng = np.random.default_rng(5)
        gradients = [rng.normal(size=30) for _ in range(4)]
        state = toy_plane_state(gradients, dim=30)
        agg, _, _ = run_no_isl_round(state, np.zeros(30), HP, 0.0, 1, 4)
        from leofl.sparsify import top_q

        expected = sum(top_q(g, 4).densify() for g in gradients)
        np.testing.assert_allclose(agg, expected, rtol=1e-12, atol=1e-12)

    def test_wallclock_covers_visibility_waits(self):
        gradients = [np.ones(10)] * 3
        state = toy_plane_state(gradients, dim=10)
        _, metrics, _ = run_no_isl_round(state, np.zeros(10), HP, 0.0, 1, 2)
        max_wait = max(
            max(0.0, state.windows.next_window(sat, 0.0).start_s)
            for sat in range(3)
        )
        assert metrics.wallclock_s >= max_wait


class TestGlobalIteration:
    def small_planes(self, scheme="SIA"):
        cfg = ExperimentConfig(scheme=scheme)
        cfg = dataclasses.replace(
            cfg,
            constellation=dataclasses.replace(cfg.constellation, planes=2, sats_per_plane=6),
            dataset=dataclasses.replace(cfg.dataset, train_samples=240, test_samples=60),
        )
        return build_simulation(cfg)

    def test_zero_gradients_leave_weights(self):
        planes, hp, w0, test, m = self.small_planes()
        hp = dataclasses.replace(hp, learning_rate=0.0)
        w1, metrics, _ = run_global_iteration(
            planes, Scheme.SIA, w0, hp, 0.0, 1, q_count=79, test_set=test
        )
        np.testing.assert_array_equal(w0, w1)

    def test_deterministic_metrics(self):
        outs = []
        for _ in range(2):
            planes, hp, w0, test, m = self.small_planes()
            w1, metrics, t = run_global_iteration(
                planes, Scheme.CLSIA, w0, hp, 0.0, 1, q_count=79, test_set=test
            )
            outs.append((w1, metrics.total_bits, metrics.accuracy, t))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        assert outs[0][1:] == outs[1][1:]

    def test_clock_advances_to_latest_plane(self):
        planes, hp, w0, test, m = self.small_planes()
        _, metrics, t_end = run_global_iteration(
            planes, Scheme.SIA, w0, hp, 0.0, 1, q_count=79, test_set=test
        )
        assert t_end == max(0.0 + pm.wallclock_s for pm in metrics.plane_metrics)

    @pytest.mark.parametrize("scheme", [Scheme.SIA, Scheme.CLSIA, Scheme.NO_ISL_DIRECT])
    def test_counted_messages_and_cached_windows_are_well_formed(self, monkeypatch, scheme):
        """The records trust their builders: every message whose bits are counted
        has sorted, unique, in-range int64 indices and float64 values of equal
        length, and every cached window is non-empty, ordered and disjoint."""
        planes, hp, w, test, m = self.small_planes(scheme.value)
        messages = []

        def recorded(s, size_model, _message_bits=protocol.message_bits):
            messages.append(s)
            return _message_bits(s, size_model)

        monkeypatch.setattr(protocol, "message_bits", recorded)
        t = 0.0
        for n in range(1, 4):
            w, _, t = run_global_iteration(planes, scheme, w, hp, t, n, 79, test)
        assert len(messages) == 3 * 2 * 6  # one counted message per satellite and round
        for s in messages:
            assert s.dim == m.dim
            assert s.indices.dtype == np.int64 and s.values.dtype == np.float64
            assert s.indices.ndim == 1 and s.indices.shape == s.values.shape
            assert np.all(np.diff(s.indices) > 0)
            assert len(s.indices) == 0 or (s.indices[0] >= 0 and s.indices[-1] < m.dim)
        for state in planes:
            for windows in state.windows._windows:
                assert windows
                for window in windows:
                    assert window.start_s < window.end_s
                for a, b in zip(windows, windows[1:]):
                    assert a.end_s < b.start_s
