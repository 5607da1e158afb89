import ast
import dataclasses
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from leofl import learn, protocol, sparsify
from leofl.config import ExperimentConfig, build_simulation
from leofl.data import Dataset
from leofl.constants import CONSTANTS
from leofl.link import LinkParams, data_rate
from leofl.orbital import GroundStation, OrbitPlane
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
from test_reference_oracles import (
    assert_well_formed,
    fixed_plan,
    reference_positions,
    reference_station_distance,
    toy_ring,
)

PARAMS = LinkParams(40.0, 32.13, 32.13, 500e6, 20e9, 354.0)
BREMEN = GroundStation(math.radians(53.08), math.radians(8.80), math.radians(10.0))


@pytest.fixture
def toy_plane_state(monkeypatch):
    """Build toy planes for runs through `run_global_iteration`. Local training is
    stubbed: it returns w_global + a preset gradient per shard, keyed by its identity."""
    gradients_by_shard = {}

    def trained(w_global, dataset, hp, rng):
        return w_global + gradients_by_shard[id(dataset)]

    monkeypatch.setattr(learn, "sat_learn_proc", trained)

    def build(gradients, dim):
        state = toy_ring(len(gradients), dim)
        gradients_by_shard.update((id(node.dataset), g) for node, g in zip(state.nodes, gradients))
        return state

    return build


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


def gs_bits(metrics):
    """Bits on the ground links: every hop to or from the station."""
    return sum(bits for src, dst, bits in metrics.hop_records if GS_ID in (src, dst))


HP = learn.HyperParams(learning_rate=0.1, rounds=1)

# the message operations that belong in SCHEMES, not in a round function; every
# scheme's message is a SparseGradient and its sink joins with sparse_add, so
# the round functions may name those two
MESSAGE_NAMES = {"message_bits", "densify", "dense_bits"}
# local training, which run_global_iteration runs before it hands a fold the gradients
TRAINING_NAMES = {"learn", "rng_key", "round_rng", "w_global", "hp", "round_n"}


def round_function_offenders(tree: ast.AST, names=MESSAGE_NAMES) -> set[str]:
    """Scheme members (as `Scheme.X`) and `names` named anywhere in `tree`, parameters included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "Scheme":
                found.add(f"Scheme.{node.attr}")
            elif node.attr in names:
                found.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in names:
            found.add(node.id)
        elif isinstance(node, ast.arg) and node.arg in names:
            found.add(node.arg)
    return found


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
        dist = reference_station_distance(state.plane, sat, state.gs, t_start)
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


class TestIslLink:
    """The ring hop is priced at the rate and delay of the propagated adjacent pair."""

    @pytest.fixture
    def state(self, selection_state):
        return selection_state

    def pair_distance(self, state, a, b, t):
        at = np.asarray(t)
        return float(np.linalg.norm(reference_positions(state.plane, a, at)
                                    - reference_positions(state.plane, b, at)))

    def test_equals_adjacent_pair_rate(self, state):
        for t in (0.0, 1234.5, 0.61 * state.plane.period_s):
            d = self.pair_distance(state, 3, 4, t)
            assert state.isl_rate_bps == pytest.approx(data_rate(PARAMS, d), rel=1e-9)
            assert state.isl_prop_s == pytest.approx(d / CONSTANTS.light_speed, rel=1e-9)

    def test_never_exceeds_neighbor_rate(self, state):
        # every other pair in the plane is farther apart, so the ring hop is the fastest link
        for other in range(2, 7):
            d = self.pair_distance(state, 0, other, 500.0)
            assert data_rate(PARAMS, d) < state.isl_rate_bps


class TestDenseRound:
    def test_three_satellite_exact_sum(self, chain_plan):
        rng = np.random.default_rng(1)
        gradients = [rng.normal(size=20) for _ in range(3)]
        state = toy_ring(3, dim=20)
        chain_plan(3, sink=2)
        agg, metrics = run_round(state, Scheme.DENSE_IA, gradients, 0.0, q_count=20)
        np.testing.assert_allclose(agg, sum(gradients), rtol=1e-12)

    def test_hop_bits_all_dense(self, chain_plan):
        gradients = [np.ones(20)] * 3
        state = toy_ring(3, dim=20)
        chain_plan(3, sink=2)
        _, metrics = run_round(state, Scheme.DENSE_IA, gradients, 0.0, q_count=20)
        assert hop_bits(metrics) == [20 * 32] * 3
        assert metrics.total_plane_bits == 3 * 20 * 32
        assert gs_bits(metrics) == 20 * 32


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
        state = toy_ring(3, dim=12)
        chain_plan(3, sink=2)
        agg, metrics = run_round(state, Scheme.SIA, fig_gradients(), 0.0, q_count=3)
        entry = 32 + state.size_model.index_bits
        # satellite 1 sends 3 entries, satellite 2 sends 5 (one common index)
        assert hop_bits(metrics)[0] == 3 * entry
        assert hop_bits(metrics)[1] == 5 * entry

    def test_clsia_constant_hops(self, chain_plan):
        state = toy_ring(3, dim=12)
        chain_plan(3, sink=2)
        _, metrics = run_round(state, Scheme.CLSIA, fig_gradients(), 0.0, q_count=3)
        entry = 32 + state.size_model.index_bits
        assert hop_bits(metrics) == [3 * entry] * 3

    def test_sia_aggregate_is_sum_of_contributions(self):
        rng = np.random.default_rng(2)
        gradients = [rng.normal(size=30) for _ in range(6)]
        state = toy_ring(6, dim=30)
        agg, metrics = run_round(state, Scheme.SIA, gradients, 0.0, q_count=4)
        # every satellite holds data_size 1 and zero initial error, so the sink
        # aggregate is the sum of individual Top-4 contributions
        from leofl.sparsify import top_q

        expected = sum(top_q(g, 4).values for g in gradients)
        np.testing.assert_allclose(agg, expected, rtol=1e-12, atol=1e-12)

    def test_sia_hops_nondecreasing_per_arc(self):
        rng = np.random.default_rng(3)
        gradients = [rng.normal(size=60) for _ in range(8)]
        state = toy_ring(8, dim=60)
        _, metrics = run_round(state, Scheme.SIA, gradients, 0.0, q_count=3)
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
    the round functions and their dispatch must look them up at call time or the
    traced spans read zero."""

    # every satellite steps once and sends one counted message; a ring's sink
    # joins the two arc messages with one sparse_add; the dense sum makes no Top-Q step
    @pytest.mark.parametrize("scheme, expected", [
        pytest.param(Scheme.SIA, {"sia_step": 6, "top_q": 6, "sparse_add": 1, "message_bits": 6,
                                  "run_round": 1}, id="SIA-sia_step"),
        pytest.param(Scheme.CLSIA, {"clsia_step": 6, "top_q": 6, "sparse_add": 1,
                                    "message_bits": 6, "run_round": 1}, id="CLSIA-clsia_step"),
        pytest.param(Scheme.NO_ISL_DIRECT, {"sia_step": 6, "top_q": 6, "message_bits": 6,
                                            "run_no_isl_round": 1}, id="NO_ISL_DIRECT-sia_step"),
        pytest.param(Scheme.DENSE_IA, {"sparse_add": 1, "run_round": 1},
                     id="DENSE_IA-sink_join_only"),
    ])
    def test_steps_and_sink_merge_use_module_names(self, monkeypatch, toy_plane_state,
                                                   scheme, expected):
        k = 6
        rng = np.random.default_rng(6)
        state = toy_plane_state([rng.normal(size=30) for _ in range(k)], dim=30)
        calls = dict.fromkeys(["sia_step", "clsia_step", "top_q", "sparse_add", "message_bits",
                               "run_round", "run_no_isl_round"], 0)
        for name in calls:
            # the steps call sparsify's own top_q, as the tracer sees it
            module = sparsify if name == "top_q" else protocol

            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        run_global_iteration([state], scheme, np.zeros(30), HP, 0.0, 1, 4,
                             state.nodes[0].dataset)
        assert calls == dict.fromkeys(calls, 0) | expected


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

    def test_round_functions_read_only_the_record(self):
        """Nothing outside SCHEMES branches on the scheme: the round functions
        name no scheme member and no message operation that the record owns. The two
        folds take the gradients they fold, so they name no training either."""
        tree = ast.parse(Path(protocol.__file__).read_text())
        folds = MESSAGE_NAMES | TRAINING_NAMES
        rounds = {"run_round": folds, "run_no_isl_round": folds,
                  "run_global_iteration": MESSAGE_NAMES}
        found = {}
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in rounds:
                found[fn.name] = sorted(round_function_offenders(fn, rounds[fn.name]))
        assert found == dict.fromkeys(rounds, [])

    def test_round_function_offenders_sees_attributes_and_members(self):
        fn = ast.parse("def f(s, m):\n"
                       "    if s is Scheme.SIA:\n"
                       "        return sparse_add(s, s).densify(), m.dense_bits()\n"
                       "    return SparseGradient.empty(m.dim), sparsify.message_bits(s, m)\n")
        assert round_function_offenders(fn) == {
            "Scheme.SIA", "densify", "dense_bits", "message_bits"}

    def test_round_function_offenders_sees_training(self):
        fn = ast.parse("def f(state, w_global, hp: learn.HyperParams, round_n):\n"
                       "    key = state.rng_key(0, round_n)\n"
                       "    return state.round_rng(0, 1), w_global, hp, key\n")
        assert round_function_offenders(fn, TRAINING_NAMES) == TRAINING_NAMES


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
        state = toy_ring(5, dim=30)
        q = 4
        agg, metrics = run_no_isl_round(state, Scheme.NO_ISL_DIRECT, gradients, 0.0, q)
        m = state.size_model
        expected = 5 * m.dense_bits() + 5 * q * (32 + m.index_bits)
        assert metrics.total_plane_bits == expected
        assert gs_bits(metrics) == expected

    def test_aggregate_equals_sum_of_topq(self):
        rng = np.random.default_rng(5)
        gradients = [rng.normal(size=30) for _ in range(4)]
        state = toy_ring(4, dim=30)
        agg, _ = run_no_isl_round(state, Scheme.NO_ISL_DIRECT, gradients, 0.0, 4)
        from leofl.sparsify import top_q

        expected = sum(top_q(g, 4).values for g in gradients)
        np.testing.assert_allclose(agg, expected, rtol=1e-12, atol=1e-12)

    def test_wallclock_covers_visibility_waits(self):
        gradients = [np.ones(10)] * 3
        state = toy_ring(3, dim=10)
        _, metrics = run_no_isl_round(state, Scheme.NO_ISL_DIRECT, gradients, 0.0, 2)
        max_wait = max(
            max(0.0, state.windows.next_window(sat, 0.0).start_s)
            for sat in range(3)
        )
        assert metrics.t_done >= max_wait


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
        assert t_end == max(pm.t_done for pm in metrics.plane_metrics)

    @pytest.mark.parametrize("scheme", [Scheme.SIA, Scheme.NO_ISL_DIRECT])
    def test_folds_receive_every_satellites_local_gradient(self, monkeypatch, scheme):
        """Each plane's fold gets, bit for bit, the gradient that local SGD from the
        global weights gives each of its satellites; the benchmark's conservation
        check recomputes the update mass from exactly this identity."""
        planes, hp, w, test, m = self.small_planes(scheme.value)
        handed = []
        for name in ("run_round", "run_no_isl_round"):
            def recorded(state, scheme, gradients, t0, q_count, _fn=getattr(protocol, name)):
                handed.append((state, gradients))
                return _fn(state, scheme, gradients, t0, q_count)
            monkeypatch.setattr(protocol, name, recorded)
        t = 0.0
        for n in range(1, 3):
            handed.clear()
            w_next, _, t = run_global_iteration(planes, scheme, w, hp, t, n, 79, test)
            assert [id(state) for state, _ in handed] == [id(state) for state in planes]
            for state, gradients in handed:
                assert len(gradients) == len(state.nodes)
                for sat, (node, g) in enumerate(zip(state.nodes, gradients)):
                    w_local = learn.sat_learn_proc(w, node.dataset, hp, state.round_rng(sat, n))
                    assert g.tobytes() == (w_local - w).tobytes()
            w = w_next

    def test_one_planes_gradients_are_alive_at_a_time(self, monkeypatch):
        """Nothing keeps a plane's gradients once its round returns: none is alive
        while the next plane trains or while the new weights are evaluated."""
        planes, hp, w, test, m = self.small_planes()
        handed = []  # weak references to every gradient handed to a round

        def none_alive(fn):
            def checked(*args):
                assert all(ref() is None for ref in handed)
                return fn(*args)
            return checked

        def recorded(state, scheme, gradients, t0, q_count, _fn=protocol.run_round):
            handed.extend(weakref.ref(g) for g in gradients)
            return _fn(state, scheme, gradients, t0, q_count)

        monkeypatch.setattr(learn, "sat_learn_proc", none_alive(learn.sat_learn_proc))
        monkeypatch.setattr(learn, "evaluate", none_alive(learn.evaluate))
        monkeypatch.setattr(protocol, "run_round", recorded)
        run_global_iteration(planes, Scheme.SIA, w, hp, 0.0, 1, 79, test)
        assert len(handed) == 2 * 6

    @pytest.mark.parametrize("scheme", [Scheme.SIA, Scheme.CLSIA, Scheme.NO_ISL_DIRECT,
                                        Scheme.DENSE_IA])
    def test_counted_messages_and_cached_windows_are_well_formed(self, monkeypatch, scheme):
        """The records trust their builders: every message whose bits are counted
        holds float64 values and a bool `sent` mask of the model's length, +0.0
        wherever it sends nothing and no -0.0 where it sends, and every cached
        window is non-empty, ordered and disjoint."""
        planes, hp, w, test, m = self.small_planes(scheme.value)
        messages = []
        spec = SCHEMES[scheme]

        def recorded(s, size_model):
            messages.append(s)
            return spec.bits(s, size_model)

        monkeypatch.setitem(SCHEMES, scheme, dataclasses.replace(spec, bits=recorded))
        t = 0.0
        for n in range(1, 4):
            w, _, t = run_global_iteration(planes, scheme, w, hp, t, n, 79, test)
        assert len(messages) == 3 * 2 * 6  # one counted message per satellite and round
        for s in messages:
            assert_well_formed(s, m.dim)
        for state in planes:
            for windows in state.windows.windows:
                assert windows
                for window in windows:
                    assert window.start_s < window.end_s
                for a, b in zip(windows, windows[1:]):
                    assert a.end_s < b.start_s
