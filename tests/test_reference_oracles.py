"""The linear-time sparse path, the batched window search and the arc fold
against the straightforward implementations they replace.

The reference functions below are the simple forms: a stable argsort for
Top-Q, `np.unique` + `np.add.at` for the sparse merge, a dense subtraction
for the error-feedback residual, one bisection per edge for visibility
windows, and a heap event loop for a ring round. The code under test must
agree with them byte for byte.
"""

import dataclasses
import functools
import heapq
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leofl import learn, protocol
from leofl.config import build_simulation, config_from_dict
from leofl.data import Dataset
from leofl.link import LinkParams, data_rate, propagation_delay, tx_duration
from leofl.orbital import (
    GroundStation,
    OrbitPlane,
    SCREEN_STRIDE,
    STEP_S,
    VisibilityWindow,
    _gs_los_mask,
    _screened_los_mask,
    gs_position_vec,
    max_visible_latitude,
    propagate_vec,
    visibility_windows,
)
from leofl.protocol import (
    GS_ID,
    PlaneState,
    RoundPlan,
    SatelliteNode,
    Scheme,
    WindowCache,
    run_round,
    split_arcs,
)
from leofl.sparsify import (
    ErrorState,
    SizeModel,
    SparseGradient,
    clsia_step,
    message_bits,
    q_to_count,
    sia_step,
    sparse_add,
    top_q,
)

# -- reference implementations ---------------------------------------------


def reference_top_q(v, q_count):
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    if q_count >= n:
        return SparseGradient.from_dense(v)
    # stable sort on descending magnitude preserves index order among ties
    order = np.argsort(-np.abs(v), kind="stable")[:q_count]
    keep = np.sort(order)
    vals = v[keep]
    nz = vals != 0.0
    return SparseGradient(n, keep[nz].astype(np.int64), vals[nz])


def reference_sparse_add(a, b):
    idx = np.concatenate([a.indices, b.indices])
    val = np.concatenate([a.values, b.values])
    uniq, inv = np.unique(idx, return_inverse=True)
    summed = np.zeros(len(uniq))
    np.add.at(summed, inv, val)
    return SparseGradient(a.dim, uniq, summed)


def reference_sia_step(g, data_size, err, incoming, q_count):
    compensated = data_size * np.asarray(g, dtype=np.float64) + err.residual
    own = reference_top_q(compensated, q_count)
    return reference_sparse_add(incoming, own), ErrorState(compensated - own.densify())


def reference_clsia_step(g, data_size, err, incoming, q_count):
    compensated = data_size * np.asarray(g, dtype=np.float64) + err.residual
    merged = incoming.densify() + compensated
    outgoing = reference_top_q(merged, q_count)
    return outgoing, ErrorState(merged - outgoing.densify())


def _bisect_edge(plane, sat_index, gs, t_lo, t_hi, rising, tol_s=1.0):
    while t_hi - t_lo > tol_s:
        mid = 0.5 * (t_lo + t_hi)
        if bool(_gs_los_mask(plane, sat_index, gs, np.asarray([mid]))[0]) == rising:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi if rising else t_lo


def reference_visibility_windows(plane, sat_index, gs, t_start, t_end, step_s=5.0):
    if t_start >= t_end:
        return []
    times = np.arange(t_start, t_end + step_s, step_s)
    times[-1] = min(times[-1], t_end)
    mask = los_mask(plane, sat_index, gs, t_start, t_end, step_s)
    windows = []
    i, n = 0, len(times)
    while i < n:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and mask[j + 1]:
            j += 1
        start = times[i]
        if i > 0:
            start = _bisect_edge(plane, sat_index, gs, times[i - 1], times[i], rising=True)
        end = times[j]
        if j + 1 < n:
            end = _bisect_edge(plane, sat_index, gs, times[j], times[j + 1], rising=False)
        start = max(start, t_start)
        end = min(end, t_end)
        if start < end:
            windows.append(VisibilityWindow(float(start), float(end)))
        i = j + 1
    return windows


class EventKind(str, Enum):
    RECEIVE_GLOBAL = "RECEIVE_GLOBAL"
    TRAIN_DONE = "TRAIN_DONE"
    ISL_DELIVER = "ISL_DELIVER"
    SINK_READY = "SINK_READY"
    GS_DELIVER = "GS_DELIVER"


@dataclass(frozen=True)
class Event:
    time_s: float
    kind: EventKind
    payload_bits: int
    src_id: int
    dst_id: int


class EventQueue:
    """Min-heap on time with FIFO tie-break; enforces causal processing."""

    def __init__(self, t0):
        self._heap = []
        self._seq = 0
        self.now = t0

    def push(self, event, payload=None):
        if event.time_s < self.now:
            raise RuntimeError(f"event at {event.time_s} scheduled before clock {self.now}")
        heapq.heappush(self._heap, (event.time_s, self._seq, event, payload))
        self._seq += 1

    def pop(self):
        t, _, event, payload = heapq.heappop(self._heap)
        assert t >= self.now
        self.now = t
        return event, payload

    def __bool__(self):
        return bool(self._heap)


class _Message:
    """ISL payload: either a dense vector or a sparse aggregate, with its wire size."""

    def __init__(self, payload, bits):
        self.payload = payload
        self.bits = bits


def reference_run_round(state, scheme, w_global, hp, t0, round_n, q_count):
    """One ring round as a discrete-event simulation; returns (aggregate, hop records, t_done)."""
    m = state.size_model
    k = state.plane.num_sats
    rate_bps, hop_prop = state.isl_rate_bps, state.isl_prop_s

    plan, t_source_rx, dist_bits = protocol.plan_round(state, scheme, t0, q_count)

    dist_hop_s = tx_duration(dist_bits, rate_bps) + hop_prop

    gradients = {}
    for sat in range(k):
        node = state.nodes[sat]
        w_local = state.trainer(w_global, node, hp, state.round_rng(sat, round_n))
        gradients[sat] = learn.gradient(w_local, w_global)

    next_hop = {}
    for arc in plan.arcs:
        chain = list(arc) + [plan.sink_id]
        for a, b in zip(chain, chain[1:]):
            next_hop[a] = b

    queue = EventQueue(t0)
    trained = [False] * k
    incoming = {}
    forwarded = [False] * k
    arc_ends = {arc[0] for arc in plan.arcs if arc}
    sink_msgs = []
    expected_arc_msgs = sum(1 for arc in plan.arcs if arc)
    hop_records = []
    result = {}

    for sat in range(k):
        hops = min((sat - plan.source_id) % k, (plan.source_id - sat) % k)
        queue.push(Event(t_source_rx + hops * dist_hop_s, EventKind.RECEIVE_GLOBAL,
                         dist_bits, GS_ID, sat))

    def node_step(sat, msg):
        node = state.nodes[sat]
        step = sia_step if scheme is Scheme.SIA else clsia_step
        out, node.error = step(gradients[sat], node.data_size, node.error, msg, q_count)
        return out

    def outgoing_message(sat):
        if scheme is Scheme.DENSE_IA:
            base = incoming[sat].payload if sat in incoming else np.zeros(m.dim)
            return _Message(base + state.nodes[sat].data_size * gradients[sat], m.dense_bits())
        base = incoming[sat].payload if sat in incoming else SparseGradient.empty(m.dim)
        out = node_step(sat, base)
        return _Message(out, message_bits(out, m))

    def try_forward(sat):
        if forwarded[sat] or sat == plan.sink_id or not trained[sat]:
            return
        if sat not in arc_ends and sat not in incoming:
            return
        forwarded[sat] = True
        msg = outgoing_message(sat)
        dst = next_hop[sat]
        t_arrive = queue.now + tx_duration(msg.bits, rate_bps) + hop_prop
        queue.push(Event(t_arrive, EventKind.ISL_DELIVER, msg.bits, sat, dst), msg)
        hop_records.append((sat, dst, msg.bits))

    def try_finish_sink(t):
        sat = plan.sink_id
        if not trained[sat] or len(sink_msgs) < expected_arc_msgs or result:
            return
        g = gradients[sat]
        if scheme is Scheme.DENSE_IA:
            total = state.nodes[sat].data_size * g + sum(
                (msg.payload for msg in sink_msgs), np.zeros(m.dim)
            )
            out_msg = _Message(total, m.dense_bits())
            aggregate = total
        else:
            merged = SparseGradient.empty(m.dim)
            for msg in sink_msgs:
                merged = sparse_add(merged, msg.payload)
            out = node_step(sat, merged)
            out_msg = _Message(out, message_bits(out, m))
            aggregate = out.densify()
        queue.push(Event(t, EventKind.SINK_READY, out_msg.bits, sat, sat))
        result["aggregate"] = aggregate
        result["message"] = out_msg

    while queue:
        event, payload = queue.pop()
        if event.kind is EventKind.RECEIVE_GLOBAL:
            queue.push(Event(event.time_s + state.compute_time_s, EventKind.TRAIN_DONE, 0,
                             event.dst_id, event.dst_id))
        elif event.kind is EventKind.TRAIN_DONE:
            trained[event.dst_id] = True
            try_forward(event.dst_id)
            if event.dst_id == plan.sink_id:
                try_finish_sink(event.time_s)
        elif event.kind is EventKind.ISL_DELIVER:
            if event.dst_id == plan.sink_id:
                sink_msgs.append(payload)
                try_finish_sink(event.time_s)
            else:
                incoming[event.dst_id] = payload
                try_forward(event.dst_id)
        elif event.kind is EventKind.SINK_READY:
            msg = result["message"]
            w = state.windows.next_window(plan.sink_id, event.time_s)
            t_dl = max(w.start_s, event.time_s)
            dist = float(np.linalg.norm(propagate_vec(state.plane, plan.sink_id, t_dl)
                                        - gs_position_vec(state.gs, t_dl)))
            rate = data_rate(state.params, dist)
            t_done = t_dl + tx_duration(msg.bits, rate) + propagation_delay(dist)
            queue.push(Event(t_done, EventKind.GS_DELIVER, msg.bits, plan.sink_id, GS_ID))
            hop_records.append((plan.sink_id, GS_ID, msg.bits))
        elif event.kind is EventKind.GS_DELIVER:
            result["t_done"] = event.time_s

    return result["aggregate"], hop_records, result["t_done"]


# -- comparison helpers ----------------------------------------------------


def assert_same_sparse(got, want):
    assert got.dim == want.dim
    assert got.indices.dtype == want.indices.dtype
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


# magnitudes from a small set give heavy ties; ±0.0 tests the zero rules
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0])
tied_vectors = hnp.arrays(np.float64, st.integers(1, 80), elements=TIED)
wide_vectors = hnp.arrays(
    np.float64, st.integers(1, 80),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True, width=64),
)
vectors = st.one_of(tied_vectors, wide_vectors)


def mostly_zero(dim, seed, nnz):
    rng = np.random.default_rng(seed)
    v = np.zeros(dim)
    v[rng.choice(dim, size=nnz, replace=False)] = rng.normal(size=nnz)
    return v


class TestTopQAgainstReference:
    @given(vectors, st.integers(0, 90))
    def test_byte_identical(self, v, q):
        assert_same_sparse(top_q(v, q), reference_top_q(v, q))

    @pytest.mark.parametrize("q", [0, 1, 5, 79, 7849, 7850, 9000])
    def test_model_sized_vectors(self, q):
        rng = np.random.default_rng(q)
        for v in (rng.normal(size=7850), np.round(rng.normal(size=7850), 1),
                  mostly_zero(7850, q, 40), np.zeros(7850), -np.zeros(7850)):
            assert_same_sparse(top_q(v, q), reference_top_q(v, q))

    def test_all_zero_keeps_nothing(self):
        for v in (np.zeros(10), -np.zeros(10)):
            assert top_q(v, 3).nnz == 0 and top_q(v, 10).nnz == 0


class TestSparseAddAgainstReference:
    @given(vectors, st.data())
    def test_byte_identical(self, v, data):
        w = data.draw(hnp.arrays(np.float64, len(v), elements=TIED))
        a = SparseGradient.from_dense(v)
        b = SparseGradient.from_dense(w)
        assert_same_sparse(sparse_add(a, b), reference_sparse_add(a, b))

    @given(vectors)
    def test_cancelling_entries_stay_in_support(self, v):
        a = SparseGradient.from_dense(v)
        b = SparseGradient(a.dim, a.indices, -a.values)
        merged = sparse_add(a, b)
        assert_same_sparse(merged, reference_sparse_add(a, b))
        assert merged.nnz == a.nnz and not np.any(merged.values)

    def test_empty_operands(self):
        a = SparseGradient.from_dense(np.array([0.0, 1.5, 0.0, -2.0]))
        e = SparseGradient.empty(4)
        for x, y in ((a, e), (e, a), (e, e)):
            assert_same_sparse(sparse_add(x, y), reference_sparse_add(x, y))


class TestStepsAgainstReference:
    @given(vectors, st.data())
    def test_sia_and_clsia_byte_identical(self, g, data):
        dim = len(g)
        q = data.draw(st.integers(0, dim + 2))
        residual = data.draw(hnp.arrays(np.float64, dim, elements=TIED))
        incoming = SparseGradient.from_dense(data.draw(hnp.arrays(np.float64, dim, elements=TIED)))
        size = data.draw(st.sampled_from([1.0, 3.0, 100.0]))
        for fast, reference in ((sia_step, reference_sia_step), (clsia_step, reference_clsia_step)):
            err = ErrorState(residual.copy())
            out, new_err = fast(g, size, err, incoming, q)
            want_out, want_err = reference(g, size, ErrorState(residual.copy()), incoming, q)
            assert_same_sparse(out, want_out)
            assert new_err.residual.tobytes() == want_err.residual.tobytes()
            assert err.residual.tobytes() == residual.tobytes()  # input state untouched


# the default Bremen ring, a low inclined shell, a sun-synchronous plane over
# a southern station, a 0 deg elevation mask, a high retrograde plane, a low
# shell behind a 25 deg mask, a station 0.5 deg inside the plane's reach,
# which sees only grazing passes, some shorter than one screen stride, a
# 200 km plane over a 0 deg mask, whose central angle turns fastest, and a
# 20,200 km plane, whose reach angle is widest
_EDGE_PLANE = OrbitPlane(550e3, math.radians(53.0), 0.3, 10)
GEOMETRIES = [
    (OrbitPlane(2000e3, math.radians(85.0), 0.0, 8),
     GroundStation(math.radians(53.08), math.radians(8.80), math.radians(10.0))),
    (OrbitPlane(500e3, math.radians(53.0), 1.1, 20),
     GroundStation(math.radians(40.0), math.radians(-75.0), math.radians(5.0))),
    (OrbitPlane(1200e3, math.radians(97.6), 2.3, 12),
     GroundStation(math.radians(-33.9), math.radians(18.4), math.radians(15.0))),
    (OrbitPlane(1000e3, math.radians(70.0), 0.4, 9),
     GroundStation(math.radians(10.0), math.radians(100.0), 0.0)),
    (OrbitPlane(8000e3, math.radians(150.0), 0.7, 7),
     GroundStation(math.radians(-20.0), math.radians(-40.0), math.radians(10.0))),
    (OrbitPlane(550e3, math.radians(53.0), 1.9, 22),
     GroundStation(math.radians(35.0), math.radians(139.0), math.radians(25.0))),
    (_EDGE_PLANE,
     GroundStation(max_visible_latitude(_EDGE_PLANE, math.radians(10.0)) - math.radians(0.5),
                   math.radians(60.0), math.radians(10.0))),
    (OrbitPlane(200e3, math.radians(51.6), 0.9, 10),
     GroundStation(math.radians(28.5), math.radians(-80.6), 0.0)),
    (OrbitPlane(20200e3, math.radians(55.0), 2.0, 6),
     GroundStation(math.radians(-35.4), math.radians(149.0), math.radians(10.0))),
]
TEN_DAYS = 10 * 86400.0


def grid(t_start, t_end, step=STEP_S):
    """Sample times step apart, the last clipped to t_end, as visibility_windows takes them."""
    times = np.arange(t_start, t_end + step, step)
    times[-1] = min(times[-1], t_end)
    return times


@functools.cache
def los_mask(plane, sat_index, gs, t_start, t_end, step_s=STEP_S):
    """The unscreened LOS mask on `grid(t_start, t_end, step_s)`, computed once per argument
    tuple: the reference windows and the screened-mask check share each ten-day mask."""
    mask = _gs_los_mask(plane, sat_index, gs, grid(t_start, t_end, step_s))
    mask.flags.writeable = False
    return mask


@functools.cache
def window_openings(geometry, sat):
    """Grid times at which the satellite has risen above the mask in two days."""
    plane, gs = GEOMETRIES[geometry]
    times = grid(0.0, 2 * 86400.0)
    mask = _gs_los_mask(plane, sat, gs, times)
    return times[1:][mask[1:] & ~mask[:-1]]


class TestWindowsAgainstReference:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_ten_days_identical(self, geometry):
        plane, gs = GEOMETRIES[geometry]
        for sat in range(0, plane.num_sats, 3):
            want = reference_visibility_windows(plane, sat, gs, 0.0, TEN_DAYS)
            assert want
            assert visibility_windows(plane, sat, gs, 0.0, TEN_DAYS) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(GEOMETRIES) - 1), st.integers(0, 19),
           st.floats(0.0, 86400.0), st.floats(0.5, 20000.0))
    def test_random_spans_identical(self, geometry, sat, t_start, span):
        # spans that start or end inside a window, and clipped last samples
        plane, gs = GEOMETRIES[geometry]
        sat %= plane.num_sats
        t_end = t_start + span
        assert (visibility_windows(plane, sat, gs, t_start, t_end)
                == reference_visibility_windows(plane, sat, gs, t_start, t_end))

    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_screened_mask_is_the_full_mask_over_ten_days(self, geometry):
        plane, gs = GEOMETRIES[geometry]
        for sat in range(0, plane.num_sats, 3):
            for offset in (0.0, 1.7, 3.1):
                times = grid(offset, TEN_DAYS)
                full = los_mask(plane, sat, gs, offset, TEN_DAYS)
                assert full.any()
                assert np.array_equal(_screened_los_mask(plane, sat, gs, times), full)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(GEOMETRIES) - 1), st.integers(0, 21), st.integers(0, 10**6),
           st.floats(-2 * SCREEN_STRIDE * STEP_S, 0.0), st.floats(0.01, 4 * SCREEN_STRIDE * STEP_S))
    def test_screened_mask_on_short_spans(self, geometry, sat, pick, lead, span):
        # spans from under one stride to a few strides, starting off the grid
        # shortly before a pass opens
        plane, gs = GEOMETRIES[geometry]
        sat %= plane.num_sats
        opens = window_openings(geometry, sat)
        times = grid(opens[pick % len(opens)] + lead, opens[pick % len(opens)] + lead + span)
        assert np.array_equal(_screened_los_mask(plane, sat, gs, times),
                              _gs_los_mask(plane, sat, gs, times))

    def test_window_cache_matches_linear_scan(self):
        plane, gs = GEOMETRIES[0]
        cache = WindowCache(plane, gs)
        for t in np.linspace(0.0, 3 * 86400.0, 400):
            for sat in range(plane.num_sats):
                got = cache.next_window(sat, float(t))
                want = next(w for w in cache._windows[sat] if w.end_s > t)
                assert got is want


# -- ring rounds: arc fold against the heap event loop -----------------------


def fixed_plan(plan):
    """A `plan_round` stand-in that plans every round as `plan`, the source holding the model at t0.

    Both `run_round` and `reference_run_round` look `protocol.plan_round` up at call time.
    """
    return lambda state, scheme, t0, q_count: (
        plan, t0, protocol._distribution_bits(state.size_model, state.plane.num_sats))


def assert_round_matches(state, ref_state, scheme, w, hp, t0, round_n, q_count):
    agg, metrics, t_done = run_round(state, scheme, w, hp, t0, round_n, q_count)
    want_agg, want_hops, want_t_done = reference_run_round(
        ref_state, scheme, w, hp, t0, round_n, q_count)
    assert metrics.hop_records == want_hops
    assert t_done.hex() == want_t_done.hex()
    assert metrics.wallclock_s == want_t_done - t0
    assert metrics.total_plane_bits == sum(bits for _, _, bits in want_hops)
    assert agg.tobytes() == want_agg.tobytes()
    assert ([node.error.residual.tobytes() for node in state.nodes]
            == [node.error.residual.tobytes() for node in ref_state.nodes])
    return agg, t_done


def twin(state):
    """The same plane with fresh error states; shards and the window cache are shared."""
    nodes = [dataclasses.replace(node, error=ErrorState.zeros(len(node.error.residual)))
             for node in state.nodes]
    copy = dataclasses.replace(state, nodes=nodes)
    copy.windows = state.windows
    return copy


RINGS = [
    ("default", {}),
    # DENSE_IA ties here resolve in heap FIFO order, which is not source-id order
    ("k5_2000km", {"constellation": {"planes": 1, "sats_per_plane": 5},
                   "dataset": {"train_samples": 500, "test_samples": 10}}),
    ("k7_no_compute", {"constellation": {"planes": 1, "sats_per_plane": 7},
                       "dataset": {"train_samples": 700, "test_samples": 10},
                       "compute_time_s": 0}),
    ("k9_8000km_no_compute", {"constellation": {"planes": 2, "sats_per_plane": 9,
                                                "altitude_km": 8000.0},
                              "dataset": {"train_samples": 900, "test_samples": 10},
                              "compute_time_s": 0}),
]


@pytest.mark.parametrize("scheme", ["DENSE_IA", "SIA", "CLSIA"])
@pytest.mark.parametrize("name, raw", RINGS, ids=[name for name, _ in RINGS])
def test_fold_matches_event_loop_over_five_rounds(name, raw, scheme):
    cfg = config_from_dict(dict(raw, scheme=scheme))
    planes, hp, w, _, m = build_simulation(cfg)
    ref_planes = [twin(state) for state in planes]
    q_count = q_to_count(cfg.q, m.dim)
    total_data = sum(node.data_size for state in planes for node in state.nodes)
    t = 0.0
    for n in range(1, 6):
        total, t_end = np.zeros(m.dim), t
        for state, ref_state in zip(planes, ref_planes):
            agg, t_done = assert_round_matches(state, ref_state, Scheme[scheme], w, hp, t, n, q_count)
            total += agg
            t_end = max(t_end, t_done)
        w, t = learn.global_update(w, total, total_data), t_end


def stub_ring(k, dim, compute_time_s, seed):
    """A ring whose satellites report fixed small-integer gradients, so hop sizes and times tie."""
    rng = np.random.default_rng(seed)
    grads = [rng.integers(-3, 4, size=dim).astype(float) for _ in range(k)]
    nodes = [SatelliteNode(Dataset(np.ones((1, 5)), np.zeros(1, dtype=np.int64)),
                           ErrorState.zeros(dim)) for _ in range(k)]
    # keyed by shard identity, which twin() shares
    grads_by_shard = {id(node.dataset): g for node, g in zip(nodes, grads)}
    return PlaneState(
        0, OrbitPlane(8000e3, math.radians(85.0), 0.0, k),
        GroundStation(math.radians(53.08), math.radians(8.80), math.radians(10.0)),
        LinkParams(40.0, 32.13, 32.13, 500e6, 20e9, 354.0),
        SizeModel(dim), nodes, compute_time_s=compute_time_s, seed=0,
        trainer=lambda w, node, hp, r: w + grads_by_shard[id(node.dataset)],
    )


@pytest.mark.parametrize("compute_time_s", [0.0, 1.0])
@pytest.mark.parametrize("k", range(3, 9))
def test_fold_matches_event_loop_for_every_sink_and_plan(monkeypatch, k, compute_time_s):
    hp = learn.HyperParams(rounds=1)
    state = stub_ring(k, 24, compute_time_s, seed=k)
    ref_state = twin(state)
    for sink in range(k):
        chain = tuple(i for i in range(k) if i != sink)
        for arcs in (split_arcs(k, sink), (chain, ()), ((), chain[::-1])):
            for scheme in (Scheme.DENSE_IA, Scheme.SIA, Scheme.CLSIA):
                for node in state.nodes + ref_state.nodes:
                    node.error = ErrorState.zeros(24)
                w, t = np.zeros(24), 0.0
                for n in range(1, 6):
                    plan = RoundPlan(source_id=(sink + n) % k, sink_id=sink, arcs=arcs)
                    monkeypatch.setattr(protocol, "plan_round", fixed_plan(plan))
                    _, t = assert_round_matches(state, ref_state, scheme, w, hp, t, n, 4)
