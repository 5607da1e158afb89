"""The linear-time sparse path, the batched window search and the arc fold
against the straightforward implementations they replace.

The reference functions below are the simple forms: a stable argsort for
Top-Q, `np.unique` + `np.add.at` for the sparse merge, a dense subtraction
for the error-feedback residual, the row-wise LOS mask (positions as (n, 3)
rows, reductions over axis -1) and one bisection per edge of one satellite
for visibility windows, a window cache that extends each satellite alone,
and a heap event loop for a ring round. The code under test must agree with
them byte for byte.
"""

import dataclasses
import functools
import heapq
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leofl import learn, protocol
from leofl.config import build_simulation, config_from_dict
from leofl.constants import CONSTANTS
from leofl.data import Dataset
from leofl.link import LinkParams, data_rate, propagation_delay, tx_duration
from leofl.orbital import (
    GroundStation,
    OrbitPlane,
    SCREEN_STRIDE,
    STEP_S,
    VisibilityWindow,
    _gs_los_mask,
    _gs_xyz,
    _reach_angle,
    _sat_xyz,
    _screen,
    station_distance,
    visibility_windows,
)
from leofl.protocol import (
    GS_ID,
    NoWindowError,
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


@dataclass(frozen=True)
class IndexValue:
    """A sparse vector as sorted int64 indices and their float64 values: the references' own form."""

    dim: int
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self):
        return len(self.indices)

    def densify(self):
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @classmethod
    def empty(cls, dim):
        return cls(dim, np.empty(0, dtype=np.int64), np.empty(0))

    @classmethod
    def from_dense(cls, v):
        idx = np.nonzero(v)[0]
        return cls(len(v), idx.astype(np.int64), np.asarray(v, dtype=np.float64)[idx])


def as_message(ref):
    """The program's message that sends `ref`'s entries."""
    sent = np.zeros(ref.dim, dtype=bool)
    sent[ref.indices] = True
    return SparseGradient(ref.densify(), sent)


def reference_top_q(v, q_count):
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    if q_count >= n:
        return IndexValue.from_dense(v)
    # stable sort on descending magnitude preserves index order among ties
    order = np.argsort(-np.abs(v), kind="stable")[:q_count]
    keep = np.sort(order)
    vals = v[keep]
    nz = vals != 0.0
    return IndexValue(n, keep[nz].astype(np.int64), vals[nz])


def reference_sparse_add(a, b):
    idx = np.concatenate([a.indices, b.indices])
    val = np.concatenate([a.values, b.values])
    uniq, inv = np.unique(idx, return_inverse=True)
    summed = np.zeros(len(uniq))
    np.add.at(summed, inv, val)
    return IndexValue(a.dim, uniq, summed)


def reference_sia_step(g, data_size, err, incoming, q_count):
    compensated = data_size * np.asarray(g, dtype=np.float64) + err.residual
    own = reference_top_q(compensated, q_count)
    return reference_sparse_add(incoming, own), ErrorState(compensated - own.densify())


def reference_clsia_step(g, data_size, err, incoming, q_count):
    compensated = data_size * np.asarray(g, dtype=np.float64) + err.residual
    merged = incoming.densify() + compensated
    outgoing = reference_top_q(merged, q_count)
    return outgoing, ErrorState(merged - outgoing.densify())


def reference_positions(plane, sat_index, times):
    """ECI satellite positions as rows, shape (n, 3)."""
    u = 2.0 * math.pi * sat_index / plane.num_sats + 2.0 * math.pi * times / plane.period_s
    co, so = math.cos(plane.raan_rad), math.sin(plane.raan_rad)
    ci, si = math.cos(plane.inclination_rad), math.sin(plane.inclination_rad)
    u0, u1 = np.array([co, so, 0.0]), np.array([-so * ci, co * ci, si])
    return plane.radius_m * (np.cos(u)[..., None] * u0 + np.sin(u)[..., None] * u1)


def reference_station_positions(gs, times):
    lon = gs.longitude_rad + CONSTANTS.earth_rotation_rate * times
    clat, slat = math.cos(gs.latitude_rad), math.sin(gs.latitude_rad)
    return CONSTANTS.earth_radius_m * np.stack(
        [clat * np.cos(lon), clat * np.sin(lon), slat * np.ones_like(lon)], axis=-1)


def reference_station_distance(plane, sat_index, gs, t):
    """Satellite-station distance at one time, the norm of the difference of the rows."""
    at = np.asarray(t, dtype=float)
    return float(np.linalg.norm(reference_positions(plane, sat_index, at)
                                - reference_station_positions(gs, at)))


def reference_elevation_ok(sat, station, min_elevation_rad):
    rel = sat - station
    rng = np.linalg.norm(rel, axis=-1)
    up = station / np.linalg.norm(station, axis=-1, keepdims=True)
    sin_el = np.sum(rel * up, axis=-1) / rng
    return np.arcsin(np.clip(sin_el, -1.0, 1.0)) >= min_elevation_rad


def reference_los_mask(plane, sat_index, gs, times):
    """The row-wise LOS mask: positions as (n, 3) rows, reductions over axis -1."""
    times = np.asarray(times, dtype=float)
    return reference_elevation_ok(reference_positions(plane, sat_index, times),
                                  reference_station_positions(gs, times), gs.min_elevation_rad)


def _bisect_edge(plane, sat_index, gs, t_lo, t_hi, rising, tol_s=1.0):
    while t_hi - t_lo > tol_s:
        mid = 0.5 * (t_lo + t_hi)
        if bool(reference_los_mask(plane, sat_index, gs, [mid])[0]) == rising:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi if rising else t_lo


def reference_visibility_windows(plane, sat_index, gs, t_start, t_end, step_s=5.0):
    if t_start >= t_end:
        return []
    times = np.arange(t_start, t_end + step_s, step_s)
    times[-1] = min(times[-1], t_end)
    mask = los_mask(plane, sat_index, gs, t_start, t_end, step_s).tolist()
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


def reference_run_round(state, scheme, gradients, t0, q_count):
    """One ring round of the satellites' `gradients` as a discrete-event simulation;
    returns (aggregate, hop records, t_done)."""
    m = state.size_model
    k = state.plane.num_sats
    rate_bps, hop_prop = state.isl_rate_bps, state.isl_prop_s

    plan, t_source_rx, dist_bits = protocol.plan_round(state, scheme, t0, q_count)

    dist_hop_s = tx_duration(dist_bits, rate_bps) + hop_prop

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
            aggregate = out.values
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
            dist = reference_station_distance(state.plane, plan.sink_id, state.gs, t_dl)
            rate = data_rate(state.params, dist)
            t_done = t_dl + tx_duration(msg.bits, rate) + propagation_delay(dist)
            queue.push(Event(t_done, EventKind.GS_DELIVER, msg.bits, plan.sink_id, GS_ID))
            hop_records.append((plan.sink_id, GS_ID, msg.bits))
        elif event.kind is EventKind.GS_DELIVER:
            result["t_done"] = event.time_s

    return result["aggregate"], hop_records, result["t_done"]


# -- comparison helpers ----------------------------------------------------


def assert_same_sparse(got, want):
    """The message `got` sends exactly the entries of the index/value `want`, and +0.0 elsewhere."""
    assert got.values.dtype == np.float64 and got.sent.dtype == bool
    assert got.values.shape == got.sent.shape == (want.dim,)
    assert want.indices.dtype == np.int64
    assert np.flatnonzero(got.sent).astype(np.int64).tobytes() == want.indices.tobytes()
    assert got.values[got.sent].tobytes() == want.values.tobytes()
    assert got.values[~got.sent].tobytes() == np.zeros(want.dim - want.nnz).tobytes()


def assert_well_formed(msg, dim):
    """`msg` holds +0.0 wherever it sends nothing and no -0.0 where it sends."""
    assert type(msg.nnz) is int  # hop records hold plain ints
    assert msg.values.dtype == np.float64 and msg.sent.dtype == bool
    assert msg.values.shape == msg.sent.shape == (dim,)
    assert msg.values[~msg.sent].tobytes() == np.zeros(dim - msg.nnz).tobytes()
    sent = msg.values[msg.sent]
    assert not np.any(np.signbit(sent) & (sent == 0.0))


# magnitudes from a small set give heavy ties; ±0.0 tests the zero rules
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0])
WIDE = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True, width=64)
tied_vectors = hnp.arrays(np.float64, st.integers(1, 80), elements=TIED)
wide_vectors = hnp.arrays(np.float64, st.integers(1, 80), elements=WIDE)
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
        a = IndexValue.from_dense(v)
        b = IndexValue.from_dense(w)
        assert_same_sparse(sparse_add(as_message(a), as_message(b)), reference_sparse_add(a, b))

    @given(vectors)
    def test_cancelling_entries_stay_in_support(self, v):
        a = IndexValue.from_dense(v)
        b = IndexValue(a.dim, a.indices, -a.values)
        merged = sparse_add(as_message(a), as_message(b))
        assert_same_sparse(merged, reference_sparse_add(a, b))
        assert merged.nnz == a.nnz and not np.any(merged.values)

    def test_empty_operands(self):
        a = IndexValue.from_dense(np.array([0.0, 1.5, 0.0, -2.0]))
        e = IndexValue.empty(4)
        for x, y in ((a, e), (e, a), (e, e)):
            assert_same_sparse(sparse_add(as_message(x), as_message(y)), reference_sparse_add(x, y))
        assert_same_sparse(SparseGradient.empty(4), e)


class TestStepsAgainstReference:
    @given(vectors, st.data())
    def test_sia_and_clsia_byte_identical(self, g, data):
        dim = len(g)
        q = data.draw(st.integers(0, dim + 2))
        residual = data.draw(hnp.arrays(np.float64, dim, elements=TIED))
        incoming = IndexValue.from_dense(data.draw(hnp.arrays(np.float64, dim, elements=TIED)))
        size = data.draw(st.sampled_from([1.0, 3.0, 100.0]))
        for fast, reference in ((sia_step, reference_sia_step), (clsia_step, reference_clsia_step)):
            err = ErrorState(residual.copy())
            out, new_err = fast(g, size, err, as_message(incoming), q)
            want_out, want_err = reference(g, size, ErrorState(residual.copy()), incoming, q)
            assert_same_sparse(out, want_out)
            assert new_err.residual.tobytes() == want_err.residual.tobytes()
            assert err.residual.tobytes() == residual.tobytes()  # input state untouched


# every step that builds a message a satellite sends
BUILDERS = (sia_step, clsia_step, protocol.SCHEMES[Scheme.DENSE_IA].step)


def draw_chains(g0, data):
    """Two chains of 6 to 9 gradients from g0, and the residual, Q and data size they share."""
    dim = len(g0)
    elements = data.draw(st.sampled_from([TIED, WIDE]))
    q = data.draw(st.integers(0, dim + 2))
    size = data.draw(st.sampled_from([1.0, 3.0, 100.0]))
    chains = [[g0] + [data.draw(hnp.arrays(np.float64, dim, elements=elements))
                      for _ in range(data.draw(st.integers(5, 8)))] for _ in range(2)]
    residual = data.draw(hnp.arrays(np.float64, dim, elements=elements))
    return chains, residual, q, size


def fold_chain(step, chain, residual, q, size):
    """Every message a chain of `step`s sends, hop by hop, from an empty start."""
    msg, err = SparseGradient.empty(len(residual)), ErrorState(residual)
    sent = []
    for g in chain:
        msg, err = step(g, size, err, msg, q)
        sent.append(msg)
    return sent


@given(vectors, st.data())
def test_every_builder_keeps_plus_zero_off_sent_and_no_minus_zero_on_it(g0, data):
    """Two chains of at least 6 hops per step, joined as a sink joins its arcs.

    A message entry that is -0.0, or a zero off `sent` that is not +0.0, would
    make an entrywise sum differ from the index/value merge the references run.
    """
    dim = len(g0)
    chains, residual, q, size = draw_chains(g0, data)
    for g in chains[0] + chains[1]:
        assert_well_formed(top_q(g, q), dim)
    for step in BUILDERS:
        arcs = [fold_chain(step, chain, residual, q, size) for chain in chains]
        for msg in arcs[0] + arcs[1]:
            assert_well_formed(msg, dim)
        assert_well_formed(sparse_add(arcs[0][-1], arcs[1][-1]), dim)
        assert_well_formed(sparse_add(SparseGradient.empty(dim), arcs[0][-1]), dim)


def assert_same_bytes(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.sent.tobytes() == want.sent.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(vectors, st.data())
def test_one_join_is_the_fold_from_empty(g0, data):
    """A ring's sink joins its arc messages a and b with one `sparse_add(a, b)`,
    and an empty arc brings `empty`. Byte for byte, the join is the fold
    `sparse_add(sparse_add(empty, a), b)`, and `empty` changes nothing it is
    added to: both hold because no builder puts -0.0 on `sent`. The pairs are
    Top-Q outputs and the messages two chains of each step send at the same
    hop, their last included."""
    chains, residual, q, size = draw_chains(g0, data)
    empty = SparseGradient.empty(len(g0))
    pairs = list(zip(*[[top_q(g, q) for g in chain] for chain in chains]))
    for step in BUILDERS:
        arcs = [fold_chain(step, chain, residual, q, size) for chain in chains]
        pairs += [*zip(*arcs), (arcs[0][-1], arcs[1][-1])]
    for a, b in pairs:
        assert_same_bytes(sparse_add(a, b), sparse_add(sparse_add(empty, a), b))
        assert_same_bytes(sparse_add(a, empty), a)
        assert_same_bytes(sparse_add(empty, b), b)


# the default Bremen ring, a low inclined shell, a sun-synchronous plane over
# a southern station, a 0 deg elevation mask, a high retrograde plane, a low
# shell behind a 25 deg mask, a station 0.5 deg inside the plane's reach,
# which sees only grazing passes, some shorter than one screen stride, a
# 200 km plane over a 0 deg mask, whose central angle turns fastest, a
# 20,200 km plane, whose reach angle is widest, and a 550 km plane behind a
# 60 deg mask, whose reach angle (0.045 rad) is below the screen's margin
# (0.070 rad), so no bracket is certainly lit
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
     GroundStation(math.asin(abs(math.sin(_EDGE_PLANE.inclination_rad)))
                   + _reach_angle(_EDGE_PLANE, math.radians(10.0)) - math.radians(0.5),
                   math.radians(60.0), math.radians(10.0))),
    (OrbitPlane(200e3, math.radians(51.6), 0.9, 10),
     GroundStation(math.radians(28.5), math.radians(-80.6), 0.0)),
    (OrbitPlane(20200e3, math.radians(55.0), 2.0, 6),
     GroundStation(math.radians(-35.4), math.radians(149.0), math.radians(10.0))),
    (OrbitPlane(550e3, math.radians(53.0), 0.5, 6),
     GroundStation(math.radians(52.0), math.radians(30.0), math.radians(60.0))),
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
    mask = reference_los_mask(plane, sat_index, gs, grid(t_start, t_end, step_s))
    mask.flags.writeable = False
    return mask


@functools.cache
def window_edges(geometry, sat, rising=True):
    """Grid times at which the satellite has risen above the mask (or, with
    rising False, the last grid times it is above it) in two days."""
    plane, gs = GEOMETRIES[geometry]
    times = grid(0.0, 2 * 86400.0)
    mask = reference_los_mask(plane, sat, gs, times)
    return times[1:][mask[1:] & ~mask[:-1]] if rising else times[:-1][mask[:-1] & ~mask[1:]]


def screened_mask(plane, sats, gs, times):
    """The LOS mask `_screen` implies on the grid `times`: True in a lit bracket,
    False in a dark one, `_gs_los_mask` in an edge bracket. A screened sample ends
    one bracket and starts the next, and both must give it the same value."""
    screened, lit, edge = _screen(plane, sats, gs, times)
    exact = np.stack([_gs_los_mask(plane, int(sat), gs, times) for sat in sats])
    samples = np.arange(len(times))
    implied = []
    # each sample's bracket: the one it starts or lies in, then the one it ends or lies in
    for side in ("right", "left"):
        bracket = np.clip(np.searchsorted(screened, samples, side) - 1, 0, len(screened) - 2)
        implied.append(np.where(edge[:, bracket], exact, lit[:, bracket]))
    assert np.array_equal(*implied)
    return implied[0]


def test_three_term_sums_run_left_to_right():
    """The column-wise geometry writes (x + y) + z: numpy's reduction over a
    length-3 axis in that order, and sqrt of it for the norm. x + (y + z)
    rounds differently."""
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((100_000, 3)) * 10.0 ** rng.integers(-3, 8, size=(100_000, 1))
    x, y, z = rows.T
    assert np.add.reduce(rows, axis=-1).tobytes() == ((x + y) + z).tobytes()
    assert np.add.reduce(rows, axis=-1).tobytes() != (x + (y + z)).tobytes()
    squares = rows * rows
    assert (np.linalg.norm(rows, axis=-1).tobytes()
            == np.sqrt((squares[:, 0] + squares[:, 1]) + squares[:, 2]).tobytes())


@pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
def test_positions_are_the_row_positions(geometry):
    """The column positions are the rows, and the station distance of a ground
    transfer is the norm of their difference, not one bit off, at one time or at
    many."""
    plane, gs = GEOMETRIES[geometry]
    times = np.random.default_rng(geometry).uniform(0.0, TEN_DAYS, 1000)
    for sat in range(plane.num_sats):
        assert (np.stack(_sat_xyz(plane, sat, times), axis=-1).tobytes()
                == reference_positions(plane, sat, times).tobytes())
    x, y, z = _gs_xyz(gs, times)
    assert (np.stack([x, y, np.full_like(x, z)], axis=-1).tobytes()
            == reference_station_positions(gs, times).tobytes())
    for i, t in enumerate(times.tolist()):
        sat = i % plane.num_sats
        want = reference_station_distance(plane, sat, gs, t)
        assert station_distance(plane, sat, gs, t).hex() == want.hex()
        assert station_distance(plane, sat, gs, np.float64(t)).hex() == want.hex()


@pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
def test_column_los_mask_is_the_row_mask(geometry):
    """100,000 random (satellite, time) pairs, half of them within two minutes
    of a pass opening, against the row-wise reference."""
    plane, gs = GEOMETRIES[geometry]
    rng = np.random.default_rng(geometry)
    n = 50_000
    sats = rng.integers(0, plane.num_sats, 2 * n)
    opens = [window_edges(geometry, sat) for sat in range(plane.num_sats)]
    near = [opens[sat][rng.integers(len(opens[sat]))] for sat in sats[n:]]
    times = np.concatenate([rng.uniform(0.0, TEN_DAYS, n), near + rng.uniform(-120.0, 120.0, n)])
    want = reference_los_mask(plane, sats, gs, times)
    assert 0.1 * n < want.sum() < n
    assert np.array_equal(_gs_los_mask(plane, sats, gs, times), want)


class TestWindowsAgainstReference:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_ten_days_identical(self, geometry):
        plane, gs = GEOMETRIES[geometry]
        plane_wide = visibility_windows(plane, np.arange(plane.num_sats), gs, 0.0, TEN_DAYS)
        assert len(plane_wide) == plane.num_sats
        for sat, got in enumerate(plane_wide):
            want = reference_visibility_windows(plane, sat, gs, 0.0, TEN_DAYS)
            assert want
            assert got == want
        assert visibility_windows(plane, 1, gs, 0.0, TEN_DAYS) == plane_wide[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(GEOMETRIES) - 1),
           st.lists(st.integers(0, 21), min_size=1, max_size=5),
           st.floats(0.0, 86400.0), st.floats(0.5, 20000.0))
    def test_random_spans_identical(self, geometry, picks, t_start, span):
        # spans that start or end inside a window, and clipped last samples;
        # the satellites in any order, repeats included
        plane, gs = GEOMETRIES[geometry]
        sats = [pick % plane.num_sats for pick in picks]
        t_end = t_start + span
        want = [reference_visibility_windows(plane, sat, gs, t_start, t_end) for sat in sats]
        assert visibility_windows(plane, np.array(sats), gs, t_start, t_end) == want
        assert visibility_windows(plane, sats[0], gs, t_start, t_end) == want[0]

    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_screened_mask_is_the_full_mask_over_ten_days(self, geometry):
        plane, gs = GEOMETRIES[geometry]
        sats = np.arange(0, plane.num_sats, 3)
        for offset in (0.0, 1.7, 3.1):
            full = np.stack([los_mask(plane, int(sat), gs, offset, TEN_DAYS) for sat in sats])
            assert full.any(axis=1).all()
            assert np.array_equal(screened_mask(plane, sats, gs, grid(offset, TEN_DAYS)), full)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(GEOMETRIES) - 1), st.integers(0, 21), st.integers(0, 10**6),
           st.booleans(), st.floats(-2 * SCREEN_STRIDE * STEP_S, 0.0),
           st.floats(0.01, 4 * SCREEN_STRIDE * STEP_S))
    def test_screened_mask_on_short_spans(self, geometry, sat, pick, rising, lead, span):
        # spans from under one stride to a few strides, starting off the grid
        # shortly before a pass of one satellite opens or closes, for every satellite
        plane, gs = GEOMETRIES[geometry]
        edges = window_edges(geometry, sat % plane.num_sats, rising)
        times = grid(edges[pick % len(edges)] + lead, edges[pick % len(edges)] + lead + span)
        sats = np.arange(plane.num_sats)
        assert np.array_equal(screened_mask(plane, sats, gs, times),
                              np.stack([reference_los_mask(plane, k, gs, times) for k in sats]))

    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_screen_brackets(self, geometry):
        """Brackets are a stride long but the last, and none is both lit and an edge. Only
        the last geometry's reach angle is within the margin, and it has no lit bracket;
        every other geometry but the grazing one has some."""
        plane, gs = GEOMETRIES[geometry]
        times = grid(0.0, 86400.0 + 17.0)
        screened, lit, edge = _screen(plane, np.arange(plane.num_sats), gs, times)
        assert screened[0] == 0 and screened[-1] == len(times) - 1
        assert (np.diff(screened)[:-1] == SCREEN_STRIDE).all()
        assert 0 < np.diff(screened)[-1] <= SCREEN_STRIDE
        assert lit.shape == edge.shape == (plane.num_sats, len(screened) - 1)
        assert not (lit & edge).any() and edge.any()
        rate = 2 * math.pi / plane.period_s + abs(CONSTANTS.earth_rotation_rate)
        reach = (math.acos(CONSTANTS.earth_radius_m / plane.radius_m
                           * math.cos(gs.min_elevation_rad)) - gs.min_elevation_rad)
        no_lit_rule = reach <= rate * SCREEN_STRIDE * STEP_S + 1e-6
        assert no_lit_rule == (geometry == len(GEOMETRIES) - 1)
        assert lit.any() != no_lit_rule or plane is _EDGE_PLANE  # it sees only grazing passes

    def test_window_cache_matches_linear_scan(self):
        plane, gs = GEOMETRIES[0]
        cache = WindowCache(plane, gs)
        for t in np.linspace(0.0, 3 * 86400.0, 400):
            for sat in range(plane.num_sats):
                got = cache.next_window(sat, float(t))
                want = next(w for w in cache.windows[sat] if w.end_s > t)
                assert got is want


class PerSatelliteWindowCache:
    """The window cache with each satellite extended alone, one search per
    satellite and chunk, over the same chunk sequence."""

    def __init__(self, plane, gs):
        self.plane, self.gs = plane, gs
        self.windows = [[] for _ in range(plane.num_sats)]
        self.covered_to = [0.0] * plane.num_sats
        self.chunk = max(4 * plane.period_s, 3600.0)

    def next_window(self, sat, t):
        target = t
        while target < t + WindowCache.HORIZON_S:
            target += self.chunk
            while self.covered_to[sat] < target:
                t0 = self.covered_to[sat]
                t1 = t0 + self.chunk
                existing = self.windows[sat]
                for w in visibility_windows(self.plane, sat, self.gs, t0, t1):
                    if existing and w.start_s - existing[-1].end_s < WindowCache._MERGE_GAP_S:
                        existing[-1] = VisibilityWindow(existing[-1].start_s, w.end_s)
                    else:
                        existing.append(w)
                self.covered_to[sat] = t1 - 2 * STEP_S
            found = [w for w in self.windows[sat] if w.end_s > t]
            if found:
                return found[0], found[0] is self.windows[sat][-1]
        raise RuntimeError(f"no visibility window for satellite {sat} after t={t}")


@st.composite
def planes_and_queries(draw):
    """One plane of 2-12 satellites at 300-20,000 km and any inclination, a station
    anywhere behind a 0-89 deg mask (half the masks at 80-89 deg, where windows can
    lie days apart) and 4-8 (satellite, t) queries with t up to 30 days."""
    k = draw(st.integers(2, 12))
    plane = OrbitPlane(draw(st.floats(300e3, 20_000e3)), math.radians(draw(st.floats(0.0, 180.0))),
                       0.0, k)
    mask = draw(st.one_of(st.floats(0.0, 89.0), st.floats(80.0, 89.0)))
    gs = GroundStation(math.radians(draw(st.floats(-90.0, 90.0))),
                       math.radians(draw(st.floats(-180.0, 180.0))), math.radians(mask))
    queries = draw(st.lists(st.tuples(st.integers(0, k - 1), st.floats(0.0, 30 * 86400.0)),
                            min_size=4, max_size=8))
    return plane, gs, queries


def window_starts(cache, queries):
    """Each query's answer: the start of its window, or None where it raises NoWindowError."""
    starts = []
    for sat, t in queries:
        try:
            starts.append(cache.next_window(sat, t).start_s)
        except NoWindowError:
            starts.append(None)
    return starts


class TestWindowCache:
    # the geometry of test_harness's strict xfail: satellite 0 sees the station from
    # t = 0 to 46 s and then not until day 48.37, beyond the reach of a query at
    # t = 100 s, even in a cache that has searched to day 47 for satellite 1
    @example((OrbitPlane(10382e3, math.radians(33.0), 0.0, 2),
              GroundStation(0.0, 0.0, math.radians(89.0)),
              [(1, 47 * 86400.0), (0, 100.0)]))
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(planes_and_queries())
    def test_an_answer_does_not_depend_on_the_queries_before_it(self, case):
        plane, gs, queries = case
        forward = window_starts(WindowCache(plane, gs), queries)
        backward = window_starts(WindowCache(plane, gs), queries[::-1])
        assert forward == backward[::-1]

    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_plane_wide_cache_answers_as_per_satellite_caches(self, geometry):
        """Random satellites at non-monotone times. A window the per-satellite
        cache holds last may still grow when its next chunk is searched, and
        the plane-wide cache may have searched that chunk for another
        satellite, so such a window is compared by its start: the only field
        the protocol reads."""
        plane, gs = GEOMETRIES[geometry]
        cache, oracle = WindowCache(plane, gs), PerSatelliteWindowCache(plane, gs)
        rng = np.random.default_rng(100 + geometry)
        for _ in range(200):
            sat, t = int(rng.integers(plane.num_sats)), float(rng.uniform(0.0, 2 * 86400.0))
            got = cache.next_window(sat, t)
            want, last = oracle.next_window(sat, t)
            assert got.start_s == want.start_s
            assert got == want if not last else got.end_s >= want.end_s

    def test_no_window_names_where_the_search_stopped(self, monkeypatch):
        # the geometry of test_harness's strict xfail: after t = 100 s satellite 0 sees
        # the station again only on day 48.37, beyond the search
        plane = OrbitPlane(10382e3, math.radians(33.0), 0.0, 2)
        gs = GroundStation(0.0, 0.0, math.radians(89.0))
        ends = []

        def recorded(plane, sat_index, gs, t_start, t_end):
            ends.append(t_end)
            return visibility_windows(plane, sat_index, gs, t_start, t_end)

        monkeypatch.setattr(protocol, "visibility_windows", recorded)
        with pytest.raises(NoWindowError) as exc:
            WindowCache(plane, gs).next_window(0, 100.0)
        # chunks of four periods from t until one chunk past the 5-day horizon: 7.0 days here
        chunk = 4 * plane.period_s
        reach = 100.0 + (math.ceil(WindowCache.HORIZON_S / chunk) + 1) * chunk
        assert exc.value.reach_s == pytest.approx(reach)
        assert reach - 100.0 >= WindowCache.HORIZON_S + chunk
        assert ends[-1] - chunk < exc.value.reach_s <= ends[-1]  # in the last chunk searched
        assert str(exc.value) == (f"satellite 0 sees no window in a search that reached "
                                  f"t={reach:.0f} s after t=100.0")

    def test_one_search_per_chunk_for_the_whole_plane(self, monkeypatch):
        plane, gs = GEOMETRIES[0]
        calls = []

        def counted(plane, sat_index, gs, t_start, t_end):
            calls.append((np.array(sat_index), t_start, t_end))
            return visibility_windows(plane, sat_index, gs, t_start, t_end)

        monkeypatch.setattr(protocol, "visibility_windows", counted)
        cache = WindowCache(plane, gs)
        cache.next_window(0, 0.0)
        searched = len(calls)
        assert searched == 1  # the first chunk holds the window
        for sat in range(1, plane.num_sats):  # answered from the chunks already searched
            cache.next_window(sat, 0.0)
        assert len(calls) == searched
        cache.next_window(5, calls[-1][2])  # extends every satellite from where it stopped
        assert len(calls) > searched
        for (sats, _, t_end), (_, t_start, _) in zip(calls, calls[1:]):
            assert t_start == t_end - 2 * STEP_S
        assert all(np.array_equal(sats, np.arange(plane.num_sats)) for sats, _, _ in calls)


# -- ring rounds: arc fold against the heap event loop -----------------------


def fixed_plan(plan):
    """A `plan_round` stand-in that plans every round as `plan`, the source holding the model at t0.

    Both `run_round` and `reference_run_round` look `protocol.plan_round` up at call time.
    """
    return lambda state, scheme, t0, q_count: (
        plan, t0, protocol._distribution_bits(state.size_model, state.plane.num_sats))


def assert_round_matches(state, ref_state, scheme, gradients, t0, q_count):
    agg, metrics = run_round(state, scheme, gradients, t0, q_count)
    want_agg, want_hops, want_t_done = reference_run_round(
        ref_state, scheme, gradients, t0, q_count)
    assert metrics.hop_records == want_hops
    assert metrics.t_done.hex() == want_t_done.hex()
    assert metrics.total_plane_bits == sum(bits for _, _, bits in want_hops)
    assert agg.tobytes() == want_agg.tobytes()
    assert ([node.error.residual.tobytes() for node in state.nodes]
            == [node.error.residual.tobytes() for node in ref_state.nodes])
    return agg, metrics.t_done


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
            gradients = [learn.local_gradient(w, node.dataset, hp, state.rng_key(sat, n))
                         for sat, node in enumerate(state.nodes)]
            agg, t_done = assert_round_matches(state, ref_state, Scheme[scheme], gradients, t,
                                               q_count)
            total += agg
            t_end = max(t_end, t_done)
        w, t = learn.global_update(w, total, total_data), t_end


def toy_ring(k, dim, compute_time_s=0.0):
    """A ring of one-row shards, high enough that any K >= 3 has neighbor LOS."""
    nodes = [SatelliteNode(Dataset(np.ones((1, 5)), np.zeros(1, dtype=np.int64)),
                           ErrorState.zeros(dim)) for _ in range(k)]
    return PlaneState(
        0, OrbitPlane(8000e3, math.radians(85.0), 0.0, k),
        GroundStation(math.radians(53.08), math.radians(8.80), math.radians(10.0)),
        LinkParams(40.0, 32.13, 32.13, 500e6, 20e9, 354.0),
        SizeModel(dim), nodes, compute_time_s=compute_time_s, seed=0,
    )


@pytest.mark.parametrize("compute_time_s", [0.0, 1.0])
@pytest.mark.parametrize("k", range(3, 9))
def test_fold_matches_event_loop_for_every_sink_and_plan(monkeypatch, k, compute_time_s):
    # fixed small-integer gradients, so hop sizes and times tie
    rng = np.random.default_rng(k)
    gradients = [rng.integers(-3, 4, size=24).astype(float) for _ in range(k)]
    state = toy_ring(k, 24, compute_time_s)
    ref_state = twin(state)
    for sink in range(k):
        chain = tuple(i for i in range(k) if i != sink)
        for arcs in (split_arcs(k, sink), (chain, ()), ((), chain[::-1])):
            for scheme in (Scheme.DENSE_IA, Scheme.SIA, Scheme.CLSIA):
                for node in state.nodes + ref_state.nodes:
                    node.error = ErrorState.zeros(24)
                t = 0.0
                for n in range(1, 6):
                    plan = RoundPlan(source_id=(sink + n) % k, sink_id=sink, arcs=arcs)
                    monkeypatch.setattr(protocol, "plan_round", fixed_plan(plan))
                    _, t = assert_round_matches(state, ref_state, scheme, gradients, t, 4)
