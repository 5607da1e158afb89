"""Per-plane round orchestration over the intra-orbit ring.

One global iteration per plane has three phases: the source satellite receives
the global weights from the ground station and floods them around the ring,
every satellite trains locally, and the ring aggregates gradients hop by hop
toward the sink, which delivers the plane aggregate back to the station.
A heap-based event loop keeps the timing deterministic and causal.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from . import learn
from .data import Dataset
from .link import (
    LinkParams,
    data_rate,
    fixed_link_rate,
    propagation_delay,
    ring_neighbor_distance,
    tx_duration,
)
from .orbital import (
    GroundStation,
    OrbitPlane,
    VisibilityWindow,
    gs_position_vec,
    propagate_vec,
    visibility_windows,
)
from .sparsify import (
    ErrorState,
    SizeModel,
    SparseGradient,
    clsia_step,
    message_bits,
    sia_step,
    sparse_add,
)

GS_ID = -1


class Scheme(str, Enum):
    DENSE_IA = "DENSE_IA"
    SIA = "SIA"
    CLSIA = "CLSIA"
    NO_ISL_DIRECT = "NO_ISL_DIRECT"


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

    def __init__(self, t0: float):
        self._heap: list[tuple[float, int, Event, object]] = []
        self._seq = 0
        self.now = t0

    def push(self, event: Event, payload=None):
        if event.time_s < self.now:
            raise RuntimeError(f"event at {event.time_s} scheduled before clock {self.now}")
        heapq.heappush(self._heap, (event.time_s, self._seq, event, payload))
        self._seq += 1

    def pop(self) -> tuple[Event, object]:
        t, _, event, payload = heapq.heappop(self._heap)
        assert t >= self.now
        self.now = t
        return event, payload

    def __bool__(self):
        return bool(self._heap)


@dataclass
class RingTopology:
    plane_id: int
    sat_ids: list[int]
    hop_distance_m: float
    rate_bps: float


@dataclass(frozen=True)
class RoundPlan:
    round_n: int
    source_id: int
    sink_id: int
    arcs: tuple[tuple[int, ...], tuple[int, ...]]  # ring positions, farthest first
    scheme: Scheme


@dataclass
class RoundMetrics:
    round_n: int
    wallclock_s: float
    per_hop_bits: list[int]
    total_plane_bits: int
    gs_bits: int
    test_accuracy: float | None = None
    hop_records: list[tuple[int, int, int]] = field(default_factory=list)  # (src, dst, bits)


@dataclass
class SatelliteNode:
    sat_id: int
    dataset: Dataset
    error: ErrorState

    @property
    def data_size(self) -> int:
        return len(self.dataset)


class WindowCache:
    """Lazily extended per-satellite visibility windows over a growing horizon."""

    _MERGE_GAP_S = 30.0

    def __init__(self, plane: OrbitPlane, gs: GroundStation, num_sats: int, step_s: float = 5.0):
        self.plane = plane
        self.gs = gs
        self.step_s = step_s
        self._windows: list[list[VisibilityWindow]] = [[] for _ in range(num_sats)]
        self._ends: list[list[float]] = [[] for _ in range(num_sats)]  # end_s of each window
        self._covered_to = [0.0] * num_sats
        self._chunk = max(4 * plane.period_s, 3600.0)

    def _extend(self, sat: int, until: float):
        while self._covered_to[sat] < until:
            t0 = self._covered_to[sat]
            t1 = t0 + self._chunk
            fresh = visibility_windows(self.plane, sat, self.gs, t0, t1, self.step_s)
            existing, ends = self._windows[sat], self._ends[sat]
            for w in fresh:
                if existing and w.start_s - existing[-1].end_s < self._MERGE_GAP_S:
                    existing[-1] = VisibilityWindow(sat, existing[-1].start_s, w.end_s)
                    ends[-1] = w.end_s
                else:
                    existing.append(w)
                    ends.append(w.end_s)
            # overlap the next chunk so windows straddling the edge are merged
            self._covered_to[sat] = t1 - 2 * self.step_s

    def next_window(self, sat: int, t: float, horizon_s: float = 5 * 86400.0) -> VisibilityWindow:
        target = t
        while target < t + horizon_s:
            target += self._chunk
            self._extend(sat, target)
            i = bisect.bisect_right(self._ends[sat], t)
            if i < len(self._ends[sat]):
                return self._windows[sat][i]
        raise RuntimeError(f"no visibility window for satellite {sat} after t={t}")


Trainer = Callable[[np.ndarray, SatelliteNode, learn.HyperParams, np.random.Generator], np.ndarray]


def default_trainer(w_global, node: SatelliteNode, hp, rng) -> np.ndarray:
    return learn.sat_learn_proc(w_global, node.dataset, hp, rng)


@dataclass
class PlaneState:
    plane_id: int
    plane: OrbitPlane
    gs: GroundStation
    params: LinkParams
    size_model: SizeModel
    nodes: list[SatelliteNode]
    compute_time_s: float = 1.0
    trainer: Trainer = default_trainer
    seed: int = 0

    def __post_init__(self):
        if len(self.nodes) != self.plane.num_sats:
            raise ValueError("one node per satellite required")
        self.windows = WindowCache(self.plane, self.gs, self.plane.num_sats)

    @cached_property
    def ring(self) -> RingTopology:
        # built on first use: the no-ISL baseline never forms a ring, and a
        # ring too small for neighbor LOS raises LinkError here
        return RingTopology(
            plane_id=self.plane_id,
            sat_ids=[n.sat_id for n in self.nodes],
            hop_distance_m=ring_neighbor_distance(self.plane),
            rate_bps=fixed_link_rate(self.params, self.plane),
        )

    def gs_distance(self, sat: int, t: float) -> float:
        p = propagate_vec(self.plane, sat, t)
        g = gs_position_vec(self.gs, t)
        return float(np.linalg.norm(p - g))

    def gs_rate(self, sat: int, t: float) -> float:
        return data_rate(self.params, self.gs_distance(sat, t), los=True)

    def round_rng(self, sat: int, round_n: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.plane_id, round_n, sat])


def shortest_path_hops(ring: RingTopology, from_id: int, sink_id: int) -> int:
    """Ring distance between two members; ties resolve to the ascending direction."""
    ids = ring.sat_ids
    if from_id not in ids or sink_id not in ids:
        raise ValueError("ids must be ring members")
    k = len(ids)
    d = (ids.index(sink_id) - ids.index(from_id)) % k
    return min(d, k - d)


def select_source(state: PlaneState, t: float) -> int:
    """Satellite whose next visibility starts earliest at/after t; ties to lower index."""
    best, best_start = 0, math.inf
    for sat in range(state.plane.num_sats):
        w = state.windows.next_window(sat, t)
        start = max(w.start_s, t)
        if start < best_start:
            best, best_start = sat, start
    return best

def select_sink(state: PlaneState, t_source_rx: float, est_round_duration: float) -> int:
    """Satellite with the smallest wait for a window after the estimated round end."""
    ready = t_source_rx + est_round_duration
    best, best_wait = 0, math.inf
    for sat in range(state.plane.num_sats):
        w = state.windows.next_window(sat, ready)
        wait = max(0.0, w.start_s - ready)
        if wait < best_wait:
            best, best_wait = sat, wait
    return best


def split_arcs(num_sats: int, sink: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cut the ring opposite the sink; each arc is listed farthest-from-sink first.

    For even rings the diametrically opposite satellite joins the arc that
    forwards in ascending ring order (the clockwise tie rule).
    """
    k = num_sats
    asc_len = k // 2  # arc forwarding in ascending index order
    desc_len = k - 1 - asc_len
    asc = tuple((sink - off) % k for off in range(asc_len, 0, -1))
    desc = tuple((sink + off) % k for off in range(desc_len, 0, -1))
    return asc, desc


def plan_round(state: PlaneState, scheme: Scheme, round_n: int, t: float, q_count: int):
    """Pick source and sink for this round and fix the arc split."""
    if scheme is Scheme.NO_ISL_DIRECT:
        raise ValueError("the no-ISL baseline does not use ring rounds")
    k = state.plane.num_sats
    source = select_source(state, t)
    w_src = state.windows.next_window(source, t)
    t_up_start = max(w_src.start_s, t)
    dist_bits = _distribution_bits(state.size_model, k)
    up_rate = state.gs_rate(source, t_up_start)
    up_dist = state.gs_distance(source, t_up_start)
    t_source_rx = t_up_start + tx_duration(dist_bits, up_rate) + propagation_delay(up_dist)

    est = _estimate_round_duration(state, scheme, q_count)
    sink = select_sink(state, t_source_rx, est)
    arcs = split_arcs(k, sink)
    plan = RoundPlan(round_n, source, sink, arcs, scheme)
    return plan, t_source_rx, dist_bits


def _distribution_bits(m: SizeModel, num_sats: int) -> int:
    # dense weights plus a sink-id header
    return m.dense_bits() + max(1, (num_sats - 1).bit_length())


def _estimate_round_duration(state: PlaneState, scheme: Scheme, q_count: int) -> float:
    ring = state.ring
    k = state.plane.num_sats
    m = state.size_model
    half = math.ceil(k / 2)
    hop_prop = propagation_delay(ring.hop_distance_m)
    dist = half * (tx_duration(_distribution_bits(m, k), ring.rate_bps) + hop_prop)
    entry_bits = m.value_bits + m.index_bits
    if scheme is Scheme.DENSE_IA:
        agg_bits = [m.dense_bits()] * half
    elif scheme is Scheme.CLSIA:
        agg_bits = [q_count * entry_bits] * half
    else:  # SIA worst case: support grows by Q per hop
        agg_bits = [min(m.dim, j * q_count) * entry_bits for j in range(1, half + 1)]
    agg = sum(tx_duration(b, ring.rate_bps) + hop_prop for b in agg_bits)
    return dist + state.compute_time_s + agg


class _Message:
    """ISL payload: either a dense vector or a sparse aggregate, with its wire size."""

    def __init__(self, payload, bits: int):
        self.payload = payload
        self.bits = bits


def _dense_message(v: np.ndarray, m: SizeModel) -> _Message:
    return _Message(v, m.dense_bits())


def _sparse_message(s: SparseGradient, m: SizeModel) -> _Message:
    return _Message(s, message_bits(s, m))


def run_round(
    state: PlaneState,
    scheme: Scheme,
    w_global: np.ndarray,
    hp: learn.HyperParams,
    t0: float,
    round_n: int,
    q_count: int,
    plan: RoundPlan | None = None,
) -> tuple[np.ndarray, RoundMetrics, float]:
    """Execute one ring round; returns (dense plane aggregate, metrics, t_done)."""
    if scheme is Scheme.NO_ISL_DIRECT:
        raise ValueError("use run_no_isl_round for the baseline without ISLs")
    m = state.size_model
    k = state.plane.num_sats
    ring = state.ring
    hop_prop = propagation_delay(ring.hop_distance_m)

    if plan is None:
        plan, t_source_rx, dist_bits = plan_round(state, scheme, round_n, t0, q_count)
    else:
        # externally supplied plan: the source receives immediately (toy configs)
        t_source_rx = t0
        dist_bits = _distribution_bits(m, k)

    dist_hop_s = tx_duration(dist_bits, ring.rate_bps) + hop_prop

    # local gradients, weighted by data size at aggregation time
    gradients: dict[int, np.ndarray] = {}
    for sat in range(k):
        node = state.nodes[sat]
        w_local = state.trainer(w_global, node, hp, state.round_rng(sat, round_n))
        gradients[sat] = learn.gradient(w_local, w_global)

    next_hop: dict[int, int] = {}
    for arc in plan.arcs:
        chain = list(arc) + [plan.sink_id]
        for a, b in zip(chain, chain[1:]):
            next_hop[a] = b

    queue = EventQueue(t0)
    trained = [False] * k
    incoming: dict[int, _Message] = {}
    forwarded = [False] * k
    arc_ends = {arc[0] for arc in plan.arcs if arc}
    sink_msgs: list[_Message] = []
    expected_arc_msgs = sum(1 for arc in plan.arcs if arc)
    hop_records: list[tuple[int, int, int]] = []
    result: dict = {}

    def schedule_receive_global(sat: int, t: float):
        queue.push(Event(t, EventKind.RECEIVE_GLOBAL, dist_bits, GS_ID, sat))

    # distribution: flood both directions from the source; each satellite gets
    # the packet after its minimum ring distance from the source in hops
    for sat in range(k):
        hops = min((sat - plan.source_id) % k, (plan.source_id - sat) % k)
        schedule_receive_global(sat, t_source_rx + hops * dist_hop_s)

    def node_step(sat: int, msg: SparseGradient) -> SparseGradient:
        node = state.nodes[sat]
        g = gradients[sat]
        if scheme is Scheme.SIA:
            out, node.error = sia_step(g, node.data_size, node.error, msg, q_count)
        else:
            out, node.error = clsia_step(g, node.data_size, node.error, msg, q_count)
        return out

    def outgoing_message(sat: int) -> _Message:
        if scheme is Scheme.DENSE_IA:
            base = incoming[sat].payload if sat in incoming else np.zeros(m.dim)
            return _dense_message(base + state.nodes[sat].data_size * gradients[sat], m)
        base = incoming[sat].payload if sat in incoming else SparseGradient.empty(m.dim)
        return _sparse_message(node_step(sat, base), m)

    def try_forward(sat: int):
        if forwarded[sat] or sat == plan.sink_id or not trained[sat]:
            return
        if sat not in arc_ends and sat not in incoming:
            return
        forwarded[sat] = True
        msg = outgoing_message(sat)
        dst = next_hop[sat]
        t_arrive = queue.now + tx_duration(msg.bits, ring.rate_bps) + hop_prop
        queue.push(Event(t_arrive, EventKind.ISL_DELIVER, msg.bits, sat, dst), msg)
        hop_records.append((sat, dst, msg.bits))

    def try_finish_sink(t: float):
        sat = plan.sink_id
        if not trained[sat] or len(sink_msgs) < expected_arc_msgs or result:
            return
        node = state.nodes[sat]
        g = gradients[sat]
        if scheme is Scheme.DENSE_IA:
            total = state.nodes[sat].data_size * g + sum(
                (msg.payload for msg in sink_msgs), np.zeros(m.dim)
            )
            out_msg = _dense_message(total, m)
            aggregate = total
        else:
            merged = SparseGradient.empty(m.dim)
            for msg in sink_msgs:
                merged = sparse_add(merged, msg.payload)
            out = node_step(sat, merged)
            out_msg = _sparse_message(out, m)
            aggregate = out.densify()
        queue.push(Event(t, EventKind.SINK_READY, out_msg.bits, sat, sat))
        result["aggregate"] = aggregate
        result["message"] = out_msg

    while queue:
        event, payload = queue.pop()
        if event.kind is EventKind.RECEIVE_GLOBAL:
            queue.push(
                Event(event.time_s + state.compute_time_s, EventKind.TRAIN_DONE, 0,
                      event.dst_id, event.dst_id)
            )
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
            rate = state.gs_rate(plan.sink_id, t_dl)
            dist = state.gs_distance(plan.sink_id, t_dl)
            t_done = t_dl + tx_duration(msg.bits, rate) + propagation_delay(dist)
            queue.push(Event(t_done, EventKind.GS_DELIVER, msg.bits, plan.sink_id, GS_ID))
            hop_records.append((plan.sink_id, GS_ID, msg.bits))
        elif event.kind is EventKind.GS_DELIVER:
            result["t_done"] = event.time_s

    per_hop = [bits for _, _, bits in hop_records]
    metrics = RoundMetrics(
        round_n=round_n,
        wallclock_s=result["t_done"] - t0,
        per_hop_bits=per_hop,
        total_plane_bits=sum(per_hop),
        gs_bits=hop_records[-1][2],
        hop_records=hop_records,
    )
    return result["aggregate"], metrics, result["t_done"]


def run_no_isl_round(
    state: PlaneState,
    w_global: np.ndarray,
    hp: learn.HyperParams,
    t0: float,
    round_n: int,
    q_count: int,
) -> tuple[np.ndarray, RoundMetrics, float]:
    """Baseline without ISLs: every satellite talks to the station directly.

    Each satellite waits for a visibility window to receive the global weights,
    trains, then waits again to downlink its Top-Q gradient. Satellites use
    their own windows independently; the round ends when the last one reports.
    """
    m = state.size_model
    aggregate = np.zeros(m.dim)
    hop_records: list[tuple[int, int, int]] = []
    t_done = t0
    up_bits = m.dense_bits()
    for sat in range(state.plane.num_sats):
        node = state.nodes[sat]
        w_up = state.windows.next_window(sat, t0)
        t_up = max(w_up.start_s, t0)
        rate_up = state.gs_rate(sat, t_up)
        d_up = state.gs_distance(sat, t_up)
        t_rx = t_up + tx_duration(up_bits, rate_up) + propagation_delay(d_up)
        hop_records.append((GS_ID, sat, up_bits))

        t_trained = t_rx + state.compute_time_s
        w_local = state.trainer(w_global, node, hp, state.round_rng(sat, round_n))
        g = learn.gradient(w_local, w_global)
        out, node.error = sia_step(
            g, node.data_size, node.error, SparseGradient.empty(m.dim), q_count
        )
        bits = message_bits(out, m)

        w_dn = state.windows.next_window(sat, t_trained)
        t_dn = max(w_dn.start_s, t_trained)
        rate_dn = state.gs_rate(sat, t_dn)
        d_dn = state.gs_distance(sat, t_dn)
        t_sat_done = t_dn + tx_duration(bits, rate_dn) + propagation_delay(d_dn)
        hop_records.append((sat, GS_ID, bits))

        aggregate += out.densify()
        t_done = max(t_done, t_sat_done)

    per_hop = [bits for _, _, bits in hop_records]
    metrics = RoundMetrics(
        round_n=round_n,
        wallclock_s=t_done - t0,
        per_hop_bits=per_hop,
        total_plane_bits=sum(per_hop),
        gs_bits=sum(per_hop),
        hop_records=hop_records,
    )
    return aggregate, metrics, t_done


@dataclass
class IterationMetrics:
    round_n: int
    t_end_s: float
    wallclock_s: float
    accuracy: float
    plane_metrics: list[RoundMetrics]

    @property
    def total_bits(self) -> int:
        return sum(p.total_plane_bits for p in self.plane_metrics)


def run_global_iteration(
    planes: list[PlaneState],
    scheme: Scheme,
    w_global: np.ndarray,
    hp: learn.HyperParams,
    t0: float,
    round_n: int,
    q_count: int,
    test_set: Dataset | None = None,
) -> tuple[np.ndarray, IterationMetrics, float]:
    """One synchronous FL iteration across all planes, PS update included."""
    total = np.zeros_like(w_global)
    plane_metrics = []
    t_end = t0
    for state in planes:
        if scheme is Scheme.NO_ISL_DIRECT:
            agg, pm, t_done = run_no_isl_round(state, w_global, hp, t0, round_n, q_count)
        else:
            agg, pm, t_done = run_round(state, scheme, w_global, hp, t0, round_n, q_count)
        total += agg
        plane_metrics.append(pm)
        t_end = max(t_end, t_done)
    total_data = sum(node.data_size for state in planes for node in state.nodes)
    w_next = learn.global_update(w_global, total, total_data)
    accuracy = learn.evaluate(w_next, test_set) if test_set is not None else float("nan")
    for pm in plane_metrics:
        pm.test_accuracy = accuracy
    metrics = IterationMetrics(round_n, t_end, t_end - t0, accuracy, plane_metrics)
    return w_next, metrics, t_end
