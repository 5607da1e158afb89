"""Per-plane round orchestration over the intra-orbit ring.

One global iteration per plane has three phases: the source satellite receives
the global weights from the ground station and floods them around the ring,
every satellite trains locally, and the ring aggregates gradients hop by hop
toward the sink, which delivers the plane aggregate back to the station.
`run_global_iteration` trains each plane's satellites and hands the gradients
to the plane's round. Each arc is a chain into the sink,
so a ring round is a fold of those gradients over the two arcs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Callable

import numpy as np

from . import helper, learn
from .data import Dataset
from .link import (
    LinkParams,
    data_rate,
    propagation_delay,
    ring_neighbor_distance,
    tx_duration,
)
from .orbital import (
    GroundStation,
    OrbitPlane,
    STEP_S,
    VisibilityWindow,
    station_distance,
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


@dataclass(frozen=True)
class SchemeSpec:
    """Everything that sets one aggregation scheme apart; the round functions read only this.

    `step(g, data_size, error, incoming, q_count) -> (message, error)` folds a
    satellite's update into the incoming message and `bits(message, size_model)`
    is what a message costs on a link; every scheme's message is a
    `SparseGradient`. A ring scheme is one with `hop_bits(j, size_model,
    q_count)`, which bounds the bits sent from arc position j, counted from
    the far end, for the sink estimate; without it every satellite talks to
    the station.
    """

    step: Callable
    hop_bits: Callable[[int, SizeModel, int], int] | None = None
    # looked up at call time, so rebinding it on this module reaches every round
    bits: Callable = lambda s, m: message_bits(s, m)

    @property
    def ring(self) -> bool:
        """Whether the plane aggregates over the ring."""
        return self.hop_bits is not None


# the steps look sia_step and clsia_step up at call time, so rebinding them
# on this module reaches every round; the dense sum sends every entry
SCHEMES = {
    Scheme.DENSE_IA: SchemeSpec(lambda g, n, err, incoming, q: (
                                    SparseGradient(incoming.values + n * g,
                                                   np.ones(len(g), dtype=bool)), err),
                                hop_bits=lambda j, m, q: m.dense_bits(),
                                bits=lambda s, m: m.dense_bits()),
    # the support grows by at most Q entries per hop
    Scheme.SIA: SchemeSpec(lambda *a: sia_step(*a),
                           hop_bits=lambda j, m, q: min(m.dim, j * q) * m.entry_bits),
    Scheme.CLSIA: SchemeSpec(lambda *a: clsia_step(*a), hop_bits=lambda j, m, q: q * m.entry_bits),
    # each satellite sends its own Top-Q straight down: an SIA step onto nothing
    Scheme.NO_ISL_DIRECT: SchemeSpec(lambda *a: sia_step(*a)),
}


@dataclass(frozen=True)
class RoundPlan:
    source_id: int
    sink_id: int
    arcs: tuple[tuple[int, ...], tuple[int, ...]]  # ring positions, farthest first


@dataclass
class RoundMetrics:
    t_done: float  # when the plane aggregate reaches the station
    hop_records: list[tuple[int, int, int]]  # (src, dst, bits) in send order

    @property
    def total_plane_bits(self) -> int:
        return sum(bits for _, _, bits in self.hop_records)


@dataclass
class SatelliteNode:
    dataset: Dataset
    error: ErrorState

    @property
    def data_size(self) -> int:
        return len(self.dataset)


class NoWindowError(RuntimeError):
    """A satellite sees the station in no window that opens by `reach_s`, where the search
    stopped."""

    def __init__(self, sat: int, t: float, reach_s: float):
        super().__init__(f"satellite {sat} sees no window in a search that reached "
                         f"t={reach_s:.0f} s after t={t}")
        self.reach_s = reach_s


class WindowCache:
    """Lazily extended visibility windows of every satellite of a plane over a growing horizon.

    The plane's satellites are extended together, one `visibility_windows`
    search per four-orbit chunk for all of them; each sees the chunks it would
    see alone, so neither its windows nor `next_window`'s answers depend on
    the queries. The search is looked up on this module at call time, so
    rebinding `protocol.visibility_windows` reaches every cache.
    """

    HORIZON_S = 5 * 86400.0
    _MERGE_GAP_S = 30.0

    def __init__(self, plane: OrbitPlane, gs: GroundStation):
        self.plane = plane
        self.gs = gs
        k = plane.num_sats
        self._sats = np.arange(k)
        self.windows: list[list[VisibilityWindow]] = [[] for _ in range(k)]
        self._covered_to = 0.0
        self._chunk = 4 * plane.period_s

    def extend(self, until: float):
        """Search chunk by chunk until the windows cover [0, until]; only the last ones may grow."""
        while self._covered_to < until:
            t0 = max(self._covered_to - 2 * STEP_S, 0.0)  # overlap the edge, to merge across it
            self._covered_to = t0 + self._chunk
            fresh = visibility_windows(self.plane, self._sats, self.gs, t0, self._covered_to)
            for existing, found in zip(self.windows, fresh):
                for w in found:
                    if existing and w.start_s - existing[-1].end_s < self._MERGE_GAP_S:
                        existing[-1] = VisibilityWindow(existing[-1].start_s, w.end_s)
                    else:
                        existing.append(w)

    def next_window(self, sat: int, t: float) -> VisibilityWindow:
        """The first window that ends after t, if it opens by one chunk past t + HORIZON_S."""
        target = t
        while target < t + self.HORIZON_S + self._chunk:
            target += self._chunk
            self.extend(target)
            windows = self.windows[sat]
            i = bisect.bisect_right(windows, t, key=attrgetter("end_s"))
            if i < len(windows) and windows[i].start_s <= target:
                return windows[i]
        raise NoWindowError(sat, t, target)


@dataclass
class PlaneState:
    plane_id: int
    plane: OrbitPlane
    gs: GroundStation
    params: LinkParams
    size_model: SizeModel
    nodes: list[SatelliteNode]
    compute_time_s: float
    seed: int

    def __post_init__(self):
        self.windows = WindowCache(self.plane, self.gs)

    # the ISL figures are computed on first use: the no-ISL baseline never
    # forms a ring; validate rejects a ring too small for neighbor LOS
    @cached_property
    def isl_rate_bps(self) -> float:
        return data_rate(self.params, ring_neighbor_distance(self.plane))

    @cached_property
    def isl_prop_s(self) -> float:
        return propagation_delay(ring_neighbor_distance(self.plane))

    def ground_transfer(self, sat: int, t: float, bits: int) -> float:
        """Send `bits` between the satellite and the station in its next window at or after t.

        The rate and the propagation delay follow from the station distance at
        the start of the transfer; returns the arrival time.
        """
        t_start = max(self.windows.next_window(sat, t).start_s, t)
        dist = station_distance(self.plane, sat, self.gs, t_start)
        return t_start + tx_duration(bits, data_rate(self.params, dist)) + propagation_delay(dist)

    def rng_key(self, sat: int, round_n: int) -> list[int]:
        """The seed of the satellite's draws in a round, in this process or the helper."""
        return [self.seed, self.plane_id, round_n, sat]

    def round_rng(self, sat: int, round_n: int) -> np.random.Generator:
        return np.random.default_rng(self.rng_key(sat, round_n))


def shortest_path_hops(k: int, a: int, b: int) -> int:
    """Hops between ring positions a and b of a ring of k satellites."""
    d = (b - a) % k
    return min(d, k - d)


def first_visible(state: PlaneState, t: float) -> int:
    """Satellite that can first reach the station at or after t; ties to the lower index.

    The source is the first to see the station when the round starts, the
    sink the first to see it once aggregation is expected to be done.
    """
    starts = [max(state.windows.next_window(sat, t).start_s, t)
              for sat in range(state.plane.num_sats)]
    return starts.index(min(starts))


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


def plan_round(state: PlaneState, scheme: Scheme, t: float, q_count: int):
    """Pick source and sink for this round and fix the arc split."""
    k = state.plane.num_sats
    source = first_visible(state, t)
    dist_bits = _distribution_bits(state.size_model, k)
    t_source_rx = state.ground_transfer(source, t, dist_bits)
    sink = first_visible(state, t_source_rx + _estimate_round_duration(state, scheme, q_count))
    return RoundPlan(source, sink, split_arcs(k, sink)), t_source_rx, dist_bits


def _distribution_bits(m: SizeModel, num_sats: int) -> int:
    # dense weights plus a header naming the sink among num_sats satellites;
    # a lone receiver needs none
    return m.dense_bits() + (num_sats - 1).bit_length()


def _estimate_round_duration(state: PlaneState, scheme: Scheme, q_count: int) -> float:
    k = state.plane.num_sats
    m = state.size_model
    half = math.ceil(k / 2)
    rate, hop_prop = state.isl_rate_bps, state.isl_prop_s
    dist = half * (tx_duration(_distribution_bits(m, k), rate) + hop_prop)
    hop_bits = SCHEMES[scheme].hop_bits
    agg = sum(tx_duration(hop_bits(j, m, q_count), rate) + hop_prop for j in range(1, half + 1))
    return dist + state.compute_time_s + agg


def run_round(
    state: PlaneState,
    scheme: Scheme,
    gradients: list[np.ndarray],
    t0: float,
    q_count: int,
) -> tuple[np.ndarray, RoundMetrics]:
    """Fold one ring round over its two arcs; returns (dense plane aggregate, metrics)."""
    spec = SCHEMES[scheme]
    m = state.size_model
    k = state.plane.num_sats
    rate, hop_prop = state.isl_rate_bps, state.isl_prop_s

    plan, t_source_rx, dist_bits = plan_round(state, scheme, t0, q_count)

    # the global weights flood both ways from the source, one hop per
    # dist_hop_s; a satellite trains as soon as it holds them
    dist_hop_s = tx_duration(dist_bits, rate) + hop_prop
    trained_at = [
        t_source_rx + shortest_path_hops(k, plan.source_id, sat) * dist_hop_s
        + state.compute_time_s
        for sat in range(k)
    ]

    empty = SparseGradient.empty(m.dim)  # never written to

    def step(sat: int, base: SparseGradient):
        """Fold the satellite's weighted gradient into `base`; returns (message, bits)."""
        node = state.nodes[sat]
        out, node.error = spec.step(gradients[sat], node.data_size, node.error, base, q_count)
        return out, spec.bits(out, m)

    # A satellite sends once it has trained and its upstream message has
    # arrived. Hops are recorded in send order: by send time, then sends
    # that waited on their own training first (by satellite), then sends
    # that waited on an arrival, in the order of the sends that caused them.
    hops: list[tuple[tuple, tuple[int, int, int]]] = []
    arrivals = []  # (arrival time at the sink, message) per arc; an empty arc sends nothing
    for arc in plan.arcs:
        msg, t_arrive, key = empty, -math.inf, None
        chain = arc + (plan.sink_id,)
        for sat, dst in zip(chain, chain[1:]):
            t_send = max(trained_at[sat], t_arrive)
            key = (t_send, (0, sat) if trained_at[sat] >= t_arrive else (1, key))
            msg, bits = step(sat, msg)
            t_arrive = t_send + tx_duration(bits, rate) + hop_prop
            hops.append((key, (sat, dst, bits)))
        arrivals.append((t_arrive, msg))

    sink = plan.sink_id
    (t_a, a), (t_b, b) = arrivals
    out, bits = step(sink, sparse_add(a, b))
    t_done = state.ground_transfer(sink, max(trained_at[sink], t_a, t_b), bits)

    hop_records = [rec for _, rec in sorted(hops)] + [(sink, GS_ID, bits)]
    return out.values, RoundMetrics(t_done, hop_records)


def run_no_isl_round(
    state: PlaneState,
    scheme: Scheme,
    gradients: list[np.ndarray],
    t0: float,
    q_count: int,
) -> tuple[np.ndarray, RoundMetrics]:
    """Baseline without ISLs: every satellite talks to the station directly.

    Each satellite waits for a visibility window to receive the global weights,
    trains, then waits again to downlink its Top-Q gradient. Satellites use
    their own windows independently; the round ends when the last one reports.
    """
    spec = SCHEMES[scheme]
    m = state.size_model
    empty = SparseGradient.empty(m.dim)  # never written to
    aggregate = np.zeros(m.dim)
    hop_records: list[tuple[int, int, int]] = []
    t_done = t0
    up_bits = _distribution_bits(m, 1)  # the station sends to one satellite
    for sat, (node, g) in enumerate(zip(state.nodes, gradients)):
        t_rx = state.ground_transfer(sat, t0, up_bits)
        out, node.error = spec.step(g, node.data_size, node.error, empty, q_count)
        bits = spec.bits(out, m)
        t_done = max(t_done, state.ground_transfer(sat, t_rx + state.compute_time_s, bits))
        hop_records += [(GS_ID, sat, up_bits), (sat, GS_ID, bits)]
        aggregate += out.values
    return aggregate, RoundMetrics(t_done, hop_records)


@dataclass
class IterationMetrics:
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
    test_set: Dataset,
) -> tuple[np.ndarray, IterationMetrics, float]:
    """One synchronous FL iteration across all planes, PS update included.

    Every (plane, satellite) job is offered to the forked helper when one can
    take it (`helper.start`). Then, plane by plane, this process trains the jobs
    the helper has not claimed with its call (`learn.local_gradient`), waits
    for the ones it holds and runs the plane's round, while the helper claims on.
    Once the new weights exist, the next round's jobs are offered to the helper
    (`Helper.offer`), which trains them while this process evaluates.
    """
    # looked up at call time, so rebinding either round function on this module reaches it
    run_plane = run_round if SCHEMES[scheme].ring else run_no_isl_round

    def jobs(n: int) -> list[list[tuple]]:
        return [[(node.dataset, state.rng_key(sat, n)) for sat, node in enumerate(state.nodes)]
                for state in planes]

    forked = helper.start(w_global, hp, jobs(round_n))

    def gradients(p: int, state: PlaneState) -> list[np.ndarray]:
        def train(sat: int) -> np.ndarray:
            return learn.local_gradient(w_global, state.nodes[sat].dataset, hp,
                                        state.rng_key(sat, round_n))

        return forked.gradients(p, train) if forked else [train(s) for s in range(len(state.nodes))]

    total = np.zeros_like(w_global)
    plane_metrics = []
    t_end = t0
    for p, state in enumerate(planes):
        # trained just before the plane's round and bound to no name here, so only one
        # plane's gradients are alive at a time
        agg, pm = run_plane(state, scheme, gradients(p, state), t0, q_count)
        total += agg
        plane_metrics.append(pm)
        t_end = max(t_end, pm.t_done)
    total_data = sum(node.data_size for state in planes for node in state.nodes)
    w_next = learn.global_update(w_global, total, total_data)
    if forked:
        forked.offer(w_next, hp, jobs(round_n + 1))
    accuracy = learn.evaluate(w_next, test_set)
    return w_next, IterationMetrics(accuracy, plane_metrics), t_end
