"""Per-plane round orchestration over the intra-orbit ring.

One global iteration per plane has three phases: the source satellite receives
the global weights from the ground station and floods them around the ring,
every satellite trains locally, and the ring aggregates gradients hop by hop
toward the sink, which delivers the plane aggregate back to the station.
Each arc is a chain into the sink, so a round is a fold over the two arcs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
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
    STEP_S,
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


@dataclass(frozen=True)
class SchemeSpec:
    """What sets one aggregation scheme apart.

    `step(g, data_size, error, incoming, q_count) -> (message, error)` folds a
    satellite's update into the incoming message (None: the dense sum), and
    `hop_bits(j, size_model, q_count)` bounds the bits sent from arc position
    j, counted from the far end, for the sink estimate.
    """

    step: Callable | None
    sparse: bool
    hop_bits: Callable[[int, SizeModel, int], int]
    ring: bool


# the steps look sia_step and clsia_step up at call time, so rebinding them
# on this module reaches every round
SCHEMES = {
    Scheme.DENSE_IA: SchemeSpec(None, sparse=False, ring=True,
                                hop_bits=lambda j, m, q: m.dense_bits()),
    # the support grows by at most Q entries per hop
    Scheme.SIA: SchemeSpec(lambda *a: sia_step(*a), sparse=True, ring=True,
                           hop_bits=lambda j, m, q: min(m.dim, j * q) * m.entry_bits),
    Scheme.CLSIA: SchemeSpec(lambda *a: clsia_step(*a), sparse=True, ring=True,
                             hop_bits=lambda j, m, q: q * m.entry_bits),
    # each satellite sends its own Top-Q straight down: an SIA step onto nothing
    Scheme.NO_ISL_DIRECT: SchemeSpec(lambda *a: sia_step(*a), sparse=True, ring=False,
                                     hop_bits=lambda j, m, q: q * m.entry_bits),
}


@dataclass(frozen=True)
class RoundPlan:
    source_id: int
    sink_id: int
    arcs: tuple[tuple[int, ...], tuple[int, ...]]  # ring positions, farthest first


@dataclass
class RoundMetrics:
    wallclock_s: float
    hop_records: list[tuple[int, int, int]]  # (src, dst, bits) in send order

    @property
    def total_plane_bits(self) -> int:
        return sum(bits for _, _, bits in self.hop_records)

    @property
    def gs_bits(self) -> int:
        """Bits on the ground links: every hop to or from the station."""
        return sum(bits for src, dst, bits in self.hop_records if GS_ID in (src, dst))


@dataclass
class SatelliteNode:
    dataset: Dataset
    error: ErrorState

    @property
    def data_size(self) -> int:
        return len(self.dataset)


class WindowCache:
    """Lazily extended per-satellite visibility windows over a growing horizon."""

    HORIZON_S = 5 * 86400.0
    _MERGE_GAP_S = 30.0

    def __init__(self, plane: OrbitPlane, gs: GroundStation):
        self.plane = plane
        self.gs = gs
        k = plane.num_sats
        self._windows: list[list[VisibilityWindow]] = [[] for _ in range(k)]
        self._ends: list[list[float]] = [[] for _ in range(k)]  # end_s of each window
        self._covered_to = [0.0] * k
        self._chunk = max(4 * plane.period_s, 3600.0)

    def _extend(self, sat: int, until: float):
        while self._covered_to[sat] < until:
            t0 = self._covered_to[sat]
            t1 = t0 + self._chunk
            fresh = visibility_windows(self.plane, sat, self.gs, t0, t1)
            existing, ends = self._windows[sat], self._ends[sat]
            for w in fresh:
                if existing and w.start_s - existing[-1].end_s < self._MERGE_GAP_S:
                    existing[-1] = VisibilityWindow(existing[-1].start_s, w.end_s)
                    ends[-1] = w.end_s
                else:
                    existing.append(w)
                    ends.append(w.end_s)
            # overlap the next chunk so windows straddling the edge are merged
            self._covered_to[sat] = t1 - 2 * STEP_S

    def next_window(self, sat: int, t: float) -> VisibilityWindow:
        """The first window that ends after t; it may already be open at t."""
        target = t
        while target < t + self.HORIZON_S:
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
    compute_time_s: float
    seed: int
    trainer: Trainer = default_trainer

    def __post_init__(self):
        self.windows = WindowCache(self.plane, self.gs)

    # the ISL figures are computed on first use: the no-ISL baseline never
    # forms a ring, and a ring too small for neighbor LOS raises LinkError
    @cached_property
    def isl_rate_bps(self) -> float:
        return fixed_link_rate(self.params, self.plane)

    @cached_property
    def isl_prop_s(self) -> float:
        return propagation_delay(ring_neighbor_distance(self.plane))

    def ground_transfer(self, sat: int, t: float, bits: int) -> float:
        """Send `bits` between the satellite and the station in its next window at or after t.

        The rate and the propagation delay follow from the station distance at
        the start of the transfer; returns the arrival time.
        """
        t_start = max(self.windows.next_window(sat, t).start_s, t)
        dist = float(np.linalg.norm(
            propagate_vec(self.plane, sat, t_start) - gs_position_vec(self.gs, t_start)))
        return t_start + tx_duration(bits, data_rate(self.params, dist)) + propagation_delay(dist)

    def round_rng(self, sat: int, round_n: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.plane_id, round_n, sat])


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
    # dense weights plus a sink-id header
    return m.dense_bits() + max(1, (num_sats - 1).bit_length())


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
    w_global: np.ndarray,
    hp: learn.HyperParams,
    t0: float,
    round_n: int,
    q_count: int,
) -> tuple[np.ndarray, RoundMetrics, float]:
    """Fold one ring round over its two arcs; returns (dense plane aggregate, metrics, t_done)."""
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
    gradients = [
        learn.gradient(state.trainer(w_global, node, hp, state.round_rng(sat, round_n)), w_global)
        for sat, node in enumerate(state.nodes)
    ]

    zero = SparseGradient.empty(m.dim) if spec.sparse else np.zeros(m.dim)  # never written to

    def step(sat: int, base):
        """Add the satellite's weighted gradient to `base`; returns (message, bits)."""
        node = state.nodes[sat]
        if spec.step is None:
            return base + node.data_size * gradients[sat], m.dense_bits()
        out, node.error = spec.step(gradients[sat], node.data_size, node.error, base, q_count)
        return out, message_bits(out, m)

    # A satellite sends once it has trained and its upstream message has
    # arrived. Hops are recorded in send order: by send time, then sends
    # that waited on their own training first (by satellite), then sends
    # that waited on an arrival, in the order of the sends that caused them.
    hops: list[tuple[tuple, tuple[int, int, int]]] = []
    arrivals = []  # (arrival time at the sink, message) per non-empty arc
    for arc in plan.arcs:
        if not arc:
            continue
        msg, t_arrive, key = zero, -math.inf, None
        chain = arc + (plan.sink_id,)
        for sat, dst in zip(chain, chain[1:]):
            t_send = max(trained_at[sat], t_arrive)
            key = (t_send, (0, sat) if trained_at[sat] >= t_arrive else (1, key))
            msg, bits = step(sat, msg)
            t_arrive = t_send + tx_duration(bits, rate) + hop_prop
            hops.append((key, (sat, dst, bits)))
        arrivals.append((t_arrive, msg))

    sink = plan.sink_id
    t_ready = max([trained_at[sink]] + [t for t, _ in arrivals])
    merged = zero
    for _, msg in arrivals:
        merged = sparse_add(merged, msg) if spec.sparse else np.add(merged, msg)
    out, bits = step(sink, merged)
    aggregate = out.densify() if spec.sparse else out

    t_done = state.ground_transfer(sink, t_ready, bits)

    hop_records = [rec for _, rec in sorted(hops)] + [(sink, GS_ID, bits)]
    return aggregate, RoundMetrics(t_done - t0, hop_records), t_done


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
        t_rx = state.ground_transfer(sat, t0, up_bits)
        hop_records.append((GS_ID, sat, up_bits))

        g = learn.gradient(state.trainer(w_global, node, hp, state.round_rng(sat, round_n)), w_global)
        out, node.error = SCHEMES[Scheme.NO_ISL_DIRECT].step(
            g, node.data_size, node.error, SparseGradient.empty(m.dim), q_count)
        bits = message_bits(out, m)
        t_sat_done = state.ground_transfer(sat, t_rx + state.compute_time_s, bits)
        hop_records.append((sat, GS_ID, bits))

        aggregate += out.densify()
        t_done = max(t_done, t_sat_done)
    return aggregate, RoundMetrics(t_done - t0, hop_records), t_done


@dataclass
class IterationMetrics:
    t_end_s: float
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
    """One synchronous FL iteration across all planes, PS update included."""
    total = np.zeros_like(w_global)
    plane_metrics = []
    t_end = t0
    for state in planes:
        if SCHEMES[scheme].ring:
            agg, pm, t_done = run_round(state, scheme, w_global, hp, t0, round_n, q_count)
        else:
            agg, pm, t_done = run_no_isl_round(state, w_global, hp, t0, round_n, q_count)
        total += agg
        plane_metrics.append(pm)
        t_end = max(t_end, t_done)
    total_data = sum(node.data_size for state in planes for node in state.nodes)
    w_next = learn.global_update(w_global, total, total_data)
    accuracy = learn.evaluate(w_next, test_set)
    return w_next, IterationMetrics(t_end, accuracy, plane_metrics), t_end
