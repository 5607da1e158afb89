"""Output checks for the benchmark, computed apart from the simulator.

Every check takes plain values (bit counts, vectors, times, window edges) and
raises `CheckError` when the value breaks a property the method must have or a
figure derived from the configuration. None of them compares against a stored
copy of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np

GS_ID = -1  # hop endpoint that stands for the ground station
VALUE_BITS = 32


class CheckError(AssertionError):
    """An output of the simulator is wrong."""


def entry_bits(n_d: int) -> int:
    """Bits of one sparse entry: a 32-bit value plus a ceil(log2 n_d)-bit index."""
    return VALUE_BITS + math.ceil(math.log2(n_d))


def q_entries(q: float, n_d: int) -> int:
    return max(1, math.ceil(q * n_d))


def _fail(msg: str):
    raise CheckError(msg)


def check_dense_budget(total_bits: int, planes: int, k: int, n_d: int):
    """DENSE_IA: every one of the P*K messages carries the full model."""
    want = planes * k * n_d * VALUE_BITS
    if total_bits != want:
        _fail(f"DENSE_IA iteration carried {total_bits} bits, expected P*K*n_d*32 = {want}")


def check_clsia_hops(hops: list[tuple[int, int, int]], k: int, n_d: int, q: int):
    """CL-SIA: each of the K hops of a plane carries exactly Q entries."""
    want = q * entry_bits(n_d)
    if len(hops) != k:
        _fail(f"CL-SIA plane sent {len(hops)} messages, expected K = {k}")
    for src, dst, bits in hops:
        if bits != want:
            _fail(f"CL-SIA hop {src}->{dst} carried {bits} bits, expected Q*(32+ceil(log2 n_d)) = {want}")


def contributors(hops: list[tuple[int, int, int]]) -> dict[int, int]:
    """Number of satellites whose update each sender's message can hold.

    A satellite at the far end of an arc counts 1; every other sender counts
    itself plus everything its upstream neighbours sent it. The sink therefore
    counts the whole ring.
    """
    upstream: dict[int, list[int]] = {}
    for src, dst, _ in hops:
        if dst != GS_ID:
            upstream.setdefault(dst, []).append(src)
    counts: dict[int, int] = {}

    def count(sat: int, depth: int = 0) -> int:
        if depth > len(hops):
            _fail("hop records contain a cycle")
        if sat not in counts:
            counts[sat] = 1 + sum(count(u, depth + 1) for u in upstream.get(sat, []))
        return counts[sat]

    for src, _, _ in hops:
        count(src)
    return counts


def check_sia_hops(hops: list[tuple[int, int, int]], k: int, n_d: int, q: int):
    """SIA: the j-th sender of an arc carries at most min(n_d, j*Q) entries."""
    eb = entry_bits(n_d)
    if len(hops) != k or sum(1 for _, dst, _ in hops if dst == GS_ID) != 1:
        _fail(f"SIA plane sent {len(hops)} messages, expected K-1 ring hops and one downlink")
    counts = contributors(hops)
    for src, dst, bits in hops:
        j = counts[src]
        cap = min(n_d, j * q)
        if bits % eb or bits // eb > cap:
            _fail(f"SIA hop {src}->{dst} (j={j}) carried {bits} bits, allowed {eb} per entry "
                  f"and at most min(n_d, j*Q) = {cap} entries")
        if dst == GS_ID and j != k:
            _fail(f"SIA sink aggregate holds {j} satellites, expected K = {k}")


def check_no_isl_hops(hops: list[tuple[int, int, int]], k: int, n_d: int, q: int):
    """No-ISL baseline: K dense uplinks and K downlinks of at most Q entries."""
    eb = entry_bits(n_d)
    up = [bits for src, _, bits in hops if src == GS_ID]
    down = [(src, bits) for src, dst, bits in hops if dst == GS_ID]
    if len(up) != k or len(down) != k or len(hops) != 2 * k:
        _fail(f"no-ISL plane made {len(up)} uplinks and {len(down)} downlinks, expected {k} each")
    if sum(up) != k * n_d * VALUE_BITS:
        _fail(f"no-ISL uplinks carried {sum(up)} bits, expected K*n_d*32 = {k * n_d * VALUE_BITS}")
    for src, bits in down:
        if bits % eb or bits // eb > q:
            _fail(f"no-ISL downlink of satellite {src} carried {bits} bits, "
                  f"allowed at most Q = {q} entries of {eb} bits")


def check_sweep(sia: dict[int, float], clsia: dict[int, float], n_d: int, q: int):
    """Sweep: SIA bits per satellite rise strictly with K; SIA/CL-SIA >= 4 at the largest K."""
    ks = sorted(sia)
    for k in ks:
        if clsia[k] != k * q * entry_bits(n_d):
            _fail(f"CL-SIA at K={k} carried {clsia[k]} bits per iteration, expected {k * q * entry_bits(n_d)}")
    per_sat = [sia[k] / k for k in ks]
    for (ka, a), (kb, b) in zip(zip(ks, per_sat), zip(ks[1:], per_sat[1:])):
        if not a < b:
            _fail(f"SIA bits per satellite do not rise from K={ka} ({a}) to K={kb} ({b})")
    ratio = sia[ks[-1]] / clsia[ks[-1]]
    if ratio < 4.0:
        _fail(f"SIA/CL-SIA bit ratio at K={ks[-1]} is {ratio:.3f}, expected at least 4")


def check_conservation(aggregate, new_residuals, weighted_updates, old_residuals, rel: float = 1e-9):
    """Error feedback loses no update mass: sent + kept = computed + carried over."""
    lhs = np.asarray(aggregate) + np.asarray(new_residuals)
    rhs = np.asarray(weighted_updates) + np.asarray(old_residuals)
    scale = max(float(np.abs(rhs).max()), 1e-300)
    err = float(np.abs(lhs - rhs).max()) / scale
    if not err <= rel:
        _fail(f"update mass not conserved: relative deviation {err:.3e} > {rel:g}")


def accuracy_of(w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of the flat logistic-regression weights, first maximum wins."""
    n, f = features.shape
    weights = np.asarray(w).reshape(-1, f + 1)
    logits = np.concatenate([features, np.ones((n, 1))], axis=1) @ weights.T
    hits = 0
    best = logits.max(axis=1)
    for row, top, label in zip(logits, best, labels):
        hits += int(np.flatnonzero(row == top)[0] == label)
    return hits / n


def check_accuracy(reported: float, recomputed: float, floor: float):
    """The reported accuracy is the recomputed one and reaches `floor`."""
    if reported != recomputed:
        _fail(f"reported accuracy {reported} differs from recomputed {recomputed}")
    if not recomputed >= floor:
        _fail(f"accuracy {recomputed} is not well above chance (needs >= {floor})")


def check_time_increasing(times: list[float], t0: float = 0.0):
    prev = t0
    for n, t in enumerate(times, start=1):
        if not t > prev:
            _fail(f"simulated time does not increase at iteration {n}: {prev} -> {t}")
        prev = t


def elevation_rad(plane: dict, sat: int, station: dict, t, consts) -> np.ndarray:
    """Elevation of one satellite above the station's horizon, circular orbit, spherical Earth."""
    t = np.asarray(t, dtype=float)
    r = consts.earth_radius_m + plane["altitude_m"]
    period = 2.0 * math.pi * math.sqrt(r**3 / consts.mu)
    u = 2.0 * math.pi * (sat / plane["num_sats"] + t / period)
    raan, inc = plane["raan_rad"], plane["inclination_rad"]
    node = np.array([math.cos(raan), math.sin(raan), 0.0])
    ahead = np.array([-math.sin(raan) * math.cos(inc), math.cos(raan) * math.cos(inc), math.sin(inc)])
    pos = r * (np.cos(u)[..., None] * node + np.sin(u)[..., None] * ahead)
    lon = station["longitude_rad"] + consts.earth_rotation_rate * t
    lat = station["latitude_rad"]
    up = np.stack([math.cos(lat) * np.cos(lon), math.cos(lat) * np.sin(lon),
                   math.sin(lat) * np.ones_like(lon)], axis=-1)
    rel = pos - consts.earth_radius_m * up
    return np.arcsin(np.sum(rel * up, axis=-1) / np.linalg.norm(rel, axis=-1))


def check_windows(windows: list[tuple[float, float]], elevation, min_el: float,
                  t_start: float, t_end: float, edge_s: float = 1.0, inner: int = 7):
    """Windows are ordered and disjoint, visible inside, and not visible edge_s beyond a refined edge.

    `elevation(t)` gives the benchmark's own elevation at the times in array t.
    Edges clipped to [t_start, t_end] have nothing outside them to check.
    """
    prev_end = -math.inf
    for start, end in windows:
        if not (t_start <= start < end <= t_end) or start <= prev_end:
            _fail(f"window [{start}, {end}] is out of order or outside [{t_start}, {t_end}]")
        prev_end = end
        inside = np.linspace(start, end, inner)
        if not np.all(elevation(inside) >= min_el):
            _fail(f"window [{start}, {end}] holds a time below the elevation mask")
        outside = [x for x, keep in ((start - edge_s, start > t_start), (end + edge_s, end < t_end)) if keep]
        if outside and np.any(elevation(np.asarray(outside)) >= min_el):
            _fail(f"window [{start}, {end}] is visible {edge_s} s beyond a refined edge")
