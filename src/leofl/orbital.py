"""Circular-orbit propagation, ground-station geometry, and visibility windows.

Satellites move on uniform circular orbits; the Earth is a rotating sphere.
All positions are expressed in an Earth-centered inertial frame whose x-axis
points at the ground meridian of longitude 0 at t=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS


@dataclass(frozen=True)
class OrbitPlane:
    altitude_m: float
    inclination_rad: float
    raan_rad: float
    num_sats: int

    @property
    def radius_m(self) -> float:
        return CONSTANTS.earth_radius_m + self.altitude_m

    @property
    def period_s(self) -> float:
        return orbital_period(self.altitude_m)


@dataclass(frozen=True)
class GroundStation:
    latitude_rad: float
    longitude_rad: float
    min_elevation_rad: float


@dataclass(frozen=True)
class VisibilityWindow:
    start_s: float
    end_s: float


def orbital_speed(altitude_m: float) -> float:
    """Circular-orbit speed at the given altitude, m/s."""
    return math.sqrt(CONSTANTS.mu / (CONSTANTS.earth_radius_m + altitude_m))


def orbital_period(altitude_m: float) -> float:
    """Orbital period at the given altitude, seconds."""
    r = CONSTANTS.earth_radius_m + altitude_m
    return 2.0 * math.pi * r / orbital_speed(altitude_m)


def period_altitude(period_s: float) -> float:
    """Altitude of the circular orbit with the given period, m; the inverse of orbital_period."""
    radius_m = (CONSTANTS.mu * (period_s / (2.0 * math.pi)) ** 2) ** (1.0 / 3.0)
    return radius_m - CONSTANTS.earth_radius_m


def _plane_basis(plane: OrbitPlane) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Orthonormal in-plane basis: node direction and the 90-deg-ahead direction."""
    co, so = math.cos(plane.raan_rad), math.sin(plane.raan_rad)
    ci, si = math.cos(plane.inclination_rad), math.sin(plane.inclination_rad)
    # ascending-node direction and its in-plane orthogonal (argument of latitude 90 deg)
    return (co, so, 0.0), (-so * ci, co * ci, si)


# The geometry below works on columns: x, y and z are separate arrays. A sum
# over three components is written (x + y) + z, which is the order numpy's
# reduction over a length-3 axis uses, so a column result equals the row form
# np.sum(..., axis=-1) bit for bit at a fraction of its per-call cost.

def _sat_xyz(plane: OrbitPlane, sat_index, time_s) -> tuple[np.ndarray, ...]:
    """ECI x, y, z of satellites; sat_index (int or array) broadcasts against time_s."""
    t = np.asarray(time_s, dtype=float)
    # argument of latitude
    u = 2.0 * math.pi * sat_index / plane.num_sats + 2.0 * math.pi * t / plane.period_s
    c, s = np.cos(u), np.sin(u)
    r = plane.radius_m
    (ax, ay, az), (bx, by, bz) = _plane_basis(plane)
    # spelled out: on CPython 3.11 each tuple(generator) call leaves one count
    # in the cyclic GC's youngest generation, which moves its collections
    return r * (c * ax + s * bx), r * (c * ay + s * by), r * (c * az + s * bz)


def _gs_xyz(gs: GroundStation, time_s) -> tuple:
    """ECI x, y arrays and the constant z of the station on the rotating Earth."""
    t = np.asarray(time_s, dtype=float)
    lon = gs.longitude_rad + CONSTANTS.earth_rotation_rate * t
    clat = math.cos(gs.latitude_rad)
    r = CONSTANTS.earth_radius_m
    return r * (clat * np.cos(lon)), r * (clat * np.sin(lon)), r * math.sin(gs.latitude_rad)


def station_distance(plane: OrbitPlane, sat_index: int, gs: GroundStation, time_s: float) -> float:
    """Satellite-station distance at one time, m: np.linalg.norm of the 3-vector, a BLAS
    dot that can differ from the column form sqrt((x*x + y*y) + z*z) in the last bit."""
    return float(np.linalg.norm(np.subtract(_sat_xyz(plane, sat_index, time_s),
                                            _gs_xyz(gs, time_s))))


def _elevation_ok(sat: tuple, station: tuple, min_elevation_rad) -> np.ndarray:
    """Whether each satellite is at or above the mask; sat and station are (x, y, z) columns."""
    (sx, sy, sz), (gx, gy, gz) = sat, station
    rx, ry, rz = sx - gx, sy - gy, sz - gz
    rng = np.sqrt(rx * rx + ry * ry + rz * rz)
    norm = np.sqrt(gx * gx + gy * gy + gz * gz)
    sin_el = (rx * (gx / norm) + ry * (gy / norm) + rz * (gz / norm)) / rng
    return np.arcsin(np.clip(sin_el, -1.0, 1.0)) >= min_elevation_rad


def _reach_angle(plane: OrbitPlane, min_elevation_rad: float) -> float:
    """Earth-central angle between station and satellite at which the elevation is the mask eps.

    The elevation falls as the central angle grows, so a satellite is at or
    above eps exactly when the angle is at most arccos(r_E / r * cos eps) - eps.
    """
    cos_reach = CONSTANTS.earth_radius_m / plane.radius_m * math.cos(min_elevation_rad)
    return math.acos(cos_reach) - min_elevation_rad


def max_slant_range(plane: OrbitPlane, min_elevation_rad: float) -> float:
    """Station-satellite distance at the elevation mask, the longest a window allows."""
    r_e = CONSTANTS.earth_radius_m
    return (math.sqrt(plane.radius_m ** 2 - (r_e * math.cos(min_elevation_rad)) ** 2)
            - r_e * math.sin(min_elevation_rad))


def _gs_los_mask(plane: OrbitPlane, sat_index, gs: GroundStation, times: np.ndarray) -> np.ndarray:
    """LOS of satellite(s) sat_index at times; an index array pairs element-wise with times."""
    return _elevation_ok(_sat_xyz(plane, sat_index, times), _gs_xyz(gs, times),
                         gs.min_elevation_rad)


# visibility is sampled every STEP_S seconds and each LOS transition is then
# bisected to within EDGE_TOL_S
STEP_S = 5.0
EDGE_TOL_S = 1.0
# the window screen: one grid sample in SCREEN_STRIDE has its central angle
# tested; the slack absorbs rounding in the angle and in the grid times
SCREEN_STRIDE = 12
_SCREEN_SLACK_RAD = 1e-6


def _screen(plane: OrbitPlane, sats: np.ndarray, gs: GroundStation,
            times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brackets of a grid of times STEP_S apart, per satellite: (screened, lit, edge).

    Bracket j runs from sample screened[j] to screened[j + 1], at most a
    stride; lit and edge are (len(sats), brackets) booleans, the rest dark.
    Within a bracket the central angle to the station changes by at most
    m = (2 pi / T + |omega_E|) * stride, so a bracket with an end beyond the
    reach angle plus m is dark throughout and one with an end within the
    reach angle minus m lit throughout: only edge brackets hold transitions.
    """
    rate = 2.0 * math.pi / plane.period_s + abs(CONSTANTS.earth_rotation_rate)
    margin = rate * (SCREEN_STRIDE * STEP_S) + _SCREEN_SLACK_RAD
    reach = _reach_angle(plane, gs.min_elevation_rad)
    screened = np.append(np.arange(0, max(len(times) - 1, 1), SCREEN_STRIDE), len(times) - 1)
    sx, sy, sz = _sat_xyz(plane, sats[:, None], times[screened])
    gx, gy, gz = _gs_xyz(gs, times[screened])
    cos_angle = sx * gx + sy * gy + sz * gz  # the cosine times both radii
    scale = plane.radius_m * CONSTANTS.earth_radius_m
    far = cos_angle < math.cos(reach + margin) * scale
    # when reach <= m no sample is certainly lit
    near = cos_angle > (math.cos(reach - margin) if reach > margin else math.inf) * scale
    dark, lit = far[:, :-1] | far[:, 1:], near[:, :-1] | near[:, 1:]
    return screened, lit, ~(dark | lit)


def _refine_edges(plane, sats, gs, lo: np.ndarray, hi: np.ndarray,
                  rising: np.ndarray) -> np.ndarray:
    """Bisect every LOS transition of satellite sats[i] in (lo[i], hi[i]] to within EDGE_TOL_S.

    Each halving evaluates all still-wide edges of every satellite in one call;
    a rising edge resolves to its upper bound, a falling one to its lower
    bound. lo and hi are updated in place.
    """
    active = np.flatnonzero(hi - lo > EDGE_TOL_S)
    while len(active):
        mid = 0.5 * (lo[active] + hi[active])
        up = _gs_los_mask(plane, sats[active], gs, mid) == rising[active]
        hi[active[up]] = mid[up]
        lo[active[~up]] = mid[~up]
        active = active[hi[active] - lo[active] > EDGE_TOL_S]
    return np.where(rising, hi, lo)


def visibility_windows(plane: OrbitPlane, sat_index, gs: GroundStation,
                       t_start: float, t_end: float) -> list:
    """Maximal LOS intervals to the station within [t_start, t_end].

    For an int sat_index, that satellite's windows; for a 1-d array of
    indices, one list per satellite, all found in one pass over the plane.
    """
    sats = np.atleast_1d(sat_index)
    windows = [[] for _ in sats]
    if t_start < t_end:
        times = np.arange(t_start, t_end + STEP_S, STEP_S)
        times[-1] = min(times[-1], t_end)
        screened, _, edge = _screen(plane, sats, gs, times)
        # each edge bracket is one row of samples; a short last bracket
        # repeats its end sample, which adds no transition
        b_row, b_col = np.nonzero(edge)
        sample = np.minimum(screened[b_col, None] + np.arange(SCREEN_STRIDE + 1),
                            screened[b_col + 1, None])
        los = _gs_los_mask(plane, sats[b_row, None], gs, times[sample])
        e, c = np.nonzero(los[:, 1:] != los[:, :-1])
        edges = _refine_edges(plane, sats[b_row[e]], gs, times[sample[e, c]],
                              times[sample[e, c + 1]], los[e, c + 1])
        # a window may also open at the first sample or close at the last
        opens, closes = _gs_los_mask(plane, sats[:, None], gs, times[[0, -1]]).T
        row = np.concatenate([np.flatnonzero(opens), b_row[e], np.flatnonzero(closes)])
        at = np.concatenate([np.full(opens.sum(), times[0]), edges,
                             np.full(closes.sum(), times[-1])])
        # per satellite: its opening, its edges in time order, its closing;
        # each rises first and then alternates, so windows are consecutive pairs
        order = np.argsort(row, kind="stable")
        row, at = row[order], at[order]
        starts, ends = at[0::2], at[1::2]
        keep = starts < ends
        for k, start, end in zip(row[0::2][keep].tolist(), starts[keep].tolist(),
                                 ends[keep].tolist()):
            windows[k].append(VisibilityWindow(start, end))
    return windows if np.ndim(sat_index) else windows[0]
