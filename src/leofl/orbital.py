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


class GeometryError(ValueError):
    """Raised for invalid orbital geometry inputs."""


@dataclass(frozen=True)
class OrbitPlane:
    altitude_m: float
    inclination_rad: float
    raan_rad: float
    num_sats: int

    def __post_init__(self):
        if self.altitude_m <= 0:
            raise GeometryError(f"altitude must be positive, got {self.altitude_m}")
        if self.num_sats < 2:
            raise GeometryError(f"need at least 2 satellites, got {self.num_sats}")

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
    min_elevation_rad: float = math.radians(10.0)

    def __post_init__(self):
        if abs(self.latitude_rad) > math.pi / 2:
            raise GeometryError("latitude out of range")
        if not 0 <= self.min_elevation_rad < math.pi / 2:
            raise GeometryError("min elevation must be in [0, pi/2)")


@dataclass(frozen=True)
class VisibilityWindow:
    start_s: float
    end_s: float

    def __post_init__(self):
        if self.start_s >= self.end_s:
            raise GeometryError("window start must precede end")


def orbital_speed(altitude_m: float) -> float:
    """Circular-orbit speed at the given altitude, m/s."""
    if altitude_m < 0:
        raise GeometryError(f"altitude must be non-negative, got {altitude_m}")
    return math.sqrt(CONSTANTS.mu / (CONSTANTS.earth_radius_m + altitude_m))


def orbital_period(altitude_m: float) -> float:
    """Orbital period at the given altitude, seconds."""
    r = CONSTANTS.earth_radius_m + altitude_m
    return 2.0 * math.pi * r / orbital_speed(altitude_m)


def _plane_basis(plane: OrbitPlane) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal in-plane basis: node direction and the 90-deg-ahead direction."""
    co, so = math.cos(plane.raan_rad), math.sin(plane.raan_rad)
    ci, si = math.cos(plane.inclination_rad), math.sin(plane.inclination_rad)
    # ascending-node direction and its in-plane orthogonal (argument of latitude 90 deg)
    u0 = np.array([co, so, 0.0])
    u1 = np.array([-so * ci, co * ci, si])
    return u0, u1


def propagate_vec(plane: OrbitPlane, sat_index: int, time_s) -> np.ndarray:
    """ECI position(s) of one satellite; vectorized over time_s, shape (..., 3)."""
    if not 0 <= sat_index < plane.num_sats:
        raise IndexError(f"satellite index {sat_index} out of range for K_p={plane.num_sats}")
    t = np.asarray(time_s, dtype=float)
    # argument of latitude
    u = 2.0 * math.pi * sat_index / plane.num_sats + 2.0 * math.pi * t / plane.period_s
    u0, u1 = _plane_basis(plane)
    r = plane.radius_m
    return r * (np.cos(u)[..., None] * u0 + np.sin(u)[..., None] * u1)


def gs_position_vec(gs: GroundStation, time_s) -> np.ndarray:
    """ECI position(s) of the station on the rotating Earth; shape (..., 3)."""
    t = np.asarray(time_s, dtype=float)
    lon = gs.longitude_rad + CONSTANTS.earth_rotation_rate * t
    clat = math.cos(gs.latitude_rad)
    slat = math.sin(gs.latitude_rad)
    r = CONSTANTS.earth_radius_m
    return r * np.stack(
        [clat * np.cos(lon), clat * np.sin(lon), slat * np.ones_like(lon)], axis=-1
    )


def _elevation_ok(sat: np.ndarray, station: np.ndarray, min_elevation_rad) -> np.ndarray:
    rel = sat - station
    rng = np.linalg.norm(rel, axis=-1)
    up = station / np.linalg.norm(station, axis=-1, keepdims=True)
    sin_el = np.sum(rel * up, axis=-1) / rng
    return np.arcsin(np.clip(sin_el, -1.0, 1.0)) >= min_elevation_rad


def _reach_angle(plane: OrbitPlane, min_elevation_rad: float) -> float:
    """Earth-central angle between station and satellite at which the elevation is the mask eps.

    The elevation falls as the central angle grows, so a satellite is at or
    above eps exactly when the angle is at most arccos(r_E / r * cos eps) - eps.
    """
    cos_reach = CONSTANTS.earth_radius_m / plane.radius_m * math.cos(min_elevation_rad)
    return math.acos(cos_reach) - min_elevation_rad


def max_visible_latitude(plane: OrbitPlane, min_elevation_rad: float) -> float:
    """Largest |latitude| (rad) from which a station ever sees a satellite of the plane.

    The ground track reaches latitude asin(|sin i|), which is min(i, pi - i)
    for i in [0, pi]; a station sees a satellite up to the reach angle from
    its sub-satellite point.
    """
    track = math.asin(abs(math.sin(plane.inclination_rad)))
    return track + _reach_angle(plane, min_elevation_rad)


def max_slant_range(plane: OrbitPlane, min_elevation_rad: float) -> float:
    """Station-satellite distance at the elevation mask, the longest a window allows."""
    r_e = CONSTANTS.earth_radius_m
    return (math.sqrt(plane.radius_m ** 2 - (r_e * math.cos(min_elevation_rad)) ** 2)
            - r_e * math.sin(min_elevation_rad))


def _gs_los_mask(plane: OrbitPlane, sat_index: int, gs: GroundStation, times: np.ndarray) -> np.ndarray:
    sats = propagate_vec(plane, sat_index, times)
    stations = gs_position_vec(gs, times)
    return _elevation_ok(sats, stations, gs.min_elevation_rad)


# visibility is sampled every STEP_S seconds and each LOS transition is then
# bisected to within EDGE_TOL_S
STEP_S = 5.0
EDGE_TOL_S = 1.0
# the window screen: one grid sample in SCREEN_STRIDE has its central angle
# tested; the slack absorbs rounding in the angle and in the grid times
SCREEN_STRIDE = 12
_SCREEN_SLACK_RAD = 1e-6


def _screened_los_mask(plane: OrbitPlane, sat_index: int, gs: GroundStation,
                       times: np.ndarray) -> np.ndarray:
    """`_gs_los_mask` on a grid of times STEP_S apart, evaluated only near the station.

    The central angle between satellite and station changes by at most
    2 pi / T + |omega_E| rad/s. Every SCREEN_STRIDE-th sample and the last one
    are screened: one whose angle exceeds the reach angle by more than that
    rate times a stride is followed and preceded by a stride of invisible
    samples. A sample is tested exactly when a screened sample bracketing it
    passes; the others are invisible, so the result equals the full mask.
    The screen limit stays below pi: the reach angle is at most pi / 2, and
    a 60 s stride adds at most 0.079 rad at any altitude above 0.
    """
    rate = 2.0 * math.pi / plane.period_s + abs(CONSTANTS.earth_rotation_rate)
    limit = (_reach_angle(plane, gs.min_elevation_rad) + rate * (SCREEN_STRIDE * STEP_S)
             + _SCREEN_SLACK_RAD)
    n = len(times)
    coarse = np.append(np.arange(0, n - 1, SCREEN_STRIDE), n - 1)
    cos_angle = np.sum(propagate_vec(plane, sat_index, times[coarse])
                       * gs_position_vec(gs, times[coarse]), axis=-1)
    near = cos_angle >= math.cos(limit) * plane.radius_m * CONSTANTS.earth_radius_m
    # sample i lies between screened samples j and j + 1, the last one is screened itself
    test = np.append(np.repeat(near[:-1] | near[1:], np.diff(coarse)), near[-1])
    idx = np.flatnonzero(test)
    mask = np.zeros(n, dtype=bool)
    mask[idx] = _gs_los_mask(plane, sat_index, gs, times[idx])
    return mask


def _refine_edges(
    plane, sat_index, gs, t_lo: np.ndarray, t_hi: np.ndarray, rising: np.ndarray
) -> np.ndarray:
    """Bisect every LOS transition in (t_lo, t_hi] together to within EDGE_TOL_S.

    Each halving evaluates all still-wide edges in one call; a rising edge
    resolves to its upper bound, a falling one to its lower bound.
    """
    lo, hi = t_lo.copy(), t_hi.copy()
    active = np.flatnonzero(hi - lo > EDGE_TOL_S)
    while len(active):
        mid = 0.5 * (lo[active] + hi[active])
        up = _gs_los_mask(plane, sat_index, gs, mid) == rising[active]
        hi[active[up]] = mid[up]
        lo[active[~up]] = mid[~up]
        active = active[hi[active] - lo[active] > EDGE_TOL_S]
    return np.where(rising, hi, lo)


def visibility_windows(
    plane: OrbitPlane, sat_index: int, gs: GroundStation, t_start: float, t_end: float
) -> list[VisibilityWindow]:
    """Maximal LOS intervals of one satellite to the station within [t_start, t_end]."""
    if t_start >= t_end:
        return []
    times = np.arange(t_start, t_end + STEP_S, STEP_S)
    times[-1] = min(times[-1], t_end)
    mask = _screened_los_mask(plane, sat_index, gs, times)

    # edge k lies between samples k and k+1; windows open at rising edges
    edges = np.flatnonzero(mask[1:] != mask[:-1])
    rising = mask[edges + 1]
    refined = _refine_edges(plane, sat_index, gs, times[edges], times[edges + 1], rising)
    starts = refined[rising]
    ends = refined[~rising]
    if mask[0]:
        starts = np.concatenate([times[:1], starts])
    if mask[-1]:
        ends = np.concatenate([ends, times[-1:]])

    windows = []
    for start, end in zip(starts, ends):
        start = max(start, t_start)
        end = min(end, t_end)
        if start < end:
            windows.append(VisibilityWindow(float(start), float(end)))
    return windows
