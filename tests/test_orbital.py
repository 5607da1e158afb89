import math

import numpy as np
import pytest

from leofl.constants import CONSTANTS
from leofl.link import ring_neighbors_visible
from leofl.orbital import (
    GroundStation,
    OrbitPlane,
    _gs_los_mask,
    gs_position_vec,
    orbital_period,
    orbital_speed,
    propagate_vec,
    visibility_windows,
)
from test_reference_oracles import reference_visibility_windows

BREMEN = GroundStation(math.radians(53.08), math.radians(8.80), math.radians(10.0))


def plane(h_km=2000.0, k=8, incl_deg=85.0, raan=0.0):
    return OrbitPlane(h_km * 1e3, math.radians(incl_deg), raan, k)


def chord_perigee(a, b):
    """Smallest distance from the Earth's center to the segment a--b."""
    ab = b - a
    s = min(max(-np.dot(a, ab) / np.dot(ab, ab), 0.0), 1.0)
    return float(np.linalg.norm(a + s * ab))


def sees(p, sat, gs, t):
    return bool(_gs_los_mask(p, sat, gs, np.array([t]))[0])


class TestSpeedAndPeriod:
    # frozen closed-form evaluations with the cited constants
    def test_speed_2000km(self):
        assert orbital_speed(2000e3) == pytest.approx(6895.295, abs=0.01)

    def test_speed_500km(self):
        assert orbital_speed(500e3) == pytest.approx(7610.822, abs=0.01)

    def test_speed_monotone_decreasing(self):
        assert orbital_speed(0.0) > orbital_speed(2000e3)

    def test_period_2000km(self):
        assert orbital_period(2000e3) == pytest.approx(7627.89, abs=0.01)

    def test_period_500km(self):
        assert orbital_period(500e3) == pytest.approx(5672.42, abs=0.01)

    def test_speed_period_identity(self):
        for h in (0.0, 500e3, 2000e3):
            circumference = 2 * math.pi * (CONSTANTS.earth_radius_m + h)
            assert orbital_speed(h) * orbital_period(h) == pytest.approx(
                circumference, rel=1e-12
            )


class TestPropagate:
    def test_epoch_at_ascending_node(self):
        p = plane(raan=0.0)
        pos = propagate_vec(p, 0, 0.0)
        np.testing.assert_allclose(pos, [p.radius_m, 0.0, 0.0], atol=1e-6)

    def test_periodicity(self):
        p = plane()
        a, b = propagate_vec(p, 3, 100.0), propagate_vec(p, 3, 100.0 + p.period_s)
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-3)

    def test_radius_invariant(self):
        p = plane()
        for t in np.linspace(0, 3 * p.period_s, 50):
            assert np.linalg.norm(propagate_vec(p, 5, t)) == pytest.approx(
                p.radius_m, rel=1e-6
            )

    def test_adjacent_chord_length(self):
        p = plane(k=8)
        d = np.linalg.norm(propagate_vec(p, 0, 0.0) - propagate_vec(p, 1, 0.0))
        expected = 2 * p.radius_m * math.sin(math.pi / 8)  # ~6406.9 km
        assert d == pytest.approx(expected, rel=1e-9)
        assert d == pytest.approx(6406.886e3, abs=1e3)

    def test_neighbor_distance_constant_over_time(self):
        p = plane(k=8)
        d0 = np.linalg.norm(propagate_vec(p, 0, 0.0) - propagate_vec(p, 1, 0.0))
        for t in np.linspace(0, p.period_s, 17):
            d = np.linalg.norm(propagate_vec(p, 0, t) - propagate_vec(p, 1, t))
            assert d == pytest.approx(d0, rel=1e-6)


class TestGroundStation:
    def test_epoch_convention(self):
        gs = GroundStation(0.0, 0.0)
        pos = gs_position_vec(gs, 0.0)
        np.testing.assert_allclose(pos, [CONSTANTS.earth_radius_m, 0, 0], atol=1e-6)

    def test_half_sidereal_day(self):
        gs = GroundStation(0.0, 0.0)
        half = math.pi / CONSTANTS.earth_rotation_rate
        pos = gs_position_vec(gs, half)
        np.testing.assert_allclose(
            pos, [-CONSTANTS.earth_radius_m, 0, 0], atol=1e-3
        )

    def test_on_surface_for_all_t(self):
        gs = BREMEN
        for t in np.linspace(0, 90000, 13):
            assert np.linalg.norm(gs_position_vec(gs, float(t))) == pytest.approx(
                CONSTANTS.earth_radius_m, rel=1e-12
            )


class TestLineOfSight:
    def test_adjacent_satellites_visible(self):
        p = plane(k=8)
        assert ring_neighbors_visible(p)
        assert chord_perigee(propagate_vec(p, 0, 0.0), propagate_vec(p, 1, 0.0)) > (
            CONSTANTS.earth_radius_m)

    def test_antipodal_satellites_blocked(self):
        p = plane(k=8)
        assert chord_perigee(propagate_vec(p, 0, 0.0), propagate_vec(p, 4, 0.0)) < (
            CONSTANTS.earth_radius_m)

    @pytest.mark.parametrize("h_km", [300.0, 550.0, 1200.0, 2000.0, 8000.0])
    def test_ring_visibility_matches_propagated_chord(self, h_km):
        # the closed form against the chord between propagated neighbors,
        # at several times along the orbit
        for k in range(3, 13):
            p = plane(h_km=h_km, k=k, raan=0.4)
            for t in (0.0, 0.37 * p.period_s):
                clear = chord_perigee(propagate_vec(p, 0, t), propagate_vec(p, 1, t))
                assert ring_neighbors_visible(p) == (clear > CONSTANTS.earth_radius_m)

    def test_chord_perigee_value(self):
        # adjacent chord perigee (r_E+h) cos(pi/8) ~ 7734 km clears the Earth
        p = plane(k=8)
        assert p.radius_m * math.cos(math.pi / 8) > CONSTANTS.earth_radius_m

    def test_zenith_satellite_visible(self):
        # satellite 0 starts above (lat 0, lon 0); an 80 deg mask still sees
        # it, and not satellite 4, half a turn ahead
        gs = GroundStation(0.0, 0.0, math.radians(80.0))
        assert sees(plane(raan=0.0), 0, gs, 0.0)
        assert not sees(plane(raan=0.0), 4, gs, 0.0)


class TestVisibilityWindows:
    def test_bremen_window_exists_in_24h(self):
        p = plane()
        windows = visibility_windows(p, 0, BREMEN, 0.0, 86400.0)
        assert windows

    def test_empty_horizon(self):
        assert visibility_windows(plane(), 0, BREMEN, 100.0, 100.0) == []

    def test_windows_sorted_disjoint_and_valid(self):
        p = plane()
        windows = visibility_windows(p, 2, BREMEN, 0.0, 86400.0)
        assert windows
        for w in windows:
            assert w.start_s < w.end_s
            mid = 0.5 * (w.start_s + w.end_s)
            assert sees(p, 2, BREMEN, mid)
        for a, b in zip(windows, windows[1:]):
            assert a.end_s < b.start_s

    def test_stable_under_halved_step(self):
        p = plane()
        coarse = visibility_windows(p, 1, BREMEN, 0.0, 43200.0)
        fine = reference_visibility_windows(p, 1, BREMEN, 0.0, 43200.0, step_s=2.5)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.start_s - b.start_s) < 2.0
            assert abs(a.end_s - b.end_s) < 2.0
