import math

import pytest

from leofl.link import (
    LinkParams,
    data_rate,
    db_to_linear,
    dbm_to_watts,
    path_loss,
    propagation_delay,
    ring_neighbor_distance,
    snr,
    tx_duration,
)
from leofl.orbital import OrbitPlane

# link parameters of the reference constellation
PARAMS = LinkParams(
    tx_power_dbm=40.0,
    gain_tx_dbi=32.13,
    gain_rx_dbi=32.13,
    bandwidth_hz=500e6,
    carrier_hz=20e9,
    noise_temp_k=354.0,
)
NEIGHBOR_D = 6406.886e3  # adjacent chord, 8 satellites at 2000 km


def plane(h_km=2000.0, k=8):
    return OrbitPlane(h_km * 1e3, math.radians(85.0), 0.0, k)


class TestPathLoss:
    def test_1000km_20ghz(self):
        assert 10 * math.log10(path_loss(1000e3, 20e9)) == pytest.approx(178.468, abs=0.01)

    def test_neighbor_distance(self):
        assert 10 * math.log10(path_loss(NEIGHBOR_D, 20e9)) == pytest.approx(194.60, abs=0.01)

    def test_square_law(self):
        assert path_loss(2 * 1234e3, 20e9) == pytest.approx(4 * path_loss(1234e3, 20e9))

    def test_db_round_trip(self):
        loss = path_loss(777e3, 20e9)
        assert db_to_linear(10 * math.log10(loss)) == pytest.approx(loss, rel=1e-9)


class TestSnr:
    def test_reference_point(self):
        # dB chain: 10 dBW + 64.26 dB gains - 194.60 dB loss + 116.1 dBW noise floor
        assert snr(PARAMS, NEIGHBOR_D) == pytest.approx(0.378, abs=0.001)

    def test_monotone_in_distance(self):
        values = [snr(PARAMS, d) for d in (1e6, 2e6, 4e6, 8e6)]
        assert values == sorted(values, reverse=True)

    def test_dbm_conversion(self):
        assert dbm_to_watts(40.0) == pytest.approx(10.0)


class TestDataRate:
    def test_snr_one_gives_bandwidth(self):
        # pick the distance where SNR is exactly 1
        lo, hi = 1e5, 1e8
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if snr(PARAMS, mid) > 1.0:
                lo = mid
            else:
                hi = mid
        assert data_rate(PARAMS, lo) == pytest.approx(PARAMS.bandwidth_hz, rel=1e-6)

    def test_reference_point(self):
        assert data_rate(PARAMS, NEIGHBOR_D) == pytest.approx(2.314e8, rel=1e-3)

    def test_monotone_in_ring_size(self):
        # the ISL rate: closer ring neighbors give a faster link
        rates = [data_rate(PARAMS, ring_neighbor_distance(plane(k=k))) for k in (6, 8, 12, 20)]
        assert rates == sorted(rates)


class TestTxDuration:
    def test_zero_bits(self):
        assert tx_duration(0, 1e6) == 0.0

    def test_reference_division(self):
        assert tx_duration(2_009_600, 2.31e8) == pytest.approx(8.7e-3, abs=2e-4)

    def test_linearity(self):
        assert tx_duration(2 * 12345, 3e7) == pytest.approx(2 * tx_duration(12345, 3e7))

    def test_propagation_delay(self):
        assert propagation_delay(299_792_458.0) == pytest.approx(1.0)
