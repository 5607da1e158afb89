"""Link budget: free-space path loss, SNR, Shannon rate, and transfer delays.

The channel model is deterministic: fixed transmit power, average antenna
gains, and thermal noise N0 = k_B * T * B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .orbital import OrbitPlane


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkParams:
    """The config's `link` section."""

    tx_power_dbm: float = 40.0
    gain_tx_dbi: float = 32.13
    gain_rx_dbi: float = 32.13
    bandwidth_hz: float = 500e6
    carrier_hz: float = 20e9
    noise_temp_k: float = 354.0


def path_loss(distance_m: float, carrier_hz: float) -> float:
    """Free-space path loss (4*pi*f*d/c)^2 as a linear power ratio."""
    x = 4.0 * math.pi * carrier_hz * distance_m / CONSTANTS.light_speed
    return x * x


def snr(params: LinkParams, distance_m: float) -> float:
    """Received SNR as a linear ratio."""
    loss = path_loss(distance_m, params.carrier_hz)
    gain = db_to_linear(params.gain_tx_dbi) * db_to_linear(params.gain_rx_dbi)
    noise_w = CONSTANTS.boltzmann * params.noise_temp_k * params.bandwidth_hz
    return dbm_to_watts(params.tx_power_dbm) * gain / (noise_w * loss)


def data_rate(params: LinkParams, distance_m: float) -> float:
    """Shannon rate B*log2(1+SNR) in bits/s."""
    return params.bandwidth_hz * math.log2(1.0 + snr(params, distance_m))


def ring_neighbor_distance(plane: OrbitPlane) -> float:
    """Chord length between adjacent satellites of an equidistant ring."""
    return 2.0 * plane.radius_m * math.sin(math.pi / plane.num_sats)


def ring_neighbors_visible(plane: OrbitPlane) -> bool:
    """Adjacent-neighbor chords clear the Earth iff their perigee exceeds r_E."""
    return plane.radius_m * math.cos(math.pi / plane.num_sats) > CONSTANTS.earth_radius_m


def tx_duration(bits: float, rate_bps: float) -> float:
    """Serialization delay of a message; propagation delay is the caller's job."""
    return bits / rate_bps


def propagation_delay(distance_m: float) -> float:
    return distance_m / CONSTANTS.light_speed
