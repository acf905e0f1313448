"""Ground-to-air radio link: the probabilistic LoS/NLoS model.

All helpers accept scalars or arrays of numbers and broadcast; each numeric
argument goes through `errors.float_array`, so any other input is a
ConfigError naming the argument, and shapes that do not broadcast are one
naming each argument (`errors.broadcast_error`). Path losses are in dB,
spectral efficiencies in bits/second/Hz. The carrier is stored in MHz: the -27.56 constant in the
free-space term assumes a MHz carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FINITE, POSITIVE, ConfigError, broadcast_error, check_array,
                     check_numbers, float_array)


_RULES = {"a": POSITIVE, "b": POSITIVE, "eta_los_db": FINITE, "eta_nlos_db": FINITE,
          "carrier_mhz": POSITIVE, "noise_g2a_watts": POSITIVE, "bw_g2a_hz": POSITIVE}


@dataclass(frozen=True)
class ChannelParams:
    a: float = 9.61                 # environment constant (urban)
    b: float = 0.16
    eta_los_db: float = 1.0         # excess loss on LoS links
    eta_nlos_db: float = 20.0       # excess loss on NLoS links
    carrier_mhz: float = 2000.0
    noise_g2a_watts: float = 1e-10  # -70 dBm
    bw_g2a_hz: float = 20e6         # per-UAV uplink band

    def __post_init__(self):
        check_numbers(self, _RULES)
        if self.eta_los_db > self.eta_nlos_db:
            raise ConfigError(f"need eta_los_db <= eta_nlos_db, "
                              f"got {self.eta_los_db} > {self.eta_nlos_db}")


def elevation_deg_from_geometry(altitude_m, reference_dist_m):
    """Elevation angle in degrees from UAV altitude and the horizontal distance.

    Coincident horizontal positions give 90 degrees exactly.
    """
    alt = float_array(altitude_m, "altitude_m")
    ref = float_array(reference_dist_m, "reference_dist_m")
    try:   # max(ref, 1e-300) > 0 keeps the division finite; coincident points get +inf
        ratio = np.where(ref > 0, alt / np.maximum(ref, 1e-300), np.inf)
    except ValueError:
        raise broadcast_error(altitude_m=alt, reference_dist_m=ref) from None
    return np.degrees(np.arctan(ratio))


def los_probability_from_angle(theta_deg, params: ChannelParams):
    theta = float_array(theta_deg, "theta_deg")
    return 1.0 / (1.0 + params.a * np.exp(-params.b * (theta - params.a)))


def free_space_loss_db(dist_m, carrier_mhz):
    """Free-space term, distance in meters (finite and > 0), carrier in MHz."""
    d = check_array(float_array(dist_m, "dist_m"), None, POSITIVE, "dist_m")
    carrier = float_array(carrier_mhz, "carrier_mhz")
    try:
        return 20.0 * np.log10(d) + 20.0 * np.log10(carrier) - 27.56
    except ValueError:
        raise broadcast_error(dist_m=d, carrier_mhz=carrier) from None


def mean_path_loss_db(dist_m, theta_deg, params: ChannelParams):
    """LoS/NLoS mixture of the free-space term plus the two excess losses."""
    fspl = free_space_loss_db(dist_m, params.carrier_mhz)    # dist_m's shape
    p_los = los_probability_from_angle(theta_deg, params)     # theta_deg's shape
    try:
        return (p_los * (fspl + params.eta_los_db)
                + (1.0 - p_los) * (fspl + params.eta_nlos_db))
    except ValueError:
        raise broadcast_error(dist_m=fspl, theta_deg=p_los) from None


def spectral_efficiency(tx_power_watts, path_loss_db, noise_watts):
    """Per-Hz uplink rate log2(1 + SNR); the rate is bandwidth times this."""
    power = float_array(tx_power_watts, "tx_power_watts")
    loss = float_array(path_loss_db, "path_loss_db")
    noise = float_array(noise_watts, "noise_watts")
    try:
        return np.log2(1.0 + power / (np.power(10.0, loss / 10.0) * noise))
    except ValueError:
        raise broadcast_error(tx_power_watts=power, path_loss_db=loss,
                              noise_watts=noise) from None
