import math

import numpy as np
import pytest

from uavmec.channel import (ChannelParams, elevation_deg_from_geometry,
                            free_space_loss_db, los_probability_from_angle,
                            mean_path_loss_db, spectral_efficiency)
from uavmec.delay import SlotDecision, slot_dor
from uavmec.errors import ConfigError
from tests._instances import make_context, make_uavs, make_users

# High-precision scalar evaluations (mpmath, 40 digits), frozen before build.
P_LOS_45 = 0.9676918999472423          # a=9.61, b=0.16
P_LOS_AT_A = 0.09425070688030160       # theta == a collapses the exponent
FSPL_100M_2000MHZ = 78.46059991327962
G2A_RATE_PL7846 = 7165517.649152558    # B=1 MHz, p=1 W, N=1e-10 W, PL=78.46 dB


def link_context(uav_positions, params=None, power=1.0):
    """Slot context for one user at the origin and UAVs at the given positions."""
    return make_context(make_users([(0.0, 0.0)], tx_power=power), make_uavs(uav_positions),
                        params=params or ChannelParams())


def path_loss(uav_positions, params=None):
    return link_context(uav_positions, params).path_loss_db[0]


class TestElevation:
    def test_directly_below_is_90(self):
        assert elevation_deg_from_geometry(10.0, 0.0) == pytest.approx(90.0)

    def test_45_degrees(self):
        assert elevation_deg_from_geometry(10.0, 10.0) == pytest.approx(45.0)

    def test_30_degrees(self):
        h = 10 * math.sqrt(3)
        assert elevation_deg_from_geometry(10.0, h) == pytest.approx(30.0)


class TestLosProbability:
    def test_collapses_at_theta_equal_a(self):
        p = ChannelParams()
        assert los_probability_from_angle(p.a, p) == pytest.approx(P_LOS_AT_A, rel=1e-12)

    def test_frozen_value_at_45(self):
        assert los_probability_from_angle(45.0, ChannelParams()) == pytest.approx(
            P_LOS_45, rel=1e-12)

    def test_strictly_increasing_and_in_unit_interval(self):
        vals = los_probability_from_angle(np.linspace(0.0, 90.0, 181), ChannelParams())
        assert ((0 < vals) & (vals < 1)).all()
        assert (np.diff(vals) > 0).all()


class TestG2aPathLoss:
    def test_free_space_term_when_excess_zero(self):
        params = ChannelParams(eta_los_db=0.0, eta_nlos_db=0.0)
        # nearly-horizontal 100 m link isolates the free-space term
        assert path_loss([(0, 100, 0.01)], params)[0] == pytest.approx(
            FSPL_100M_2000MHZ, abs=1e-6)

    def test_equal_excess_collapses_mixture(self):
        params = ChannelParams(eta_los_db=5.0, eta_nlos_db=5.0)
        zero = ChannelParams(eta_los_db=0.0, eta_nlos_db=0.0)
        uavs = [(0, 0, 10), (30, 0, 10), (30, 40, 15)]
        assert path_loss(uavs, params) == pytest.approx(path_loss(uavs, zero) + 5.0,
                                                        abs=1e-9)

    def test_loss_bounded_by_los_and_nlos_extremes(self):
        params = ChannelParams()
        uavs = [(x, 0, 12) for x in [0, 5, 20, 45]]
        pl = path_loss(uavs, params)
        fspl = path_loss(uavs, ChannelParams(eta_los_db=0.0, eta_nlos_db=0.0))
        assert (fspl + params.eta_los_db <= pl).all()
        assert (pl <= fspl + params.eta_nlos_db).all()

    def test_loss_increases_with_distance(self):
        losses = path_loss([(x, 0, 10) for x in [1, 5, 10, 20, 40]])
        assert (np.diff(losses) > 0).all()

    def test_matches_mixture_formula(self):
        # the context's loss is the array core evaluated on its own geometry
        params = ChannelParams()
        uavs = [(3, 4, 10), (30, 40, 15)]
        dist = np.array([math.sqrt(125), math.sqrt(2725)])
        theta = elevation_deg_from_geometry([10.0, 15.0], [5.0, 50.0])
        assert path_loss(uavs, params) == pytest.approx(
            mean_path_loss_db(dist, theta, params), rel=1e-12)

    def test_log_rules(self):
        base = free_space_loss_db(100.0, 2000.0)
        assert free_space_loss_db(1000.0, 2000.0) - base == pytest.approx(20.0, abs=1e-9)
        assert free_space_loss_db(100.0, 20000.0) - base == pytest.approx(20.0, abs=1e-9)

    def test_zero_distance_rejected(self):
        with pytest.raises(ConfigError):
            free_space_loss_db(np.array([5.0, 0.0]), 2000.0)


def uplink_seconds(ctx, bandwidth_hz):
    """Uplink time of the context's one user through UAV 0, read off the slot objective."""
    cpu = 10e9
    decision = SlotDecision(assignment=np.array([0]),
                            bandwidth_hz=np.array([bandwidth_hz]), cpu_hz=np.array([cpu]))
    return slot_dor(decision, ctx).per_user_delay[0] - 1e5 * 1000.0 / cpu


class TestRates:
    def test_zero_bandwidth_zero_rate(self):
        assert uplink_seconds(link_context([(3, 4, 10)]), 0.0) == math.inf

    def test_rate_linear_in_bandwidth(self):
        ctx = link_context([(3, 4, 10)])
        assert uplink_seconds(ctx, 2e6) == pytest.approx(uplink_seconds(ctx, 1e6) / 2,
                                                          rel=1e-9)
        assert uplink_seconds(ctx, 1e6) == pytest.approx(1e5 / (1e6 * ctx.r0[0, 0]),
                                                          rel=1e-9)

    def test_frozen_g2a_rate_at_fixed_loss(self):
        # user 1 W, 1 MHz band, noise 1e-10 W, path loss pinned at 78.46 dB
        rate = 1e6 * float(spectral_efficiency(1.0, 78.46, 1e-10))
        assert rate == pytest.approx(G2A_RATE_PL7846, rel=1e-12)

    def test_rate_decreases_with_distance(self):
        r0 = link_context([(x, 0, 10) for x in [1, 5, 10, 20, 40]]).r0[0]
        assert (np.diff(r0) < 0).all()


class TestParams:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            ChannelParams(a=-1.0)
        with pytest.raises(ConfigError):
            ChannelParams(eta_los_db=25.0, eta_nlos_db=20.0)
        with pytest.raises(ConfigError):
            ChannelParams(noise_g2a_watts=0.0)
