"""The slot step's array code against plainer formulas, bit for bit.

Each reference below keeps the straightforward form of one part of a slot:
norms of the (M, N, 3) user-UAV difference, the channel chain written as one
expression per quantity, the masked waypoint update and the masked speed cap.
The package computes the same numbers with fewer temporaries; these tests
pin that every output bit is the same.
"""

import numpy as np
import pytest

from uavmec.channel import ChannelParams
from uavmec.delay import LOCAL, SlotContext
from uavmec.model import (ScenarioConfig, TaskArrays, UavArrays, UserArrays, apply_motion,
                          build_scenario, pair_geometry, pairwise_distances)


def reference_context_arrays(users: UserArrays, uavs: UavArrays, params: ChannelParams):
    """horiz, dist3d, path_loss_db, r0, coverage and default_ingress of a slot."""
    upos, vpos = users.position, uavs.position
    diff = upos[:, None, :] - vpos[None, :, :]
    dist3d = np.linalg.norm(diff, axis=-1)
    horiz = np.linalg.norm(diff[:, :, :2], axis=-1)
    alt = vpos[:, 2][None, :]
    with np.errstate(divide="ignore"):
        ratio = np.where(horiz > 0, alt / np.maximum(horiz, 1e-300), np.inf)
    theta = np.degrees(np.arctan(ratio))
    d = np.maximum(dist3d, 1e-9)
    fspl = 20.0 * np.log10(d) + 20.0 * np.log10(params.carrier_mhz) - 27.56
    p_los = 1.0 / (1.0 + params.a * np.exp(-params.b * (theta - params.a)))
    path_loss = (p_los * (fspl + params.eta_los_db)
                 + (1.0 - p_los) * (fspl + params.eta_nlos_db))
    r0 = np.log2(1.0 + users.tx_power[:, None]
                 / (np.power(10.0, path_loss / 10.0) * params.noise_g2a_watts))
    half = uavs.half_angle_deg
    radius = np.where(half < 90.0, vpos[:, 2] * np.tan(np.radians(half)), np.inf)
    coverage = horiz <= radius[None, :]
    masked = np.where(coverage, r0, -np.inf)
    ingress = np.where(masked.max(axis=1) > 0, masked.argmax(axis=1), LOCAL)
    return {"horiz": horiz, "dist3d": dist3d, "path_loss_db": path_loss, "r0": r0,
            "coverage": coverage, "default_ingress": ingress}


def random_world(rng, m, n, coincident=False, lifted_users=False):
    """Users and UAVs in the default box; optionally UAVs right above users and
    users off the ground plane."""
    cfg = ScenarioConfig()
    upos = np.column_stack([rng.uniform(0.0, cfg.area_x, (m, 2)),
                            rng.uniform(0.0, 3.0, m) if lifted_users else np.zeros(m)])
    vpos = rng.uniform([0.0, 0.0, cfg.z_min], [cfg.area_x, cfg.area_y, cfg.z_max], (n, 3))
    if coincident:
        vpos[:, :2] = upos[rng.integers(0, m, n), :2]
    half = rng.uniform(20.0, 70.0, n) if rng.random() < 0.5 else np.full(n, 90.0)
    users = UserArrays(position=upos, cpu_freq=rng.uniform(*cfg.user_freq_range, m),
                       tx_power=rng.uniform(*cfg.user_power_range, m))
    uavs = UavArrays(position=vpos, cpu_freq=np.full(n, cfg.uav_freq),
                     tx_power=np.full(n, cfg.uav_power), half_angle_deg=half)
    tasks = TaskArrays(bits=rng.uniform(*cfg.task_bits_range, m),
                       cycles_per_bit=rng.uniform(*cfg.task_cycles_per_bit_range, m))
    return users, uavs, tasks


def assert_bitwise(got, want, name):
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert np.array_equal(got, want), f"{name} differs in {np.count_nonzero(got != want)} entries"


SIZES = [(1, 1), (1, 10), (100, 1), (100, 10), (7, 3), (40, 8)]


class TestSlotContextArrays:
    @pytest.mark.parametrize("m, n", SIZES)
    @pytest.mark.parametrize("coincident", [False, True], ids=["apart", "coincident-xy"])
    def test_every_array_matches_the_reference(self, m, n, coincident):
        rng = np.random.default_rng([m, n, coincident])
        for _ in range(20):
            users, uavs, tasks = random_world(rng, m, n, coincident)
            ctx = SlotContext(users, uavs, tasks, ChannelParams())
            want = reference_context_arrays(users, uavs, ChannelParams())
            for name, array in want.items():
                assert_bitwise(getattr(ctx, name), array, name)
            if coincident:
                assert (ctx.horiz == 0.0).any()

    def test_users_off_the_ground_and_other_channel_constants(self):
        rng = np.random.default_rng(31)
        params = ChannelParams(a=4.88, b=0.43, eta_los_db=0.1, eta_nlos_db=21.0,
                               carrier_mhz=5800.0)
        for _ in range(50):
            users, uavs, tasks = random_world(rng, int(rng.integers(1, 60)),
                                              int(rng.integers(1, 9)), lifted_users=True)
            ctx = SlotContext(users, uavs, tasks, params)
            for name, array in reference_context_arrays(users, uavs, params).items():
                assert_bitwise(getattr(ctx, name), array, name)

    def test_pair_geometry_matches_the_norms(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a = rng.uniform(-60.0, 60.0, (int(rng.integers(1, 50)), 3))
            b = rng.uniform(-60.0, 60.0, (int(rng.integers(1, 12)), 3))
            b[0] = a[0]                                    # one coincident pair
            diff = a[:, None, :] - b[None, :, :]
            horiz, dist3d = pair_geometry(a, b)
            assert_bitwise(horiz, np.linalg.norm(diff[:, :, :2], axis=-1), "horiz")
            assert_bitwise(dist3d, np.linalg.norm(diff, axis=-1), "dist3d")
            assert horiz[0, 0] == dist3d[0, 0] == 0.0


class TestPairwiseDistances:
    def test_matches_the_norm_of_the_difference(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            pos = rng.uniform([0.0, 0.0, 10.0], [50.0, 50.0, 20.0], (n, 3))
            if n > 2:
                pos[2] = pos[1]                            # two UAVs in one place
            want = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
            np.fill_diagonal(want, np.inf)
            assert_bitwise(pairwise_distances(pos), want, "pairwise_distances")


def row_norms(d):
    return np.array([np.linalg.norm(row) for row in d])


class ReferenceWalk:
    """Random-waypoint motion with the per-user masked updates."""

    def __init__(self, config: ScenarioConfig, start: np.ndarray):
        self.config = config
        self.pos = start.copy()
        self.rng = np.random.default_rng([config.rng_seed, 7])
        self.waypoints = None

    def step(self):
        cfg = self.config
        area = [cfg.area_x, cfg.area_y]
        if self.waypoints is None:
            self.waypoints = self.rng.uniform([0, 0], area, size=(cfg.num_users, 2))
        step = cfg.user_speed * cfg.slot_seconds
        delta = self.waypoints - self.pos[:, :2]
        dist = row_norms(delta)
        reached = dist <= step
        walking = ~reached
        self.pos[walking, :2] += delta[walking] * (step / dist[walking])[:, None]
        if reached.any():
            self.pos[reached, :2] = self.waypoints[reached]
            self.waypoints[reached] = self.rng.uniform([0, 0], area,
                                                       size=(np.count_nonzero(reached), 2))


class TestWorldStep:
    @pytest.mark.parametrize("speed", [0.0, 0.5, 3.0, 80.0])
    def test_500_waypoint_slots_match_the_masked_update(self, speed):
        cfg = ScenarioConfig(num_users=100, num_uavs=10, user_mobility="random_waypoint",
                             user_speed=speed, rng_seed=41)
        scenario = build_scenario(cfg)
        reference = ReferenceWalk(cfg, scenario.users.position)
        for slot in range(500):
            scenario.advance_users()
            reference.step()
            assert np.array_equal(scenario.users.position, reference.pos), f"slot {slot}"
        assert np.array_equal(scenario._walk[1], reference.waypoints)

    def test_motion_matches_the_masked_speed_cap(self):
        cfg = ScenarioConfig(num_uavs=10)
        rng = np.random.default_rng(42)
        low, high = [0.0, 0.0, cfg.z_min], [cfg.area_x, cfg.area_y, cfg.z_max]
        for _ in range(500):
            positions = rng.uniform(low, high, (10, 3))
            deltas = rng.normal(scale=rng.choice([0.5, 1.0, 3.0]), size=(10, 3))
            deltas[0] = 0.0
            norm = row_norms(deltas)
            speed = norm > cfg.max_step
            capped = deltas.copy()
            capped[speed] *= (cfg.max_step / norm[speed])[:, None]
            raw = positions + capped
            clamped = np.clip(raw, low, high)

            got, box, over = apply_motion(positions, deltas, cfg)
            assert_bitwise(got, clamped, "positions")
            assert np.array_equal(box, (clamped != raw).any(axis=1))
            assert np.array_equal(over, speed)
