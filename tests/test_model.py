import math

import numpy as np
import pytest

from uavmec.channel import ChannelParams
from uavmec.delay import SlotContext
from uavmec.errors import ConfigError
from uavmec.model import (Scenario, ScenarioConfig, Task, TaskArrays, UavState,
                          UserState, apply_motion, build_scenario, coverage_radius,
                          generate_tasks, pairwise_distances)


def small_config(**overrides):
    defaults = dict(num_users=4, num_uavs=4, horizon=20, rng_seed=7)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestScenarioConstruction:
    def test_same_seed_byte_identical(self):
        a = build_scenario(small_config())
        b = build_scenario(small_config())
        assert a.to_dict() == b.to_dict()

    def test_users_inside_box_on_ground(self):
        sc = build_scenario(small_config(num_users=4))
        for x, y, z in sc.users.position:
            assert 0 <= x <= 50 and 0 <= y <= 50
            assert z == 0.0

    def test_default_uav_corners(self):
        sc = build_scenario(small_config(num_uavs=4))
        got = [tuple(p) for p in sc.uavs.position]
        assert got == [(0, 0, 10), (0, 50, 10), (50, 0, 10), (50, 50, 10)]

    def test_extra_uavs_at_z_min_inside_box(self):
        sc = build_scenario(small_config(num_uavs=6))
        for position in sc.uavs.position:
            assert position[2] == 10.0
            assert 0 <= position[0] <= 50 and 0 <= position[1] <= 50

    def test_invalid_config_names_bound(self):
        with pytest.raises(ConfigError, match="z_min"):
            ScenarioConfig(z_min=0.0)
        with pytest.raises(ConfigError, match="task_bits_range"):
            ScenarioConfig(task_bits_range=(150e3, 100e3))
        with pytest.raises(ConfigError, match="v_max"):
            ScenarioConfig(v_max=-1.0)
        with pytest.raises(ConfigError, match="user_speed"):
            ScenarioConfig(user_speed=-1.0)

    @pytest.mark.parametrize("position, message", [
        ((-10.0, 5.0, 12.0), "outside the flight box"),
        ((100.0, 5.0, 12.0), "outside the flight box"),
        ((5.0, 50.5, 12.0), "outside the flight box"),
        ((5.0, 5.0, 9.0), "outside the flight box"),
        ((5.0, 5.0, 21.0), "outside the flight box"),
        ((5.0, 5.0), "must be 3 numbers"),
        ((5.0, 5.0, 12.0, 1.0), "must be 3 numbers"),
        ((5.0, "high", 12.0), "must be 3 numbers"),
        ((np.nan, 5.0, 12.0), "must be finite"),
        ((5.0, np.inf, 12.0), "must be finite"),
    ], ids=["x-low", "x-high", "y-high", "z-low", "z-high", "two-coords", "four-coords",
            "str", "nan", "inf"])
    def test_bad_initial_uav_position_names_the_uav(self, position, message):
        positions = [(10.0, 10.0, 12.0), (0.0, 50.0, 10.0), (50.0, 0.0, 20.0)]
        small_config(num_uavs=3, initial_uav_positions=tuple(positions))   # valid
        positions[2] = position
        with pytest.raises(ConfigError, match=f"initial position of UAV 2 .*{message}"):
            small_config(num_uavs=3, initial_uav_positions=tuple(positions))

    @pytest.mark.parametrize("count", [2, 4])
    def test_initial_uav_position_count_checked(self, count):
        positions = tuple((10.0, 10.0, 12.0) for _ in range(count))
        with pytest.raises(ConfigError, match=f"has {count} entries, expected num_uavs=3"):
            small_config(num_uavs=3, initial_uav_positions=positions)

    def test_snapshot_round_trip(self, tmp_path):
        sc = build_scenario(small_config())
        path = tmp_path / "scenario.json"
        sc.save(path)
        loaded = Scenario.load(path)
        assert loaded.to_dict() == sc.to_dict()

    @pytest.mark.parametrize("key", ["bw_a2a_hz", "elevation_uses_3d_distance"])
    def test_snapshot_with_removed_channel_key_names_it(self, key):
        data = build_scenario(small_config()).to_dict()
        data["config"]["channel"][key] = 20e6
        with pytest.raises(ConfigError, match=key):
            Scenario.from_dict(data)

    def test_snapshot_with_unknown_config_key_names_it(self):
        data = build_scenario(small_config()).to_dict()
        data["config"]["swarm_size"] = 3
        with pytest.raises(ConfigError, match="swarm_size"):
            Scenario.from_dict(data)

    def test_snapshot_missing_config_key_names_it(self):
        data = build_scenario(small_config()).to_dict()
        del data["config"]["d_min"]
        with pytest.raises(ConfigError, match="d_min"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("key, count", [("users", 5), ("uavs", 5),
                                            ("initial_uav_positions", 3)])
    def test_snapshot_row_count_names_it(self, key, count):
        data = build_scenario(small_config()).to_dict()
        data[key] = (data[key] * 2)[:count]     # 4 rows in the config
        with pytest.raises(ConfigError, match=rf"{key} has shape \({count}, 3\).*\(4, 3\)"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("key, field, value", [
        ("users", "position", [1.0, 2.0]),
        ("users", "cpu_freq", "fast"),
        ("uavs", "position", [1.0, 2.0, "high"]),
        ("uavs", "cpu_freq", "fast"),
        ("users", "tx_power", [1.0, 1.1]),
    ], ids=["user-position-2d", "user-cpu_freq-str", "uav-position-str", "uav-cpu_freq-str",
            "user-tx_power-vector"])
    def test_snapshot_bad_row_names_key_and_field(self, key, field, value):
        data = build_scenario(small_config()).to_dict()
        data[key][1][field] = value
        with pytest.raises(ConfigError, match=f"{key} field '{field}'"):
            Scenario.from_dict(data)
        for row in data[key]:          # the same value in every row
            row[field] = value
        with pytest.raises(ConfigError, match=f"{key} field '{field}'|{key} has shape"):
            Scenario.from_dict(data)

    def test_snapshot_missing_key_names_it(self):
        data = build_scenario(small_config()).to_dict()
        del data["uavs"][0]["half_angle_deg"]
        with pytest.raises(ConfigError, match="half_angle_deg"):
            Scenario.from_dict(data)


class TestMotion:
    def test_zero_delta_identity(self):
        cfg = small_config()
        position = np.array([[25.0, 25.0, 15.0]])
        new, box, speed = apply_motion(position, np.zeros((1, 3)), cfg)
        assert np.allclose(new, position)
        assert not box[0] and not speed[0]

    def test_overspeed_rescaled(self):
        cfg = small_config()
        position = np.array([[25.0, 25.0, 15.0]])
        delta = np.array([[2 * cfg.max_step, 0.0, 0.0]])
        new, box, speed = apply_motion(position, delta, cfg)
        moved = np.linalg.norm(new[0] - position[0])
        assert moved == pytest.approx(cfg.max_step, rel=1e-12)
        assert speed[0] and not box[0]

    def test_box_clamp_flags(self):
        cfg = small_config()
        position = np.array([[0.0, 0.0, 10.0]])
        new, box, _ = apply_motion(position, np.array([[-1.0, 0.0, 0.0]]), cfg)
        assert new[0, 0] == 0.0
        assert box[0]

    def test_constraints_hold_after_many_random_steps(self):
        cfg = small_config()
        rng = np.random.default_rng(3)
        position = np.array([[25.0, 25.0, 15.0]])
        for _ in range(500):
            delta = rng.normal(scale=3.0, size=3)
            new, _, _ = apply_motion(position, delta[None, :], cfg)
            step = np.linalg.norm(new[0] - position[0])
            assert step <= cfg.max_step + 1e-9
            x, y, z = new[0]
            assert 0 <= x <= cfg.area_x and 0 <= y <= cfg.area_y
            assert cfg.z_min <= z <= cfg.z_max
            position = new

    def test_non_finite_delta_rejected(self):
        cfg = small_config()
        position = np.array([[25.0, 25.0, 15.0]])
        with pytest.raises(ConfigError):
            apply_motion(position, np.array([[np.nan, 0.0, 0.0]]), cfg)


class TestCoverage:
    def test_radius_45_degrees_equals_altitude(self):
        assert coverage_radius([10.0, 20.0], 45.0) == pytest.approx([10.0, 20.0])

    def test_radius_90_degrees_unbounded(self):
        assert coverage_radius(10.0, 90.0) == math.inf

    def test_radius_monotone_in_z_and_angle(self):
        assert (np.diff(coverage_radius([10, 12, 18], 45)) >= 0).all()
        assert (np.diff(coverage_radius(15, [10, 30, 60, 89.9])) >= 0).all()

    def test_is_covered(self):
        def uav(half_angle):
            return UavState(position=np.array([10.0, 10.0, 10.0]), cpu_freq=1e9,
                            tx_power=5.0, half_angle_deg=half_angle)
        users = [UserState(position=np.array([x, 10.0, 0.0]), cpu_freq=1e9, tx_power=1.0)
                 for x in (10.0, 21.0)]  # directly below, 11 m out
        tasks = [Task(bits=1e5, cycles_per_bit=500.0)] * 2
        ctx = SlotContext(users, [uav(45.0), uav(90.0)], tasks, ChannelParams())
        # the 45-degree cone at 10 m altitude has a 10 m radius
        assert ctx.coverage.tolist() == [[True, True], [False, True]]


class TestPairwiseDistance:
    def test_coincident_zero(self):
        assert pairwise_distances([(0, 0, 10), (0, 0, 10)]).min() == 0.0

    def test_three_uavs(self):
        dist = pairwise_distances([(0, 0, 10), (3, 0, 10), (100, 0, 10)])
        assert dist.min() == pytest.approx(3.0)
        assert np.array_equal(dist, dist.T)
        assert (np.diag(dist) == math.inf).all()

    def test_single_uav_infinite(self):
        assert pairwise_distances([(0, 0, 10)]).min() == math.inf


class TestTasks:
    def test_draws_within_ranges(self):
        sc = build_scenario(small_config(num_users=50))
        tasks = generate_tasks(sc, 0)
        assert len(tasks.bits) == len(tasks.cycles_per_bit) == 50
        for bits, cycles_per_bit in zip(tasks.bits, tasks.cycles_per_bit):
            assert 100e3 <= bits <= 150e3
            assert 500 <= cycles_per_bit <= 1000

    def test_seed_slot_determinism(self):
        sc = build_scenario(small_config())
        again = build_scenario(small_config())
        def rows(tasks):
            return np.column_stack([tasks.bits, tasks.cycles_per_bit])

        assert np.array_equal(rows(generate_tasks(sc, 3)), rows(generate_tasks(again, 3)))
        assert not np.array_equal(rows(generate_tasks(sc, 3)), rows(generate_tasks(sc, 4)))

    def test_degenerate_range(self):
        sc = build_scenario(small_config(task_bits_range=(100e3, 100e3)))
        for bits in generate_tasks(sc, 1).bits:
            assert bits == 100e3

    def test_task_invariants(self):
        with pytest.raises(ConfigError):
            TaskArrays.from_rows([vars(Task(bits=0.0, cycles_per_bit=500.0))], "task records")
        with pytest.raises(ConfigError):
            TaskArrays.from_rows([vars(Task(bits=1e5, cycles_per_bit=0.0))], "task records")

    @pytest.mark.parametrize("field", ["bits", "cycles_per_bit"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_task_entry_names_the_user(self, field, value):
        columns = {"bits": np.full(4, 1e5), "cycles_per_bit": np.full(4, 500.0)}
        columns[field][2] = value
        with pytest.raises(ConfigError, match=f"task {field} of user 2"):
            TaskArrays(**columns)

    def test_slot_outside_horizon(self):
        sc = build_scenario(small_config(horizon=5))
        for slot in (5, -1):
            with pytest.raises(ConfigError, match=f"slot {slot} outside horizon"):
                generate_tasks(sc, slot)


class TestUserMobility:
    def test_static_by_default(self):
        sc = build_scenario(small_config())
        before = sc.user_positions.copy()
        sc.advance_users()
        assert np.array_equal(sc.user_positions, before)

    def test_waypoint_walk_stays_in_box_and_replays(self):
        cfg = small_config(user_mobility="random_waypoint", user_speed=2.0)
        sc = build_scenario(cfg)
        sc.reset_mobility()
        trace = []
        for _ in range(50):
            sc.advance_users()
            pos = sc.user_positions
            assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= cfg.area_x).all()
            assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= cfg.area_y).all()
            trace.append(pos.copy())
        sc2 = build_scenario(cfg)
        sc2.reset_mobility()
        for step in range(50):
            sc2.advance_users()
            assert np.array_equal(trace[step], sc2.user_positions)
