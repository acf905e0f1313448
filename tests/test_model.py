import math
import re
from dataclasses import fields

import numpy as np
import pytest

from uavmec import model
from uavmec.errors import FINITE, NON_NEGATIVE, POSITIVE, ConfigError
from uavmec.model import (_SCENARIO_RULES, FIELD_RULES, Scenario, ScenarioConfig, _Columns,
                          apply_motion, coverage_radius, generate_tasks, pairwise_distances,
                          stream)
from tests._instances import make_context, make_tasks, make_uavs, make_users


def small_config(**overrides):
    defaults = dict(num_users=4, num_uavs=4, horizon=20, rng_seed=7)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestScenarioConstruction:
    def test_same_seed_byte_identical(self):
        a = Scenario(small_config())
        b = Scenario(small_config())
        assert a.to_dict() == b.to_dict()

    def test_users_inside_box_on_ground(self):
        sc = Scenario(small_config(num_users=4))
        for x, y, z in sc.users.position:
            assert 0 <= x <= 50 and 0 <= y <= 50
            assert z == 0.0

    def test_default_uav_corners(self):
        sc = Scenario(small_config(num_uavs=4))
        got = [tuple(p) for p in sc.uavs.position]
        assert got == [(0, 0, 10), (0, 50, 10), (50, 0, 10), (50, 50, 10)]

    def test_extra_uavs_at_z_min_inside_box(self):
        sc = Scenario(small_config(num_uavs=6))
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

    @pytest.mark.parametrize("seed", [-3, 2.0, None])
    def test_rng_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="rng_seed must be a non-negative integer"):
            ScenarioConfig(rng_seed=seed)

    @pytest.mark.parametrize("position, message", [
        ((-10.0, 5.0, 12.0), "outside the flight box"),
        ((100.0, 5.0, 12.0), "outside the flight box"),
        ((5.0, 50.5, 12.0), "outside the flight box"),
        ((5.0, 5.0, 9.0), "outside the flight box"),
        ((5.0, 5.0, 21.0), "outside the flight box"),
        ((5.0, 5.0), r"must have shape \(3,\), got \(2,\)"),
        ((5.0, 5.0, 12.0, 1.0), r"must have shape \(3,\), got \(4,\)"),
        ((5.0, "high", 12.0), "must be an array of numbers"),
        ((5.0, "5.0", 12.0), "must be an array of numbers"),
        ((True, True, True), "must be an array of numbers"),
        ((np.nan, 5.0, 12.0), "must be finite"),
        ((5.0, np.inf, 12.0), "must be finite"),
    ], ids=["x-low", "x-high", "y-high", "z-low", "z-high", "two-coords", "four-coords",
            "str", "numeric-str", "all-bool", "nan", "inf"])
    def test_bad_initial_uav_position_names_the_uav(self, position, message):
        positions = [(10.0, 10.0, 12.0), (0.0, 50.0, 10.0), (50.0, 0.0, 20.0)]
        small_config(num_uavs=3, initial_uav_positions=tuple(positions))   # valid
        positions[2] = position
        with pytest.raises(ConfigError, match=f"initial position of UAV 2 .*{message}"):
            small_config(num_uavs=3, initial_uav_positions=tuple(positions))

    def test_initial_uav_positions_stored_as_float_triples(self):
        starts = ((10.0, 10.0, 12.0), (0.0, 50.0, 10.0), (50.0, 0.0, 20.0))
        given = [starts, [list(row) for row in starts], np.array(starts),
                 tuple(map(np.array, starts)), ((10, 10, 12), (0, 50, 10), (50, 0, 20)),
                 np.array(starts, dtype=np.float32)]
        configs = [small_config(num_uavs=3, initial_uav_positions=g) for g in given]
        for config in configs:
            assert config == configs[0] and hash(config) == hash(configs[0])
            assert config.initial_uav_positions == starts
            assert all(type(v) is float for row in config.initial_uav_positions for v in row)
        assert len(set(configs)) == 1
        assert small_config().initial_uav_positions is None

    @pytest.mark.parametrize("count", [2, 4])
    def test_initial_uav_position_count_checked(self, count):
        positions = tuple((10.0, 10.0, 12.0) for _ in range(count))
        with pytest.raises(ConfigError, match=f"has {count} entries, expected num_uavs=3"):
            small_config(num_uavs=3, initial_uav_positions=positions)

    def test_snapshot_round_trip(self, tmp_path):
        sc = Scenario(small_config())
        path = tmp_path / "scenario.json"
        sc.save(path)
        loaded = Scenario.load(path)
        assert loaded.to_dict() == sc.to_dict()

    @pytest.mark.parametrize("key", ["bw_a2a_hz", "elevation_uses_3d_distance"])
    def test_snapshot_with_removed_channel_key_names_it(self, key):
        data = Scenario(small_config()).to_dict()
        data["config"]["channel"][key] = 20e6
        with pytest.raises(ConfigError, match=key):
            Scenario.from_dict(data)

    def test_snapshot_with_unknown_config_key_names_it(self):
        data = Scenario(small_config()).to_dict()
        data["config"]["swarm_size"] = 3
        with pytest.raises(ConfigError, match="swarm_size"):
            Scenario.from_dict(data)

    def test_snapshot_missing_config_key_names_it(self):
        data = Scenario(small_config()).to_dict()
        del data["config"]["d_min"]
        with pytest.raises(ConfigError, match="d_min"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("key, count, message", [
        ("user_positions", 5, r"user_positions must have shape \(4, 3\), got \(5, 3\)"),
        ("uav_positions", 3, r"uav_positions must have shape \(4, 3\), got \(3, 3\)"),
    ], ids=["user_positions-5", "uav_positions-3"])
    def test_snapshot_row_count_names_it(self, key, count, message):
        data = Scenario(small_config()).to_dict()
        data[key] = (data[key] * 2)[:count]     # 4 rows in the config
        with pytest.raises(ConfigError, match=message):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("key", ["user_positions", "uav_positions"])
    def test_snapshot_positions_checked_before_the_build(self, key, monkeypatch):
        data = Scenario(small_config()).to_dict()
        data["config"]["num_users" if key == "user_positions" else "num_uavs"] = 10 ** 9

        def no_build(*args):
            raise AssertionError("the scenario was built")

        monkeypatch.setattr(model, "stream", no_build)
        with pytest.raises(ConfigError, match=rf"^scenario snapshot {key} must have shape "
                                              rf"\(1000000000, 3\), got \(4, 3\)$"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("row, message", [
        ([np.nan, 1.0, 12.0], "must be finite"),
        ([1.0, np.inf, 12.0], "must be finite"),
        ([1.0, 1.0], "must be an array of numbers"),
        ([1.0, 1.0, 12.0, 1.0], "must be an array of numbers"),
        (["30", "5", "15"], "must be an array of numbers"),
        ([1.0, True, 12.0], "must be an array of numbers"),
    ], ids=["nan", "inf", "two-coords", "four-coords", "numeric-str", "bool-in-row"])
    @pytest.mark.parametrize("key", ["user_positions", "uav_positions"])
    def test_snapshot_bad_position_names_the_key(self, key, row, message):
        data = Scenario(small_config()).to_dict()
        data[key][1] = row
        with pytest.raises(ConfigError, match=f"^scenario snapshot {key} {message}"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("section, message", [
        (5.0, r"must have shape \(4, 3\), got \(\)"),
        ([5.0, 6.0], r"must have shape \(4, 3\), got \(2,\)"),
        ([[1.0, 2.0, 12.0, 1.0]] * 4, r"must have shape \(4, 3\), got \(4, 4\)"),
        ("rows", "must be an array of numbers"), ({}, "must be an array of numbers"),
        (True, "must be an array of numbers"), (None, "must be an array of numbers"),
    ], ids=["number", "list", "four-coords", "str", "object", "bool", "null"])
    def test_snapshot_positions_not_rows_rejected(self, section, message):
        data = Scenario(small_config()).to_dict()
        data["user_positions"] = section
        with pytest.raises(ConfigError, match=f"^scenario snapshot user_positions {message}"):
            Scenario.from_dict(data)

    def test_loaded_starts_come_from_the_config(self):
        starts = ((1.0, 1.0, 12.0), (0.0, 50.0, 10.0), (50.0, 0.0, 20.0), (50.0, 50.0, 15.0))
        for config in (small_config(initial_uav_positions=starts), small_config(num_uavs=6)):
            scenario = Scenario(config)
            scenario.uavs.position[:, 2] = 18.0        # the UAVs have flown
            loaded = Scenario.from_dict(scenario.to_dict())
            assert loaded.initial_uav_positions.tobytes() == \
                scenario.initial_uav_positions.tobytes()
            assert loaded.uavs.position.tobytes() == scenario.uavs.position.tobytes()
            loaded.reset()
            assert loaded.uavs.position.tobytes() == scenario.initial_uav_positions.tobytes()

    def test_snapshot_holds_the_config_and_two_position_arrays(self):
        data = Scenario(small_config()).to_dict()
        assert list(data) == list(model.SNAPSHOT_KEYS)
        assert np.shape(data["user_positions"]) == np.shape(data["uav_positions"]) == (4, 3)

    def test_schema_1_snapshot_rejected(self):
        # the old format: every array row by row, the starts at top level; here
        # its rows contradict the config (a 5 GHz UAV, a 30-degree cone, a mute user)
        scenario = Scenario(small_config())
        data = {"schema_version": 1, "config": scenario.to_dict()["config"],
                "users": [{"position": p, "cpu_freq": 9e8, "tx_power": 0.0}
                          for p in scenario.users.position.tolist()],
                "uavs": [{"position": p, "cpu_freq": 5e9, "tx_power": 5.0, "half_angle_deg": 30.0}
                         for p in scenario.uavs.position.tolist()],
                "initial_uav_positions": scenario.initial_uav_positions.tolist()}
        with pytest.raises(ConfigError, match="^scenario snapshot schema_version must be 2, got 1$"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("version", [2.0, True, "2"])
    def test_schema_version_must_be_the_integer(self, version):
        # as a checkpoint's: `check_number` refuses a float, bool or string version
        data = Scenario(small_config()).to_dict()
        data["schema_version"] = version
        with pytest.raises(ConfigError, match=rf"^scenario snapshot schema_version must be an "
                                              rf"integer, got {re.escape(repr(version))}$"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("key", ["typo_key", "users", "initial_uav_positions"])
    def test_snapshot_with_unknown_key_rejected(self, key):
        data = Scenario(small_config()).to_dict()
        data[key] = []
        with pytest.raises(ConfigError, match=rf"^scenario snapshot: unknown key\(s\) {key}$"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("key", ["config", "user_positions", "uav_positions"])
    def test_snapshot_missing_key_names_it(self, key):
        data = Scenario(small_config()).to_dict()
        del data[key]
        with pytest.raises(ConfigError, match=rf"^scenario snapshot: missing key\(s\) {key}$"):
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

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (6,)], ids=["2x2", "3x3", "flat"])
    def test_misshapen_deltas_name_both_shapes(self, shape):
        position = np.array([[25.0, 25.0, 15.0], [10.0, 10.0, 12.0]])
        with pytest.raises(ConfigError, match=rf"UAV motion delta must have shape \(2, 3\), "
                           rf"got {re.escape(str(shape))}"):
            apply_motion(position, np.zeros(shape), small_config())

    @pytest.mark.parametrize("deltas", [[[0, 0], [0, 0, 0]], [["a", "b", "c"], [0, 0, 0]]],
                             ids=["ragged", "str"])
    def test_unconvertible_deltas_rejected(self, deltas):
        position = np.array([[25.0, 25.0, 15.0], [10.0, 10.0, 12.0]])
        with pytest.raises(ConfigError, match="motion deltas must be an array of numbers"):
            apply_motion(position, deltas, small_config())

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
        users = make_users([(10.0, 10.0), (21.0, 10.0)])   # directly below, 11 m out
        uavs = make_uavs([(10.0, 10.0, 10.0)] * 2, 1e9, half_angle_deg=[45.0, 90.0])
        ctx = make_context(users, uavs, make_tasks(2, 1e5, 500.0))
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
        sc = Scenario(small_config(num_users=50))
        tasks = generate_tasks(sc, 0)
        assert len(tasks.bits) == len(tasks.cycles_per_bit) == 50
        for bits, cycles_per_bit in zip(tasks.bits, tasks.cycles_per_bit):
            assert 100e3 <= bits <= 150e3
            assert 500 <= cycles_per_bit <= 1000

    def test_seed_slot_determinism(self):
        sc = Scenario(small_config())
        again = Scenario(small_config())
        def rows(tasks):
            return np.column_stack([tasks.bits, tasks.cycles_per_bit])

        assert np.array_equal(rows(generate_tasks(sc, 3)), rows(generate_tasks(again, 3)))
        assert not np.array_equal(rows(generate_tasks(sc, 3)), rows(generate_tasks(sc, 4)))

    def test_degenerate_range(self):
        sc = Scenario(small_config(task_bits_range=(100e3, 100e3)))
        for bits in generate_tasks(sc, 1).bits:
            assert bits == 100e3

    @pytest.mark.parametrize("field", ["bits", "cycles_per_bit"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_task_entry_names_the_user(self, field, value):
        tasks = make_tasks(4, 1e5, 500.0)
        getattr(tasks, field)[2] = value          # building checks nothing
        with pytest.raises(ConfigError, match=f"task 2 {field} must be finite and > 0"):
            tasks.check()

    @pytest.mark.parametrize("slot", [1.5, 1.0, "1", True, None, [1]])
    def test_non_integer_slot_rejected(self, slot):
        sc = Scenario(small_config(horizon=5))
        with pytest.raises(ConfigError, match="slot must be an integer"):
            generate_tasks(sc, slot)

    def test_numpy_integer_slot_is_that_slot(self):
        sc = Scenario(small_config(horizon=5))
        by_numpy, by_int = generate_tasks(sc, np.int64(3)), generate_tasks(sc, 3)
        assert by_numpy.bits.tobytes() == by_int.bits.tobytes()
        assert by_numpy.cycles_per_bit.tobytes() == by_int.cycles_per_bit.tobytes()

    def test_slot_outside_horizon(self):
        sc = Scenario(small_config(horizon=5))
        for slot in (5, -1):
            with pytest.raises(ConfigError, match=rf"^slot must lie in \[0, 5\), got {slot}$"):
                generate_tasks(sc, slot)


class TestStreams:
    """`stream` keys each role as the generators it replaced did."""

    @pytest.mark.parametrize("seed", [0, 4, 2 ** 32 + 1, np.uint8(3)])
    def test_build_stream_is_default_rng_of_the_seed(self, seed):
        assert (stream(seed, "build").random(4).tobytes()
                == np.random.default_rng(seed).random(4).tobytes())

    @pytest.mark.parametrize("role, keys, entropy", [("tasks", (5,), [9, 5]), ("walk", (), [9, 7]),
                                                     ("learner", (), [9, 11])])
    def test_role_keys(self, role, keys, entropy):
        assert (stream(9, role, *keys).random(4).tobytes()
                == np.random.default_rng(entropy).random(4).tobytes())

    @pytest.mark.parametrize("role, keys", [("tasks", ()), ("walk", (1,)), ("build", (0,))])
    def test_wrong_number_of_keys_refused(self, role, keys):
        with pytest.raises(ConfigError, match=f"stream '{role}' takes"):
            stream(9, role, *keys)

    @pytest.mark.xfail(strict=True, reason="open: default_rng(seed) is default_rng([seed, 0]), "
                       "so the build stream is slot 0's task stream (ROADMAP item 3)")
    def test_build_and_slot_0_task_streams_differ(self):
        for seed in (0, 5, 17):
            assert (stream(seed, "build").random(4).tobytes()
                    != stream(seed, "tasks", 0).random(4).tobytes()), seed


TWO_UAVS = [(10.0, 10.0, 12.0), (40.0, 40.0, 12.0)]


class TestEntityCheck:
    """`_Columns.check`, reached through `SlotContext` as each slot reaches it."""

    @staticmethod
    def slot(users=None, uavs=None):
        return make_context(users or make_users([(0, 0), (5, 5)]), uavs or make_uavs(TWO_UAVS))

    def test_valid_bundles_pass(self):
        sc = Scenario(small_config())
        for bundle in (sc.users, sc.uavs, generate_tasks(sc, 0), make_uavs(TWO_UAVS)):
            bundle.check()
        self.slot(uavs=make_uavs(TWO_UAVS))

    @pytest.mark.parametrize("field, value", [("cpu_freq", 10e9), ("half_angle_deg", 45.0)],
                             ids=["cpu_freq", "half_angle_deg"])
    def test_one_value_for_two_uavs_rejected(self, field, value):
        uavs = make_uavs(TWO_UAVS)
        setattr(uavs, field, np.array([value]))     # would broadcast
        with pytest.raises(ConfigError,
                           match=rf"UAV {field} must have shape \(2,\), got \(1,\)"):
            self.slot(uavs=uavs)

    def test_two_coordinate_position_rejected(self):
        users = make_users(np.zeros((2, 2)))
        users.position = np.zeros((2, 2))
        with pytest.raises(ConfigError,
                           match=r"user position must have shape \(2, 3\), got \(2, 2\)"):
            self.slot(users=users)

    @pytest.mark.parametrize("value, kind", [([1e9, 1e9], "list"),
                                             (np.array([1, 2], dtype=np.int64), "int64"),
                                             (np.array([1e9, 1e9], dtype=np.float32), "float32")],
                             ids=["list", "int64", "float32"])
    def test_non_float64_field_rejected(self, value, kind):
        users = make_users(np.zeros((2, 2)))
        users.cpu_freq = value
        with pytest.raises(ConfigError,
                           match=f"user field 'cpu_freq' must be a float64 array, got {kind}"):
            self.slot(users=users)

    def test_first_field_of_wrong_rank_rejected(self):
        uavs = make_uavs(TWO_UAVS)
        uavs.position = np.array([10.0, 10.0, 12.0])
        with pytest.raises(ConfigError,
                           match=r"UAV position must have shape \(K, 3\), got \(3,\)"):
            uavs.check()

    def test_first_bad_entity_is_named(self):
        uavs = make_uavs([(np.nan, 10.0, 12.0), (40.0, -np.inf, 12.0)])
        with pytest.raises(ConfigError, match="UAV 0 position must be finite"):
            uavs.check()

    def test_no_rows_pass(self):
        make_tasks(0).check()

    def test_every_bundle_field_has_a_rule(self):
        # a field without an entry in FIELD_RULES would go unchecked
        bundles = _Columns.__subclasses__()
        assert {"UserArrays", "UavArrays", "TaskArrays"} <= {kind.__name__ for kind in bundles}
        for kind in bundles:
            assert kind.entity
            for f in fields(kind):
                assert f.name in FIELD_RULES, f"{kind.__name__}.{f.name} has no rule"
        # each range and its wording is written once, in a shared rule tuple
        shared = (FINITE, POSITIVE, NON_NEGATIVE, _SCENARIO_RULES["coverage_half_angle_deg"])
        for name, (_, rule) in FIELD_RULES.items():
            assert any(rule is s for s in shared), f"{name} has a rule of its own"


class TestUserMobility:
    def test_static_by_default(self):
        sc = Scenario(small_config())
        before = sc.user_positions.copy()
        sc.advance_users()
        assert np.array_equal(sc.user_positions, before)

    def test_waypoint_walk_stays_in_box_and_replays(self):
        cfg = small_config(user_mobility="random_waypoint", user_speed=2.0)
        sc = Scenario(cfg)
        sc.reset()
        trace = []
        for _ in range(50):
            sc.advance_users()
            pos = sc.user_positions
            assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= cfg.area_x).all()
            assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= cfg.area_y).all()
            trace.append(pos.copy())
        sc2 = Scenario(cfg)
        sc2.reset()
        for step in range(50):
            sc2.advance_users()
            assert np.array_equal(trace[step], sc2.user_positions)
