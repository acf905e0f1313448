"""The two readers of saved state, `Scenario.from_dict` and
`MaddpgTrainer.load_checkpoint`, their writers, the config checks they rely
on, the inputs of a slot step, and the readers of outside numbers.

Whatever a snapshot or a checkpoint holds, reading it gives the saved object
or raises a type from `uavmec.errors`, with no warning; and every config
field a writer saves comes back equal. The same holds for the actions given
to `EdgeComputeEnv.step`, its penalty and the slot of `generate_tasks`.
`READERS` holds every entry point of an outside scalar or array: each
argument of a public numeric helper, of `MaddpgTrainer.remember` and
`joint_actions`, a decision's assignment, and the scalars in rule tuples.
Each refuses a numeric string, a bool, a ragged list, a list that mixes in a
bool, a NaN (where its rule excludes it) and a value of the wrong shape
(where it has one), naming the argument.
"""

import copy
import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from tests._instances import scenario_range_context
from uavmec import allocator, baselines, channel, errors, learner, model, nets
from uavmec.channel import ChannelParams
from uavmec.delay import SlotDecision, slot_dor, validate_decision
from uavmec.env import EdgeComputeEnv
from uavmec.errors import ConfigError, ValidationError, check_array, float_array, int_array
from uavmec.learner import MaddpgTrainer, TrainConfig, train
from uavmec.model import Scenario, ScenarioConfig, apply_motion, build_scenario, generate_tasks

ERRORS = tuple(value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == errors.__name__)

STARTS = ((10.0, 10.0, 12.0), (30.0, 20.0, 18.0), (45.0, 5.0, 10.0))
SNAPSHOT_CONFIG = ScenarioConfig(num_users=4, num_uavs=3, horizon=10, rng_seed=2,
                                 initial_uav_positions=STARTS)
SMALL = TrainConfig(episodes=2, batch_size=8, min_fill=8, buffer_capacity=64,
                    hidden_actor=8, hidden_critic=8, seed=4)

# Every field off its default, nested channel parameters included.
OFF_DEFAULT_SCENARIO = ScenarioConfig(
    area_x=60.0, area_y=40.0, z_min=12.0, z_max=18.0, d_min=4.0, v_max=2.0,
    slot_seconds=0.5, num_users=5, num_uavs=2, horizon=30,
    task_bits_range=(90e3, 140e3), task_cycles_per_bit_range=(400.0, 900.0),
    user_freq_range=(0.7e9, 0.9e9), user_power_range=(0.9, 1.1), uav_freq=8e9,
    uav_power=4.0, coverage_half_angle_deg=60.0, rng_seed=9,
    channel=ChannelParams(a=11.95, b=0.14, eta_los_db=2.0, eta_nlos_db=25.0,
                          carrier_mhz=2400.0, noise_g2a_watts=2e-10, bw_g2a_hz=10e6),
    user_mobility="random_waypoint", user_speed=1.5,
    initial_uav_positions=((10.0, 10.0, 12.0), (30.0, 20.0, 18.0)))
OFF_DEFAULT_TRAIN = TrainConfig(
    lr_actor=2e-4, lr_critic=2e-3, tau=0.02, gamma=0.9, buffer_capacity=64, episodes=3,
    batch_size=8, min_fill=16, hidden_actor=8, hidden_critic=6, noise_sigma_start=0.4,
    noise_sigma_end=0.1, noise_decay_fraction=0.5, penalty=5.0, seed=7)


def trainer_scenario():
    return build_scenario(ScenarioConfig(num_users=4, num_uavs=3, horizon=12))


def fields_at_default(config, default):
    """Names of the fields of `config` (nested configs by dotted name) equal to
    their default."""
    same = []
    for f in dataclasses.fields(config):
        value, base = getattr(config, f.name), getattr(default, f.name)
        if dataclasses.is_dataclass(value):
            same += [f"{f.name}.{name}" for name in fields_at_default(value, base)]
        elif value == base:
            same.append(f.name)
    return same


def edit_meta(state, **changes):
    meta = json.loads(str(state["meta"]))
    return json.dumps({**meta, **changes})


def loads_or_raises_typed(read, what):
    """None if `read()` returns or raises a type from `uavmec.errors` with no
    warning; else a line naming `what` and the escaped exception."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read()
    except ERRORS:
        return None
    except Exception as exc:   # anything else escaped the reader: report it
        return f"{what}: {type(exc).__name__}: {exc}"
    return None


# ---- JSON mutations ----

def json_paths(node, path=()):
    """Every path (a tuple of keys and indices) to a value inside `node`."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def wrong_values(value):
    """Values a field holding `value` must not hold, or may: other types, a
    list for a scalar, a scalar for a list, NaN, infinities, a negative."""
    values = ["x", [value], None, {}, True, 2.5, math.nan, math.inf, -math.inf, 10 ** 400]
    if isinstance(value, list):
        values += [value[0] if value else 1.0, value[:-1], value + value, [[value]]]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        values += [-value, -1, value + 0.5, float(value)]
    return values


def mutate_json(data, rng, sections):
    """A deep copy of `data` with one value in one of `sections` (tuples of
    keys, each as likely) replaced, removed, or its container replaced by a
    non-object; and a description of the change."""
    data = copy.deepcopy(data)
    section = sections[rng.integers(len(sections))]
    paths = [section, *json_paths(get(data, section), section)]
    path = paths[rng.integers(len(paths))]
    parent, key = get(data, path[:-1]), path[-1]
    kind = rng.integers(4)
    if kind == 0 and isinstance(parent, dict):
        del parent[key]
        return data, f"del {path}"
    if kind == 1:
        parent[key] = [[1.0], "a", None][rng.integers(3)]
        return data, f"{path} = non-object {parent[key]!r}"
    choices = wrong_values(parent[key])
    parent[key] = choices[rng.integers(len(choices))]
    return data, f"{path} = {parent[key]!r}"[:200]


def get(data, path):
    for key in path:
        data = data[key]
    return data


# ---- array mutations ----

ARRAY_MUTATIONS = {
    "complex": lambda a: a.astype(complex),
    "str": lambda a: a.astype(str),
    "float32": lambda a: a.astype(np.float32),
    "int": lambda a: a.astype(int),
    "bool": lambda a: a.astype(bool),
    "object": lambda a: a.astype(object),
    "one row less": lambda a: a[:-1],
    "one row more": lambda a: np.concatenate([a, a[:1]]),
    "transposed": lambda a: a.T,
    "extra axis": lambda a: a[None],
    "flattened": lambda a: a.ravel(),
    "scalar": lambda a: np.float64(1.0),
    "empty": lambda a: np.empty((0,)),
    "nan": lambda a: np.where(np.arange(a.size).reshape(a.shape) == a.size // 2, np.nan, a),
    "inf": lambda a: np.where(np.arange(a.size).reshape(a.shape) == 0, -np.inf, a),
}


class TestConfigChecks:
    @pytest.mark.parametrize("cls, field, value", [
        (ScenarioConfig, "num_users", 2.5), (ScenarioConfig, "num_uavs", True),
        (ScenarioConfig, "horizon", 1.5), (ScenarioConfig, "area_x", math.inf),
        (ScenarioConfig, "v_max", math.inf), (ScenarioConfig, "slot_seconds", math.inf),
        (ScenarioConfig, "uav_freq", math.inf), (ScenarioConfig, "user_speed", math.inf),
        (ScenarioConfig, "task_bits_range", (1, math.inf)),
        (ScenarioConfig, "area_y", "50"), (ScenarioConfig, "coverage_half_angle_deg", math.nan),
        (ScenarioConfig, "user_power_range", 5),
        (ChannelParams, "a", math.inf), (ChannelParams, "bw_g2a_hz", math.inf),
        (ChannelParams, "eta_los_db", -math.inf),
        (TrainConfig, "lr_actor", math.inf), (TrainConfig, "noise_sigma_start", math.inf),
        (TrainConfig, "hidden_actor", 2.5), (TrainConfig, "episodes", 2.0),
        (TrainConfig, "batch_size", 8.0), (TrainConfig, "min_fill", 8.0),
        (TrainConfig, "buffer_capacity", 64.0), (TrainConfig, "penalty", "x"),
        (TrainConfig, "gamma", 1),
    ])
    def test_bad_field_named(self, cls, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must "):
            cls(**{field: value})

    @pytest.mark.parametrize("cls, field, value", [
        (TrainConfig, "tau", np.float32(0.0)),
        (TrainConfig, "noise_decay_fraction", np.float32(0.0)),
        (ScenarioConfig, "area_x", np.float32(0.0)), (ScenarioConfig, "area_x", np.float16(np.inf)),
        (ScenarioConfig, "task_bits_range", (np.float32(0.0), np.float32(1.0))),
    ])
    def test_numpy_number_held_to_the_bounds_as_written(self, cls, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must "):
            cls(**{field: value})

    def test_numpy_numbers_accepted(self):
        config = ScenarioConfig(num_users=np.int64(4), num_uavs=np.int32(2),
                                area_x=np.float64(40.0), rng_seed=np.uint8(3))
        assert (config.num_users, config.num_uavs, config.area_x) == (4, 2, 40.0)
        assert TrainConfig(batch_size=np.int64(8), min_fill=8, tau=np.float32(0.5)).batch_size == 8
        assert ScenarioConfig(area_x=np.float32(40.0), v_max=np.float16(2.0),
                              user_power_range=(np.float32(1.0), np.float32(1.5))).area_x == 40.0


class TestFloatArray:
    def test_float64_array_is_returned_uncopied(self):
        values = np.arange(6.0).reshape(2, 3)
        assert float_array(values, "x") is values

    def test_integers_become_float64(self):
        values = np.arange(-3, 3, dtype=np.int32).reshape(2, 3)
        converted = float_array(values, "x")
        assert converted.dtype == np.float64 and (converted == values).all()

    @pytest.mark.parametrize("value", [["1", "2"], [True, False], [1 + 2j], [[1.0], [2.0, 3.0]],
                                       [None, 1.0], 2**80, [1.0, True], (1.0, np.True_),
                                       [[1.0, 2.0], [3.0, False]], [np.ones(2), np.ones(2, bool)]],
                             ids=["numeric-str", "all-bool", "complex", "ragged", "none", "huge",
                                  "bool-in-list", "numpy-bool-in-tuple", "nested-bool",
                                  "bool-array-in-list"])
    def test_non_numbers_refused_with_the_name(self, value):
        with pytest.raises(ConfigError, match="^x must be an array of numbers"):
            float_array(value, "x")


class TestIntArray:
    @pytest.mark.parametrize("values", [np.arange(4), np.arange(4, dtype=np.uint8),
                                        np.array([2 ** 64 - 1], dtype=np.uint64)])
    def test_integer_array_is_returned_as_read(self, values):
        assert int_array(values, "x") is values

    def test_list_of_integers_is_read(self):
        read = int_array([0, -1, 2, 1], "x")
        assert read.dtype.kind == "i" and read.tolist() == [0, -1, 2, 1]

    @pytest.mark.parametrize("value", [[0.0, 1.0], [0, 1.5], ["0"], [True, False], [0, 1, True],
                                       [0, np.True_], [[0], [0, 0]], [None, 1], 1.0],
                             ids=["integral-float", "fraction", "numeric-str", "all-bool",
                                  "bool-in-list", "numpy-bool-in-list", "ragged", "none",
                                  "float-scalar"])
    def test_non_integers_refused_with_the_name(self, value):
        with pytest.raises(ConfigError, match="^x must be an array of integers"):
            int_array(value, "x")


class TestCheckArray:
    @pytest.mark.parametrize("shape", [(2, 3), (None, 3), (2, None), (None, None), None])
    def test_good_array_is_returned_itself(self, shape):
        values = np.arange(6.0).reshape(2, 3)
        assert check_array(values, shape, errors.NON_NEGATIVE, "x") is values

    @pytest.mark.parametrize("values, rule", [(np.empty((0, 3)), errors.NON_NEGATIVE),
                                              (np.full(2, -1.0), None)], ids=["empty", "no-rule"])
    def test_no_entries_or_no_rule_checks_no_range(self, values, rule):
        assert check_array(values, None, rule, "x") is values

    @pytest.mark.parametrize("values, shape", [(np.zeros(3), (3, 1)), (np.zeros((2, 3)), (3, 3)),
                                               (np.zeros((2, 3)), (None, 2)), (np.zeros(()), (1,))])
    def test_wrong_shape_refused_without_the_row(self, values, shape):
        expected = str(shape).replace("None", "K")
        with pytest.raises(ConfigError, match=rf"^UAV x must have shape {re.escape(expected)}, "
                                               rf"got {re.escape(str(values.shape))}$"):
            check_array(values, shape, None, "UAV {} x")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 91.0])
    def test_first_bad_row_named(self, bad):
        values = np.full((4, 2), 45.0)
        values[2, 1] = values[3, 0] = bad
        with pytest.raises(ConfigError, match=r"^UAV 2 x must lie in \[0, 90\], got \[45\. "):
            check_array(values, (4, 2), ("float", 0.0, 90.0, "lie in [0, 90]"), "UAV {} x")

    def test_scalar_named_without_a_row(self):
        with pytest.raises(ConfigError, match="^reward must be finite, got nan$"):
            check_array(np.asarray(math.nan), (), errors.FINITE, "reward")

    def test_integer_bounds_held_exactly(self):
        values = np.array([2 ** 63 - 1], dtype=np.int64)
        with pytest.raises(ConfigError, match=f"^user 0 a must be small, got {2 ** 63 - 1}$"):
            check_array(values, (1,), ("int", -1, 2 ** 63 - 2, "be small"), "user {} a")


class TestSnapshotReader:
    @pytest.mark.parametrize("key, value", [
        ("initial_uav_positions", [5, 5]),
        ("task_bits_range", 5),
        ("task_bits_range", [1.0, 2.0, 3.0]),
        ("channel", [1.0]),
        ("area_x", "50"),
    ])
    def test_bad_config_value_is_a_config_error(self, key, value):
        data = build_scenario(SNAPSHOT_CONFIG).to_dict()
        data["config"][key] = value
        with pytest.raises(ConfigError, match="scenario config"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("data", [[], "scenario", None, 3])
    def test_non_object_snapshot_rejected(self, data):
        with pytest.raises(ConfigError, match="schema_version"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("content", [b"", b'{"schema_version": 1', b"\xff\xfe\x00"],
                             ids=["empty", "truncated", "binary"])
    def test_non_json_file_rejected(self, tmp_path, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="is not a JSON scenario snapshot"):
            Scenario.load(path)

    @pytest.mark.parametrize("config", [[], "config", None])
    def test_non_object_config_rejected(self, config):
        data = build_scenario(SNAPSHOT_CONFIG).to_dict()
        data["config"] = config
        with pytest.raises(ConfigError, match="scenario config must be a JSON object"):
            Scenario.from_dict(data)

    def test_every_config_field_survives_save_and_load(self, tmp_path):
        assert fields_at_default(OFF_DEFAULT_SCENARIO, ScenarioConfig()) == []
        path = tmp_path / "scenario.json"
        build_scenario(OFF_DEFAULT_SCENARIO).save(path)
        assert Scenario.load(path).config == OFF_DEFAULT_SCENARIO

    def test_mutated_snapshots_load_or_raise_typed_errors(self):
        rng = np.random.default_rng(1917)
        data = build_scenario(SNAPSHOT_CONFIG).to_dict()
        sections = [("schema_version",), ("config",), ("config", "channel"),
                    ("user_positions",), ("uav_positions",)]
        escaped = []
        for trial in range(600):
            mutated, change = mutate_json(data, rng, sections)
            escaped.append(loads_or_raises_typed(lambda: Scenario.from_dict(mutated),
                                                 f"trial {trial}: {change}"))
        assert [line for line in escaped if line] == []


class TestCheckpointReader:
    @pytest.fixture(scope="class")
    def state(self):
        return train(trainer_scenario(), SMALL)[0].state_dict()   # 24 replay rows

    def save(self, path, state):
        with open(path, "wb") as fh:
            np.savez(fh, **state)

    @pytest.mark.parametrize("key, value", [("penalty", "x"), ("batch_size", [8]),
                                            ("hidden_actor", 8.0), ("tau", None)])
    def test_bad_config_value_is_a_config_error(self, tmp_path, state, key, value):
        meta = json.loads(str(state["meta"]))
        self.save(tmp_path / "ckpt.npz",
                  {**state, "meta": edit_meta(state, config={**meta["config"], key: value})})
        with pytest.raises(ConfigError, match=f"checkpoint config: {key}"):
            MaddpgTrainer.load_checkpoint(trainer_scenario(), tmp_path / "ckpt.npz")

    def test_config_too_large_to_build_is_a_config_error(self, tmp_path, state):
        config = {**json.loads(str(state["meta"]))["config"], "hidden_critic": 10 ** 400}
        self.save(tmp_path / "ckpt.npz", {**state, "meta": edit_meta(state, config=config)})
        with pytest.raises(ConfigError, match="checkpoint config does not build a trainer"):
            MaddpgTrainer.load_checkpoint(trainer_scenario(), tmp_path / "ckpt.npz")

    @pytest.mark.parametrize("key, value", [("uinteger", -5), ("has_uint32", 10 ** 30)])
    def test_out_of_range_rng_state_is_a_config_error(self, state, key, value):
        rng_state = {**json.loads(str(state["meta"]))["rng_state"], key: value}
        with pytest.raises(ConfigError, match="rng_state does not fit"):
            MaddpgTrainer(trainer_scenario(), SMALL).load_state_dict(
                {**state, "meta": edit_meta(state, rng_state=rng_state)})

    @pytest.mark.parametrize("name", [*learner.ROLES, *learner.REPLAY_FIELDS])
    @pytest.mark.parametrize("dtype", [str, complex, np.float32, int])
    def test_wrong_dtype_rejected_before_anything_changes(self, state, name, dtype):
        trainer = MaddpgTrainer(trainer_scenario(), SMALL)
        before = [trainer.nets[role].theta.tobytes() for role in learner.ROLES]
        wrong = state[name].astype(dtype)
        with pytest.raises(ConfigError, match=f"{name} .*dtype {wrong.dtype}"):
            trainer.load_state_dict({**state, name: wrong})
        assert [trainer.nets[role].theta.tobytes() for role in learner.ROLES] == before
        assert trainer.buffer.size == 0

    def test_every_config_field_survives_save_and_load(self, tmp_path):
        assert fields_at_default(OFF_DEFAULT_TRAIN, TrainConfig()) == []
        path = tmp_path / "ckpt.npz"
        MaddpgTrainer(trainer_scenario(), OFF_DEFAULT_TRAIN).save_checkpoint(path)
        assert MaddpgTrainer.load_checkpoint(trainer_scenario(), path).config == OFF_DEFAULT_TRAIN

    def test_mutated_checkpoints_load_or_raise_typed_errors(self, tmp_path, state):
        rng = np.random.default_rng(2409)
        meta = json.loads(str(state["meta"]))
        path = tmp_path / "ckpt.npz"
        names = [*learner.ROLES, *learner.REPLAY_FIELDS]
        escaped = []
        for trial in range(300):
            mutated = dict(state)
            if rng.random() < 0.5:
                edited, change = mutate_json(meta, rng, [("config",), ("buffer_size",),
                                                         ("buffer_cursor",), ("rng_state",)])
                mutated["meta"] = json.dumps(edited)
            else:
                name = names[rng.integers(len(names))]
                how = list(ARRAY_MUTATIONS)[rng.integers(len(ARRAY_MUTATIONS))]
                if rng.random() < 0.1:
                    del mutated[name]
                    change = f"del {name}"
                else:
                    mutated[name] = ARRAY_MUTATIONS[how](state[name])
                    change = f"{name} {how}"
            self.save(path, mutated)
            escaped.append(loads_or_raises_typed(
                lambda: MaddpgTrainer.load_checkpoint(trainer_scenario(), path),
                f"trial {trial}: {change}"))
        assert [line for line in escaped if line] == []


class TestWriters:
    def test_numpy_numbers_save_as_python_numbers(self, tmp_path):
        config = dataclasses.replace(SNAPSHOT_CONFIG, num_users=np.int64(4), rng_seed=np.uint8(2),
                                     initial_uav_positions=tuple(map(np.array, STARTS)))
        build_scenario(config).save(tmp_path / "scenario.json")
        loaded = Scenario.load(tmp_path / "scenario.json").config
        assert loaded == dataclasses.replace(config, initial_uav_positions=STARTS)
        train_config = TrainConfig(batch_size=np.int64(8), min_fill=8, buffer_capacity=16)
        MaddpgTrainer(trainer_scenario(), train_config).save_checkpoint(tmp_path / "ckpt.npz")
        loaded = MaddpgTrainer.load_checkpoint(trainer_scenario(), tmp_path / "ckpt.npz")
        assert loaded.config == train_config

    def test_field_that_is_not_json_refused(self):
        @dataclasses.dataclass
        class Holder:
            value: object

        assert errors.config_to_dict(Holder(np.arange(2))) == {"value": [0, 1]}
        with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
            errors.config_to_dict(Holder({1.0}))

    def test_failed_snapshot_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scenario.json"
        build_scenario(SNAPSHOT_CONFIG).save(path)
        saved = path.read_bytes()

        def disk_full(data, fh, **kwargs):
            fh.write('{"schema_version": 1, "con')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", disk_full)
        with pytest.raises(OSError, match="No space"):
            build_scenario(OFF_DEFAULT_SCENARIO).save(path)
        assert os.listdir(tmp_path) == ["scenario.json"]
        assert path.read_bytes() == saved


class TestStepInputs:
    def test_mutated_step_inputs_run_or_raise_typed_errors(self):
        rng = np.random.default_rng(2029)
        scenario = build_scenario(ScenarioConfig(num_users=4, num_uavs=3, horizon=10))
        actions = rng.uniform(-2.0, 2.0, size=(3, 3))
        escaped = []
        for trial in range(300):
            target = ("actions", "penalty", "slot")[trial % 3]
            if target == "penalty":
                values = wrong_values(10.0)
            elif target == "slot":
                values = wrong_values(3) + [np.int64(3), np.float64(3.0), np.bool_(True),
                                            2 ** 64, "3"]
            elif rng.random() < 0.5:
                how = list(ARRAY_MUTATIONS)[rng.integers(len(ARRAY_MUTATIONS))]
                values = [ARRAY_MUTATIONS[how](actions)]
            else:   # one entry of a nested list replaced
                rows, (i, j) = actions.tolist(), rng.integers(3, size=2)
                choices = wrong_values(rows[i][j])
                rows[i][j] = choices[rng.integers(len(choices))]
                values = [rows]
            value = values[rng.integers(len(values))]
            run = {"actions": lambda: EdgeComputeEnv(scenario).step(value),
                   "penalty": lambda: EdgeComputeEnv(scenario, penalty=value).step(actions),
                   "slot": lambda: generate_tasks(scenario, value)}[target]
            escaped.append(loads_or_raises_typed(run, f"trial {trial}: {target} = {value!r}"[:200]))
        assert [line for line in escaped if line] == []


# ---- one reader per kind of outside number ----

def four_user_slot():
    """A 4-user, 3-UAV slot under full cones, where [0, 1, 2, 1] is valid."""
    return scenario_range_context(np.random.default_rng(19), 4, 3, narrow_coverage=False)


def tiny_net():
    shapes = nets.mlp_shapes(2, 3, 1)
    return nets.MlpParams(np.zeros(nets.param_count(shapes)), shapes, "linear")


def motion(deltas):
    positions = np.array([[10.0, 10.0, 12.0], [30.0, 20.0, 18.0]])
    return apply_motion(positions, deltas, ScenarioConfig(num_uavs=2))


def snapshot_user_positions(value):
    data = build_scenario(SNAPSHOT_CONFIG).to_dict()
    data["user_positions"] = value
    return Scenario.from_dict(data)


USER_POSITIONS = build_scenario(SNAPSHOT_CONFIG).to_dict()["user_positions"]   # 4 x 3


def noisy_actions(noise_sigma):
    return MaddpgTrainer(trainer_scenario(), SMALL).joint_actions(np.full((3, 3), 5.0),
                                                                  noise_sigma)


def remembered(name):
    """A call that stores one transition with `name` set to its argument, and
    checks that a refused one leaves the replay buffer empty."""
    def run(value):
        trainer = MaddpgTrainer(trainer_scenario(), SMALL)
        rows = np.ones((3, 3))
        try:
            trainer.remember(**{"obs": rows, "actions": rows, "reward": 1.5, "next_obs": rows,
                                name: value})
        except ConfigError:
            assert trainer.buffer.size == 0
            raise
    return run


def check_assignment_through(entry):
    def run(assignment):
        ctx = four_user_slot()
        decision = SlotDecision(assignment, np.zeros(4), np.zeros(4))
        return {"validate_decision": lambda: validate_decision(decision, ctx),
                "slot_dor": lambda: slot_dor(decision, ctx),
                "evaluate_assignment": lambda: allocator.evaluate_assignment(assignment, ctx),
                "numeric_convex_oracle": lambda: allocator.numeric_convex_oracle(assignment, ctx),
                }[entry]()
    return run


def with_bool(value):
    """A list like `value` (a number, or a list of them at any depth) whose
    last number is True."""
    if np.ndim(value) == 0:
        return [value, True]
    return [*value[:-1], True if np.ndim(value[-1]) == 0 else with_bool(value[-1])]


@dataclasses.dataclass(frozen=True)
class Reader:
    """A `READERS` row: the entry point of one outside argument.

    `call` passes one value to the argument; `valid` is a value it takes.
    The reader refuses, as `error` with a message starting `prefix`: a
    numeric string, a bool, a ragged list, `mixed` (a list that mixes in a
    bool), a NaN where `nan_refused`, and each value in `more`. The values
    the reader takes but the shape or range check after it refuses come as
    (value, message start) pairs: `misshaped` (None where every shape is
    taken) and each pair in `checked`."""
    call: object
    valid: object
    error: type
    prefix: str
    mixed: object
    nan_refused: bool = False
    misshaped: tuple | None = None
    more: tuple = ()
    checked: tuple = ()


def helper(function, name, valid, misshaped=None, more=(), checked=(), **others):
    """The `READERS` row of argument `name` of a public numeric helper, called
    with the valid arguments `others`."""
    return Reader(lambda value: function(**others, **{name: value}), valid, ConfigError,
                  f"{name} must be an array of numbers", with_bool(valid), False, misshaped,
                  tuple(more), tuple(checked))


def scalar(call, valid, name, more=()):
    """The `READERS` row of a scalar argument `name`, read by `check_number`:
    NaN and a one-entry list are refused with the reader's message."""
    return Reader(call, valid, ConfigError, f"{name} must ", [valid, True], True,
                  ([valid], f"{name} must "), tuple(more))


def remember_row(name):
    """The `READERS` row of `remember`'s array argument `name`."""
    must = f"{name} must "
    return Reader(remembered(name), ROWS, ConfigError, must + "be an array of numbers",
                  [[5.0, 5.0, 5.0], [5.0, 5.0, True], [5.0, 5.0, 5.0]], False,
                  (np.ones(9) if name == "next_obs" else np.ones((2, 3)),
                   must + "have shape (3, 3)"),
                  NON_NUMBER_ROWS,
                  [(np.where(np.eye(3, dtype=bool), math.inf, ROWS), must + "be finite")])


def clash(**shapes):
    """The refusal of arguments whose shapes (name -> shape, in argument
    order) do not broadcast together."""
    return " and ".join(f"{name} of shape {shape}" for name, shape in shapes.items()) + \
        " do not broadcast together"


RAGGED = [[0], [0, 0]]
ROWS = np.full((3, 3), 5.0)   # a valid obs, actions or next_obs of a 3-UAV trainer
NON_NUMBER_ROWS = (ROWS.astype(str), ROWS.astype(bool))

READERS = {
    **{f"{entry} assignment": Reader(
        check_assignment_through(entry), [0, 1, 2, 1], ValidationError,
        "assignment must be an array of integers", [0, 1, 2, True], True,
        ([0, 1, 2], "user assignment must have shape (4,)"),
        ([0.0, 1.0, 2.0, 1.0], [0, 1, 2, np.True_]),
        [([0, 1, 2, 3], "user 3 assignment must be LOCAL (-1) or a UAV index in [0, 3)")])
       for entry in ("validate_decision", "slot_dor", "evaluate_assignment",
                     "numeric_convex_oracle")},
    "generate_tasks slot": scalar(lambda slot: generate_tasks(build_scenario(ScenarioConfig(
        num_users=2, horizon=5)), slot), 4, "slot",
        [5, -1, 1.0, np.float64(2.0), np.bool_(True), None]),
    "soft_update tau": scalar(lambda tau: nets.soft_update(tiny_net(), tiny_net(), tau), 0.5,
                              "tau", ["0.5", 0.0, 1.5, None]),
    "ReplayBuffer capacity": scalar(lambda capacity: learner.ReplayBuffer(capacity, 4, 2), 8,
                                    "capacity", [0, -1, 8.0, np.bool_(True), None]),
    "minimize_inverse_on_simplex capacity": scalar(
        lambda capacity: allocator.minimize_inverse_on_simplex([1.0, 2.0], capacity), 3.0,
        "capacity", [[3.0, 3.0], 0.0, -3.0, math.inf, np.array(3.0), None]),
    "minimize_inverse_on_simplex weights": helper(
        allocator.minimize_inverse_on_simplex, "weights", [1.0, 2.0],
        ([[1.0, 2.0]], "weights must have shape (K,)"), [(2.0, False)],
        [(bad, "weights must be finite and > 0")
         for bad in ([math.nan, 1.0], [math.inf, 1.0], [0.0, 1.0], [-1.0, 2.0])], capacity=3.0),
    "joint_actions noise_sigma": scalar(noisy_actions, 0.1, "noise_sigma",
                                        ["0.1", -1.0, math.inf, None]),
    "rt_actions num_uavs": scalar(lambda n: baselines.rt_actions(np.random.default_rng(0), n, 1.0),
                                  4, "num_uavs", ["4", 0, 4.0, np.bool_(True), None]),
    "rt_actions max_step": scalar(
        lambda step: baselines.rt_actions(np.random.default_rng(0), 4, step), 1.0, "max_step",
        [-1.0, math.inf, None]),
    "ScenarioConfig UAV start": Reader(
        lambda start: ScenarioConfig(num_uavs=1, initial_uav_positions=(start,)),
        (10.0, 10.0, 15.0), ConfigError, "initial position of UAV 0 must be an array of numbers",
        [True, False, 15.0], False,
        ((10.0, 10.0), "initial position of UAV 0 must have shape (3,)"),
        [(10.0, np.False_, 15.0)],
        [((math.nan, 10.0, 15.0), "initial position of UAV 0 must be finite")]),
    "Scenario.from_dict user_positions": Reader(
        snapshot_user_positions, USER_POSITIONS, ConfigError,
        "scenario snapshot user_positions must be an array of numbers",
        with_bool(USER_POSITIONS), False,
        (USER_POSITIONS[:3], "scenario snapshot user_positions must have shape (4, 3)"),
        [np.array(USER_POSITIONS, dtype=str), np.ones((4, 3), dtype=bool), None],
        [(np.where(np.eye(4, 3, dtype=bool), bad, USER_POSITIONS),
          "scenario snapshot user_positions must be finite") for bad in (math.nan, math.inf)]),
    "apply_motion deltas": Reader(
        motion, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], ConfigError,
        "motion deltas must be an array of numbers", [[0.0, 0.0, 0.0], [1.0, True, 1.0]], False,
        ([[0.0, 0.0, 0.0]], "UAV motion delta must have shape (2, 3)"),
        [[[0, 0, 0], [1, 1, 1.0j]]],
        [([[0.0, 0.0, 0.0], [1.0, math.inf, 1.0]], "UAV 1 motion delta must be finite")]),
    "joint_actions obs": Reader(
        lambda obs: MaddpgTrainer(trainer_scenario(), SMALL).joint_actions(obs, 0.1),
        ROWS, ConfigError, "obs must be an array of numbers",
        [[5.0, 5.0, 5.0], [5.0, 5.0, False], [5.0, 5.0, 5.0]], False,
        (np.ones(9), "obs must have shape (3, 3)"), NON_NUMBER_ROWS,
        [(np.full((3, 3), math.nan), "obs must be finite")]),
    **{f"remember {name}": remember_row(name) for name in ("obs", "actions", "next_obs")},
    "remember reward": scalar(remembered("reward"), 1.5, "reward", ["1.5", math.inf, [1.0, 2.0]]),
    # the public numeric helpers: every argument but `params`; a helper of two
    # or more arrays refuses shapes that do not broadcast, naming each argument
    "elevation_deg_from_geometry altitude_m": helper(
        channel.elevation_deg_from_geometry, "altitude_m", 10.0,
        ([10.0, 12.0], clash(altitude_m=(2,), reference_dist_m=(3,))),
        reference_dist_m=[5.0, 6.0, 7.0]),
    "elevation_deg_from_geometry reference_dist_m": helper(
        channel.elevation_deg_from_geometry, "reference_dist_m", 5.0,
        ([5.0, 6.0], clash(altitude_m=(3,), reference_dist_m=(2,))),
        altitude_m=[10.0, 12.0, 14.0]),
    "los_probability_from_angle theta_deg": helper(
        channel.los_probability_from_angle, "theta_deg", 30.0, params=ChannelParams()),
    "free_space_loss_db dist_m": helper(
        channel.free_space_loss_db, "dist_m", 20.0,
        ([20.0, 30.0], clash(dist_m=(2,), carrier_mhz=(3,))),
        checked=[(bad, "dist_m must be finite and > 0")
                 for bad in (math.nan, -1.0, 0.0, [20.0, math.inf])],
        carrier_mhz=[2000.0, 2400.0, 5800.0]),
    "free_space_loss_db carrier_mhz": helper(
        channel.free_space_loss_db, "carrier_mhz", 2000.0,
        ([2000.0, 2400.0], clash(dist_m=(3,), carrier_mhz=(2,))),
        dist_m=[20.0, 30.0, 40.0]),
    "mean_path_loss_db dist_m": helper(
        channel.mean_path_loss_db, "dist_m", 20.0,
        ([20.0, 30.0], clash(dist_m=(2,), theta_deg=(3,))),
        theta_deg=[30.0, 45.0, 60.0], params=ChannelParams()),
    "mean_path_loss_db theta_deg": helper(
        channel.mean_path_loss_db, "theta_deg", 30.0,
        ([30.0, 45.0], clash(dist_m=(3,), theta_deg=(2,))),
        dist_m=[20.0, 30.0, 40.0], params=ChannelParams()),
    "spectral_efficiency tx_power_watts": helper(
        channel.spectral_efficiency, "tx_power_watts", 1.0,
        ([1.0, 1.2], clash(tx_power_watts=(2,), path_loss_db=(3,), noise_watts=())),
        path_loss_db=[80.0, 90.0, 100.0], noise_watts=1e-10),
    "spectral_efficiency path_loss_db": helper(
        channel.spectral_efficiency, "path_loss_db", 80.0,
        ([80.0, 90.0], clash(tx_power_watts=(3,), path_loss_db=(2,), noise_watts=())),
        tx_power_watts=[1.0, 1.1, 1.2], noise_watts=1e-10),
    "spectral_efficiency noise_watts": helper(
        channel.spectral_efficiency, "noise_watts", 1e-10,
        ([1e-10, 2e-10], clash(tx_power_watts=(3,), path_loss_db=(), noise_watts=(2,))),
        tx_power_watts=[1.0, 1.1, 1.2], path_loss_db=80.0),
    "coverage_radius altitude_m": helper(
        model.coverage_radius, "altitude_m", 10.0,
        ([10.0, 12.0], clash(altitude_m=(2,), half_angle_deg=(3,))),
        half_angle_deg=[30.0, 45.0, 60.0]),
    "coverage_radius half_angle_deg": helper(
        model.coverage_radius, "half_angle_deg", 45.0,
        ([30.0, 45.0], clash(altitude_m=(3,), half_angle_deg=(2,))),
        altitude_m=[10.0, 12.0, 14.0]),
    "pairwise_distances positions": helper(
        model.pairwise_distances, "positions", [[0.0, 0.0, 10.0], [3.0, 4.0, 10.0]],
        ([1.0, 2.0, 3.0], "positions must have shape (K, 3)"),
        checked=[([[0.0, 0.0], [3.0, 4.0]], "positions must have shape (K, 3)")]),
}


class TestReaders:
    @pytest.mark.parametrize("entry", list(READERS))
    def test_every_bad_value_refused_with_the_argument_named(self, entry):
        row = READERS[entry]
        row.call(row.valid)
        read = ["1", True, RAGGED, row.mixed, *([math.nan] if row.nan_refused else []), *row.more]
        bad = [(value, row.prefix) for value in read]
        bad += [*([] if row.misshaped is None else [row.misshaped]), *row.checked]
        escaped = []
        for value, prefix in bad:
            try:
                row.call(value)
            except row.error as exc:
                if not str(exc).startswith(prefix):
                    escaped.append(f"{value!r}: {type(exc).__name__}: {exc}")
            except Exception as exc:   # anything else escaped the reader: report it
                escaped.append(f"{value!r}: {type(exc).__name__}: {exc}")
            else:
                escaped.append(f"{value!r}: accepted")
        assert escaped == []

    @pytest.mark.parametrize("capacity", [3.0, 3, np.float32(3.0), np.int64(3)])
    def test_simplex_capacity_keeps_its_bits(self, capacity):
        shares = allocator.minimize_inverse_on_simplex([2.0], capacity)
        assert shares.dtype == np.float64 and shares.tobytes() == np.array([3.0]).tobytes()
