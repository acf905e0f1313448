"""The two readers of saved state, `Scenario.from_dict` and
`MaddpgTrainer.load_checkpoint`, their writers, the config checks they rely
on, and the inputs of a slot step.

Whatever a snapshot or a checkpoint holds, reading it gives the saved object
or raises a type from `uavmec.errors`, with no warning; and every config
field a writer saves comes back equal. The same holds for the actions given
to `EdgeComputeEnv.step`, its penalty and the slot of `generate_tasks`; and
each argument of a public numeric helper that is not an array of numbers is a
ConfigError naming it.
"""

import copy
import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest

from uavmec import allocator, channel, errors, learner, model
from uavmec.channel import ChannelParams
from uavmec.env import EdgeComputeEnv
from uavmec.errors import ConfigError, float_array
from uavmec.learner import MaddpgTrainer, TrainConfig, train
from uavmec.model import Scenario, ScenarioConfig, build_scenario, generate_tasks

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

    def test_numpy_numbers_accepted(self):
        config = ScenarioConfig(num_users=np.int64(4), num_uavs=np.int32(2),
                                area_x=np.float64(40.0), rng_seed=np.uint8(3))
        assert (config.num_users, config.num_uavs, config.area_x) == (4, 2, 40.0)
        assert TrainConfig(batch_size=np.int64(8), min_fill=8, tau=np.float32(0.5)).batch_size == 8


class TestFloatArray:
    def test_float64_array_is_returned_uncopied(self):
        values = np.arange(6.0).reshape(2, 3)
        assert float_array(values, "x") is values

    def test_integers_become_float64(self):
        values = np.arange(-3, 3, dtype=np.int32).reshape(2, 3)
        converted = float_array(values, "x")
        assert converted.dtype == np.float64 and (converted == values).all()

    @pytest.mark.parametrize("value", [["1", "2"], [True, False], [1 + 2j], [[1.0], [2.0, 3.0]],
                                       [None, 1.0], 2**80],
                             ids=["numeric-str", "all-bool", "complex", "ragged", "none", "huge"])
    def test_non_numbers_refused_with_the_name(self, value):
        with pytest.raises(ConfigError, match="^x must be an array of numbers"):
            float_array(value, "x")


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
        sections = [("config",), ("config", "channel"), ("users",), ("uavs",),
                    ("initial_uav_positions",)]
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


# Each public numeric helper, with valid arguments by name: every argument
# except `params` goes through `errors.float_array`.
HELPERS = [
    (channel.elevation_deg_from_geometry, {"altitude_m": 10.0, "reference_dist_m": 5.0}),
    (channel.los_probability_from_angle, {"theta_deg": 30.0, "params": ChannelParams()}),
    (channel.free_space_loss_db, {"dist_m": 20.0, "carrier_mhz": 2000.0}),
    (channel.spectral_efficiency, {"tx_power_watts": 1.0, "path_loss_db": 80.0,
                                   "noise_watts": 1e-10}),
    (model.coverage_radius, {"altitude_m": 10.0, "half_angle_deg": 45.0}),
    (model.pairwise_distances, {"positions": [[0.0, 0.0, 10.0], [3.0, 4.0, 10.0]]}),
    (allocator.minimize_inverse_on_simplex, {"weights": [1.0, 2.0], "capacity": 3.0}),
]


class TestNumericHelperInputs:
    @pytest.mark.parametrize("bad", ["10", True], ids=["str", "bool"])
    @pytest.mark.parametrize("helper, name", [(helper, name) for helper, kwargs in HELPERS
                                              for name in kwargs if name != "params"],
                             ids=lambda v: v if isinstance(v, str) else v.__name__)
    def test_non_number_argument_named(self, helper, name, bad):
        kwargs = dict(dict(HELPERS)[helper])
        helper(**kwargs)
        with pytest.raises(ConfigError, match=f"^{name} must be an array of numbers"):
            helper(**{**kwargs, name: bad})

    @pytest.mark.parametrize("name, bad", [("obs", "str"), ("actions", "bool"),
                                           ("reward", "str"), ("next_obs", "bool")])
    def test_remember_refuses_non_numbers(self, name, bad):
        trainer = MaddpgTrainer(trainer_scenario(), SMALL)
        obs = np.ones((3, 3))
        args = {"obs": obs, "actions": obs, "reward": 1.5, "next_obs": obs}
        args[name] = np.asarray(args[name]).astype(bad).tolist()
        with pytest.raises(ConfigError, match=f"^{name} must be an array of numbers"):
            trainer.remember(**args)
        assert trainer.buffer.size == 0

    @pytest.mark.parametrize("bad", ["str", "bool"])
    def test_joint_actions_refuses_non_numbers(self, bad):
        trainer = MaddpgTrainer(trainer_scenario(), SMALL)
        obs = np.full((3, 3), 5.0).astype(bad)
        with pytest.raises(ConfigError, match="^obs must be an array of numbers"):
            trainer.joint_actions(obs, 0.1)
