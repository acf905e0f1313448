"""What `bench/` alone still uses: the records `UserState`, `UavState` and `Task`
with `SlotContext`'s record branch (`from_rows`), `build_scenario`, and
`nets.mlp_forward`/`mlp_gradients`. Only this module tests them
(`test_packaging.KEPT_FOR_BENCH`), and it goes whole with them."""

import dataclasses

import numpy as np
import pytest

from tests._instances import make_context, make_tasks, make_uavs, make_users
from uavmec import nets
from uavmec.errors import ConfigError
from uavmec.model import Scenario, ScenarioConfig, Task, UavState, UserState, build_scenario


def records(kind, bundle) -> list:
    """One `kind` record per row of `bundle`."""
    columns = vars(bundle)
    return [kind(**dict(zip(columns, row))) for row in zip(*columns.values())]


def test_records_and_bundles_give_byte_equal_contexts():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, n = int(rng.integers(1, 41)), int(rng.integers(1, 9))
        users = make_users(rng.uniform(0, 50, (m, 2)), rng.uniform(0.8e9, 1e9, m),
                           rng.uniform(0.0, 1.2, m))
        uavs = make_uavs(np.column_stack([rng.uniform(0, 50, (n, 2)), rng.uniform(10, 20, n)]),
                         rng.uniform(6e9, 12e9, n), half_angle_deg=rng.uniform(30, 90, n))
        tasks = make_tasks(m, rng.uniform(100e3, 150e3, m), rng.uniform(500, 1000, m))
        by_records = make_context(records(UserState, users), records(UavState, uavs),
                                  records(Task, tasks))
        by_bundles = make_context(users, uavs, tasks)
        for name, value in vars(by_bundles).items():
            assert np.asarray(getattr(by_records, name)).tobytes() == np.asarray(value).tobytes()


NUMBERS = "{kind} records field '{field}' must be an array of numbers"
MALFORMED = {   # id: the kind and field of the records, the value, which records, message
    "user-position-2d": ("user", "position", [1.0, 2.0], "all",
                         r"user position must have shape \(2, 3\), got \(2, 2\)"),
    "user-position-ragged": ("user", "position", [1.0, 2.0], "last", NUMBERS),
    "user-cpu_freq-str": ("user", "cpu_freq", "fast", "last", NUMBERS),
    "uav-tx_power-vector": ("UAV", "tx_power", [5.0, 5.0], "all",
                            r"UAV tx_power must have shape \(2,\), got \(2, 2\)"),
    "task-bits-str": ("task", "bits", "many", "last", NUMBERS),
    "user-cpu_freq-numeric-str": ("user", "cpu_freq", "1e9", "last", NUMBERS),
    "uav-position-numeric-str": ("UAV", "position", ["30", "30", "10"], "last", NUMBERS),
    "task-bits-numeric-str": ("task", "bits", "1e5", "last", NUMBERS),
    "user-tx_power-all-bool": ("user", "tx_power", True, "all", NUMBERS),
    "uav-half_angle_deg-all-bool": ("UAV", "half_angle_deg", False, "all", NUMBERS),
    "task-bits-0": ("task", "bits", 0.0, "last", "task 1 bits must be finite and > 0"),
    "task-cycles_per_bit-0": ("task", "cycles_per_bit", 0.0, "last",
                              "task 1 cycles_per_bit must be finite and > 0"),
}


@pytest.mark.parametrize("kind, field, value, rows, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_record_names_the_field(kind, field, value, rows, message):
    world = {"user": records(UserState, make_users([(0, 0), (5, 5)])),
             "UAV": records(UavState, make_uavs([(0, 0, 10), (30, 30, 10)])),
             "task": records(Task, make_tasks(2))}
    first = 0 if rows == "all" else 1
    world[kind][first:] = [dataclasses.replace(record, **{field: value})
                           for record in world[kind][first:]]
    with pytest.raises(ConfigError, match=message.format(kind=kind, field=field)):
        make_context(world["user"], world["UAV"], world["task"])


def test_build_scenario_is_scenario():
    config = ScenarioConfig(num_users=5, num_uavs=6, rng_seed=3)
    built = build_scenario(config)
    assert type(built) is Scenario and built.to_dict() == Scenario(config).to_dict()


def test_forward_and_gradients_take_one_input_vector():
    shapes = nets.mlp_shapes(4, 5, 3)
    net = nets.MlpParams(np.empty(nets.param_count(shapes)), shapes, "tanh")
    rng = np.random.default_rng(12)
    nets.init_mlp(net, rng)
    x, upstream = rng.normal(size=(1, 4)), rng.normal(size=(1, 3))
    acts = nets.mlp_activations(net, x)
    grad, dx = nets.mlp_backward(net, acts, upstream)
    for inputs, up, out in ((x[0], upstream[0], acts[-1][0]), (x, upstream, acts[-1])):
        forward = nets.mlp_forward(net, inputs)
        layers, d_input = nets.mlp_gradients(net, inputs, up)
        assert forward.shape == out.shape and forward.tobytes() == out.tobytes()
        assert d_input.shape == inputs.shape and d_input.tobytes() == dx.tobytes()
        assert np.concatenate([p.ravel() for layer in layers for p in layer]).tobytes() == \
            grad.tobytes()
    with pytest.raises(ConfigError, match="input shape"):
        nets.mlp_forward(net, np.zeros(5))
