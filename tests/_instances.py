"""The worlds the tests build. Every hand-built user, UAV, task or slot goes
through `make_users`, `make_uavs`, `make_tasks` and `make_context`, where a
field given one value holds it for every row and each column is a new array.
"""

import json

import numpy as np

from uavmec.channel import ChannelParams
from uavmec.delay import SlotContext
from uavmec.learner import TrainConfig
from uavmec.model import Scenario, ScenarioConfig, TaskArrays, UavArrays, UserArrays

SMALL = TrainConfig(episodes=2, batch_size=8, min_fill=8, buffer_capacity=64,
                    hidden_actor=8, hidden_critic=8, seed=4)


def _column(values, count: int, row: tuple = ()) -> np.ndarray:
    """`values`, one for all `count` rows or one per row, as a new float64 array."""
    return np.array(np.broadcast_to(np.asarray(values, dtype=float), (count, *row)))


def make_users(positions, cpu_freq=1e9, tx_power=1.0) -> UserArrays:
    """Users at the rows of `positions`: (x, y) on the ground, or (x, y, z)."""
    count = len(positions)
    rows = np.column_stack([positions, np.zeros(count)])[:, :3]   # z = 0 unless given
    return UserArrays(position=_column(rows, count, (3,)), cpu_freq=_column(cpu_freq, count),
                      tx_power=_column(tx_power, count))


def make_uavs(xyz, cpu_freq=10e9, tx_power=5.0, half_angle_deg=90.0) -> UavArrays:
    """UAVs at the (x, y, z) rows of `xyz`."""
    count = len(xyz)
    return UavArrays(position=_column(xyz, count, (3,)), cpu_freq=_column(cpu_freq, count),
                     tx_power=_column(tx_power, count),
                     half_angle_deg=_column(half_angle_deg, count))


def make_tasks(count: int, bits=1e5, cycles_per_bit=1000.0) -> TaskArrays:
    return TaskArrays(bits=_column(bits, count), cycles_per_bit=_column(cycles_per_bit, count))


def make_context(users: UserArrays, uavs: UavArrays, tasks: TaskArrays | None = None,
                 params: ChannelParams = ChannelParams()) -> SlotContext:
    """The slot of the bundles; by default each user has one `make_tasks` task."""
    tasks = make_tasks(len(users.cpu_freq)) if tasks is None else tasks
    return SlotContext(users, uavs, tasks, params)


def _draws(rng, count: int, *ranges) -> np.ndarray:
    """`count` rows, each drawn as one `rng.uniform(low, high)` per range in turn."""
    return np.array([[rng.uniform(*bounds) for bounds in ranges]
                     for _ in range(count)]).reshape(count, -1)


def random_slot_context(rng, num_users=None, num_uavs=None, max_users=6,
                        max_uavs=3, narrow_coverage_prob=0.5):
    """A random slot: users on the ground, UAVs aloft, one task per user.

    With probability `narrow_coverage_prob` the UAVs get a narrow coverage
    cone, so some users may end up uncovered and forced local.
    """
    m = int(num_users) if num_users else int(rng.integers(1, max_users + 1))
    n = int(num_uavs) if num_uavs else int(rng.integers(1, max_uavs + 1))
    if rng.random() < narrow_coverage_prob:
        half_angle = float(rng.uniform(30.0, 60.0))
    else:
        half_angle = 90.0
    users = _draws(rng, m, (0, 50), (0, 50), (0.8e9, 1.0e9), (1.0, 1.2))   # x, y, cpu, power
    uavs = _draws(rng, n, (0, 50), (0, 50), (10, 20), (6e9, 12e9))          # x, y, z, cpu
    tasks = _draws(rng, m, (100e3, 150e3), (500, 1000))
    return make_context(make_users(users[:, :2], *users[:, 2:].T),
                        make_uavs(uavs[:, :3], uavs[:, 3], half_angle_deg=half_angle),
                        make_tasks(m, *tasks.T))


def scenario_range_context(rng, num_users, num_uavs, narrow_coverage,
                           config=ScenarioConfig()):
    """A slot drawn from the `ScenarioConfig` ranges at any size.

    Users on the ground anywhere in the box, UAVs anywhere in the altitude
    band, all UAVs with the configured (equal) CPU, so empty processor groups
    tie exactly. With `narrow_coverage` every UAV gets one 30-60 degree cone,
    else full coverage.
    """
    half_angle = float(rng.uniform(30.0, 60.0)) if narrow_coverage else 90.0
    users = _draws(rng, num_users, (0.0, config.area_x), (0.0, config.area_y),
                   config.user_freq_range, config.user_power_range)
    uavs = _draws(rng, num_uavs, ([0.0, 0.0, config.z_min],
                                  [config.area_x, config.area_y, config.z_max]))
    tasks = _draws(rng, num_users, config.task_bits_range, config.task_cycles_per_bit_range)
    return make_context(make_users(users[:, :2], *users[:, 2:].T),
                        make_uavs(uavs, config.uav_freq, config.uav_power, half_angle),
                        make_tasks(num_users, *tasks.T), config.channel)


def trainer_scenario(num_uavs=4, **config) -> Scenario:
    """The learner tests' world: 4 users, 12-slot episodes."""
    return Scenario(ScenarioConfig(num_users=4, num_uavs=num_uavs, horizon=12, **config))


def edit_meta(state, **changes) -> str:
    """`state`'s meta JSON with top-level keys replaced."""
    return json.dumps({**json.loads(str(state["meta"])), **changes})
