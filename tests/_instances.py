"""Random slot-instance generator shared by allocator and acceptance tests."""

import numpy as np

from uavmec.channel import ChannelParams
from uavmec.delay import SlotContext
from uavmec.model import ScenarioConfig, Task, UavState, UserState


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

    users = [
        UserState(position=np.array([rng.uniform(0, 50), rng.uniform(0, 50), 0.0]),
                  cpu_freq=float(rng.uniform(0.8e9, 1.0e9)),
                  tx_power=float(rng.uniform(1.0, 1.2)))
        for _ in range(m)
    ]
    uavs = [
        UavState(position=np.array([rng.uniform(0, 50), rng.uniform(0, 50),
                                    rng.uniform(10, 20)]),
                 cpu_freq=float(rng.uniform(6e9, 12e9)),
                 tx_power=5.0, half_angle_deg=half_angle)
        for _ in range(n)
    ]
    tasks = [
        Task(bits=float(rng.uniform(100e3, 150e3)),
             cycles_per_bit=float(rng.uniform(500, 1000)))
        for _ in range(m)
    ]
    return SlotContext(users, uavs, tasks, ChannelParams())


def scenario_range_context(rng, num_users, num_uavs, narrow_coverage,
                           config=ScenarioConfig()):
    """A slot drawn from the `ScenarioConfig` ranges at any size.

    Users on the ground anywhere in the box, UAVs anywhere in the altitude
    band, all UAVs with the configured (equal) CPU, so empty processor groups
    tie exactly. With `narrow_coverage` every UAV gets one 30-60 degree cone,
    else full coverage.
    """
    half_angle = float(rng.uniform(30.0, 60.0)) if narrow_coverage else 90.0
    users = [
        UserState(position=np.array([rng.uniform(0.0, config.area_x),
                                     rng.uniform(0.0, config.area_y), 0.0]),
                  cpu_freq=float(rng.uniform(*config.user_freq_range)),
                  tx_power=float(rng.uniform(*config.user_power_range)))
        for _ in range(num_users)
    ]
    uavs = [
        UavState(position=rng.uniform([0.0, 0.0, config.z_min],
                                      [config.area_x, config.area_y, config.z_max]),
                 cpu_freq=config.uav_freq, tx_power=config.uav_power,
                 half_angle_deg=half_angle)
        for _ in range(num_uavs)
    ]
    tasks = [
        Task(bits=float(rng.uniform(*config.task_bits_range)),
             cycles_per_bit=float(rng.uniform(*config.task_cycles_per_bit_range)))
        for _ in range(num_users)
    ]
    return SlotContext(users, uavs, tasks, config.channel)
