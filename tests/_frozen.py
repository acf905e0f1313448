"""Seeded rollouts, scenario snapshots and training runs frozen in tests/data/.

The runs use only the public surface (Scenario, EdgeComputeEnv, the
allocators, uav_positions/user_positions, Scenario.save, learner.train and
each network's logical (fan_out, fan_in) `weights` and `biases`), so the same
file checks any implementation of the world state or of the learner's
parameter layout. Regenerate the data only for a declared behaviour change:

    PYTHONPATH=src python tests/_frozen.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from uavmec.allocator import cd_search
from uavmec.baselines import ao_allocate, rt_actions
from uavmec.env import EdgeComputeEnv
from uavmec.learner import ROLES, TrainConfig, train
from uavmec.model import Scenario, ScenarioConfig

DATA = Path(__file__).parent / "data"
ROLLOUTS = DATA / "rollouts.json"
TRAINING = DATA / "training.json"
SNAPSHOT_SLOTS = (0, 25)

ALLOCATORS = {"cd_search": cd_search, "ao_allocate": ao_allocate}

# 12 x 6 with 50-degree cones and d_min = 25 collides every slot; commanded
# steps of up to twice the speed cap trip the speed and box flags often.
_DENSE = dict(num_users=12, num_uavs=6, coverage_half_angle_deg=50.0, d_min=25.0,
              horizon=60)
ROLLOUT_SPECS = {
    f"{mobility}-{alloc}": dict(
        config=dict(_DENSE, rng_seed=seed, user_mobility=mobility, user_speed=3.0),
        allocate=alloc, episodes=1)
    for seed, mobility in ((3, "static"), (4, "random_waypoint"))
    for alloc in ALLOCATORS
}
# Two 40-slot episodes at the rollout benchmark's size, across a reset().
ROLLOUT_SPECS["waypoint-100x10-ao_allocate"] = dict(
    config=dict(num_users=100, num_uavs=10, horizon=40, rng_seed=11,
                user_mobility="random_waypoint", user_speed=2.0),
    allocate="ao_allocate", episodes=2)

SNAPSHOT_CONFIG = dict(num_users=100, num_uavs=10, rng_seed=17,
                       user_mobility="random_waypoint", user_speed=2.0)


def positions_sha256(scenario) -> str:
    """Hash of the UAV position bytes followed by the user position bytes."""
    digest = hashlib.sha256(scenario.uav_positions.tobytes())
    digest.update(scenario.user_positions.tobytes())
    return digest.hexdigest()


def rollout(spec: dict) -> list[dict]:
    """One record per slot: reward, the violating UAVs of each kind as index
    lists, assignment, position hash."""
    config = ScenarioConfig(**spec["config"])
    env = EdgeComputeEnv(Scenario(config), allocate=ALLOCATORS[spec["allocate"]])
    rng = np.random.default_rng([config.rng_seed, 11])
    slots = []
    for _ in range(spec["episodes"]):
        env.reset()
        for _ in range(config.horizon):
            actions = rt_actions(rng, config.num_uavs, 2.0 * config.max_step)
            _, reward, info = env.step(actions)
            slots.append({
                "reward": float(reward).hex(),
                "box": np.flatnonzero(info.box).tolist(),
                "speed": np.flatnonzero(info.speed).tolist(),
                "collision": np.flatnonzero(info.collision).tolist(),
                "assignment": [int(a) for a in info.allocation.decision.assignment],
                "positions_sha256": positions_sha256(env.scenario),
            })
    return slots


def snapshot_path(walk_slots: int) -> Path:
    return DATA / f"scenario_100x10_walk{walk_slots}.json"


def walked_scenario(walk_slots: int):
    scenario = Scenario(ScenarioConfig(**SNAPSHOT_CONFIG))
    for _ in range(walk_slots):
        scenario.advance_users()
    return scenario


# 5 x 60 slots on the default 10 x 4 scenario: the first 32 (128) slots fill
# the buffer, every later one runs all four agents' updates.
TRAINING_SPECS = {
    f"10x4-batch{batch}": dict(
        scenario=dict(horizon=60, rng_seed=5),
        train=dict(episodes=5, min_fill=batch, batch_size=batch, buffer_capacity=2000,
                   seed=3))
    for batch in (32, 128)
}


def networks_sha256(trainer) -> str:
    """Hash of every network's weights (fan_out, fan_in), then biases, layer by
    layer, role by role, agent by agent: logical values in C order, whatever
    the storage layout."""
    digest = hashlib.sha256()
    for agent in trainer.agents:
        for role in ROLES:
            net = agent[role]
            for w, b in zip(net.weights, net.biases):
                digest.update(w.tobytes())
                digest.update(b.tobytes())
    return digest.hexdigest()


def training_run(spec: dict) -> dict:
    """The seeded `train()` history as hex floats, plus the final networks' hash."""
    scenario = Scenario(ScenarioConfig(**spec["scenario"]))
    trainer, history = train(scenario, TrainConfig(**spec["train"]))
    return {
        "episode_reward": [float(r).hex() for r in history.episode_reward],
        "episode_mean_dor": [float(d).hex() for d in history.episode_mean_dor],
        "episode_violations": [int(v) for v in history.episode_violations],
        "networks_sha256": networks_sha256(trainer),
    }


def record():
    frozen = {name: dict(spec, slots=rollout(spec)) for name, spec in ROLLOUT_SPECS.items()}
    with open(ROLLOUTS, "w") as fh:
        fh.write("{\n")
        for i, (name, run) in enumerate(frozen.items()):
            slots = run.pop("slots")
            fh.write(f"  {json.dumps(name)}: {{{json.dumps(run, sort_keys=True)[1:-1]}, "
                     '"slots": [\n')
            fh.write(",\n".join("    " + json.dumps(s) for s in slots))
            fh.write("\n  ]}" + (",\n" if i + 1 < len(frozen) else "\n"))
        fh.write("}\n")
    for walk_slots in SNAPSHOT_SLOTS:
        walked_scenario(walk_slots).save(snapshot_path(walk_slots))
    training = {name: dict(spec, **training_run(spec))
                for name, spec in TRAINING_SPECS.items()}
    TRAINING.write_text(json.dumps(training, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
