"""Multi-agent deterministic-policy-gradient trainer for UAV trajectories.

Each UAV owns an actor (observation -> displacement) and a centralized critic
over the joint observation and joint action, plus target copies blended by
soft updates. Training follows the episodic loop: act with Gaussian
exploration noise, step the environment (which solves the slot allocation),
store the transition, and once the buffer is warm run one critic and one
actor gradient step per agent per slot. Plain gradient steps, no adaptive
moments.

Each role in `ROLES` is one stacked `nets.MlpParams`, `MaddpgTrainer.nets[role]`,
over a (num_agents, P) `theta` whose row n is agent n's network of that role;
`agents[n][role]` is that row's own `MlpParams`. Both views share the stack's
memory, so a write through either is seen by the other. Acting runs all
actors in one stacked forward pass, and each TD target runs all target actors
in one.

The replay buffer holds each transition in network units, normalised once
when `remember` stores it: the critic input x = [obs, act] / input_scale, the
reward, and next_obs divided by the box extents. A warm slot draws every
agent's batch at once, (num_agents, batch_size) indices in one call. The
critic, actor and soft updates then run agent by agent, as in sequential
MADDPG (Lowe et al. 2017, arXiv:1706.02275): agent n + 1's TD target reads
agent n's target actor as just blended, so the agents cannot be updated as one
stacked step without changing the result.

A checkpoint is one `.npz` archive of plain arrays (schema version 5): `meta`,
a JSON string holding schema_version, config (the TrainConfig), buffer_size,
buffer_cursor and rng_state; the four role stacks; the buffer_size filled
replay rows as x, rew and next_obs; and input_scale, the network units those
rows are in. Replay rows past buffer_size hold no data (see `ReplayBuffer`)
and are neither saved nor restored. `load_checkpoint` reads the config with
`errors.config_from_dict`. `checkpoint_layout` is the one layout table, entry
name -> the float64 array it holds: `state_dict` copies from it, and
`load_state_dict` checks every array against it, and input_scale against the
trainer's own, before writing any.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import nets
from .env import EdgeComputeEnv, SlotInfo
from .errors import (COUNT, FINITE, NON_NEGATIVE, SEED, UNIT, ConfigError, NumericError,
                     check_array, check_number, check_numbers, config_from_dict,
                     config_to_dict, float_array, replace_file, require)
from .model import Scenario, stream

CHECKPOINT_SCHEMA_VERSION = 5
META_KEYS = ("schema_version", "config", "buffer_size", "buffer_cursor", "rng_state")
ROLES = ("actor", "critic", "target_actor", "target_critic")
REPLAY_FIELDS = ("x", "rew", "next_obs")


_TRAIN_RULES = {
    "lr_actor": NON_NEGATIVE, "lr_critic": NON_NEGATIVE, "tau": UNIT,
    "gamma": ("float", 0.0, float(np.nextafter(1.0, 0.0)), "lie in [0, 1)"),
    "buffer_capacity": COUNT, "episodes": COUNT, "batch_size": COUNT, "min_fill": COUNT,
    "hidden_actor": COUNT, "hidden_critic": COUNT,
    "noise_sigma_start": NON_NEGATIVE, "noise_sigma_end": NON_NEGATIVE,
    "noise_decay_fraction": UNIT, "penalty": NON_NEGATIVE, "seed": SEED,
}


@dataclass(frozen=True)
class TrainConfig:
    lr_actor: float = 1e-4
    lr_critic: float = 1e-3
    tau: float = 0.01
    gamma: float = 0.95
    buffer_capacity: int = 500_000
    episodes: int = 250
    batch_size: int = 128
    min_fill: int = 1000
    hidden_actor: int = 64
    hidden_critic: int = 64
    noise_sigma_start: float = 0.5    # fraction of the per-slot step budget
    noise_sigma_end: float = 0.05
    noise_decay_fraction: float = 0.6
    penalty: float = 10.0
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, _TRAIN_RULES)
        require(self.min_fill >= self.batch_size,
                f"min_fill {self.min_fill} must be >= batch_size {self.batch_size}")
        require(self.buffer_capacity >= self.min_fill,
                f"buffer_capacity {self.buffer_capacity} must be >= min_fill {self.min_fill}")
        require(self.noise_sigma_start >= self.noise_sigma_end,
                "noise schedule must decay toward a nonnegative floor")

    def noise_sigma(self, episode: int) -> float:
        """Linear decay over the first noise_decay_fraction of episodes."""
        span = max(1, int(self.episodes * self.noise_decay_fraction))
        frac = min(1.0, episode / span)
        return self.noise_sigma_start + frac * (self.noise_sigma_end - self.noise_sigma_start)


class ReplayBuffer:
    """Fixed-capacity ring of (critic input x, reward, next joint obs) rows,
    stored as given.

    The arrays are allocated uninitialised, so rows at or past `size` hold no
    data. None is ever read: `sample` draws indices below `size`, `state_dict`
    copies and `load_state_dict` writes only `[:size]`, and `push` writes a row
    before `size` can cover it, since `cursor == size` until the ring is full.
    """

    def __init__(self, capacity: int, x_dim: int, obs_dim: int):
        check_number(capacity, COUNT, "capacity")
        self.capacity = capacity
        self.x = np.empty((capacity, x_dim))
        self.rew = np.empty(capacity)
        self.next_obs = np.empty((capacity, obs_dim))
        self.size = 0
        self.cursor = 0

    def push(self, x, rew, next_obs):
        i = self.cursor
        self.x[i] = x
        self.rew[i] = rew
        self.next_obs[i] = next_obs
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batches: int, batch_size: int, rng: np.random.Generator):
        """(x, rew, next_obs) of `batches` batches, each field shaped
        (batches, batch_size, ...), at uniform indices drawn in one call: the
        same indices as `batches` draws of batch_size, in order."""
        if batch_size > self.size:
            raise ConfigError(
                f"cannot sample {batch_size} from a buffer holding {self.size}")
        idx = rng.integers(0, self.size, size=(batches, batch_size))
        return self.x[idx], self.rew[idx], self.next_obs[idx]


@dataclass
class TrainingHistory:
    episode_reward: list[float] = field(default_factory=list)
    episode_mean_dor: list[float] = field(default_factory=list)
    episode_violations: list[int] = field(default_factory=list)


class MaddpgTrainer:
    """Owns the role stacks, the per-agent networks over their rows, the replay
    buffer, and the update rules.

    Network inputs are normalized: observations divide by the box extents,
    actions divide by the per-slot step budget so the critic sees the actor's
    (-1, 1) output range directly.
    """

    def __init__(self, scenario: Scenario, config: TrainConfig):
        self.config = config
        cfg = scenario.config
        self.num_agents = cfg.num_uavs
        self.max_step = cfg.max_step
        self.obs_dim = 3
        self.obs_scale = np.array([cfg.area_x, cfg.area_y, cfg.z_max])
        self.joint_obs_scale = np.tile(self.obs_scale, self.num_agents)
        self.input_scale = np.concatenate([self.joint_obs_scale,
                                           np.full(self.num_agents * 3, self.max_step)])
        self.rng = stream(config.seed, "learner")

        joint_dim = self.num_agents * (self.obs_dim + 3)
        actor = (nets.mlp_shapes(self.obs_dim, config.hidden_actor, 3), "tanh")
        critic = (nets.mlp_shapes(joint_dim, config.hidden_critic, 1), "linear")
        layout = dict(zip(ROLES, (actor, critic, actor, critic)))
        self.nets = {role: nets.MlpParams(np.empty((self.num_agents, nets.param_count(shapes))),
                                          shapes, out)
                     for role, (shapes, out) in layout.items()}
        self.agents = [{role: nets.MlpParams(self.nets[role].theta[n], *layout[role])
                        for role in ROLES}
                       for n in range(self.num_agents)]
        for a in self.agents:   # one rng stream: actor n, then critic n
            nets.init_mlp(a["actor"], self.rng)
            nets.init_mlp(a["critic"], self.rng)
        self.nets["target_actor"].theta[...] = self.nets["actor"].theta
        self.nets["target_critic"].theta[...] = self.nets["critic"].theta
        self.buffer = ReplayBuffer(config.buffer_capacity, joint_dim,
                                   self.num_agents * self.obs_dim)

    # ---- acting ----

    def joint_actions(self, obs: np.ndarray, noise_sigma: float) -> np.ndarray:
        """Displacement commands in meters, one row per agent.

        Each row is the agent's policy output plus Gaussian noise, clipped to
        the per-axis step budget; the environment's motion enforcement still
        applies on top. `obs` must be a finite (num_agents, 3) array
        (`errors.check_array`), and `noise_sigma` finite and >= 0.
        """
        check_number(noise_sigma, NON_NEGATIVE, "noise_sigma")
        obs_norm = check_array(float_array(obs, "obs"), (self.num_agents, 3), FINITE,
                               "obs") / self.obs_scale
        u = nets.mlp_activations(self.nets["actor"], obs_norm[:, None, :])[-1][:, 0]
        if noise_sigma > 0:
            u = u + self.rng.normal(scale=noise_sigma, size=u.shape)
        return np.clip(u, -1.0, 1.0) * self.max_step

    # ---- updates ----

    def remember(self, obs, actions, reward: float, next_obs):
        """Store one transition in network units: the critic input
        [obs, actions] / input_scale, the reward, and next_obs divided by the
        box extents. obs, actions and next_obs must be finite (num_agents, 3)
        arrays (`errors.check_array`), and the reward a finite number."""
        check_number(reward, FINITE, "reward")
        obs, actions, next_obs = (
            check_array(float_array(value, name), (self.num_agents, 3), FINITE, name)
            for value, name in ((obs, "obs"), (actions, "actions"), (next_obs, "next_obs")))
        x = np.concatenate([np.ravel(obs), np.ravel(actions)]) / self.input_scale
        self.buffer.push(x, reward, np.ravel(next_obs) / self.joint_obs_scale)

    def td_target(self, agent: int, batch) -> np.ndarray:
        """y = r + gamma * Q'(S', A') with A' from one stacked pass of the target actors."""
        _, rew, next_obs = batch
        batch_size = next_obs.shape[0]
        own_obs = next_obs.reshape(batch_size, self.num_agents, self.obs_dim).transpose(1, 0, 2)
        next_actions = nets.mlp_activations(self.nets["target_actor"], own_obs)[-1]
        critic_in = np.concatenate(
            [next_obs, next_actions.transpose(1, 0, 2).reshape(batch_size, -1)], axis=1)
        q_next = nets.mlp_activations(self.agents[agent]["target_critic"], critic_in)[-1]
        return rew + self.config.gamma * q_next[:, 0]

    def critic_update(self, agent: int, batch) -> float:
        """One mean-squared TD-error descent step on a `ReplayBuffer.sample`
        batch; returns the pre-step loss."""
        y = self.td_target(agent, batch)
        critic = self.agents[agent]["critic"]
        acts = nets.mlp_activations(critic, batch[0])
        err = acts[-1][:, 0] - y
        loss = float(np.mean(err ** 2))
        upstream = (2.0 / err.size) * err[:, None]
        grad, _ = nets.mlp_backward(critic, acts, upstream, input_grad=False)
        critic.theta += -self.config.lr_critic * grad
        return loss

    def actor_update(self, agent: int, batch) -> float:
        """One ascent step on mean Q with the agent's own action re-derived
        from its policy, on a `ReplayBuffer.sample` batch; returns the actor
        gradient norm."""
        x = batch[0]
        d = self.obs_dim
        actor = self.agents[agent]["actor"]
        actor_acts = nets.mlp_activations(actor, x[:, agent * d:(agent + 1) * d])

        start = self.num_agents * d + agent * 3
        own = slice(start, start + 3)
        joint = x.copy()
        joint[:, own] = actor_acts[-1]
        critic = self.agents[agent]["critic"]
        batch_size = x.shape[0]
        upstream = np.full((batch_size, 1), 1.0 / batch_size)
        _, dx = nets.mlp_backward(critic, nets.mlp_activations(critic, joint), upstream,
                                  params_grad=False)

        grad, _ = nets.mlp_backward(actor, actor_acts, dx[:, own], input_grad=False)
        actor.theta += self.config.lr_actor * grad
        return float(np.linalg.norm(grad))

    def soft_update_agent(self, agent: int):
        a = self.agents[agent]
        nets.soft_update(a["target_actor"], a["actor"], self.config.tau)
        nets.soft_update(a["target_critic"], a["critic"], self.config.tau)

    def check_finite(self, where: str):
        """NumericError naming the first agent, then role, with a non-finite parameter."""
        check_finite_stacks({role: net.theta for role, net in self.nets.items()},
                            f"at {where}")

    # ---- checkpoints ----

    def state_dict(self) -> dict[str, np.ndarray | str]:
        """The checkpoint archive's entries (module docstring), as copies."""
        meta = {"schema_version": CHECKPOINT_SCHEMA_VERSION,
                "config": config_to_dict(self.config),
                "buffer_size": self.buffer.size, "buffer_cursor": self.buffer.cursor,
                "rng_state": self.rng.bit_generator.state}
        state = {"meta": json.dumps(meta, sort_keys=True)}
        state.update((name, array.copy())
                     for name, (_, array) in self.checkpoint_layout(self.buffer.size).items())
        state["input_scale"] = self.input_scale.copy()
        return state

    def checkpoint_layout(self, size: int) -> dict[str, tuple[str, np.ndarray]]:
        """The checkpoint's arrays, written once for saving and loading: entry
        name -> (label, the float64 array it is), each role stack, then the first
        `size` rows of each replay field."""
        layout = {role: (f"{role} stack", self.nets[role].theta) for role in ROLES}
        layout.update((name, (f"replay field {name}", getattr(self.buffer, name)[:size]))
                      for name in REPLAY_FIELDS)
        return layout

    def load_state_dict(self, state: dict):
        """Restore from `state_dict()` output through `checkpoint_layout`: each
        role stack, then the first buffer_size rows of each replay field. Unless every
        entry is there, float64 and shaped as its target, the cursor is where
        `push` would have left it, and input_scale is this trainer's, raise
        ConfigError naming it, or NumericError naming the first agent and role
        with a non-finite parameter, before anything is changed."""
        meta = checkpoint_meta(state)
        size, cursor, capacity = meta["buffer_size"], meta["buffer_cursor"], self.buffer.capacity
        check_number(size, ("int", 0, capacity, f"lie in [0, {capacity}]"),
                     "checkpoint buffer_size")
        check_number(cursor, ("int", 0, capacity - 1, f"lie in [0, {capacity})"),
                     "checkpoint buffer_cursor")
        layout = self.checkpoint_layout(size)
        for name, (label, target) in layout.items():
            require(name in state, f"checkpoint is missing array {name}")
            array = state[name]
            dtype = getattr(array, "dtype", type(array).__name__)
            require(dtype == np.float64 and array.shape == target.shape,
                    f"checkpoint {label} has shape {np.shape(array)} and dtype {dtype}, this "
                    f"trainer needs float64 {target.shape} for (num_agents, buffer_size) = "
                    f"({self.num_agents}, {size})")
        require(size == capacity or cursor == size,   # push's order, or unwritten rows get read
                f"replay cursor {cursor} does not follow its {size} rows in a buffer of "
                f"capacity {capacity}: a ring that is not full has its cursor at its size")
        require("input_scale" in state, "checkpoint is missing array input_scale")
        scale = state["input_scale"]
        require(getattr(scale, "dtype", None) == np.float64
                and np.array_equal(scale, self.input_scale),
                f"checkpoint input_scale {np.asarray(scale).tolist()} is not this trainer's "
                f"{self.input_scale.tolist()}: its replay rows are in other network units")
        check_finite_stacks(state, "in the checkpoint")
        try:   # on a scratch generator, so a bad state changes nothing here
            type(self.rng.bit_generator)().state = meta["rng_state"]
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ConfigError(f"checkpoint rng_state does not fit: {exc!r}") from exc
        for name, (_, target) in layout.items():
            target[...] = state[name]
        self.buffer.size, self.buffer.cursor = size, cursor
        self.rng.bit_generator.state = meta["rng_state"]

    def save_checkpoint(self, path: str | os.PathLike):
        """Write `state_dict()` (`meta` JSON, one (num_agents, P) stack per role,
        the filled replay rows, input_scale) as one `.npz` archive at exactly
        `path`, through `errors.replace_file`: an interrupted save leaves the
        previous checkpoint whole and loadable."""
        with replace_file(path, "wb") as fh:   # a handle: np.savez would add ".npz" to a name
            np.savez(fh, **self.state_dict())

    @classmethod
    def load_checkpoint(cls, scenario: Scenario, path: str | os.PathLike) -> "MaddpgTrainer":
        """A trainer for `scenario` restored from a `save_checkpoint` archive."""
        try:   # a lone .npy array is no context manager: TypeError
            with open(path, "rb") as fh, np.load(fh) as archive:
                state = dict(archive)
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path} is not a checkpoint archive") from exc
        config = config_from_dict(TrainConfig, checkpoint_meta(state)["config"],
                                  "checkpoint config")
        try:   # numpy refuses networks or a buffer too large to allocate
            trainer = cls(scenario, config)
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"checkpoint config does not build a trainer: {exc}") from exc
        trainer.load_state_dict(state)
        return trainer


def check_finite_stacks(stacks: dict, where: str):
    """NumericError naming the first agent, then role, whose `stacks[role]` row
    holds a non-finite parameter."""
    finite = np.array([np.isfinite(stacks[role]).all(axis=1) for role in ROLES])
    if not finite.all():
        n, r = np.argwhere(~finite.T)[0]
        raise NumericError(f"non-finite parameters in agent {n} {ROLES[r]} {where}")


def checkpoint_meta(state: dict) -> dict:
    """A checkpoint state's parsed `meta`; ConfigError, naming what is wrong,
    unless meta is current-schema JSON holding every key in META_KEYS, config
    and rng_state as objects. `load_state_dict` checks the rest."""
    require("meta" in state, "checkpoint is missing array meta")
    try:
        meta = json.loads(str(state["meta"]))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"checkpoint meta is not JSON: {exc}") from None
    version = meta.get("schema_version") if isinstance(meta, dict) else None
    check_number(version, ("int", CHECKPOINT_SCHEMA_VERSION, CHECKPOINT_SCHEMA_VERSION,
                           f"be {CHECKPOINT_SCHEMA_VERSION}"), "checkpoint schema_version")
    for key in META_KEYS:
        require(key in meta, f"checkpoint meta is missing key {key}")
    for key in ("config", "rng_state"):
        require(isinstance(meta[key], dict),
                f"checkpoint meta {key} must be a JSON object, got {meta[key]!r}")
    return meta


def train(scenario: Scenario, config: TrainConfig,
          slot_callback=None) -> tuple[MaddpgTrainer, TrainingHistory]:
    """Full training run: episodes x horizon slots, deterministic under the seed.

    slot_callback(episode, info: SlotInfo), when given, observes every slot.
    """
    require(slot_callback is None or callable(slot_callback),
            f"slot_callback must be callable, got {slot_callback!r}")
    trainer = MaddpgTrainer(scenario, config)
    env = EdgeComputeEnv(scenario, penalty=config.penalty)
    history = TrainingHistory()

    for episode in range(config.episodes):
        obs = env.reset()
        sigma = config.noise_sigma(episode)
        total_reward = 0.0
        total_dor = 0.0
        violations = 0
        for slot in range(scenario.config.horizon):
            actions = trainer.joint_actions(obs, sigma)
            if not np.isfinite(actions).all():   # before `step` refuses them as a ConfigError
                raise NumericError(f"non-finite actions at episode {episode} slot {slot}")
            next_obs, reward, info = env.step(actions)
            total_reward += reward
            if not np.isfinite(total_reward):   # before `remember` refuses it as a ConfigError
                raise NumericError(f"non-finite episode reward at episode {episode}")
            trainer.remember(obs, actions, reward, next_obs)
            if trainer.buffer.size >= config.min_fill:
                batches = trainer.buffer.sample(trainer.num_agents, config.batch_size,
                                                trainer.rng)
                for n in range(trainer.num_agents):
                    batch = tuple(part[n] for part in batches)
                    trainer.critic_update(n, batch)
                    trainer.actor_update(n, batch)
                    trainer.soft_update_agent(n)
            total_dor += info.dor
            violations += np.count_nonzero(info.violators)
            if slot_callback is not None:
                slot_callback(episode, info)
            obs = next_obs
        trainer.check_finite(f"episode {episode}")
        history.episode_reward.append(total_reward)
        history.episode_mean_dor.append(total_dor / scenario.config.horizon)
        history.episode_violations.append(violations)
    return trainer, history
