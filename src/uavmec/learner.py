"""Multi-agent deterministic-policy-gradient trainer for UAV trajectories.

Each UAV owns an actor (observation -> displacement) and a centralized critic
over the joint observation and joint action, plus target copies blended by
soft updates. Training follows the episodic loop: act with Gaussian
exploration noise, step the environment (which solves the slot allocation),
store the transition, and once the buffer is warm run one critic and one
actor gradient step per agent per slot. Plain gradient steps, no adaptive
moments.

Each role (actor, critic, target_actor, target_critic) is stored as one
(num_agents, P) array, `MaddpgTrainer.stacks[role]`, whose row n is the `theta`
of agent n's network of that role: a write through either is seen by both.

A checkpoint is one `.npz` archive of plain arrays (schema version 3): `meta`,
a JSON string holding schema_version, config (the TrainConfig), obs_dim,
buffer_size, buffer_cursor and rng_state; the four role stacks, written as
they are; and the buffer_size filled replay rows as obs, act, rew and
next_obs. `save_checkpoint` moves the archive into place with one rename, so a
reader finds the previous checkpoint or the new one, never a mix.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import nets
from .env import EdgeComputeEnv, SlotInfo
from .errors import ConfigError, NumericError, check_fields, require
from .model import Scenario

CHECKPOINT_SCHEMA_VERSION = 3
META_KEYS = ("schema_version", "config", "obs_dim", "buffer_size", "buffer_cursor",
             "rng_state")
REPLAY_FIELDS = ("obs", "act", "rew", "next_obs")


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
        require(self.lr_actor >= 0 and self.lr_critic >= 0, "learning rates must be >= 0")
        require(0.0 < self.tau <= 1.0, f"tau must lie in (0, 1], got {self.tau}")
        require(0.0 <= self.gamma < 1.0, f"gamma must lie in [0, 1), got {self.gamma}")
        require(self.buffer_capacity >= 1, "buffer_capacity must be >= 1")
        require(self.episodes >= 1, "episodes must be >= 1")
        require(self.batch_size >= 1, "batch_size must be >= 1")
        require(self.min_fill >= self.batch_size,
                f"min_fill {self.min_fill} must be >= batch_size {self.batch_size}")
        require(self.noise_sigma_start >= self.noise_sigma_end >= 0,
                "noise schedule must decay toward a nonnegative floor")
        require(0.0 < self.noise_decay_fraction <= 1.0,
                "noise_decay_fraction must lie in (0, 1]")

    def noise_sigma(self, episode: int) -> float:
        """Linear decay over the first noise_decay_fraction of episodes."""
        span = max(1, int(self.episodes * self.noise_decay_fraction))
        frac = min(1.0, episode / span)
        return self.noise_sigma_start + frac * (self.noise_sigma_end - self.noise_sigma_start)


@dataclass
class AgentNets:
    actor: nets.MlpParams
    critic: nets.MlpParams
    target_actor: nets.MlpParams
    target_critic: nets.MlpParams


ROLES = tuple(f.name for f in fields(AgentNets))


class ReplayBuffer:
    """Fixed-capacity ring of (joint obs, joint action, reward, next joint obs)."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        if capacity < 1:
            raise ConfigError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.act = np.zeros((capacity, act_dim))
        self.rew = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.size = 0
        self.cursor = 0

    def push(self, obs, act, rew, next_obs):
        i = self.cursor
        self.obs[i] = obs
        self.act[i] = act
        self.rew[i] = rew
        self.next_obs[i] = next_obs
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def ready(self, min_fill: int) -> bool:
        return self.size >= min_fill

    def sample(self, batch_size: int, rng: np.random.Generator):
        if batch_size > self.size:
            raise ConfigError(
                f"cannot sample {batch_size} from a buffer holding {self.size}")
        idx = rng.integers(0, self.size, size=batch_size)
        return (self.obs[idx], self.act[idx], self.rew[idx], self.next_obs[idx])

    def restore(self, contents: dict, size: int, cursor: int):
        """Refill the first `size` rows from `contents[field]` arrays; raise
        ConfigError if they do not fit."""
        if not (0 <= size <= self.capacity and 0 <= cursor < self.capacity):
            raise ConfigError(f"{size} replay rows at cursor {cursor} do not fit "
                              f"a buffer of capacity {self.capacity}")
        for name in REPLAY_FIELDS:
            have = np.shape(contents[name])
            need = (size,) + getattr(self, name).shape[1:]
            if have != need:
                raise ConfigError(f"replay field {name} has shape {have}, "
                                  f"the checkpoint needs {need}")
        for name in REPLAY_FIELDS:
            getattr(self, name)[:size] = contents[name]
        self.size = size
        self.cursor = cursor


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
        self.rng = np.random.default_rng([config.seed, 11])

        joint_dim = self.num_agents * (self.obs_dim + 3)
        actor = (nets.mlp_shapes(self.obs_dim, config.hidden_actor, 3), "tanh")
        critic = (nets.mlp_shapes(joint_dim, config.hidden_critic, 1), "linear")
        layout = {"actor": actor, "critic": critic,
                  "target_actor": actor, "target_critic": critic}
        self.stacks = {role: np.empty((self.num_agents, nets.param_count(layout[role][0])))
                       for role in ROLES}
        self.agents = [AgentNets(**{role: nets.MlpParams(self.stacks[role][n], *layout[role])
                                    for role in ROLES})
                       for n in range(self.num_agents)]
        for a in self.agents:   # one rng stream: actor n, then critic n
            nets.init_mlp(a.actor, self.rng)
            nets.init_mlp(a.critic, self.rng)
        self.stacks["target_actor"][...] = self.stacks["actor"]
        self.stacks["target_critic"][...] = self.stacks["critic"]
        self.buffer = ReplayBuffer(config.buffer_capacity,
                                   self.num_agents * self.obs_dim,
                                   self.num_agents * 3)

    # ---- acting ----

    def joint_actions(self, obs: np.ndarray, noise_sigma: float) -> np.ndarray:
        """Displacement commands in meters, one row per agent.

        Each row is the agent's policy output plus Gaussian noise, clipped to
        the per-axis step budget; the environment's motion enforcement still
        applies on top.
        """
        obs_norm = np.asarray(obs) / self.obs_scale
        u = np.stack([nets.mlp_forward(a.actor, o) for a, o in zip(self.agents, obs_norm)])
        if noise_sigma > 0:
            u = u + self.rng.normal(scale=noise_sigma, size=u.shape)
        return np.clip(u, -1.0, 1.0) * self.max_step

    # ---- updates ----

    def normalise_batch(self, batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Network inputs for one `ReplayBuffer.sample` batch: (x, rew, next_obs).

        x = [obs, act] / input_scale is the critic input with the stored
        actions; next_obs is divided by the box extents.
        """
        obs, act, rew, next_obs = batch
        return np.hstack([obs, act]) / self.input_scale, rew, next_obs / self.joint_obs_scale

    def td_target(self, agent: int, batch) -> np.ndarray:
        """y = r + gamma * Q'(S', A') with A' from the target actors."""
        _, rew, next_obs = batch
        d = self.obs_dim
        next_actions = [nets.mlp_forward(a.target_actor, next_obs[:, n * d:(n + 1) * d])
                        for n, a in enumerate(self.agents)]
        q_next = nets.mlp_forward(self.agents[agent].target_critic,
                                  np.hstack([next_obs] + next_actions))
        return rew + self.config.gamma * q_next[:, 0]

    def critic_update(self, agent: int, batch) -> float:
        """One mean-squared TD-error descent step on a `normalise_batch` batch;
        returns the pre-step loss."""
        y = self.td_target(agent, batch)
        critic = self.agents[agent].critic
        acts = nets.mlp_activations(critic, batch[0])
        err = acts[-1][:, 0] - y
        loss = float(np.mean(err ** 2))
        upstream = (2.0 / err.size) * err[:, None]
        grad, _ = nets.mlp_backward(critic, acts, upstream, input_grad=False)
        critic.theta += -self.config.lr_critic * grad
        return loss

    def actor_update(self, agent: int, batch) -> float:
        """One ascent step on mean Q with the agent's own action re-derived
        from its policy, on a `normalise_batch` batch; returns the actor
        gradient norm."""
        x = batch[0]
        d = self.obs_dim
        actor = self.agents[agent].actor
        actor_acts = nets.mlp_activations(actor, x[:, agent * d:(agent + 1) * d])

        start = self.num_agents * d + agent * 3
        own = slice(start, start + 3)
        joint = x.copy()
        joint[:, own] = actor_acts[-1]
        critic = self.agents[agent].critic
        batch_size = x.shape[0]
        upstream = np.full((batch_size, 1), 1.0 / batch_size)
        _, dx = nets.mlp_backward(critic, nets.mlp_activations(critic, joint), upstream,
                                  params_grad=False)

        grad, _ = nets.mlp_backward(actor, actor_acts, dx[:, own], input_grad=False)
        actor.theta += self.config.lr_actor * grad
        return float(np.linalg.norm(grad))

    def soft_update_agent(self, agent: int):
        a = self.agents[agent]
        nets.soft_update(a.target_actor, a.actor, self.config.tau)
        nets.soft_update(a.target_critic, a.critic, self.config.tau)

    def check_finite(self, where: str):
        """NumericError naming the first agent, then role, with a non-finite parameter."""
        finite = np.array([np.isfinite(self.stacks[role]).all(axis=1) for role in ROLES])
        if not finite.all():
            n, r = np.argwhere(~finite.T)[0]
            raise NumericError(f"non-finite parameters in agent {n} {ROLES[r]} at {where}")

    # ---- checkpoints ----

    def state_dict(self) -> dict[str, np.ndarray | str]:
        """The checkpoint archive's entries (module docstring), as copies."""
        meta = {"schema_version": CHECKPOINT_SCHEMA_VERSION, "config": asdict(self.config),
                "obs_dim": self.obs_dim, "buffer_size": self.buffer.size,
                "buffer_cursor": self.buffer.cursor, "rng_state": self.rng.bit_generator.state}
        state = {"meta": json.dumps(meta, sort_keys=True)}
        for role in ROLES:
            state[role] = self.stacks[role].copy()
        for name in REPLAY_FIELDS:
            state[name] = getattr(self.buffer, name)[:self.buffer.size].copy()
        return state

    def load_state_dict(self, state: dict):
        """Restore from `state_dict()` output. If it does not fit this trainer,
        raise ConfigError naming the entry, before anything is changed."""
        meta = checkpoint_meta(state)
        require(meta["obs_dim"] == self.obs_dim, f"checkpoint has obs_dim={meta['obs_dim']}, "
                                                 f"this trainer needs {self.obs_dim}")
        for role in ROLES:
            need = self.stacks[role].shape
            require(np.shape(state[role]) == need,
                    f"checkpoint {role} stack has shape {np.shape(state[role])}, "
                    f"this trainer needs (num_agents, parameters) = {need}")
        try:   # on a scratch generator, so a bad state changes nothing here
            type(self.rng.bit_generator)().state = meta["rng_state"]
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"checkpoint rng_state does not fit: {exc!r}") from exc
        self.buffer.restore(state, meta["buffer_size"], meta["buffer_cursor"])
        for role in ROLES:
            self.stacks[role][...] = state[role]
        self.rng.bit_generator.state = meta["rng_state"]

    def save_checkpoint(self, path: str | os.PathLike):
        """Write `state_dict()` (`meta` JSON, one (num_agents, P) stack per role,
        the filled replay rows) as one `.npz` archive at exactly `path`. It goes
        to `<path>.tmp`, then replaces `path` in a single `os.replace`, so an
        interrupted save leaves the previous checkpoint whole and loadable. The
        bytes are synced to disk before the rename; if the write or the rename
        raises, `<path>.tmp` is removed."""
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "wb") as fh:   # a handle: np.savez would add ".npz" to a name
                np.savez(fh, **self.state_dict())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):   # keep the original error
                os.remove(tmp)
            raise

    @classmethod
    def load_checkpoint(cls, scenario: Scenario, path: str | os.PathLike) -> "MaddpgTrainer":
        """A trainer for `scenario` restored from a `save_checkpoint` archive."""
        try:   # a lone .npy array is no context manager: TypeError
            with open(path, "rb") as fh, np.load(fh) as archive:
                state = dict(archive)
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path} is not a checkpoint archive") from exc
        config = checkpoint_meta(state)["config"]
        check_fields(TrainConfig, config, "checkpoint config")
        trainer = cls(scenario, TrainConfig(**config))
        trainer.load_state_dict(state)
        return trainer


def checkpoint_meta(state: dict) -> dict:
    """A checkpoint state's parsed `meta`; ConfigError, naming what is wrong,
    unless every entry is present and meta is schema-3 JSON with all META_KEYS,
    the counts as ints and config and rng_state as objects."""
    missing = [name for name in ("meta",) + ROLES + REPLAY_FIELDS if name not in state]
    require(not missing, f"checkpoint is missing array(s) {', '.join(missing)}")
    try:
        meta = json.loads(str(state["meta"]))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"checkpoint meta is not JSON: {exc}") from None
    version = meta.get("schema_version") if isinstance(meta, dict) else None
    require(version == CHECKPOINT_SCHEMA_VERSION,
            f"unsupported checkpoint schema_version: {version!r}")
    missing = [key for key in META_KEYS if key not in meta]
    require(not missing, f"checkpoint meta is missing key(s) {', '.join(missing)}")
    for key in ("obs_dim", "buffer_size", "buffer_cursor"):
        require(type(meta[key]) is int, f"checkpoint meta {key} must be an integer, "
                                         f"got {meta[key]!r}")
    for key in ("config", "rng_state"):
        require(isinstance(meta[key], dict), f"checkpoint meta {key} must be a JSON object")
    return meta


def train(scenario: Scenario, config: TrainConfig,
          slot_callback=None) -> tuple[MaddpgTrainer, TrainingHistory]:
    """Full training run: episodes x horizon slots, deterministic under the seed.

    slot_callback(episode, info: SlotInfo), when given, observes every slot.
    """
    trainer = MaddpgTrainer(scenario, config)
    env = EdgeComputeEnv(scenario, penalty=config.penalty)
    history = TrainingHistory()

    for episode in range(config.episodes):
        obs = env.reset()
        sigma = config.noise_sigma(episode)
        total_reward = 0.0
        total_dor = 0.0
        violations = 0
        for _ in range(scenario.config.horizon):
            actions = trainer.joint_actions(obs, sigma)
            next_obs, reward, info = env.step(actions)
            trainer.buffer.push(obs.ravel(), actions.ravel(), reward,
                                next_obs.ravel())
            if trainer.buffer.ready(config.min_fill):
                for n in range(trainer.num_agents):
                    batch = trainer.normalise_batch(
                        trainer.buffer.sample(config.batch_size, trainer.rng))
                    trainer.critic_update(n, batch)
                    trainer.actor_update(n, batch)
                    trainer.soft_update_agent(n)
            total_reward += reward
            total_dor += info.dor
            violations += len(info.violating_uavs)
            if slot_callback is not None:
                slot_callback(episode, info)
            obs = next_obs
        if not np.isfinite(total_reward):
            raise NumericError(f"non-finite episode reward at episode {episode}")
        trainer.check_finite(f"episode {episode}")
        history.episode_reward.append(total_reward)
        history.episode_mean_dor.append(total_dor / scenario.config.horizon)
        history.episode_violations.append(violations)
    return trainer, history
