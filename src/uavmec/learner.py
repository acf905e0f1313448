"""Multi-agent deterministic-policy-gradient trainer for UAV trajectories.

Each UAV owns an actor (observation -> displacement) and a centralized critic
over the joint observation and joint action, plus target copies blended by
soft updates. Training follows the episodic loop: act with Gaussian
exploration noise, step the environment (which solves the slot allocation),
store the transition, and once the buffer is warm run one critic and one
actor gradient step per agent per slot. Plain gradient steps, no adaptive
moments.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import nets
from .env import EdgeComputeEnv, SlotInfo
from .errors import ConfigError, NumericError, check_fields
from .model import Scenario

CHECKPOINT_SCHEMA_VERSION = 2
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
        def require(cond, msg):
            if not cond:
                raise ConfigError(msg)

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

    def __len__(self):
        return self.size

    def contents(self) -> dict[str, np.ndarray]:
        """Copies of the filled rows, keyed by field name."""
        return {name: getattr(self, name)[:self.size].copy() for name in REPLAY_FIELDS}

    def restore(self, contents: dict, size: int, cursor: int):
        """Refill from `contents()` output; raise ConfigError if it does not fit."""
        if not (0 <= size <= self.capacity and 0 <= cursor < self.capacity):
            raise ConfigError(f"{size} replay rows at cursor {cursor} do not fit "
                              f"a buffer of capacity {self.capacity}")
        for name in REPLAY_FIELDS:
            have = np.shape(contents[name]) if name in contents else None
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

    def as_rows(self):
        return [
            {"episode": i, "cumulative_reward": r, "mean_dor": d, "violations": v}
            for i, (r, d, v) in enumerate(zip(self.episode_reward,
                                              self.episode_mean_dor,
                                              self.episode_violations))
        ]


class MaddpgTrainer:
    """Owns the per-agent networks, the replay buffer, and the update rules.

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
        self.agents: list[AgentNets] = []
        for _ in range(self.num_agents):
            actor = nets.init_mlp(self.obs_dim, config.hidden_actor, 3, "tanh", self.rng)
            critic = nets.init_mlp(joint_dim, config.hidden_critic, 1, "linear", self.rng)
            self.agents.append(AgentNets(actor=actor, critic=critic,
                                         target_actor=actor.copy(),
                                         target_critic=critic.copy()))
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
        nets.apply_gradients(critic, grad, -self.config.lr_critic)
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
        nets.apply_gradients(actor, grad, +self.config.lr_actor)
        return float(np.linalg.norm(grad))

    def soft_update_agent(self, agent: int, tau: float | None = None):
        t = self.config.tau if tau is None else tau
        a = self.agents[agent]
        nets.soft_update(a.target_actor, a.actor, t)
        nets.soft_update(a.target_critic, a.critic, t)

    def check_finite(self, where: str):
        for n, a in enumerate(self.agents):
            for name, net in (("actor", a.actor), ("critic", a.critic)):
                if not nets.params_finite(net):
                    raise NumericError(
                        f"non-finite parameters in agent {n} {name} at {where}")

    # ---- checkpoints ----

    def state_dict(self) -> dict:
        def net_dict(p: nets.MlpParams) -> dict:
            return {"weights": [w.tolist() for w in p.weights],
                    "biases": [b.tolist() for b in p.biases],
                    "output_activation": p.output_activation}

        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "config": asdict(self.config),
            "num_agents": self.num_agents,
            "obs_dim": self.obs_dim,
            "agents": [
                {"actor": net_dict(a.actor), "critic": net_dict(a.critic),
                 "target_actor": net_dict(a.target_actor),
                 "target_critic": net_dict(a.target_critic)}
                for a in self.agents
            ],
            "buffer_cursor": self.buffer.cursor,
            "buffer_size": self.buffer.size,
            "replay": self.buffer.contents(),
            "rng_state": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict):
        if state.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported checkpoint schema_version: {state.get('schema_version')!r}")

        found = {"num_agents": len(state["agents"]), "obs_dim": state["obs_dim"]}
        for key, value in found.items():
            if value != getattr(self, key):
                raise ConfigError(f"checkpoint has {key}={value}, "
                                  f"this trainer needs {getattr(self, key)}")

        def load_net(p: nets.MlpParams, d: dict):
            for w, new in zip(p.weights, d["weights"]):
                w[...] = np.asarray(new)
            for b, new in zip(p.biases, d["biases"]):
                b[...] = np.asarray(new)

        for a, d in zip(self.agents, state["agents"]):
            load_net(a.actor, d["actor"])
            load_net(a.critic, d["critic"])
            load_net(a.target_actor, d["target_actor"])
            load_net(a.target_critic, d["target_critic"])
        self.buffer.restore(state["replay"], state["buffer_size"], state["buffer_cursor"])
        self.rng.bit_generator.state = state["rng_state"]

    def save_checkpoint(self, path: str | os.PathLike):
        """Write the state as JSON at `path` and the replay rows as `.npz` beside it.

        Each file is written to a temporary name and renamed into place.
        """
        state = self.state_dict()
        tmp = f"{replay_path(path)}.tmp"
        with open(tmp, "wb") as fh:
            np.savez(fh, **state.pop("replay"))
        os.replace(tmp, replay_path(path))
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load_checkpoint(cls, scenario: Scenario, path: str | os.PathLike) -> "MaddpgTrainer":
        with open(path) as fh:
            state = json.load(fh)
        check_fields(TrainConfig, state["config"], "checkpoint config")
        trainer = cls(scenario, TrainConfig(**state["config"]))
        try:
            with np.load(replay_path(path)) as replay:
                state["replay"] = {name: replay[name] for name in replay.files}
        except FileNotFoundError:
            raise ConfigError(f"checkpoint replay file {replay_path(path)} is missing") from None
        trainer.load_state_dict(state)
        return trainer


def replay_path(path: str | os.PathLike) -> str:
    """Where a checkpoint at `path` keeps its replay rows."""
    return f"{path}.replay.npz"


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
