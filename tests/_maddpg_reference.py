"""Reference MADDPG slot: the per-agent learner update the fast path must reproduce.

Acting, replay draws, the critic and actor updates and the soft update as
plain per-network, per-layer numpy over each network's `weights` and `biases`
views: a forward pass is `h @ w.T + b` then relu or tanh, a backward pass the
per-layer `delta @ w` loop. Every agent acts through its own forward pass,
every TD target runs one forward pass per target actor, and the gradient step
and target blend walk the per-layer arrays. The replay memory is its own ring
of raw (obs, act, rew, next_obs) transitions; each agent draws its own batch
from it and normalises it where it is used. Nothing here calls `nets` or the
trainer's buffer, so the fast path's stacked passes, normalise-once replay
rows, one-call replay draw and in-place kernels are all checked against it.
"""

import numpy as np

from uavmec.env import EdgeComputeEnv
from uavmec.learner import MaddpgTrainer, TrainingHistory


def activations(net, x):
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        if i < last:
            z = np.maximum(z, 0.0)
        elif net.output_activation == "tanh":
            z = np.tanh(z)
        acts.append(z)
    return acts


def forward(net, x):
    return activations(net, x)[-1]


def gradients(net, x, upstream):
    """([(dW, db) per layer], d_input) of sum_b <upstream_b, output_b>."""
    acts = activations(net, x)
    delta = upstream * (1.0 - acts[-1] ** 2) if net.output_activation == "tanh" else upstream
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        grads.insert(0, (delta.T @ acts[i], np.sum(delta, axis=0)))
        delta = delta @ net.weights[i]
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    return grads, delta


def joint_actions(tr: MaddpgTrainer, obs, noise_sigma):
    rows = []
    for n in range(tr.num_agents):
        u = forward(tr.agents[n]["actor"], (np.asarray(obs[n]) / tr.obs_scale)[None, :])[0]
        if noise_sigma > 0:
            u = u + tr.rng.normal(scale=noise_sigma, size=3)
        rows.append(np.clip(u, -1.0, 1.0) * tr.max_step)
    return np.stack(rows)


class Memory:
    """Ring of raw (obs, act, rew, next_obs) transitions, each obs and act a
    flat joint vector."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = []
        self.cursor = 0

    def push(self, transition):
        if len(self.rows) < self.capacity:
            self.rows.append(transition)
        else:
            self.rows[self.cursor] = transition
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch_size, rng):
        idx = rng.integers(0, len(self.rows), size=batch_size)
        return tuple(np.array(field) for field in zip(*(self.rows[i] for i in idx)))


def split_obs(tr, joint_obs, agent):
    return joint_obs[:, agent * tr.obs_dim:(agent + 1) * tr.obs_dim]


def critic_input(tr, joint_obs, joint_act_norm):
    obs_norm = joint_obs / np.tile(tr.obs_scale, tr.num_agents)
    return np.hstack([obs_norm, joint_act_norm])


def td_target(tr, agent, batch):
    _, _, rew, next_obs = batch
    cols = [forward(tr.agents[n]["target_actor"], split_obs(tr, next_obs, n) / tr.obs_scale)
            for n in range(tr.num_agents)]
    q_next = forward(tr.agents[agent]["target_critic"],
                     critic_input(tr, next_obs, np.hstack(cols)))
    return rew + tr.config.gamma * q_next[:, 0]


def apply_gradients(params, grads, scale):
    for (w, b), (gw, gb) in zip(zip(params.weights, params.biases), grads):
        w += scale * gw
        b += scale * gb


def critic_update(tr, agent, batch):
    obs, act, _, _ = batch
    y = td_target(tr, agent, batch)
    x = critic_input(tr, obs, act / tr.max_step)
    critic = tr.agents[agent]["critic"]
    q = forward(critic, x)[:, 0]
    err = q - y
    upstream = (2.0 / err.size) * err[:, None]
    grads, _ = gradients(critic, x, upstream)
    apply_gradients(critic, grads, -tr.config.lr_critic)
    return float(np.mean(err ** 2))


def actor_update(tr, agent, batch):
    obs, act, _, _ = batch
    own_obs_norm = split_obs(tr, obs, agent) / tr.obs_scale
    actor = tr.agents[agent]["actor"]
    joint_u = (act / tr.max_step).copy()
    joint_u[:, agent * 3:(agent + 1) * 3] = forward(actor, own_obs_norm)
    x = critic_input(tr, obs, joint_u)
    batch_size = obs.shape[0]
    upstream = np.full((batch_size, 1), 1.0 / batch_size)
    _, dx = gradients(tr.agents[agent]["critic"], x, upstream)
    act_cols = tr.num_agents * tr.obs_dim + agent * 3
    grads, _ = gradients(actor, own_obs_norm, dx[:, act_cols:act_cols + 3])
    apply_gradients(actor, grads, +tr.config.lr_actor)


def soft_update(target, online, tau):
    for tw, ow in zip(target.weights, online.weights):
        tw *= (1.0 - tau)
        tw += tau * ow
    for tb, ob in zip(target.biases, online.biases):
        tb *= (1.0 - tau)
        tb += tau * ob


def soft_update_agent(tr, agent):
    a = tr.agents[agent]
    soft_update(a["target_actor"], a["actor"], tr.config.tau)
    soft_update(a["target_critic"], a["critic"], tr.config.tau)


def training_slots(scenario, config, history: TrainingHistory):
    """`learner.train` on the reference updates; yields the trainer after every slot
    and fills `history` as episodes end."""
    trainer = MaddpgTrainer(scenario, config)
    env = EdgeComputeEnv(scenario, penalty=config.penalty)
    memory = Memory(config.buffer_capacity)
    for episode in range(config.episodes):
        obs = env.reset()
        sigma = config.noise_sigma(episode)
        total_reward, total_dor, violations = 0.0, 0.0, 0
        for _ in range(scenario.config.horizon):
            actions = joint_actions(trainer, obs, sigma)
            next_obs, reward, info = env.step(actions)
            memory.push((obs.ravel(), actions.ravel(), reward, next_obs.ravel()))
            if len(memory.rows) >= config.min_fill:
                for n in range(trainer.num_agents):
                    batch = memory.sample(config.batch_size, trainer.rng)
                    critic_update(trainer, n, batch)
                    actor_update(trainer, n, batch)
                    soft_update_agent(trainer, n)
            total_reward += reward
            total_dor += info.dor
            violations += np.count_nonzero(info.violators)
            obs = next_obs
            yield trainer
        history.episode_reward.append(total_reward)
        history.episode_mean_dor.append(total_dor / scenario.config.horizon)
        history.episode_violations.append(violations)
