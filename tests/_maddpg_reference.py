"""Reference MADDPG slot: the per-array learner update the flat path must reproduce.

Acting, the critic and actor updates and the soft update as they were before
the learner kept one flat parameter vector per network: batches are
normalised per use, the critic runs its forward pass again inside
`nets.mlp_gradients`, and the gradient step and target blend walk the
per-layer arrays. Only `nets.mlp_forward` and `nets.mlp_gradients` are shared
with the fast path.
"""

import numpy as np

from uavmec import nets
from uavmec.env import EdgeComputeEnv
from uavmec.learner import MaddpgTrainer, TrainingHistory


def joint_actions(tr: MaddpgTrainer, obs, noise_sigma):
    rows = []
    for n in range(tr.num_agents):
        u = nets.mlp_forward(tr.agents[n].actor, np.asarray(obs[n]) / tr.obs_scale)
        if noise_sigma > 0:
            u = u + tr.rng.normal(scale=noise_sigma, size=3)
        rows.append(np.clip(u, -1.0, 1.0) * tr.max_step)
    return np.stack(rows)


def split_obs(tr, joint_obs, agent):
    return joint_obs[:, agent * tr.obs_dim:(agent + 1) * tr.obs_dim]


def critic_input(tr, joint_obs, joint_act_norm):
    obs_norm = joint_obs / np.tile(tr.obs_scale, tr.num_agents)
    return np.hstack([obs_norm, joint_act_norm])


def td_target(tr, agent, batch):
    _, _, rew, next_obs = batch
    cols = [nets.mlp_forward(tr.agents[n].target_actor, split_obs(tr, next_obs, n) / tr.obs_scale)
            for n in range(tr.num_agents)]
    q_next = nets.mlp_forward(tr.agents[agent].target_critic,
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
    critic = tr.agents[agent].critic
    q = nets.mlp_forward(critic, x)[:, 0]
    err = q - y
    upstream = (2.0 / err.size) * err[:, None]
    grads, _ = nets.mlp_gradients(critic, x, upstream)
    apply_gradients(critic, grads, -tr.config.lr_critic)
    return float(np.mean(err ** 2))


def actor_update(tr, agent, batch):
    obs, act, _, _ = batch
    own_obs_norm = split_obs(tr, obs, agent) / tr.obs_scale
    actor = tr.agents[agent].actor
    joint_u = (act / tr.max_step).copy()
    joint_u[:, agent * 3:(agent + 1) * 3] = nets.mlp_forward(actor, own_obs_norm)
    x = critic_input(tr, obs, joint_u)
    batch_size = obs.shape[0]
    upstream = np.full((batch_size, 1), 1.0 / batch_size)
    _, dx = nets.mlp_gradients(tr.agents[agent].critic, x, upstream)
    act_cols = tr.num_agents * tr.obs_dim + agent * 3
    grads, _ = nets.mlp_gradients(actor, own_obs_norm, dx[:, act_cols:act_cols + 3])
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
    soft_update(a.target_actor, a.actor, tr.config.tau)
    soft_update(a.target_critic, a.critic, tr.config.tau)


def training_slots(scenario, config, history: TrainingHistory):
    """`learner.train` on the reference updates; yields the trainer after every slot
    and fills `history` as episodes end."""
    trainer = MaddpgTrainer(scenario, config)
    env = EdgeComputeEnv(scenario, penalty=config.penalty)
    for episode in range(config.episodes):
        obs = env.reset()
        sigma = config.noise_sigma(episode)
        total_reward, total_dor, violations = 0.0, 0.0, 0
        for _ in range(scenario.config.horizon):
            actions = joint_actions(trainer, obs, sigma)
            next_obs, reward, info = env.step(actions)
            trainer.buffer.push(obs.ravel(), actions.ravel(), reward, next_obs.ravel())
            if trainer.buffer.ready(config.min_fill):
                for n in range(trainer.num_agents):
                    batch = trainer.buffer.sample(config.batch_size, trainer.rng)
                    critic_update(trainer, n, batch)
                    actor_update(trainer, n, batch)
                    soft_update_agent(trainer, n)
            total_reward += reward
            total_dor += info.dor
            violations += len(info.violating_uavs)
            obs = next_obs
            yield trainer
        history.episode_reward.append(total_reward)
        history.episode_mean_dor.append(total_dor / scenario.config.horizon)
        history.episode_violations.append(violations)
