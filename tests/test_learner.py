import dataclasses
import json
import os

import numpy as np
import pytest

from tests import _maddpg_reference as reference
from uavmec import learner
from uavmec.errors import ConfigError
from uavmec.learner import MaddpgTrainer, TrainConfig, TrainingHistory, replay_path, train
from uavmec.model import ScenarioConfig, build_scenario

SMALL = TrainConfig(episodes=2, batch_size=8, min_fill=8, buffer_capacity=64,
                    hidden_actor=8, hidden_critic=8, seed=4)


def scenario(num_uavs=4):
    return build_scenario(ScenarioConfig(num_users=4, num_uavs=num_uavs, horizon=12))


def network_bytes(trainer: MaddpgTrainer) -> list[bytes]:
    """Every network's flat parameter vector, as raw bytes."""
    return [net.theta.tobytes() for a in trainer.agents
            for net in (a.actor, a.critic, a.target_actor, a.target_critic)]


class TestCheckpointInput:
    def test_fewer_agents_rejected(self):
        state = MaddpgTrainer(scenario(), SMALL).state_dict()
        state["agents"] = state["agents"][:3]
        with pytest.raises(ConfigError, match="num_agents"):
            MaddpgTrainer(scenario(), SMALL).load_state_dict(state)

    def test_other_uav_count_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        MaddpgTrainer(scenario(num_uavs=3), SMALL).save_checkpoint(path)
        with pytest.raises(ConfigError, match="num_agents"):
            MaddpgTrainer.load_checkpoint(scenario(num_uavs=4), path)

    def test_other_obs_dim_rejected(self):
        state = MaddpgTrainer(scenario(), SMALL).state_dict()
        state["obs_dim"] = 6
        with pytest.raises(ConfigError, match="obs_dim"):
            MaddpgTrainer(scenario(), SMALL).load_state_dict(state)

    def test_removed_config_key_named(self, tmp_path):
        path = tmp_path / "ckpt.json"
        MaddpgTrainer(scenario(), SMALL).save_checkpoint(path)
        state = json.loads(path.read_text())
        state["config"]["extended_obs"] = False
        path.write_text(json.dumps(state))
        with pytest.raises(ConfigError, match="extended_obs"):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    def test_round_trip_restores_networks(self, tmp_path):
        path = tmp_path / "ckpt.json"
        trainer, _ = train(scenario(), SMALL)
        trainer.save_checkpoint(path)
        loaded = MaddpgTrainer.load_checkpoint(scenario(), path)
        assert loaded.state_dict()["agents"] == trainer.state_dict()["agents"]
        assert network_bytes(loaded) == network_bytes(trainer)

    @pytest.mark.parametrize("capacity", [64, 16])  # 24 slots: partly filled, wrapped
    def test_round_trip_restores_replay_buffer(self, tmp_path, capacity):
        path = tmp_path / "ckpt.json"
        trainer, _ = train(scenario(), dataclasses.replace(SMALL, buffer_capacity=capacity))
        trainer.save_checkpoint(path)
        loaded = MaddpgTrainer.load_checkpoint(scenario(), path)
        assert (loaded.buffer.size, loaded.buffer.cursor) == (trainer.buffer.size,
                                                              trainer.buffer.cursor)
        for name in ("obs", "act", "rew", "next_obs"):
            assert np.array_equal(getattr(loaded.buffer, name), getattr(trainer.buffer, name))
        draw = trainer.buffer.sample(8, trainer.rng)
        again = loaded.buffer.sample(8, loaded.rng)
        for a, b in zip(draw, again):
            assert np.array_equal(a, b)

    def test_missing_replay_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        train(scenario(), SMALL)[0].save_checkpoint(path)
        os.remove(replay_path(path))
        with pytest.raises(ConfigError, match="replay"):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    def test_mismatched_replay_file_rejected(self, tmp_path):
        path, other = tmp_path / "ckpt.json", tmp_path / "other.json"
        trainer, _ = train(scenario(), SMALL)
        trainer.save_checkpoint(path)
        MaddpgTrainer(scenario(), SMALL).save_checkpoint(other)  # empty buffer
        os.replace(replay_path(other), replay_path(path))
        with pytest.raises(ConfigError, match="replay field obs"):
            MaddpgTrainer.load_checkpoint(scenario(), path)


class TestTraining:
    def test_seeded_run_is_bitwise_repeatable(self):
        _, first = train(scenario(), SMALL)
        _, again = train(scenario(), SMALL)
        assert first.as_rows() == again.as_rows()
        assert len(first.episode_reward) == SMALL.episodes


class TestReferenceUpdate:
    def test_train_matches_reference_after_every_slot(self, monkeypatch):
        # 3 x 110 slots with min_fill 128: 203 slots run learner updates
        sc_config = ScenarioConfig(horizon=110)
        config = TrainConfig(episodes=3, batch_size=128, min_fill=128,
                             buffer_capacity=1000, seed=8)
        made = []

        class Recording(MaddpgTrainer):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(learner, "MaddpgTrainer", Recording)
        ref_history = TrainingHistory()
        ref = reference.training_slots(build_scenario(sc_config), config, ref_history)
        slots = []

        def on_slot(episode, info):
            ref_trainer = next(ref)
            assert network_bytes(made[0]) == network_bytes(ref_trainer), f"slot {len(slots)}"
            slots.append(info.slot)

        _, history = train(build_scenario(sc_config), config, slot_callback=on_slot)
        assert next(ref, None) is None
        assert len(slots) == 330
        assert history.as_rows() == ref_history.as_rows()
