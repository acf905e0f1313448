import json

import pytest

from uavmec.errors import ConfigError
from uavmec.learner import MaddpgTrainer, TrainConfig, train
from uavmec.model import ScenarioConfig, build_scenario

SMALL = TrainConfig(episodes=2, batch_size=8, min_fill=8, buffer_capacity=64,
                    hidden_actor=8, hidden_critic=8, seed=4)


def scenario(num_uavs=4):
    return build_scenario(ScenarioConfig(num_users=4, num_uavs=num_uavs, horizon=12))


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


class TestTraining:
    def test_seeded_run_is_bitwise_repeatable(self):
        _, first = train(scenario(), SMALL)
        _, again = train(scenario(), SMALL)
        assert first.as_rows() == again.as_rows()
        assert len(first.episode_reward) == SMALL.episodes
