import dataclasses
import json
import os

import numpy as np
import pytest

from tests import _maddpg_reference as reference
from uavmec import learner
from uavmec.errors import ConfigError, NumericError
from uavmec.learner import MaddpgTrainer, TrainConfig, TrainingHistory, train
from uavmec.model import ScenarioConfig, build_scenario

SMALL = TrainConfig(episodes=2, batch_size=8, min_fill=8, buffer_capacity=64,
                    hidden_actor=8, hidden_critic=8, seed=4)


def scenario(num_uavs=4):
    return build_scenario(ScenarioConfig(num_users=4, num_uavs=num_uavs, horizon=12))


def network_bytes(trainer: MaddpgTrainer) -> list[bytes]:
    """Every network's flat parameter vector, as raw bytes."""
    return [net.theta.tobytes() for a in trainer.agents
            for net in (a.actor, a.critic, a.target_actor, a.target_critic)]


def replay_bytes(trainer: MaddpgTrainer) -> list[bytes]:
    return [getattr(trainer.buffer, name).tobytes() for name in learner.REPLAY_FIELDS]


def edit_meta(state: dict, **changes) -> str:
    """`state`'s meta JSON with top-level keys replaced."""
    return json.dumps({**json.loads(state["meta"]), **changes})


def rewrite(path, drop=(), **entries):
    """Rewrite the archive at `path` with `entries` replaced and `drop` left out."""
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files if name not in drop}
    with open(path, "wb") as fh:
        np.savez(fh, **{**state, **entries})


class TestCheckpointInput:
    def test_fewer_agents_rejected(self):
        state = MaddpgTrainer(scenario(), SMALL).state_dict()
        for role in learner.ROLES:
            state[role] = state[role][:3]
        with pytest.raises(ConfigError, match="actor stack.*num_agents"):
            MaddpgTrainer(scenario(), SMALL).load_state_dict(state)

    @pytest.mark.parametrize("rows", [3, 5])
    def test_one_role_with_wrong_row_count_rejected(self, rows):
        state = MaddpgTrainer(scenario(), SMALL).state_dict()
        state["critic"] = np.resize(state["critic"], (rows, state["critic"].shape[1]))
        with pytest.raises(ConfigError, match=rf"critic stack has shape \({rows}, "):
            MaddpgTrainer(scenario(), SMALL).load_state_dict(state)

    def test_other_uav_count_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        MaddpgTrainer(scenario(num_uavs=3), SMALL).save_checkpoint(path)
        with pytest.raises(ConfigError, match="num_agents"):
            MaddpgTrainer.load_checkpoint(scenario(num_uavs=4), path)

    def test_other_obs_dim_rejected(self):
        state = MaddpgTrainer(scenario(), SMALL).state_dict()
        state["meta"] = edit_meta(state, obs_dim=6)
        with pytest.raises(ConfigError, match="obs_dim"):
            MaddpgTrainer(scenario(), SMALL).load_state_dict(state)

    @pytest.mark.parametrize("meta, message", [
        ({"rng_state": {"bit_generator": "MT19937"}}, "rng_state"),
        ({"buffer_size": 25}, "replay field obs"),
        ({"buffer_size": "0"}, "buffer_size must be an integer"),
        ({"buffer_size": True}, "buffer_size must be an integer"),
        ({"buffer_cursor": 1.5}, "buffer_cursor must be an integer"),
        ({"obs_dim": 3.0}, "obs_dim must be an integer"),
        ({"config": []}, "config must be a JSON object"),
        ({"rng_state": "PCG64"}, "rng_state must be a JSON object"),
    ], ids=["rng_state", "buffer_size", "buffer_size-str", "buffer_size-bool",
            "buffer_cursor-float", "obs_dim-float", "config-list", "rng_state-str"])
    def test_rejected_state_changes_nothing(self, meta, message):
        state = train(scenario(), SMALL)[0].state_dict()   # 24 replay rows
        state["meta"] = edit_meta(state, **meta)
        trainer = MaddpgTrainer(scenario(), SMALL)
        before = network_bytes(trainer), replay_bytes(trainer), trainer.rng.bit_generator.state
        with pytest.raises(ConfigError, match=message):
            trainer.load_state_dict(state)
        assert (network_bytes(trainer), replay_bytes(trainer),
                trainer.rng.bit_generator.state) == before

    @pytest.mark.parametrize("meta, message", [
        ('{"schema_version": 2', "not JSON"),
        ("[3]", "schema_version: None"),
        ('{"schema_version": 2}', "schema_version: 2"),
        ('{"schema_version": 3}', "missing key.*config"),
    ], ids=["not-json", "not-an-object", "schema-2", "missing-keys"])
    def test_bad_meta_rejected(self, tmp_path, meta, message):
        path = tmp_path / "ckpt.npz"
        MaddpgTrainer(scenario(), SMALL).save_checkpoint(path)
        rewrite(path, meta=meta)
        with pytest.raises(ConfigError, match=message):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    def test_removed_config_key_named(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        trainer = MaddpgTrainer(scenario(), SMALL)
        trainer.save_checkpoint(path)
        config = {**dataclasses.asdict(SMALL), "extended_obs": False}
        rewrite(path, meta=edit_meta(trainer.state_dict(), config=config))
        with pytest.raises(ConfigError, match="extended_obs"):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    def test_round_trip_restores_networks(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        trainer, _ = train(scenario(), SMALL)
        trainer.save_checkpoint(path)
        loaded = MaddpgTrainer.load_checkpoint(scenario(), path)
        for role in learner.ROLES:
            assert loaded.state_dict()[role].tobytes() == trainer.state_dict()[role].tobytes()
        assert network_bytes(loaded) == network_bytes(trainer)

    @pytest.mark.parametrize("capacity", [64, 16])  # 24 slots: partly filled, wrapped
    def test_round_trip_restores_replay_buffer(self, tmp_path, capacity):
        path = tmp_path / "ckpt.npz"
        trainer, _ = train(scenario(), dataclasses.replace(SMALL, buffer_capacity=capacity))
        trainer.save_checkpoint(path)
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        loaded = MaddpgTrainer.load_checkpoint(scenario(), path)
        assert network_bytes(loaded) == network_bytes(trainer)
        assert (loaded.buffer.size, loaded.buffer.cursor) == (trainer.buffer.size,
                                                              trainer.buffer.cursor)
        assert replay_bytes(loaded) == replay_bytes(trainer)
        draw = trainer.buffer.sample(8, trainer.rng)
        again = loaded.buffer.sample(8, loaded.rng)
        for a, b in zip(draw, again):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["critic", "next_obs"])
    def test_missing_array_rejected(self, tmp_path, name):
        path = tmp_path / "ckpt.npz"
        train(scenario(), SMALL)[0].save_checkpoint(path)
        rewrite(path, drop=[name])
        with pytest.raises(ConfigError, match=f"missing array.*{name}"):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    def test_mismatched_replay_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        train(scenario(), SMALL)[0].save_checkpoint(path)
        rewrite(path, obs=np.zeros((5, 12)))
        with pytest.raises(ConfigError, match="replay field obs"):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    @pytest.mark.parametrize("content", [
        b'{"schema_version": 2, "agents": []}\n',    # the old JSON checkpoint
        b"",
        np.arange(3.0),                               # a lone .npy array
        "truncated",
    ], ids=["old-json-checkpoint", "empty", "lone-npy", "truncated"])
    def test_non_archive_rejected(self, tmp_path, content):
        path = tmp_path / "ckpt.npz"
        if isinstance(content, np.ndarray):
            with open(path, "wb") as fh:
                np.save(fh, content)
        elif content == "truncated":
            MaddpgTrainer(scenario(), SMALL).save_checkpoint(path)
            path.write_bytes(path.read_bytes()[:-100])
        else:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match="not a checkpoint archive"):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.npz"
        old = MaddpgTrainer(scenario(), SMALL)
        for i in range(SMALL.buffer_capacity):
            old.buffer.push(np.full(12, i), np.zeros(12), -1.0, np.zeros(12))
        old.save_checkpoint(path)
        saved = path.read_bytes()
        new, _ = train(scenario(), dataclasses.replace(SMALL, seed=9))

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            new.save_checkpoint(path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        assert path.read_bytes() == saved
        loaded = MaddpgTrainer.load_checkpoint(scenario(), path)
        assert network_bytes(loaded) == network_bytes(old) != network_bytes(new)
        assert replay_bytes(loaded) == replay_bytes(old) != replay_bytes(new)


    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.npz"
        MaddpgTrainer(scenario(), SMALL).save_checkpoint(path)
        saved = path.read_bytes()

        def disk_full(fh, **arrays):
            fh.write(b"PK partial archive")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(OSError, match="No space"):
            train(scenario(), SMALL)[0].save_checkpoint(path)
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        assert path.read_bytes() == saved

    def test_save_syncs_before_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.npz"
        calls = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync") or fsync(fd))
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: calls.append("replace") or replace(src, dst))
        MaddpgTrainer(scenario(), SMALL).save_checkpoint(path)
        assert calls == ["fsync", "replace"]


class TestParameterStacks:
    def test_agent_networks_are_rows_of_role_stacks(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        for n, a in enumerate(trainer.agents):
            for role in learner.ROLES:
                net, stack = getattr(a, role), trainer.stacks[role]
                assert net.theta.base is stack
                assert np.shares_memory(net.theta, stack[n])
                assert all(np.shares_memory(p, stack[n]) for p in net.weights + net.biases)
                others = np.delete(np.arange(trainer.num_agents), n)
                assert not any(np.shares_memory(net.theta, stack[m]) for m in others)

    def test_targets_start_as_copies_of_online_stacks(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        for online in ("actor", "critic"):
            target = trainer.stacks[f"target_{online}"]
            assert target.tobytes() == trainer.stacks[online].tobytes()
            assert not np.shares_memory(target, trainer.stacks[online])

    def test_state_dict_does_not_alias_stacks(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        state = trainer.state_dict()
        before = network_bytes(trainer)
        for role in learner.ROLES:
            assert not np.shares_memory(state[role], trainer.stacks[role])
            state[role] += 1.0
        assert network_bytes(trainer) == before

    def test_load_state_dict_is_seen_through_every_view(self):
        trained, _ = train(scenario(), SMALL)
        trainer = MaddpgTrainer(scenario(), dataclasses.replace(SMALL, seed=9))
        views = [getattr(a, role) for a in trainer.agents for role in learner.ROLES]
        trainer.load_state_dict(trained.state_dict())
        assert [net.theta.tobytes() for net in views] == network_bytes(trained)
        assert network_bytes(trainer) == network_bytes(trained)

    @pytest.mark.parametrize("role", learner.ROLES)
    def test_check_finite_names_agent_and_role(self, role):
        trainer = MaddpgTrainer(scenario(), SMALL)
        trainer.check_finite("start")
        getattr(trainer.agents[2], role).biases[1][0] = np.nan
        for stack in trainer.stacks.values():   # a later agent is not named
            stack[3, 0] = np.inf
        with pytest.raises(NumericError,
                           match=f"non-finite parameters in agent 2 {role} at episode 7"):
            trainer.check_finite("episode 7")


class TestTraining:
    def test_seeded_run_is_bitwise_repeatable(self):
        _, first = train(scenario(), SMALL)
        _, again = train(scenario(), SMALL)
        assert first == again
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
        assert history == ref_history
