import dataclasses
import json
import os

import numpy as np
import pytest

from tests import _maddpg_reference as reference
from tests._instances import SMALL, edit_meta, trainer_scenario as scenario
from uavmec import learner, nets
from uavmec.errors import ConfigError, NumericError
from uavmec.learner import MaddpgTrainer, TrainConfig, TrainingHistory, train
from uavmec.model import Scenario, ScenarioConfig


def network_bytes(trainer: MaddpgTrainer) -> list[bytes]:
    """Every network's flat parameter vector, as raw bytes."""
    return [a[role].theta.tobytes() for a in trainer.agents for role in learner.ROLES]


def replay_bytes(trainer: MaddpgTrainer) -> list[bytes]:
    """Every replay array, unwritten rows included: catches a write past `size`."""
    return [getattr(trainer.buffer, name).tobytes() for name in learner.REPLAY_FIELDS]


def filled_replay_bytes(trainer: MaddpgTrainer) -> list[bytes]:
    """The filled replay rows, as `state_dict` saves them: the only rows two
    trainers can share, since a buffer's unwritten rows hold no data."""
    state = trainer.state_dict()
    return [state[name].tobytes() for name in learner.REPLAY_FIELDS]


def drive(trainer: MaddpgTrainer, rng: np.random.Generator, slots: int):
    """`slots` slots of the calls `train()` makes per slot, on transitions drawn
    from `rng` in place of an environment's: act with noise, remember, update."""
    shape = (trainer.num_agents, 3)
    for _ in range(slots):
        obs = rng.uniform(0.0, 50.0, shape)
        actions = trainer.joint_actions(obs, 0.3)
        trainer.remember(obs, actions, float(rng.normal()), rng.uniform(0.0, 50.0, shape))
        trainer.update()


def rewrite(path, drop=(), **entries):
    """Rewrite the archive at `path` with `entries` replaced and `drop` left out."""
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files if name not in drop}
    with open(path, "wb") as fh:
        np.savez(fh, **{**state, **entries})


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["hidden_actor", "hidden_critic"])
    @pytest.mark.parametrize("width", [0, -1])
    def test_hidden_width_must_be_positive(self, name, width):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {width}"):
            dataclasses.replace(SMALL, **{name: width})

    def test_buffer_smaller_than_min_fill_rejected(self):
        # such a buffer never holds min_fill transitions, so no update would ever run
        with pytest.raises(ConfigError, match="buffer_capacity 10 must be >= min_fill 50"):
            dataclasses.replace(SMALL, buffer_capacity=10, min_fill=50)

    @pytest.mark.parametrize("penalty", [np.nan, np.inf, -1.0])
    def test_bad_penalty_rejected(self, penalty):
        with pytest.raises(ConfigError, match="penalty must be finite and >= 0"):
            dataclasses.replace(SMALL, penalty=penalty)

    @pytest.mark.parametrize("seed", [-1, 1.5, "4"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            dataclasses.replace(SMALL, seed=seed)


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
        # the meta holds no obs_dim: the actor stacks and the replay rows pin it
        trainer = MaddpgTrainer(scenario(), SMALL)
        wider = nets.param_count(nets.mlp_shapes(6, SMALL.hidden_actor, 3))
        state = trainer.state_dict()
        for role in ("actor", "target_actor"):
            state[role] = np.zeros((4, wider))
        with pytest.raises(ConfigError, match=rf"actor stack has shape \(4, {wider}\)"):
            trainer.load_state_dict(state)
        state = train(scenario(), SMALL)[0].state_dict()
        state["next_obs"] = np.zeros((len(state["rew"]), 24))
        with pytest.raises(ConfigError, match=r"next_obs has shape \(24, 24\)"):
            trainer.load_state_dict(state)

    @pytest.mark.parametrize("edit, error, message", [
        ({"rng_state": {"bit_generator": "MT19937"}}, ConfigError, "rng_state"),
        ({"buffer_size": 25}, ConfigError, "replay field x"),
        ({"buffer_size": "0"}, ConfigError, "buffer_size must be an integer"),
        ({"buffer_size": True}, ConfigError, "buffer_size must be an integer"),
        ({"buffer_cursor": 1.5}, ConfigError, "buffer_cursor must be an integer"),
        ({"buffer_size": -5}, ConfigError, r"^checkpoint buffer_size must lie in \[0, 64\]"),
        ({"buffer_size": 2 ** 70}, ConfigError, r"^checkpoint buffer_size must lie in \[0, 64\]"),
        ({"buffer_cursor": 64}, ConfigError, r"^checkpoint buffer_cursor must lie in \[0, 64\)"),
        ({"config": []}, ConfigError, "config must be a JSON object"),
        ({"rng_state": "PCG64"}, ConfigError, "rng_state must be a JSON object"),
        (("actor", 1, np.nan), NumericError, "agent 1 actor in the checkpoint"),
        (("target_critic", 3, -np.inf), NumericError, "agent 3 target_critic in the checkpoint"),
        (("x", 5, np.nan), ConfigError, r"^checkpoint replay field x row 5 must be finite"),
        (("rew", 23, np.inf), ConfigError, r"^checkpoint replay field rew row 23 must be finite"),
        (("next_obs", 0, np.nan), ConfigError,
         r"^checkpoint replay field next_obs row 0 must be finite"),
        ({"typo_key": 1}, ConfigError, r"^checkpoint meta: unknown key\(s\) typo_key$"),
        ("obs", ConfigError, r"^checkpoint archive: unknown key\(s\) obs$"),
    ], ids=["rng_state", "buffer_size", "buffer_size-str", "buffer_size-bool",
            "buffer_cursor-float", "buffer_size-negative", "buffer_size-huge",
            "buffer_cursor-capacity", "config-list", "rng_state-str",
            "actor-nan", "target_critic-inf", "x-nan", "rew-inf", "next_obs-nan",
            "unknown-meta-key", "unknown-array"])
    def test_rejected_state_changes_nothing(self, edit, error, message):
        state = train(scenario(), SMALL)[0].state_dict()   # 24 replay rows
        if isinstance(edit, dict):
            state["meta"] = edit_meta(state, **edit)
        elif isinstance(edit, str):   # an entry the format does not have
            state[edit] = np.zeros((24, 12))
        else:   # the last entry of a stack's or replay field's row (a rew row is one entry)
            name, row, value = edit
            state[name].reshape(len(state[name]), -1)[row, -1] = value
        trainer = MaddpgTrainer(scenario(), SMALL)
        before = network_bytes(trainer), replay_bytes(trainer), trainer.rng.bit_generator.state
        with pytest.raises(error, match=message):
            trainer.load_state_dict(state)
        assert (network_bytes(trainer), replay_bytes(trainer),
                trainer.rng.bit_generator.state) == before

    @pytest.mark.parametrize("capacity, cursor", [(64, 3), (16, None)],
                             ids=["cursor-behind-size", "wrapped-ring-into-larger-buffer"])
    def test_cursor_must_follow_size(self, capacity, cursor):
        # 24 slots: 24 rows at cursor 24, edited to 3; or a full 16-row ring at
        # cursor 8, loaded into capacity 64. Either way the next pushes would
        # leave rows below `size` that no push wrote.
        trained, _ = train(scenario(), dataclasses.replace(SMALL, buffer_capacity=capacity))
        state = trained.state_dict()
        if cursor is not None:
            state["meta"] = edit_meta(state, buffer_cursor=cursor)
        meta = json.loads(state["meta"])
        trainer = MaddpgTrainer(scenario(), SMALL)
        before = network_bytes(trainer), replay_bytes(trainer), trainer.rng.bit_generator.state
        with pytest.raises(ConfigError, match=rf"replay cursor {meta['buffer_cursor']} does not "
                           rf"follow its {meta['buffer_size']} rows in a buffer of capacity 64"):
            trainer.load_state_dict(state)
        assert (network_bytes(trainer), replay_bytes(trainer),
                trainer.rng.bit_generator.state) == before

    @pytest.mark.parametrize("meta, message", [
        ('{"schema_version": 2', "not JSON"),
        ("[3]", "schema_version must be an integer, got None"),
        ('{"schema_version": 2}', "schema_version must be 5, got 2"),
        ('{"schema_version": 5.0}', r"^checkpoint schema_version must be an integer, got 5\.0$"),
        ('{"schema_version": 5}', "missing key.*config"),
    ], ids=["not-json", "not-an-object", "schema-2", "schema-float", "missing-keys"])
    def test_bad_meta_rejected(self, tmp_path, meta, message):
        path = tmp_path / "ckpt.npz"
        MaddpgTrainer(scenario(), SMALL).save_checkpoint(path)
        rewrite(path, meta=meta)
        with pytest.raises(ConfigError, match=message):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    def test_schema_3_archive_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        trainer = MaddpgTrainer(scenario(), SMALL)
        trainer.save_checkpoint(path)
        rows = trainer.buffer.size
        rewrite(path, drop=["x"], obs=np.zeros((rows, 12)), act=np.zeros((rows, 12)),
                meta=edit_meta(trainer.state_dict(), schema_version=3, obs_dim=3))
        with pytest.raises(ConfigError, match=r"^checkpoint schema_version must be 5, got 3$"):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    @pytest.mark.parametrize("change", [{"area_x": 500.0}, {"z_max": 25.0}, {"v_max": 5.0}],
                             ids=["area_x", "z_max", "v_max"])
    def test_other_network_units_rejected(self, tmp_path, change):
        # replay rows saved in one box's units must not mix with another box's rows
        path = tmp_path / "ckpt.npz"
        train(scenario(), SMALL)[0].save_checkpoint(path)
        other = scenario(**change)
        trainer = MaddpgTrainer(other, SMALL)
        before = network_bytes(trainer), replay_bytes(trainer), trainer.rng.bit_generator.state
        with np.load(path) as archive:
            state = dict(archive)
        with pytest.raises(ConfigError, match=r"checkpoint input_scale \[50\.0, .* is not "
                                              r"this trainer's \[.*other network units"):
            trainer.load_state_dict(state)
        assert (network_bytes(trainer), replay_bytes(trainer),
                trainer.rng.bit_generator.state) == before
        assert trainer.buffer.size == 0
        with pytest.raises(ConfigError, match="input_scale"):
            MaddpgTrainer.load_checkpoint(other, path)

    @pytest.mark.parametrize("scale", [None, "str", "nan"])
    def test_missing_or_bad_input_scale_rejected(self, scale):
        trainer = MaddpgTrainer(scenario(), SMALL)
        state = trainer.state_dict()
        if scale is None:
            del state["input_scale"]
        elif scale == "str":
            state["input_scale"] = state["input_scale"].astype(str)
        else:
            state["input_scale"][0] = np.nan
        with pytest.raises(ConfigError, match="input_scale"):
            trainer.load_state_dict(state)

    def test_state_dict_entries_are_the_schema(self):
        # the writer and checkpoint_meta must agree on every entry and meta key
        state = train(scenario(), SMALL)[0].state_dict()
        assert sorted(state) == sorted(["meta", *learner.ROLES, *learner.REPLAY_FIELDS,
                                        "input_scale"])
        assert sorted(json.loads(state["meta"])) == sorted(learner.META_KEYS)

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
        assert filled_replay_bytes(loaded) == filled_replay_bytes(trainer)
        draw = trainer.buffer.sample(2, 8, trainer.rng)
        again = loaded.buffer.sample(2, 8, loaded.rng)
        for a, b in zip(draw, again):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("capacity", [64, 16])  # 40 slots: partly filled, wrapped
    def test_resumed_run_equals_uninterrupted_one(self, tmp_path, capacity):
        config = dataclasses.replace(SMALL, buffer_capacity=capacity)
        trainer = MaddpgTrainer(scenario(), config)
        drive(trainer, np.random.default_rng(40), 40)
        trainer.save_checkpoint(tmp_path / "ckpt.npz")
        resumed = MaddpgTrainer.load_checkpoint(scenario(), tmp_path / "ckpt.npz")
        for run in (trainer, resumed):
            drive(run, np.random.default_rng(41), 20)
        assert network_bytes(trainer) != network_bytes(MaddpgTrainer(scenario(), config))
        assert network_bytes(resumed) == network_bytes(trainer)
        assert filled_replay_bytes(resumed) == filled_replay_bytes(trainer)
        assert (resumed.buffer.size, resumed.buffer.cursor) == (trainer.buffer.size,
                                                                trainer.buffer.cursor)
        assert resumed.rng.bit_generator.state == trainer.rng.bit_generator.state

    @pytest.mark.parametrize("name", ["critic", "next_obs"])
    def test_missing_array_rejected(self, tmp_path, name):
        path = tmp_path / "ckpt.npz"
        train(scenario(), SMALL)[0].save_checkpoint(path)
        rewrite(path, drop=[name])
        with pytest.raises(ConfigError, match=rf"^checkpoint archive: missing key\(s\) {name}$"):
            MaddpgTrainer.load_checkpoint(scenario(), path)

    def test_mismatched_replay_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        train(scenario(), SMALL)[0].save_checkpoint(path)
        rewrite(path, x=np.zeros((5, 24)))
        with pytest.raises(ConfigError, match="replay field x"):
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
            old.buffer.push(np.full(24, i), -1.0, np.zeros(12))
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


class TestReplayBuffer:
    def test_one_draw_equals_one_draw_per_batch(self):
        buffer = learner.ReplayBuffer(50, 4, 2)
        for i in range(40):
            buffer.push(np.full(4, i), float(-i), np.full(2, i + 0.5))
        x, rew, next_obs = buffer.sample(4, 16, np.random.default_rng(60))
        assert x.shape == (4, 16, 4) and rew.shape == (4, 16) and next_obs.shape == (4, 16, 2)
        rng = np.random.default_rng(60)
        for n in range(4):
            idx = rng.integers(0, 40, size=16)
            assert np.array_equal(x[n, :, 3], idx) and np.array_equal(rew[n], -idx)
            assert np.array_equal(next_obs[n, :, 0], idx + 0.5)

    def test_batch_larger_than_fill_rejected(self):
        buffer = learner.ReplayBuffer(50, 4, 2)
        buffer.push(np.zeros(4), 0.0, np.zeros(2))
        rng = np.random.default_rng(61)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="cannot sample 2"):
            buffer.sample(4, 2, rng)
        assert rng.bit_generator.state == state

    def test_remember_stores_network_units(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        rng = np.random.default_rng(62)
        for _ in range(3):
            obs, actions, next_obs = rng.uniform(-60, 60, size=(3, 4, 3))
            trainer.remember(obs, actions, 1.5, next_obs)
        i = trainer.buffer.size - 1
        x = np.concatenate([obs.ravel(), actions.ravel()]) / trainer.input_scale
        assert trainer.buffer.x[i].tobytes() == x.tobytes()
        assert trainer.buffer.next_obs[i].tobytes() == (
            next_obs.ravel() / np.tile(trainer.obs_scale, 4)).tobytes()
        assert trainer.buffer.rew[i] == 1.5

    @pytest.mark.parametrize("capacity", [64, 16])  # 24 slots: partly filled, wrapped
    def test_unwritten_rows_are_never_read(self, monkeypatch, capacity):
        config = dataclasses.replace(SMALL, buffer_capacity=capacity)
        trainer, history = train(scenario(), config)
        init = learner.ReplayBuffer.__init__

        def poisoned(self, *args):
            init(self, *args)
            for name in learner.REPLAY_FIELDS:
                getattr(self, name).fill(np.nan)

        monkeypatch.setattr(learner.ReplayBuffer, "__init__", poisoned)
        again, again_history = train(scenario(), config)
        assert np.isnan(again.buffer.rew).any() == (capacity == 64)
        assert network_bytes(again) == network_bytes(trainer)
        assert again_history == history
        assert filled_replay_bytes(again) == filled_replay_bytes(trainer)


class TestUpdate:
    def test_update_waits_for_min_fill(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        rng = np.random.default_rng(64)

        def state():   # role stacks, replay arrays, rng state
            return ([trainer.nets[role].theta.tobytes() for role in learner.ROLES],
                    replay_bytes(trainer), trainer.rng.bit_generator.state)

        for pushes in range(1, SMALL.min_fill + 1):
            obs, actions, next_obs = rng.uniform(0.0, 50.0, size=(3, 4, 3))
            trainer.remember(obs, actions, float(rng.normal()), next_obs)
            before = state()
            trainer.update()
            moved = [now != then for now, then in zip(state(), before)]
            warm = pushes == SMALL.min_fill
            assert moved == [warm, False, warm], f"push {pushes}"


class TestParameterStacks:
    def test_agent_networks_are_rows_of_role_stacks(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        for n, a in enumerate(trainer.agents):
            assert list(a) == list(learner.ROLES)
            for role in learner.ROLES:
                net, stack = a[role], trainer.nets[role].theta
                assert net.theta.base is stack
                assert np.shares_memory(net.theta, stack[n])
                assert all(np.shares_memory(p, stack[n]) for p in net.weights + net.biases)
                others = np.delete(np.arange(trainer.num_agents), n)
                assert not any(np.shares_memory(net.theta, stack[m]) for m in others)

    def test_actor_stacks_view_the_role_stacks(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        assert list(trainer.nets) == list(learner.ROLES)
        for role, stack in trainer.nets.items():
            assert stack.theta.shape[0] == trainer.num_agents
            assert stack.shapes == trainer.agents[0][role].shapes
            for weight, bias in zip(stack.weights, stack.biases):
                assert weight.base is stack.theta and bias.base is stack.theta

    def test_targets_start_as_copies_of_online_stacks(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        for online in ("actor", "critic"):
            target = trainer.nets[f"target_{online}"].theta
            assert target.tobytes() == trainer.nets[online].theta.tobytes()
            assert not np.shares_memory(target, trainer.nets[online].theta)

    def test_state_dict_does_not_alias_stacks(self):
        trainer = MaddpgTrainer(scenario(), SMALL)
        state = trainer.state_dict()
        before = network_bytes(trainer)
        for role in learner.ROLES:
            assert not np.shares_memory(state[role], trainer.nets[role].theta)
            state[role] += 1.0
        assert network_bytes(trainer) == before

    def test_load_state_dict_is_seen_through_every_view(self):
        trained, _ = train(scenario(), SMALL)
        trainer = MaddpgTrainer(scenario(), dataclasses.replace(SMALL, seed=9))
        views = [a[role] for a in trainer.agents for role in learner.ROLES]
        stacks = dict(trainer.nets)
        trainer.load_state_dict(trained.state_dict())
        assert [net.theta.tobytes() for net in views] == network_bytes(trained)
        for role in learner.ROLES:
            assert trainer.nets[role] is stacks[role]
            assert stacks[role].theta.tobytes() == trained.nets[role].theta.tobytes()

    @pytest.mark.parametrize("role", learner.ROLES)
    def test_check_finite_names_agent_and_role(self, role):
        trainer = MaddpgTrainer(scenario(), SMALL)
        trainer.check_finite("start")
        trainer.agents[2][role].biases[1][0] = np.nan
        for stack in trainer.nets.values():   # a later agent is not named
            stack.theta[3, 0] = np.inf
        with pytest.raises(NumericError,
                           match=f"non-finite parameters in agent 2 {role} at episode 7"):
            trainer.check_finite("episode 7")


class TestTraining:
    def test_seeded_run_is_bitwise_repeatable(self):
        _, first = train(scenario(), SMALL)
        _, again = train(scenario(), SMALL)
        assert first == again
        assert len(first.episode_reward) == SMALL.episodes

    def test_violation_count_is_the_union_over_slots(self):
        counts = [0] * SMALL.episodes

        def on_slot(episode, info):
            counts[episode] += np.count_nonzero(info.violators)
            assert np.array_equal(info.violators, info.box | info.speed | info.collision)

        _, history = train(scenario(), SMALL, slot_callback=on_slot)
        assert history.episode_violations == counts
        assert sum(counts) > 0

    def test_non_finite_reward_is_a_numeric_error(self, monkeypatch):
        step = learner.EdgeComputeEnv.step

        def nan_reward(self, actions):
            next_obs, _, info = step(self, actions)
            return next_obs, np.nan, info

        monkeypatch.setattr(learner.EdgeComputeEnv, "step", nan_reward)
        with pytest.raises(NumericError, match="^non-finite episode reward at episode 0$"):
            train(scenario(), SMALL)

    def test_diverging_learner_is_a_numeric_error(self):
        # the first updates run at slot 7; they send every actor output to NaN
        config = dataclasses.replace(SMALL, lr_actor=1e200, lr_critic=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="^non-finite actions at episode 0 slot 8$"):
                train(scenario(num_uavs=3), config)

    @pytest.mark.parametrize("callback", [5, "print"])
    def test_non_callable_slot_callback_rejected(self, callback):
        with pytest.raises(ConfigError, match="slot_callback must be callable"):
            train(scenario(), SMALL, slot_callback=callback)


class TestReferenceUpdate:
    def test_train_matches_reference_after_every_slot(self, monkeypatch):
        # 3 x 110 slots with min_fill 128: 203 slots run learner updates, and
        # the last 30 overwrite the oldest replay rows
        sc_config = ScenarioConfig(horizon=110)
        config = TrainConfig(episodes=3, batch_size=128, min_fill=128,
                             buffer_capacity=300, seed=8)
        made = []

        class Recording(MaddpgTrainer):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(learner, "MaddpgTrainer", Recording)
        ref_history = TrainingHistory()
        ref = reference.training_slots(Scenario(sc_config), config, ref_history)
        slots = []

        def on_slot(episode, info):
            ref_trainer = next(ref)
            assert network_bytes(made[0]) == network_bytes(ref_trainer), f"slot {len(slots)}"
            slots.append(info.slot)

        _, history = train(Scenario(sc_config), config, slot_callback=on_slot)
        assert next(ref, None) is None
        assert len(slots) == 330
        assert history == ref_history
