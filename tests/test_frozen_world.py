import json

import pytest

import _frozen
from uavmec.model import Scenario

RECORDED = json.loads(_frozen.ROLLOUTS.read_text())


class TestFrozenRollouts:
    # recorded from the per-object world step (lists of user, UAV and task
    # records) before the world state became arrays; any rewrite of motion,
    # mobility, task draws or violation bookkeeping must keep every slot
    def test_specs_match_the_recording(self):
        assert {name: {k: v for k, v in run.items() if k != "slots"}
                for name, run in RECORDED.items()} == _frozen.ROLLOUT_SPECS

    @pytest.mark.parametrize("name", sorted(_frozen.ROLLOUT_SPECS))
    def test_rollout_matches_recorded(self, name):
        got = _frozen.rollout(_frozen.ROLLOUT_SPECS[name])
        expected = RECORDED[name]["slots"]
        assert len(got) == len(expected)
        for slot, (g, e) in enumerate(zip(got, expected)):
            assert g == e, f"{name}: first difference at slot {slot}"


class TestFrozenSnapshots:
    @pytest.mark.parametrize("walk_slots", _frozen.SNAPSHOT_SLOTS)
    def test_snapshot_bytes_match_recorded(self, walk_slots, tmp_path):
        path = tmp_path / "scenario.json"
        _frozen.walked_scenario(walk_slots).save(path)
        assert path.read_bytes() == _frozen.snapshot_path(walk_slots).read_bytes()

    @pytest.mark.parametrize("walk_slots", _frozen.SNAPSHOT_SLOTS)
    def test_loaded_snapshot_saves_the_same_bytes(self, walk_slots, tmp_path):
        path = tmp_path / "scenario.json"
        Scenario.load(_frozen.snapshot_path(walk_slots)).save(path)
        assert path.read_bytes() == _frozen.snapshot_path(walk_slots).read_bytes()

    @pytest.mark.parametrize("walk_slots", _frozen.SNAPSHOT_SLOTS)
    def test_loaded_snapshot_rebuilds_equal_arrays(self, walk_slots):
        live = _frozen.walked_scenario(walk_slots)
        loaded = Scenario.load(_frozen.snapshot_path(walk_slots))
        for bundle in ("users", "uavs"):
            for name, array in vars(getattr(live, bundle)).items():
                got = getattr(getattr(loaded, bundle), name)
                assert got.dtype == array.dtype and got.shape == array.shape, (bundle, name)
                assert got.tobytes() == array.tobytes(), (bundle, name)
        assert loaded.initial_uav_positions.tobytes() == live.initial_uav_positions.tobytes()
        assert loaded.initial_user_positions.tobytes() == live.users.position.tobytes()


TRAINED = json.loads(_frozen.TRAINING.read_text())


class TestFrozenTraining:
    # recorded from the learner that stored weights (fan_out, fan_in) and ran
    # one forward pass per agent; a rewrite of the kernels, the layout or the
    # replay draws must keep every history bit and every parameter
    def test_specs_match_the_recording(self):
        assert {name: {k: run[k] for k in ("scenario", "train")}
                for name, run in TRAINED.items()} == _frozen.TRAINING_SPECS

    @pytest.mark.parametrize("name", sorted(_frozen.TRAINING_SPECS))
    def test_training_matches_recorded(self, name):
        expected = {k: v for k, v in TRAINED[name].items() if k not in ("scenario", "train")}
        assert _frozen.training_run(_frozen.TRAINING_SPECS[name]) == expected
