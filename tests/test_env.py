import numpy as np
import pytest

from uavmec import allocator
from uavmec import env as env_module
from uavmec.allocator import cd_search
from uavmec.baselines import al_allocate, ao_allocate
from uavmec.env import EdgeComputeEnv
from uavmec.errors import ConfigError
from uavmec.model import ScenarioConfig, build_scenario


def make_env(positions, allocate=None, **overrides):
    cfg = dict(num_users=3, num_uavs=len(positions), horizon=50, rng_seed=2,
               initial_uav_positions=tuple(map(tuple, positions)))
    cfg.update(overrides)
    env = EdgeComputeEnv(build_scenario(ScenarioConfig(**cfg)), penalty=10.0,
                         allocate=allocate)
    env.reset()
    return env


def loop_collisions(pos, d_min):
    """Reference: every UAV within d_min of another, by an explicit pair loop."""
    collisions = set()
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            if np.linalg.norm(pos[i] - pos[j]) < d_min:
                collisions.update((i, j))
    return sorted(collisions)


class TestPenalties:
    def test_box_speed_and_collision_accounting(self):
        env = make_env([(0, 0, 10), (25, 25, 15), (40, 40, 15), (42, 40, 15)])
        step = env.config.max_step
        actions = np.zeros((4, 3))
        actions[0] = [-1.0, 0.0, 0.0]            # leaves the box at x = 0
        actions[1] = [3 * step, 0.0, 0.0]        # three times the speed cap
        _, reward, info = env.step(actions)      # UAVs 2 and 3 sit 2 m apart
        assert info.box_violations == [0]
        assert info.speed_violations == [1]
        assert info.collision_uavs == [2, 3]
        assert info.violating_uavs == [0, 1, 2, 3]
        assert reward == info.reward == info.dor - 10.0 * 4

    def test_uav_with_several_violations_pays_once(self):
        env = make_env([(0, 0, 10), (1, 0, 10), (40, 40, 15)])
        actions = np.zeros((3, 3))
        actions[0] = [-5.0, 0.0, 0.0]            # overspeed and out of the box
        _, reward, info = env.step(actions)
        assert info.box_violations == [0] and info.speed_violations == [0]
        assert info.collision_uavs == [0, 1]
        assert info.violating_uavs == [0, 1]
        assert reward == info.dor - 10.0 * 2

    def test_clean_step_pays_the_slot_objective(self):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        _, reward, info = env.step(np.zeros((2, 3)))
        assert info.violating_uavs == []
        assert reward == info.dor == info.allocation.dor

    def test_collision_set_matches_pair_loop_on_random_layouts(self):
        rng = np.random.default_rng(21)
        env = make_env([(0, 0, 10)] * 6, allocate=al_allocate, d_min=12.0)
        seen = 0
        for _ in range(200):
            env.reset()
            for position in env.scenario.uavs.position:
                position[...] = rng.uniform([0, 0, 10], [50, 50, 20])
            _, reward, info = env.step(np.zeros((6, 3)))
            assert info.collision_uavs == loop_collisions(env.scenario.uav_positions, 12.0)
            assert reward == info.dor - 10.0 * len(info.violating_uavs)
            seen += bool(info.collision_uavs)
        assert 0 < seen < 200


    @pytest.mark.parametrize("allocate", [cd_search, ao_allocate])
    def test_one_slot_evaluation_per_step(self, monkeypatch, allocate):
        calls = []
        for owner in (allocator, env_module):
            def counted(*args, _fn=owner.slot_dor, **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, "slot_dor", counted)
        env = make_env([(10, 10, 12), (40, 40, 12)], allocate=allocate)
        for steps in range(1, 6):
            _, reward, info = env.step(np.zeros((2, 3)))
            assert len(calls) == steps
            assert reward == info.dor == info.allocation.dor


class TestEpisode:
    def test_bad_action_shape_rejected(self):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        with pytest.raises(ConfigError):
            env.step(np.zeros((3, 3)))

    def test_horizon_exhaustion_and_reset(self):
        env = make_env([(10, 10, 12), (40, 40, 12)], horizon=2)
        first = env.observe().copy()
        env.step(np.ones((2, 3)))
        env.step(np.ones((2, 3)))
        with pytest.raises(ConfigError):
            env.step(np.zeros((2, 3)))
        assert np.array_equal(env.reset(), first)
        assert env.slot == 0

    def test_mobile_episodes_replay_after_reset(self):
        env = make_env([(10, 10, 12), (40, 40, 12)], num_users=5, horizon=20,
                       user_mobility="random_waypoint", user_speed=2.0)
        start = env.scenario.user_positions

        def episode():
            env.reset()
            assert np.array_equal(env.scenario.user_positions, start)
            rewards, users = [], []
            for _ in range(env.config.horizon):
                rewards.append(env.step(np.zeros((2, 3)))[1])
                users.append(env.scenario.user_positions)
            return rewards, users

        first, again = episode(), episode()
        assert not np.array_equal(first[1][-1], start)
        assert first[0] == again[0]
        assert all(np.array_equal(a, b) for a, b in zip(first[1], again[1]))


class TestAliasing:
    def test_accessors_return_copies(self):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        scenario = env.scenario
        for returned, live in ((env.observe(), scenario.uavs.position),
                               (scenario.uav_positions, scenario.uavs.position),
                               (scenario.user_positions, scenario.users.position)):
            assert np.array_equal(returned, live)
            assert not np.shares_memory(returned, live)

    def test_step_never_writes_earlier_outputs(self):
        env = make_env([(0, 0, 10), (40, 40, 12)], num_users=5,
                       user_mobility="random_waypoint", user_speed=2.0)
        initial = env.scenario.initial_uav_positions
        initial_before = initial.copy()
        returned = [env.reset(), env.scenario.uav_positions, env.scenario.user_positions]
        saved = [a.copy() for a in returned]
        for _ in range(5):
            obs, _, _ = env.step(np.full((2, 3), 3.0))
            returned.append(obs)
            saved.append(obs.copy())
        env.reset()
        env.step(np.full((2, 3), -3.0))
        assert all(np.array_equal(a, b) for a, b in zip(returned, saved))
        assert np.array_equal(initial, initial_before)
        assert np.array_equal(env.reset(), initial_before)

    def test_step_never_writes_the_actions(self):
        env = make_env([(0, 0, 10), (40, 40, 12)])
        actions = np.array([[-5.0, 0.0, 0.0], [4.0, 4.0, 4.0]])  # overspeed and off the box
        before = actions.copy()
        _, _, info = env.step(actions)
        assert info.speed_violations == [0, 1] and info.box_violations == [0]
        assert np.array_equal(actions, before)


class TestBadInput:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_action_row_names_the_uav(self, value):
        env = make_env([(10, 10, 12), (40, 40, 12), (25, 25, 15)])
        start = env.scenario.uav_positions
        actions = np.zeros((3, 3))
        actions[1, 2] = value
        with pytest.raises(ConfigError, match="UAV 1"):
            env.step(actions)
        assert env.slot == 0
        assert np.array_equal(env.scenario.uav_positions, start)
