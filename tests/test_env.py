from pathlib import Path

import numpy as np
import pytest

from uavmec import allocator
from uavmec.allocator import cd_search
from uavmec.baselines import al_allocate, ao_allocate, rt_actions
from uavmec.delay import SlotContext
from uavmec.env import EdgeComputeEnv
from uavmec.errors import ConfigError
from uavmec.model import Scenario, ScenarioConfig, generate_tasks

DATA = Path(__file__).parent / "data"


def make_env(positions, allocate=None, **overrides):
    cfg = dict(num_users=3, num_uavs=len(positions), horizon=50, rng_seed=2,
               initial_uav_positions=positions)
    env = EdgeComputeEnv(Scenario(ScenarioConfig(**{**cfg, **overrides})), penalty=10.0,
                         allocate=allocate)
    env.reset()
    return env


def indices(mask) -> list[int]:
    """The UAVs a violation mask flags, in index order."""
    return np.flatnonzero(mask).tolist()


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
        assert indices(info.box) == [0]
        assert indices(info.speed) == [1]
        assert indices(info.collision) == [2, 3]
        assert indices(info.violators) == [0, 1, 2, 3]
        assert reward == info.reward == info.dor - 10.0 * 4

    def test_uav_with_several_violations_pays_once(self):
        env = make_env([(0, 0, 10), (1, 0, 10), (40, 40, 15)])
        actions = np.zeros((3, 3))
        actions[0] = [-5.0, 0.0, 0.0]            # overspeed and out of the box
        _, reward, info = env.step(actions)
        assert indices(info.box) == [0] and indices(info.speed) == [0]
        assert indices(info.collision) == [0, 1]
        assert indices(info.violators) == [0, 1]
        assert reward == info.dor - 10.0 * 2

    def test_clean_step_pays_the_slot_objective(self):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        _, reward, info = env.step(np.zeros((2, 3)))
        assert indices(info.violators) == []
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
            assert indices(info.collision) == loop_collisions(env.scenario.uav_positions, 12.0)
            assert reward == info.dor - 10.0 * np.count_nonzero(info.violators)
            seen += bool(info.collision.any())
        assert 0 < seen < 200


    @pytest.mark.parametrize("allocate", [cd_search, ao_allocate])
    def test_one_slot_evaluation_per_step(self, monkeypatch, allocate):
        calls, slot_dor = [], allocator.slot_dor   # env calls none itself (test_packaging)
        monkeypatch.setattr(allocator, "slot_dor",
                            lambda *args, **kwargs: calls.append(1) or slot_dor(*args, **kwargs))
        env = make_env([(10, 10, 12), (40, 40, 12)], allocate=allocate)
        for steps in range(1, 6):
            _, reward, info = env.step(np.zeros((2, 3)))
            assert len(calls) == steps
            assert reward == info.dor == info.allocation.dor


class TestEpisode:
    def test_bad_action_shape_rejected(self):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        with pytest.raises(ConfigError,
                           match=r"UAV motion delta must have shape \(2, 3\), got \(3, 3\)"):
            env.step(np.zeros((3, 3)))
        assert env.slot == 0

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


def random_slots(env, slots, seed=5):
    """`slots` steps under seeded random actions: each step's UAV and user
    positions and reward."""
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(slots):
        obs, reward, _ = env.step(rt_actions(rng, env.config.num_uavs, env.config.max_step))
        trace.append((obs, env.scenario.user_positions, reward))
    return trace


def assert_same_slots(first, again):
    assert [reward for *_, reward in first] == [reward for *_, reward in again]
    for (uavs, users, _), (uavs2, users2, _) in zip(first, again):
        assert uavs.tobytes() == uavs2.tobytes() and users.tobytes() == users2.tobytes()


HORIZON = 8   # of the failed-allocation episodes


class TestLifecycle:
    """One reset restores every start; a step spends its slot once the world moves."""

    def check_reset_replays(self, env, user_start):
        first = random_slots(env, 30)
        assert not np.array_equal(env.scenario.users.position, user_start)
        env.scenario.reset()
        assert env.scenario.uavs.position.tobytes() == \
            env.scenario.initial_uav_positions.tobytes()
        assert env.scenario.users.position.tobytes() == user_start.tobytes()
        env.reset()
        assert_same_slots(first, random_slots(env, 30))

    def test_reset_restores_the_built_scenario(self):
        cfg = ScenarioConfig(num_users=8, num_uavs=3, horizon=60, rng_seed=4,
                             user_mobility="random_waypoint", user_speed=2.0)
        env = EdgeComputeEnv(Scenario(cfg))
        self.check_reset_replays(env, Scenario(cfg).users.position)

    def test_loaded_scenario_walks_from_its_loaded_positions(self):
        path = DATA / "scenario_100x10_walk25.json"
        scenario = Scenario.load(path)
        loaded = scenario.user_positions
        built = Scenario(scenario.config).users.position
        assert not np.array_equal(loaded, built)   # the snapshot walked 25 slots
        self.check_reset_replays(EdgeComputeEnv(scenario, allocate=ao_allocate), loaded)
        assert Scenario.load(path).initial_user_positions.tobytes() == loaded.tobytes()

    @pytest.mark.parametrize("k", [0, 3, HORIZON - 1])
    def test_failed_allocation_spends_its_slot(self, k):
        def failing(ctx):
            calls.append(1)
            if len(calls) == k + 1:
                raise RuntimeError("allocator failed")
            return cd_search(ctx)

        calls = []
        overrides = dict(num_users=5, horizon=HORIZON, user_mobility="random_waypoint",
                         user_speed=2.0)
        uavs = [(10, 10, 12), (40, 40, 12)]
        env, clean = make_env(uavs, failing, **overrides), make_env(uavs, **overrides)
        rng = np.random.default_rng(9)
        actions = [rt_actions(rng, 2, env.config.max_step) for _ in range(HORIZON)]
        for slot in range(k):
            env.step(actions[slot])
            clean.step(actions[slot])
        with pytest.raises(RuntimeError, match="allocator failed"):
            env.step(actions[k])
        clean.step(actions[k])
        assert env.slot == k + 1
        # moved once, as far as the clean episode
        assert env.scenario.uav_positions.tobytes() == clean.scenario.uav_positions.tobytes()
        assert env.scenario.user_positions.tobytes() == clean.scenario.user_positions.tobytes()

        if k + 1 == HORIZON:
            with pytest.raises(ConfigError, match="episode exhausted"):
                env.step(np.zeros((2, 3)))
        else:
            _, _, info = env.step(np.zeros((2, 3)))
            assert info.slot == k + 1
            scenario = env.scenario
            tasks = generate_tasks(scenario, k + 1)
            want = cd_search(SlotContext(scenario.users, scenario.uavs, tasks,
                                         env.config.channel))
            for name in ("assignment", "bandwidth_hz", "cpu_hz"):
                got = getattr(info.allocation.decision, name)
                assert np.array_equal(got, getattr(want.decision, name)), name
            assert info.dor == want.dor

        episodes = []
        for run in (env, clean):
            run.reset()
            episodes.append([run.step(a)[1] for a in actions])
        assert episodes[0] == episodes[1]


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

    def test_masks_are_new_bool_arrays_per_step(self):
        env = make_env([(0, 0, 10), (40, 40, 15), (10, 40, 12)])
        actions = np.array([[-5.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        infos = [env.step(actions)[2]]                # UAV 0 overspeeds out of the box
        saved = {name: getattr(infos[0], name).copy()
                 for name in ("box", "speed", "collision", "violators")}
        env.reset()
        infos.append(env.step(np.zeros((3, 3)))[2])   # a clean step: every mask False
        for info in infos:
            for name in saved:
                mask = getattr(info, name)
                assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (3,)
        assert all(np.array_equal(getattr(infos[0], name), saved[name]) for name in saved)
        assert indices(saved["violators"]) == [0] and not infos[1].violators.any()
        for name in saved:
            assert not np.shares_memory(getattr(infos[0], name), getattr(infos[1], name))

    def test_step_never_writes_the_actions(self):
        env = make_env([(0, 0, 10), (40, 40, 12)])
        actions = np.array([[-5.0, 0.0, 0.0], [4.0, 4.0, 4.0]])  # overspeed and off the box
        before = actions.copy()
        _, _, info = env.step(actions)
        assert indices(info.speed) == [0, 1] and indices(info.box) == [0]
        assert np.array_equal(actions, before)


class TestBadInput:
    @pytest.mark.parametrize("penalty", [np.nan, np.inf, -1.0])
    def test_bad_penalty_rejected(self, penalty):
        scenario = Scenario(ScenarioConfig(num_users=3, num_uavs=2, horizon=5))
        with pytest.raises(ConfigError, match="penalty must be finite and >= 0"):
            EdgeComputeEnv(scenario, penalty=penalty)

    @pytest.mark.parametrize("penalty", ["x", None, [1.0], True])
    def test_non_number_penalty_rejected(self, penalty):
        scenario = Scenario(ScenarioConfig(num_users=3, num_uavs=2, horizon=5))
        with pytest.raises(ConfigError, match="penalty must be a number"):
            EdgeComputeEnv(scenario, penalty=penalty)

    def test_complex_actions_rejected(self):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        start = env.scenario.uav_positions
        with pytest.raises(ConfigError, match="complex128 is not real"):
            env.step(np.array([[0.5 + 1j, 0, 0], [0, 0, 0]]))
        assert env.slot == 0
        assert np.array_equal(env.scenario.uav_positions, start)

    @pytest.mark.parametrize("actions", [np.ones((2, 3), bool), np.ones((2, 3), object),
                                         np.array([["1", "2", "3"], ["0", "0", "0"]])],
                             ids=["bool", "object", "numeric-str"])
    def test_actions_of_a_non_number_dtype_rejected(self, actions):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        start = env.scenario.uav_positions
        with pytest.raises(ConfigError, match=f"dtype {actions.dtype} is not real"):
            env.step(actions)
        assert env.slot == 0
        assert np.array_equal(env.scenario.uav_positions, start)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.float32])
    def test_integer_and_float_actions_accepted(self, dtype):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        moved, _, info = env.step(np.array([[1, 0, 0], [0, 0, 1]], dtype))
        assert np.array_equal(moved, [(11, 10, 12), (40, 40, 13)])
        assert not info.violators.any()

    @pytest.mark.parametrize("allocate", [5, "cd_search"])
    def test_non_callable_allocate_rejected(self, allocate):
        scenario = Scenario(ScenarioConfig(num_users=3, num_uavs=2, horizon=5))
        with pytest.raises(ConfigError, match="allocate must be callable"):
            EdgeComputeEnv(scenario, allocate=allocate)

    @pytest.mark.parametrize("actions", [[[0, 0], [0, 0, 0]], [["a", "b", "c"], [0, 0, 0]]],
                             ids=["ragged", "str"])
    def test_unconvertible_actions_rejected(self, actions):
        env = make_env([(10, 10, 12), (40, 40, 12)])
        with pytest.raises(ConfigError, match="motion deltas must be an array of numbers"):
            env.step(actions)
        assert env.slot == 0

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
