import dataclasses
import math

import numpy as np
import pytest

from uavmec.channel import ChannelParams
from uavmec.delay import LOCAL, SlotContext, SlotDecision, slot_dor, validate_decision
from uavmec.errors import ConfigError, ValidationError
from uavmec.model import Task, UavArrays, UavState, UserArrays, UserState
from tests._instances import random_slot_context


def make_user(x=0.0, y=0.0, freq=1e9, power=1.0):
    return UserState(position=np.array([x, y, 0.0]), cpu_freq=freq, tx_power=power)


def make_uav(x=0.0, y=0.0, z=10.0, freq=10e9):
    return UavState(position=np.array([x, y, z]), cpu_freq=freq, tx_power=5.0,
                    half_angle_deg=90.0)


def edge_delay(task, rate_bps, cpu_share_hz):
    """Edge delay of one offloaded task at a given uplink rate and processor share,
    read off the slot objective of a one-user, one-UAV context."""
    ctx = SlotContext([make_user()], [make_uav()], [task], ChannelParams())
    decision = SlotDecision(assignment=np.array([0]),
                            bandwidth_hz=np.array([rate_bps / ctx.r0[0, 0]]),
                            cpu_hz=np.array([cpu_share_hz]))
    return slot_dor(decision, ctx, validate=False).per_user_delay[0]


class TestScalarDelays:
    def test_local_delay_direct(self):
        task = Task(bits=1e5, cycles_per_bit=1000.0)
        ctx = SlotContext([make_user(freq=1e9), make_user(freq=2e9)], [make_uav()],
                          [task, task], ChannelParams())
        assert ctx.t_loc == pytest.approx([0.1, 0.05])

    def test_local_delay_zero_freq_rejected(self):
        with pytest.raises(ConfigError):
            SlotContext([make_user(freq=0.0)], [make_uav()],
                        [Task(bits=1e5, cycles_per_bit=1000.0)], ChannelParams())

    @pytest.mark.parametrize("kind, field, value, message", [
        ("user", "cpu_freq", 0.0, "user 1 cpu_freq must be finite and > 0"),
        ("user", "cpu_freq", np.nan, "user 1 cpu_freq must be finite and > 0"),
        ("user", "cpu_freq", np.inf, "user 1 cpu_freq must be finite and > 0"),
        ("user", "tx_power", -1.0, "user 1 tx_power must be finite and >= 0"),
        ("user", "tx_power", np.nan, "user 1 tx_power must be finite and >= 0"),
        ("user", "tx_power", np.inf, "user 1 tx_power must be finite and >= 0"),
        ("uav", "cpu_freq", 0.0, "UAV 1 cpu_freq must be finite and > 0"),
        ("uav", "cpu_freq", -1e9, "UAV 1 cpu_freq must be finite and > 0"),
        ("uav", "cpu_freq", np.nan, "UAV 1 cpu_freq must be finite and > 0"),
        ("uav", "cpu_freq", np.inf, "UAV 1 cpu_freq must be finite and > 0"),
        ("user", "position", np.array([1.0, np.nan, 0.0]), "user 1 position must be finite"),
        ("user", "position", np.array([np.inf, 1.0, 0.0]), "user 1 position must be finite"),
        ("uav", "position", np.array([1.0, 2.0, np.nan]), "UAV 1 position must be finite"),
        ("uav", "position", np.array([-np.inf, 2.0, 10.0]), "UAV 1 position must be finite"),
        ("uav", "half_angle_deg", np.nan, r"UAV 1 half_angle_deg must lie in \[0, 90\]"),
        ("uav", "half_angle_deg", 120.0, r"UAV 1 half_angle_deg must lie in \[0, 90\]"),
        ("uav", "half_angle_deg", -10.0, r"UAV 1 half_angle_deg must lie in \[0, 90\]"),
        ("uav", "tx_power", -5.0, "UAV 1 tx_power must be finite and >= 0"),
        ("uav", "tx_power", np.inf, "UAV 1 tx_power must be finite and >= 0"),
        ("uav", "tx_power", np.nan, "UAV 1 tx_power must be finite and >= 0"),
    ], ids=["user-cpu-0", "user-cpu-nan", "user-cpu-inf", "power-neg", "power-nan", "power-inf",
            "uav-cpu-0", "uav-cpu-neg", "uav-cpu-nan", "uav-cpu-inf", "user-pos-nan",
            "user-pos-inf", "uav-pos-nan", "uav-pos-inf", "uav-angle-nan", "uav-angle-120",
            "uav-angle-neg", "uav-power-neg", "uav-power-inf", "uav-power-nan"])
    def test_bad_entity_names_it(self, kind, field, value, message):
        users = [make_user(0, 0), make_user(5, 5), make_user(9, 9)]
        uavs = [make_uav(0, 0), make_uav(30, 30), make_uav(40, 0)]
        tasks = [Task(bits=1e5, cycles_per_bit=1000.0)] * 3
        SlotContext(users, uavs, tasks, ChannelParams())          # valid
        setattr((users if kind == "user" else uavs)[1], field, value)
        with pytest.raises(ConfigError, match=message):
            SlotContext(users, uavs, tasks, ChannelParams())

    @pytest.mark.parametrize("half_angle", [0.0, 90.0])
    def test_half_angle_bounds_accepted(self, half_angle):
        uav = make_uav(5, 5)
        uav.half_angle_deg = half_angle
        ctx = SlotContext([make_user(5, 5), make_user(30, 30)], [uav],
                          [Task(bits=1e5, cycles_per_bit=1000.0)] * 2, ChannelParams())
        # a zero cone still covers the user directly below
        assert ctx.coverage[:, 0].tolist() == [True, half_angle == 90.0]

    @pytest.mark.parametrize("kind, field, value, rows, message", [
        ("user", "position", [1.0, 2.0], "all",
         r"user position must have shape \(2, 3\), got \(2, 2\)"),
        ("user", "position", [1.0, 2.0], "last",
         "user records field 'position' must be an array of numbers"),
        ("user", "cpu_freq", "fast", "last",
         "user records field 'cpu_freq' must be an array of numbers"),
        ("UAV", "tx_power", [5.0, 5.0], "all",
         r"UAV tx_power must have shape \(2,\), got \(2, 2\)"),
        ("task", "bits", "many", "last", "task records field 'bits' must be an array of numbers"),
        ("user", "cpu_freq", "1e9", "last",
         "user records field 'cpu_freq' must be an array of numbers"),
        ("UAV", "position", ["30", "30", "10"], "last",
         "UAV records field 'position' must be an array of numbers"),
        ("task", "bits", "1e5", "last", "task records field 'bits' must be an array of numbers"),
        ("user", "tx_power", True, "all",
         "user records field 'tx_power' must be an array of numbers"),
        ("UAV", "half_angle_deg", False, "all",
         "UAV records field 'half_angle_deg' must be an array of numbers"),
    ], ids=["user-position-2d", "user-position-ragged", "user-cpu_freq-str",
            "uav-tx_power-vector", "task-bits-str", "user-cpu_freq-numeric-str",
            "uav-position-numeric-str", "task-bits-numeric-str", "user-tx_power-all-bool",
            "uav-half_angle_deg-all-bool"])
    def test_malformed_record_names_the_field(self, kind, field, value, rows, message):
        records = {"user": [make_user(0, 0), make_user(5, 5)],
                   "UAV": [make_uav(0, 0), make_uav(30, 30)],
                   "task": [Task(bits=1e5, cycles_per_bit=1000.0)] * 2}
        first = 0 if rows == "all" else 1
        records[kind][first:] = [dataclasses.replace(record, **{field: value})
                                 for record in records[kind][first:]]
        with pytest.raises(ConfigError, match=message):
            SlotContext(records["user"], records["UAV"], records["task"], ChannelParams())

    def test_zero_tx_power_allowed(self):
        ctx = SlotContext([make_user(power=0.0)], [make_uav()],
                          [Task(bits=1e5, cycles_per_bit=1000.0)], ChannelParams())
        assert ctx.r0[0, 0] == 0.0

    def test_needs_users_and_uavs(self):
        user = UserArrays(position=np.zeros((1, 3)), cpu_freq=np.ones(1), tx_power=np.ones(1))
        uav = UavArrays(position=np.array([[0.0, 0.0, 10.0]]), cpu_freq=np.ones(1),
                        tx_power=np.ones(1), half_angle_deg=np.full(1, 90.0))
        nobody = UserArrays(position=np.zeros((0, 3)), cpu_freq=np.zeros(0),
                            tx_power=np.zeros(0))
        no_uav = UavArrays(position=np.zeros((0, 3)), cpu_freq=np.zeros(0),
                           tx_power=np.zeros(0), half_angle_deg=np.zeros(0))
        task = [Task(bits=1e5, cycles_per_bit=1000.0)]
        with pytest.raises(ConfigError, match="got 0 users and 1 UAVs"):
            SlotContext(nobody, uav, [], ChannelParams())
        with pytest.raises(ConfigError, match="got 1 users and 0 UAVs"):
            SlotContext(user, no_uav, task, ChannelParams())

    def test_needs_a_task_per_user(self):
        with pytest.raises(ConfigError, match="^1 tasks for 2 users$"):
            SlotContext([make_user(0, 0), make_user(5, 5)], [make_uav(0, 0)],
                        [Task(bits=1e5, cycles_per_bit=1000.0)], ChannelParams())

    def test_offload_delay(self):
        task = Task(bits=1e5, cycles_per_bit=500.0)
        instant = 1e30  # execution leg negligible
        assert edge_delay(task, 1e6, instant) == pytest.approx(0.1)
        assert edge_delay(task, 1e12, instant) < 1e-6
        assert edge_delay(task, 0.0, instant) == math.inf

    def test_exec_delay(self):
        task = Task(bits=1e5, cycles_per_bit=500.0)
        instant = 1e30  # uplink leg negligible
        assert edge_delay(task, instant, 10e9) == pytest.approx(5e-3)
        assert edge_delay(task, instant, 0.0) == math.inf
        double = Task(bits=2e5, cycles_per_bit=500.0)
        assert edge_delay(double, instant, 10e9) == pytest.approx(
            2 * edge_delay(task, instant, 10e9))

    def test_edge_delay_sum_and_sentinels(self):
        task = Task(bits=1e5, cycles_per_bit=500.0)
        assert edge_delay(task, 1e6, 10e9) == pytest.approx(0.105)
        assert edge_delay(task, 0.0, 10e9) == math.inf
        assert edge_delay(task, 1e6, 0.0) == math.inf

    def test_edge_delay_decreases_with_resources(self):
        task = Task(bits=1.2e5, cycles_per_bit=800.0)
        assert edge_delay(task, 2e6, 5e9) < edge_delay(task, 1e6, 5e9)
        assert edge_delay(task, 1e6, 9e9) < edge_delay(task, 1e6, 5e9)

    def test_edge_delay_finite_for_typical_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            task = Task(bits=float(rng.uniform(100e3, 150e3)),
                        cycles_per_bit=float(rng.uniform(500, 1000)))
            rate = float(rng.uniform(1e6, 1e8))
            share = float(rng.uniform(1e9, 10e9))
            value = edge_delay(task, rate, share)
            assert math.isfinite(value) and value > 0
            assert value == pytest.approx(task.bits / rate
                                          + task.bits * task.cycles_per_bit / share)


def no_ingress_context():
    """Three users and one UAV with a 10 m cone: user 0 is far outside it, user
    1 is below it at zero tx_power and user 2 below it at 1 W, so only user 2
    has an ingress."""
    users = [make_user(0, 0), make_user(40, 40, power=0.0), make_user(41, 41)]
    uavs = [UavState(position=np.array([40.0, 40.0, 10.0]), cpu_freq=10e9,
                     tx_power=5.0, half_angle_deg=45.0)]
    tasks = [Task(bits=1e5, cycles_per_bit=1000.0)] * 3
    ctx = SlotContext(users, uavs, tasks, ChannelParams())
    assert ctx.coverage[:, 0].tolist() == [False, True, True]
    assert ctx.default_ingress.tolist() == [LOCAL, LOCAL, 0]
    return ctx


def single_user_context():
    users = [make_user(freq=1e9)]
    uavs = [make_uav()]
    tasks = [Task(bits=1e5, cycles_per_bit=1000.0)]  # local delay exactly 0.1 s
    return SlotContext(users, uavs, tasks, ChannelParams())


class TestSlotDor:
    def test_all_local_zero(self):
        ctx = single_user_context()
        decision = SlotDecision(assignment=np.array([LOCAL]),
                                bandwidth_hz=np.zeros(1), cpu_hz=np.zeros(1))
        metrics = slot_dor(decision, ctx)
        assert metrics.dor == 0.0
        assert metrics.per_user_delay[0] == pytest.approx(0.1)

    def test_one_user_direct_substitution(self):
        # target edge delay 0.04 s against a 0.1 s local delay -> 0.6
        ctx = single_user_context()
        r0 = ctx.r0[0, 0]
        bw = (1e5 / 0.02) / r0            # uplink leg: 0.02 s
        cpu = 1e5 * 1000.0 / 0.02         # execute leg: 0.02 s
        decision = SlotDecision(assignment=np.array([0]),
                                bandwidth_hz=np.array([bw]), cpu_hz=np.array([cpu]))
        metrics = slot_dor(decision, ctx)
        assert metrics.dor == pytest.approx(0.6, rel=1e-9)

    def test_edge_equal_local_contributes_zero(self):
        ctx = single_user_context()
        r0 = ctx.r0[0, 0]
        bw = (1e5 / 0.05) / r0
        cpu = 1e5 * 1000.0 / 0.05
        decision = SlotDecision(assignment=np.array([0]),
                                bandwidth_hz=np.array([bw]), cpu_hz=np.array([cpu]))
        assert slot_dor(decision, ctx).dor == pytest.approx(0.0, abs=1e-12)

    def test_negative_contribution_kept(self):
        ctx = single_user_context()
        decision = SlotDecision(assignment=np.array([0]),
                                bandwidth_hz=np.array([10.0]),  # starved uplink
                                cpu_hz=np.array([1e9]))
        assert slot_dor(decision, ctx).dor < 0

    def test_additive_across_users(self):
        users = [make_user(0, 0), make_user(5, 5), make_user(40, 40)]
        uavs = [make_uav(10, 10)]
        tasks = [Task(bits=1.1e5, cycles_per_bit=700.0)] * 3
        ctx = SlotContext(users, uavs, tasks, ChannelParams())
        bw = np.array([4e6, 5e6, 0.0])
        cpu = np.array([3e9, 4e9, 0.0])
        full = SlotDecision(assignment=np.array([0, 0, LOCAL]),
                            bandwidth_hz=bw, cpu_hz=cpu)
        m_full = slot_dor(full, ctx)
        assert m_full.dor == pytest.approx(m_full.per_user_contribution.sum())
        assert m_full.per_user_contribution[2] == 0.0
        # dropping user 1 removes exactly its contribution
        drop = SlotDecision(assignment=np.array([0, LOCAL, LOCAL]),
                            bandwidth_hz=np.array([4e6, 0.0, 0.0]),
                            cpu_hz=np.array([3e9, 0.0, 0.0]))
        m_drop = slot_dor(drop, ctx)
        assert m_drop.dor == pytest.approx(m_full.dor - m_full.per_user_contribution[1])

    def test_contribution_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ctx = random_slot_context(rng)
            covered = np.flatnonzero(ctx.default_ingress != LOCAL)
            assignment = np.full(ctx.num_users, LOCAL)
            for u in covered:
                assignment[u] = ctx.default_ingress[u]
            from uavmec.allocator import evaluate_assignment
            _, metrics = evaluate_assignment(assignment, ctx)
            assert (metrics.per_user_contribution <= 1.0).all()
            assert metrics.dor <= ctx.num_users


class TestValidation:
    def _decision(self, **overrides):
        base = dict(assignment=np.array([0]),
                    bandwidth_hz=np.array([1e6]), cpu_hz=np.array([1e9]))
        base.update(overrides)
        return SlotDecision(**base)

    def test_valid_decision_passes(self):
        validate_decision(self._decision(), single_user_context())

    @pytest.mark.parametrize("field", ["assignment", "bandwidth_hz", "cpu_hz"])
    def test_misshapen_arrays_rejected(self, field):
        decision = self._decision(**{field: np.zeros(2, dtype=int)})
        with pytest.raises(ValidationError, match=r"must have shape \(1,\)"):
            validate_decision(decision, single_user_context())

    @pytest.mark.parametrize("field", ["bandwidth_hz", "cpu_hz"])
    def test_nan_share_rejected(self, field):
        with pytest.raises(ValidationError, match=f"^user 0 {field} must be finite and >= 0"):
            validate_decision(self._decision(**{field: np.array([np.nan])}),
                              single_user_context())

    @pytest.mark.parametrize("assignment", [[0.5], [0.0], ["0"], [True]],
                             ids=["fraction", "integral-float", "str", "bool"])
    def test_non_integer_assignment_rejected(self, assignment):
        with pytest.raises(ValidationError, match="^assignment must be an array of integers"):
            validate_decision(self._decision(assignment=np.array(assignment)),
                              single_user_context())

    @pytest.mark.parametrize("share", [[True], ["1e6"], [None], [[0.0], [0.0, 0.0]]],
                             ids=["bool", "str", "object", "ragged"])
    @pytest.mark.parametrize("field", ["bandwidth_hz", "cpu_hz"])
    def test_non_number_shares_rejected(self, field, share):
        decision = self._decision(**{field: share})
        for check in (validate_decision, slot_dor):
            with pytest.raises(ValidationError, match=f"^{field} must be an array of numbers"):
                check(decision, single_user_context())

    def test_list_shares_score_as_arrays(self):
        from uavmec.allocator import evaluate_assignment
        ctx = random_slot_context(np.random.default_rng(8), num_users=5, num_uavs=2,
                                  narrow_coverage_prob=0.0)
        decision, metrics = evaluate_assignment(ctx.default_ingress, ctx)
        listed = SlotDecision(decision.assignment, decision.bandwidth_hz.tolist(),
                              decision.cpu_hz.tolist())
        again = slot_dor(listed, ctx)
        assert np.count_nonzero(decision.bandwidth_hz) and again.dor == metrics.dor
        assert again.per_user_delay.tobytes() == metrics.per_user_delay.tobytes()

    def test_bad_assignment_index(self):
        with pytest.raises(ValidationError, match="^user 0 assignment must be LOCAL"):
            validate_decision(self._decision(assignment=np.array([3])),
                              single_user_context())

    def test_negative_share(self):
        with pytest.raises(ValidationError, match="bandwidth"):
            validate_decision(self._decision(bandwidth_hz=np.array([-1.0])),
                              single_user_context())

    def test_bandwidth_oversubscription(self):
        ctx = single_user_context()
        with pytest.raises(ValidationError, match="oversubscribed"):
            validate_decision(self._decision(bandwidth_hz=np.array([30e6])), ctx)

    def test_cpu_oversubscription(self):
        ctx = single_user_context()
        with pytest.raises(ValidationError, match="cpu oversubscribed"):
            validate_decision(self._decision(cpu_hz=np.array([20e9])), ctx)

    def test_local_user_with_shares(self):
        ctx = single_user_context()
        bad = self._decision(assignment=np.array([LOCAL]))
        with pytest.raises(ValidationError, match="local users"):
            validate_decision(bad, ctx)

    @pytest.mark.parametrize("user", [0, 1], ids=["uncovered", "zero-rate"])
    def test_offloaded_user_without_ingress_rejected(self, user):
        ctx = no_ingress_context()
        assignment = np.full(3, LOCAL)
        assignment[user] = 0
        shares = np.where(assignment == 0, 1.0, 0.0)
        decision = SlotDecision(assignment=assignment, bandwidth_hz=1e6 * shares,
                                cpu_hz=1e9 * shares)
        with pytest.raises(ValidationError,
                           match=f"user {user} is offloaded but has no ingress UAV"):
            validate_decision(decision, ctx)


class TestShareWeights:
    def test_weights_are_the_sqrt_law_at_the_ingress(self):
        rng = np.random.default_rng(9)
        contexts = [random_slot_context(rng) for _ in range(30)] + [no_ingress_context()]
        without = 0
        for ctx in contexts:
            served = np.flatnonzero(ctx.default_ingress != LOCAL)
            f = ctx.user_freq[served]
            r0 = ctx.r0[served, ctx.default_ingress[served]]
            assert np.array_equal(ctx.w_bw[served], np.sqrt(f / (ctx.task_cycles[served] * r0)))
            assert np.array_equal(ctx.w_cpu, np.sqrt(ctx.user_freq))
            none = ctx.default_ingress == LOCAL
            assert (ctx.w_bw[none] == 0.0).all()
            without += np.count_nonzero(none)
        assert without > 0
