import math

import numpy as np
import pytest

from uavmec.allocator import evaluate_assignment
from uavmec.delay import LOCAL, SlotDecision, slot_dor
from uavmec.errors import ConfigError, ValidationError
from tests._instances import (make_context, make_tasks, make_uavs, make_users,
                              random_slot_context)


def origin_context(users=1, tasks=None, **user_columns):
    """`users` users at the origin under one UAV 10 m up (local delay 0.1 s at 1 GHz)."""
    return make_context(make_users(np.zeros((users, 2)), **user_columns),
                        make_uavs([(0.0, 0.0, 10.0)]), tasks)


def edge_delay(bits, cycles_per_bit, rate_bps, cpu_share_hz):
    """Edge delay of one offloaded task at a given uplink rate and processor share,
    read off the slot objective of a one-user, one-UAV context."""
    ctx = origin_context(tasks=make_tasks(1, bits, cycles_per_bit))
    decision = SlotDecision(assignment=np.array([0]),
                            bandwidth_hz=np.array([rate_bps / ctx.r0[0, 0]]),
                            cpu_hz=np.array([cpu_share_hz]))
    return slot_dor(decision, ctx, validate=False).per_user_delay[0]


class TestScalarDelays:
    def test_local_delay_direct(self):
        ctx = origin_context(2, cpu_freq=[1e9, 2e9])
        assert ctx.t_loc == pytest.approx([0.1, 0.05])

    def test_local_delay_zero_freq_rejected(self):
        with pytest.raises(ConfigError):
            origin_context(cpu_freq=0.0)

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
        users = make_users([(0, 0), (5, 5), (9, 9)])
        uavs = make_uavs([(0, 0, 10), (30, 30, 10), (40, 0, 10)])
        make_context(users, uavs)          # valid
        getattr(users if kind == "user" else uavs, field)[1] = value
        with pytest.raises(ConfigError, match=message):
            make_context(users, uavs)

    @pytest.mark.parametrize("half_angle", [0.0, 90.0])
    def test_half_angle_bounds_accepted(self, half_angle):
        ctx = make_context(make_users([(5, 5), (30, 30)]),
                           make_uavs([(5, 5, 10)], half_angle_deg=half_angle))
        # a zero cone still covers the user directly below
        assert ctx.coverage[:, 0].tolist() == [True, half_angle == 90.0]

    def test_zero_tx_power_allowed(self):
        ctx = origin_context(tx_power=0.0)
        assert ctx.r0[0, 0] == 0.0

    def test_needs_users_and_uavs(self):
        with pytest.raises(ConfigError, match="got 0 users and 1 UAVs"):
            origin_context(0)
        with pytest.raises(ConfigError, match="got 1 users and 0 UAVs"):
            make_context(make_users([(0.0, 0.0)]), make_uavs(np.zeros((0, 3))))

    def test_needs_a_task_per_user(self):
        with pytest.raises(ConfigError, match="^1 tasks for 2 users$"):
            origin_context(2, tasks=make_tasks(1))

    def test_offload_delay(self):
        task = (1e5, 500.0)
        instant = 1e30  # execution leg negligible
        assert edge_delay(*task, 1e6, instant) == pytest.approx(0.1)
        assert edge_delay(*task, 1e12, instant) < 1e-6
        assert edge_delay(*task, 0.0, instant) == math.inf

    def test_exec_delay(self):
        task = (1e5, 500.0)
        instant = 1e30  # uplink leg negligible
        assert edge_delay(*task, instant, 10e9) == pytest.approx(5e-3)
        assert edge_delay(*task, instant, 0.0) == math.inf
        assert edge_delay(2e5, 500.0, instant, 10e9) == pytest.approx(
            2 * edge_delay(*task, instant, 10e9))

    def test_edge_delay_sum_and_sentinels(self):
        task = (1e5, 500.0)
        assert edge_delay(*task, 1e6, 10e9) == pytest.approx(0.105)
        assert edge_delay(*task, 0.0, 10e9) == math.inf
        assert edge_delay(*task, 1e6, 0.0) == math.inf

    def test_edge_delay_decreases_with_resources(self):
        task = (1.2e5, 800.0)
        assert edge_delay(*task, 2e6, 5e9) < edge_delay(*task, 1e6, 5e9)
        assert edge_delay(*task, 1e6, 9e9) < edge_delay(*task, 1e6, 5e9)

    def test_edge_delay_finite_for_typical_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            bits, cycles = rng.uniform(100e3, 150e3), rng.uniform(500, 1000)
            rate, share = rng.uniform(1e6, 1e8), rng.uniform(1e9, 10e9)
            value = edge_delay(bits, cycles, rate, share)
            assert math.isfinite(value) and value > 0
            assert value == pytest.approx(bits / rate + bits * cycles / share)


def no_ingress_context():
    """Three users and one UAV with a 10 m cone: user 0 is far outside it, user
    1 is below it at zero tx_power and user 2 below it at 1 W, so only user 2
    has an ingress."""
    ctx = make_context(make_users([(0, 0), (40, 40), (41, 41)], tx_power=[1.0, 0.0, 1.0]),
                       make_uavs([(40, 40, 10)], half_angle_deg=45.0))
    assert ctx.coverage[:, 0].tolist() == [False, True, True]
    assert ctx.default_ingress.tolist() == [LOCAL, LOCAL, 0]
    return ctx


class TestSlotDor:
    def test_all_local_zero(self):
        ctx = origin_context()
        decision = SlotDecision(assignment=np.array([LOCAL]),
                                bandwidth_hz=np.zeros(1), cpu_hz=np.zeros(1))
        metrics = slot_dor(decision, ctx)
        assert metrics.dor == 0.0
        assert metrics.per_user_delay[0] == pytest.approx(0.1)

    def test_one_user_direct_substitution(self):
        # target edge delay 0.04 s against a 0.1 s local delay -> 0.6
        ctx = origin_context()
        r0 = ctx.r0[0, 0]
        bw = (1e5 / 0.02) / r0            # uplink leg: 0.02 s
        cpu = 1e5 * 1000.0 / 0.02         # execute leg: 0.02 s
        decision = SlotDecision(assignment=np.array([0]),
                                bandwidth_hz=np.array([bw]), cpu_hz=np.array([cpu]))
        metrics = slot_dor(decision, ctx)
        assert metrics.dor == pytest.approx(0.6, rel=1e-9)

    def test_edge_equal_local_contributes_zero(self):
        ctx = origin_context()
        r0 = ctx.r0[0, 0]
        bw = (1e5 / 0.05) / r0
        cpu = 1e5 * 1000.0 / 0.05
        decision = SlotDecision(assignment=np.array([0]),
                                bandwidth_hz=np.array([bw]), cpu_hz=np.array([cpu]))
        assert slot_dor(decision, ctx).dor == pytest.approx(0.0, abs=1e-12)

    def test_negative_contribution_kept(self):
        ctx = origin_context()
        decision = SlotDecision(assignment=np.array([0]),
                                bandwidth_hz=np.array([10.0]),  # starved uplink
                                cpu_hz=np.array([1e9]))
        assert slot_dor(decision, ctx).dor < 0

    def test_additive_across_users(self):
        ctx = make_context(make_users([(0, 0), (5, 5), (40, 40)]), make_uavs([(10, 10, 10)]),
                           make_tasks(3, 1.1e5, 700.0))
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
            # every user with an ingress offloads there, the others stay local
            _, metrics = evaluate_assignment(ctx.default_ingress, ctx)
            assert (metrics.per_user_contribution <= 1.0).all()
            assert metrics.dor <= ctx.num_users


class TestValidation:
    def _decision(self, **overrides):
        base = dict(assignment=np.array([0]),
                    bandwidth_hz=np.array([1e6]), cpu_hz=np.array([1e9]))
        base.update(overrides)
        return SlotDecision(**base)

    def test_valid_decision_passes(self):
        slot_dor(self._decision(), origin_context())

    @pytest.mark.parametrize("field", ["assignment", "bandwidth_hz", "cpu_hz"])
    def test_misshapen_arrays_rejected(self, field):
        decision = self._decision(**{field: np.zeros(2, dtype=int)})
        with pytest.raises(ValidationError, match=r"must have shape \(1,\)"):
            slot_dor(decision, origin_context())

    @pytest.mark.parametrize("field", ["bandwidth_hz", "cpu_hz"])
    def test_nan_share_rejected(self, field):
        with pytest.raises(ValidationError, match=f"^user 0 {field} must be finite and >= 0"):
            slot_dor(self._decision(**{field: np.array([np.nan])}), origin_context())

    @pytest.mark.parametrize("assignment", [[0.5], [0.0], ["0"], [True]],
                             ids=["fraction", "integral-float", "str", "bool"])
    def test_non_integer_assignment_rejected(self, assignment):
        with pytest.raises(ValidationError, match="^assignment must be an array of integers"):
            slot_dor(self._decision(assignment=np.array(assignment)), origin_context())

    @pytest.mark.parametrize("share", [[True], ["1e6"], [None], [[0.0], [0.0, 0.0]]],
                             ids=["bool", "str", "object", "ragged"])
    @pytest.mark.parametrize("field", ["bandwidth_hz", "cpu_hz"])
    def test_non_number_shares_rejected(self, field, share):
        with pytest.raises(ValidationError, match=f"^{field} must be an array of numbers"):
            slot_dor(self._decision(**{field: share}), origin_context())

    def test_list_shares_score_as_arrays(self):
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
            slot_dor(self._decision(assignment=np.array([3])), origin_context())

    def test_negative_share(self):
        with pytest.raises(ValidationError, match="bandwidth"):
            slot_dor(self._decision(bandwidth_hz=np.array([-1.0])), origin_context())

    def test_bandwidth_oversubscription(self):
        ctx = origin_context()
        with pytest.raises(ValidationError, match="oversubscribed"):
            slot_dor(self._decision(bandwidth_hz=np.array([30e6])), ctx)

    def test_cpu_oversubscription(self):
        ctx = origin_context()
        with pytest.raises(ValidationError, match="cpu oversubscribed"):
            slot_dor(self._decision(cpu_hz=np.array([20e9])), ctx)

    def test_local_user_with_shares(self):
        ctx = origin_context()
        bad = self._decision(assignment=np.array([LOCAL]))
        with pytest.raises(ValidationError, match="local users"):
            slot_dor(bad, ctx)

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
            slot_dor(decision, ctx)


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
