import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from tests._cd_gap import GAP_FILE, GAP_FILES, SEEDS, gap_instance
from tests._instances import (make_context, make_tasks, make_uavs, make_users,
                              random_slot_context, scenario_range_context)
from uavmec import allocator, delay
from uavmec.allocator import (brute_force_oracle, cd_search, evaluate_assignment,
                              minimize_inverse_on_simplex, numeric_convex_oracle)
from uavmec.baselines import al_allocate, ao_allocate
from uavmec.delay import LOCAL, SlotContext, SlotDecision, slot_dor
from uavmec.errors import CapExceededError, ConvergenceError, InfeasibleError, ValidationError
from uavmec.model import Scenario, ScenarioConfig, generate_tasks

FROZEN_ASSIGNMENTS = Path(__file__).parent / "data" / "cd_assignments.json"
FROZEN_DENSE = Path(__file__).parent / "data" / "cd_dense_assignments.json"


def one_uav_context(user_freqs, cycles, uav_cpu=10e9, powers=None):
    """Users stacked at one ground point under a single full-coverage UAV."""
    users = make_users(np.full((len(user_freqs), 2), 20.0), user_freqs,
                       1.0 if powers is None else powers)
    return make_context(users, make_uavs([(25.0, 25.0, 12.0)], uav_cpu),
                        make_tasks(len(cycles), 1e5, cycles))


def all_offloaded(ctx):
    return evaluate_assignment(np.zeros(ctx.num_users, dtype=int), ctx)[0]


class TestClosedForms:
    def test_identical_users_split_evenly(self):
        decision = all_offloaded(one_uav_context([1e9, 1e9], [700, 700]))
        assert decision.bandwidth_hz == pytest.approx([10e6, 10e6])
        decision = all_offloaded(one_uav_context([1e9] * 3, [700] * 3, uav_cpu=9e9))
        assert decision.cpu_hz == pytest.approx([3e9, 3e9, 3e9])

    def test_bandwidth_sqrt_weighting(self):
        # weights f/(c*r0) in ratio 4:1 -> sqrt ratio 2:1 -> shares 2/3, 1/3
        decision = all_offloaded(one_uav_context([1e9, 1e9], [700, 2800]))
        assert decision.bandwidth_hz == pytest.approx([20e6 * 2 / 3, 20e6 / 3], rel=1e-12)

    def test_cpu_sqrt_weighting(self):
        decision = all_offloaded(one_uav_context([1e9, 4e9], [700, 700], uav_cpu=9e9))
        assert decision.cpu_hz == pytest.approx([3e9, 6e9], rel=1e-12)

    def test_single_user_full_resource(self):
        decision = all_offloaded(one_uav_context([1e9], [700]))
        assert decision.bandwidth_hz == pytest.approx([20e6])
        assert decision.cpu_hz == pytest.approx([10e9])

    def test_empty_group(self):
        # UAVs nobody enters or executes on hold no shares and divide by nothing
        rng = np.random.default_rng(17)
        ctx = random_slot_context(rng, num_users=4, num_uavs=3, narrow_coverage_prob=0.0)
        with np.errstate(all="raise"):
            local, _ = evaluate_assignment(np.full(4, LOCAL), ctx)
            on_first, _ = evaluate_assignment(np.zeros(4, dtype=int), ctx)
        assert not local.bandwidth_hz.any() and not local.cpu_hz.any()
        assert (on_first.cpu_hz > 0).all()
        assert on_first.cpu_hz.sum() == pytest.approx(ctx.uav_cpu[0], rel=1e-12)

    def test_zero_spectral_efficiency_rejected(self):
        ctx = one_uav_context([1e9, 1e9], [700, 700], powers=[1.0, 0.0])
        assert ctx.r0[1, 0] == 0.0
        with pytest.raises(InfeasibleError, match="user 1 is offloaded but has no ingress UAV"):
            all_offloaded(ctx)

    def test_shares_sum_to_capacity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            ctx = random_slot_context(rng, max_users=10, max_uavs=4,
                                      narrow_coverage_prob=0.0)
            assignment = rng.integers(0, ctx.num_uavs, size=ctx.num_users)
            decision, _ = evaluate_assignment(assignment, ctx)
            for uav in range(ctx.num_uavs):
                bw = decision.bandwidth_hz[ctx.default_ingress == uav]
                cpu = decision.cpu_hz[decision.assignment == uav]
                if bw.size:
                    assert abs(bw.sum() - ctx.uav_bw[uav]) <= ctx.uav_bw[uav] * 1e-12
                if cpu.size:
                    assert abs(cpu.sum() - ctx.uav_cpu[uav]) <= ctx.uav_cpu[uav] * 1e-12
            assert (decision.bandwidth_hz > 0).all() and (decision.cpu_hz > 0).all()


class TestProjectedGradientOracle:
    def test_symmetric_weights_equal_shares(self):
        x = minimize_inverse_on_simplex([3.0, 3.0, 3.0], 9.0)
        assert x == pytest.approx([3.0, 3.0, 3.0], rel=1e-6)

    def test_single_entry_full_capacity(self):
        assert minimize_inverse_on_simplex([2.0], 7.0) == pytest.approx([7.0])

    def test_no_entries_no_shares(self):
        shares = minimize_inverse_on_simplex([], 7.0)
        assert shares.shape == (0,) and shares.dtype == np.float64

    def test_stall_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(allocator, "SIMPLEX_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="projected gradient stalled"):
            minimize_inverse_on_simplex([1.0, 4.0], 7.0)

    def test_matches_sqrt_law_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            w = rng.uniform(0.1, 10.0, k)
            cap = float(rng.uniform(1.0, 100.0))
            x = minimize_inverse_on_simplex(w, cap)
            expected = cap * np.sqrt(w) / np.sqrt(w).sum()
            assert np.max(np.abs(x - expected) / expected) < 1e-6

    def test_oracle_vs_closed_forms_full_assignment(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            ctx = random_slot_context(rng, max_users=6, max_uavs=3)
            covered = ctx.default_ingress != LOCAL
            if not covered.any():
                continue
            assignment = np.where(covered, ctx.default_ingress, LOCAL)
            decision, _ = evaluate_assignment(assignment, ctx)
            bw, cpu = numeric_convex_oracle(assignment, ctx)
            off = np.flatnonzero(covered)
            assert np.max(np.abs(bw[off] - decision.bandwidth_hz[off])
                          / decision.bandwidth_hz[off]) < 1e-6
            assert np.max(np.abs(cpu[off] - decision.cpu_hz[off])
                          / decision.cpu_hz[off]) < 1e-6

    @pytest.mark.parametrize("assignment, message", [
        ([0.7, LOCAL, 2, 1], "^assignment must be an array of integers, .*dtype float64"),
        ([0, LOCAL, 2, 7], r"user 3 assignment must be LOCAL \(-1\)"),
        (["0", "-1", "2", "1"], "assignment must be an array of integers"),
    ], ids=["fraction", "no-such-uav", "str"])
    def test_bad_assignment_rejected(self, assignment, message):
        ctx = scenario_range_context(np.random.default_rng(19), 4, 3, narrow_coverage=False)
        numeric_convex_oracle([0, LOCAL, 2, 1], ctx)    # valid
        with pytest.raises(ValidationError, match=message):
            numeric_convex_oracle(assignment, ctx)

    def test_offloaded_user_without_ingress_named(self):
        ctx = one_uav_context([1e9, 1e9], [500.0, 500.0], powers=[1.0, 0.0])
        with pytest.raises(InfeasibleError, match="user 1 is offloaded but has no ingress"):
            numeric_convex_oracle([0, 0], ctx)


def deviation_gap(ctx, assignment, base_dor):
    """Largest improvement any single-user change could still achieve."""
    best = 0.0
    can_offload = ctx.default_ingress != LOCAL
    for user in range(ctx.num_users):
        incumbent = assignment[user]
        choices = [LOCAL] + (list(range(ctx.num_uavs)) if can_offload[user] else [])
        for choice in choices:
            if choice == incumbent:
                continue
            trial = assignment.copy()
            trial[user] = choice
            _, metrics = evaluate_assignment(trial, ctx)
            best = max(best, metrics.dor - base_dor)
    return best


class TestCdSearch:
    def test_single_user_single_uav_offloads_when_faster(self):
        ctx = make_context(make_users([(10.0, 10.0)], 0.9e9, 1.1),
                           make_uavs([(10.0, 10.0, 12.0)]), make_tasks(1, 1.2e5, 800.0))
        result = cd_search(ctx)
        # exhaustive over the two possible assignments
        oracle = brute_force_oracle(ctx)
        assert result.dor == pytest.approx(oracle.dor)
        assert result.decision.assignment[0] == 0
        assert result.dor > 0

    def test_sweep_cap_stops_unconverged(self, monkeypatch):
        # the user offloads in sweep 1, so a second sweep would be needed to
        # find that nothing changes any more
        monkeypatch.setattr(allocator, "MAX_SWEEPS", 1)
        result = cd_search(one_uav_context([0.9e9], [800.0]))
        assert result.decision.assignment[0] == 0
        assert (result.converged, result.iterations) == (False, 1)

    def test_no_coverage_stays_local(self):
        ctx = make_context(make_users(np.zeros((3, 2))),
                           make_uavs([(49.0, 49.0, 10.0)], half_angle_deg=30.0),
                           make_tasks(3, 1e5, 600.0))
        result = cd_search(ctx)
        assert (result.decision.assignment == LOCAL).all()
        assert result.dor == 0.0
        assert result.converged

    def test_fixed_point_has_no_improving_deviation(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            ctx = random_slot_context(rng, max_users=6, max_uavs=3)
            result = cd_search(ctx)
            assert result.converged
            assert result.iterations >= 1
            gap = deviation_gap(ctx, result.decision.assignment, result.dor)
            assert gap <= 1e-12

    def test_zero_power_user_stays_local(self):
        # covered at zero rate: no ingress, so every allocator leaves it local
        ctx = one_uav_context([1e9, 1e9], [700, 700], powers=[1.0, 0.0])
        assert ctx.coverage[1, 0] and ctx.default_ingress.tolist() == [0, LOCAL]
        for allocate in (cd_search, ao_allocate, brute_force_oracle):
            result = allocate(ctx)
            assert result.decision.assignment.tolist() == [0, LOCAL]
            assert result.dor > 0

    def test_one_full_evaluation_per_solve(self, monkeypatch):
        # candidates are scored from group sums; only the final decision is
        # built, through the module names the benchmark's tracer wraps
        calls = {"evaluate_assignment": 0, "slot_dor": 0}

        def counted(name):
            original = getattr(allocator, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(allocator, name, counted(name))
        ctx = random_slot_context(np.random.default_rng(21), num_users=8, num_uavs=3,
                                  narrow_coverage_prob=0.0)
        result = cd_search(ctx)
        assert result.iterations >= 2
        assert calls == {"evaluate_assignment": 1, "slot_dor": 1}

    def test_dor_never_negative(self):
        # starting all-local and only accepting improvements keeps dor >= 0
        rng = np.random.default_rng(6)
        for _ in range(30):
            ctx = random_slot_context(rng)
            assert cd_search(ctx).dor >= 0.0


class TestBruteForce:
    def test_single_user_matches_cd(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ctx = random_slot_context(rng, num_users=1, max_uavs=3)
            assert brute_force_oracle(ctx).dor == pytest.approx(cd_search(ctx).dor)

    def test_oracle_dominates_cd(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            ctx = random_slot_context(rng, max_users=5, max_uavs=3)
            bf = brute_force_oracle(ctx)
            cd = cd_search(ctx)
            assert bf.dor >= cd.dor - 1e-12

    def test_cap_refusal(self, monkeypatch):
        rng = np.random.default_rng(13)
        ctx = random_slot_context(rng, num_users=6, num_uavs=3,
                                  narrow_coverage_prob=0.0)
        monkeypatch.setattr(allocator, "BRUTE_FORCE_CAP", 100)
        with pytest.raises(CapExceededError, match="above the cap of 100"):
            brute_force_oracle(ctx)

    def test_cap_message_gives_the_exact_count(self):
        # 100 covered users with 11 choices each: 11**100 overflows int64
        ctx = scenario_range_context(np.random.default_rng(13), 100, 10, narrow_coverage=False)
        assert (ctx.default_ingress != LOCAL).all()
        with pytest.raises(CapExceededError) as info:
            brute_force_oracle(ctx)
        assert f"needs {11 ** 100} evaluations" in str(info.value)
        assert "-" not in str(info.value)

    def test_cd_gap_to_the_optimum_does_not_grow(self):
        # cd_search against the optimum frozen by tests/_cd_gap.py: a change
        # may close the gap, never widen it on any instance or on average
        frozen = json.loads(GAP_FILE.read_text())["instances"]
        assert [row["seed"] for row in frozen] == list(SEEDS)
        optimum = np.array([float.fromhex(row["optimum"]) for row in frozen])
        bound = np.array([float.fromhex(row["gap"]) for row in frozen]) + 1e-12 * optimum
        gap = optimum - [cd_search(gap_instance(seed)).dor for seed in SEEDS]
        assert [seed for seed in SEEDS if gap[seed] > bound[seed]] == []
        assert gap.mean() <= bound.mean()

    @pytest.mark.parametrize("seed", [0, 3, 6, 9, 12])
    def test_frozen_optimum_is_the_oracle(self, seed):
        row = json.loads(GAP_FILE.read_text())["instances"][seed]
        assert (row["seed"], row["narrow_coverage"]) == (seed, seed % 2 == 1)
        expected = float.fromhex(row["optimum"])
        assert brute_force_oracle(gap_instance(seed)).dor == pytest.approx(expected, rel=1e-12)

    def test_cd_gap_at_8x3_does_not_grow(self):
        frozen = json.loads(GAP_FILES[8, 3].read_text())["instances"]
        assert [row["seed"] for row in frozen] == list(SEEDS)
        optimum = np.array([float.fromhex(row["optimum"]) for row in frozen])
        bound = np.array([float.fromhex(row["gap"]) for row in frozen]) + 1e-12 * optimum
        gap = optimum - [cd_search(gap_instance(seed, 8, 3)).dor for seed in SEEDS]
        assert [seed for seed in SEEDS if gap[seed] > bound[seed]] == []
        assert gap.mean() <= bound.mean()

    def test_frozen_8x3_optimum_is_the_oracle(self):
        # CD ends below the optimum here, and narrow cones keep the enumeration short
        row = json.loads(GAP_FILES[8, 3].read_text())["instances"][13]
        assert row["seed"] == 13 and float.fromhex(row["gap"]) > 0
        expected = float.fromhex(row["optimum"])
        assert brute_force_oracle(gap_instance(13, 8, 3)).dor == pytest.approx(expected, rel=1e-12)

    def test_decision_validates(self):
        rng = np.random.default_rng(14)
        ctx = random_slot_context(rng, num_users=4, num_uavs=2)
        result = brute_force_oracle(ctx)
        slot_dor(result.decision, ctx)  # must not raise


class TestEvaluateAssignment:
    @pytest.mark.parametrize("entry, message", [
        *((entry, r"^user 1 assignment must be LOCAL \(-1\) "
                  rf"or a UAV index in \[0, 3\), got {entry}$") for entry in (-2, 3, 7, 2 ** 40)),
        *((entry, r"^assignment must be an array of integers, .*: dtype float64 is not an "
                  "integer type$")
          for entry in (0.7, -1.5, np.nan, np.inf)),
    ], ids=["-2", "num_uavs", "7", "2**40", "0.7", "-1.5", "nan", "inf"])
    def test_bad_entry_names_the_user(self, entry, message):
        ctx = scenario_range_context(np.random.default_rng(19), 4, 3, narrow_coverage=False)
        assignment = [0, LOCAL, 2, 1]
        evaluate_assignment(assignment, ctx)        # valid
        assignment[1] = entry
        with pytest.raises(ValidationError, match=message):
            evaluate_assignment(assignment, ctx)

    def test_bad_entry_checked_before_any_work(self, monkeypatch):
        ctx = scenario_range_context(np.random.default_rng(19), 4, 3, narrow_coverage=False)
        for name in ("_sqrt_law_shares", "slot_dor"):     # any use would raise TypeError
            monkeypatch.setattr(allocator, name, None)
        with pytest.raises(ValidationError, match="user 3"):
            evaluate_assignment(np.array([0, 1, 2, -2]), ctx)

    @pytest.mark.parametrize("assignment", [["0", "1", "2", "-1"], [True, False, True, True]],
                             ids=["str", "bool"])
    def test_non_numeric_assignment_rejected(self, assignment):
        ctx = scenario_range_context(np.random.default_rng(19), 4, 3, narrow_coverage=False)
        with pytest.raises(ValidationError, match="assignment must be an array of integers"):
            evaluate_assignment(assignment, ctx)

    def test_integral_floats_rejected(self):
        ctx = scenario_range_context(np.random.default_rng(19), 4, 3, narrow_coverage=False)
        with pytest.raises(ValidationError,
                           match="^assignment must be an array of integers, .*dtype float64"):
            evaluate_assignment(np.array([0.0, -1.0, 2.0, 1.0]), ctx)

    @pytest.mark.parametrize("assignment", [
        [0, LOCAL], [[0, LOCAL, 0, 0]], [0, LOCAL, 0, 1], [0, LOCAL, -2, 0], [0, 0, 0, 0],
        [0.0, -1.0, 0.0, 0.0], [True, False, True, True], ["0", "-1", "0", "0"],
    ], ids=["short", "2d", "no-such-uav", "below-local", "stranded", "float", "bool", "str"])
    def test_every_checker_raises_the_same_error(self, assignment):
        # user 1 has zero tx power, so no ingress: offloading it is infeasible
        ctx = one_uav_context([1e9] * 4, [500.0] * 4, powers=[1.0, 0.0, 1.0, 1.0])
        zeros = np.zeros(4)
        errors = []
        for check in (lambda: evaluate_assignment(assignment, ctx),
                      lambda: numeric_convex_oracle(assignment, ctx),
                      lambda: slot_dor(SlotDecision(assignment, zeros, zeros), ctx)):
            with pytest.raises(ValidationError) as info:
                check()
            errors.append((type(info.value), str(info.value)))
        assert errors == [errors[0]] * 3
        assert (errors[0][0] is InfeasibleError) == (assignment == [0, 0, 0, 0])

    @pytest.mark.parametrize("solve", [
        lambda ctx: evaluate_assignment(ctx.default_ingress, ctx, validate=True),
        cd_search, ao_allocate, al_allocate, brute_force_oracle,
    ], ids=["evaluate", "cd_search", "ao_allocate", "al_allocate", "brute_force"])
    def test_each_evaluation_checks_its_assignment_once(self, monkeypatch, solve):
        calls = []
        original = delay.check_assignment

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        for module in (delay, allocator):   # `slot_dor`'s name and the allocator's
            monkeypatch.setattr(module, "check_assignment", counted)
        ctx = random_slot_context(np.random.default_rng(17), num_users=4, num_uavs=2,
                                  narrow_coverage_prob=0.0)
        served = np.count_nonzero(ctx.default_ingress != LOCAL)
        solve(ctx)
        # the brute force scores every assignment unvalidated, then its winner validated
        evaluations = 3 ** served + 1 if solve is brute_force_oracle else 1
        assert served and len(calls) == evaluations

    def test_all_local_dor_zero(self):
        rng = np.random.default_rng(15)
        ctx = random_slot_context(rng, num_users=4, num_uavs=2)
        _, metrics = evaluate_assignment(np.full(4, LOCAL), ctx)
        assert metrics.dor == 0.0

    def test_offloading_uncovered_user_rejected(self):
        ctx = make_context(make_users([(0.0, 0.0)]),
                           make_uavs([(49.0, 49.0, 10.0)], half_angle_deg=30.0),
                           make_tasks(1, 1e5, 600.0))
        with pytest.raises(InfeasibleError):
            evaluate_assignment(np.array([0]), ctx)

    def test_every_feasible_assignment_validates(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            ctx = random_slot_context(rng, max_users=4, max_uavs=2)
            can = ctx.default_ingress != LOCAL
            assignment = np.array([
                int(rng.integers(-1, ctx.num_uavs)) if can[u] else LOCAL
                for u in range(ctx.num_users)
            ])
            decision, _ = evaluate_assignment(assignment, ctx)
            slot_dor(decision, ctx)

    def test_relay_executor_differs_from_ingress(self):
        # executor without coverage is reachable through the covering UAV
        ctx = make_context(make_users([(5.0, 5.0)]),
                           make_uavs([(5.0, 5.0, 15.0), (45.0, 45.0, 10.0)], [8e9, 12e9],
                                     half_angle_deg=[90.0, 30.0]),
                           make_tasks(1, 1e5, 700.0))
        assert not ctx.coverage[0, 1]
        decision, metrics = evaluate_assignment(np.array([1]), ctx)
        assert ctx.default_ingress[0] == 0
        assert decision.cpu_hz[0] == pytest.approx(12e9)
        assert metrics.dor > 0


def frozen_instances():
    """The instance family whose cd_search assignments are checked in.

    200 seeded random slots of up to 10 users x 4 UAVs, half with narrow
    coverage cones, plus slot 0 of the default scenario under seeds 0-2.
    """
    for seed in range(200):
        rng = np.random.default_rng(seed)
        yield f"random-{seed}", random_slot_context(rng, max_users=10, max_uavs=4)
    for seed in range(3):
        sc = Scenario(ScenarioConfig(rng_seed=seed))
        yield f"default-{seed}", SlotContext(sc.users, sc.uavs, generate_tasks(sc, 0),
                                             sc.config.channel)


def dense_instances():
    """The dense frozen family: 40 slots at 40 x 8 and 4 at 100 x 10.

    Odd seeds get a narrow coverage cone, so some users are forced local.
    """
    for (m, n), seeds in (((40, 8), range(40)), ((100, 10), range(4))):
        for seed in seeds:
            rng = np.random.default_rng([m, n, seed])
            yield (f"dense-{m}x{n}-{seed}",
                   scenario_range_context(rng, m, n, narrow_coverage=seed % 2 == 1))


def group_objective(assignment, ctx):
    """DOR from per-UAV group sums: |off| - sum S_bw^2 / B - sum S_cpu^2 / F."""
    off = np.flatnonzero(assignment != LOCAL)
    ingress = ctx.default_ingress[off]
    s_bw = np.bincount(ingress, ctx.w_bw[off], minlength=ctx.num_uavs)
    s_cpu = np.bincount(assignment[off], ctx.w_cpu[off], minlength=ctx.num_uavs)
    return off.size - np.sum(s_bw ** 2 / ctx.uav_bw) - np.sum(s_cpu ** 2 / ctx.uav_cpu)


class TestFrozenAssignments:
    def test_cd_assignments_match_recorded(self):
        # recorded from cd_search before the share formulas were merged; any
        # rewrite of the search (incremental sweeps included) must keep them
        expected = json.loads(FROZEN_ASSIGNMENTS.read_text())
        got = {name: cd_search(ctx).decision.assignment.tolist()
               for name, ctx in frozen_instances()}
        assert got == expected

    def test_dense_cd_results_match_recorded(self):
        # recorded from the search that evaluated every candidate in full; at
        # 40 x 8 and 100 x 10 exact ties between empty equal-capacity UAVs and
        # near-ties are common, so this gates the tie rule
        expected = json.loads(FROZEN_DENSE.read_text())
        got = {}
        for name, ctx in dense_instances():
            result = cd_search(ctx)
            got[name] = {"assignment": result.decision.assignment.tolist(),
                         "iterations": result.iterations,
                         "converged": result.converged}
        assert got == expected

    def test_group_objective_matches_evaluation(self):
        rng = np.random.default_rng(23)
        for _, ctx in itertools.chain(frozen_instances(), dense_instances()):
            can = ctx.default_ingress != LOCAL
            assignment = np.where(can & (rng.random(ctx.num_users) < 0.7),
                                  rng.integers(0, ctx.num_uavs, ctx.num_users), LOCAL)
            dor = evaluate_assignment(assignment, ctx)[1].dor
            # relative to the size of the summands, since DOR itself may be ~0
            scale = max(1.0, float(np.count_nonzero(assignment != LOCAL)))
            assert abs(group_objective(assignment, ctx) - dor) <= 1e-12 * scale
