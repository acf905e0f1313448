import numpy as np

from tests._instances import random_slot_context
from uavmec.baselines import al_allocate, ao_allocate, rt_actions
from uavmec.delay import LOCAL, validate_decision


class TestAllocators:
    def test_all_local_dor_exactly_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            ctx = random_slot_context(rng)
            result = al_allocate(ctx)
            assert result.dor == 0.0
            assert (result.decision.assignment == LOCAL).all()
            validate_decision(result.decision, ctx)

    def test_all_offload_follows_default_ingress(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            ctx = random_slot_context(rng)
            result = ao_allocate(ctx)
            assert np.array_equal(result.decision.assignment, ctx.default_ingress)
            assert np.array_equal(result.decision.ingress, ctx.default_ingress)
            validate_decision(result.decision, ctx)


class TestRandomTrajectory:
    def test_rows_within_step_budget(self):
        rng = np.random.default_rng(33)
        for max_step in (0.5, 1.73, 4.0):
            actions = rt_actions(rng, 50, max_step)
            assert actions.shape == (50, 3)
            assert (np.linalg.norm(actions, axis=1) <= max_step).all()
