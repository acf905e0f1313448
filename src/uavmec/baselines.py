"""Reference policies sharing the environment and allocator.

rt_actions: random UAV motion (random trajectory), slot allocation unchanged.
ao_allocate: every covered user offloads to its best-rate covering UAV.
al_allocate: nobody offloads; the objective is 0 by construction.
"""

from __future__ import annotations

import numpy as np

from .allocator import AllocationResult, evaluate_assignment
from .delay import LOCAL, SlotContext
from .errors import COUNT, NON_NEGATIVE, check_number


def rt_actions(rng: np.random.Generator, num_uavs: int, max_step: float) -> np.ndarray:
    """Uniform random 3D direction, uniform speed in [0, max_step], per UAV;
    num_uavs must be >= 1 and max_step finite and >= 0 (`errors.check_number`)."""
    check_number(num_uavs, COUNT, "num_uavs")
    check_number(max_step, NON_NEGATIVE, "max_step")
    direction = rng.normal(size=(num_uavs, 3))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)
    speed = rng.uniform(0.0, max_step, size=(num_uavs, 1))
    return direction * speed


def ao_allocate(ctx: SlotContext) -> AllocationResult:
    """Offload every covered user to its best-rate covering UAV; uncovered stay local."""
    decision, metrics = evaluate_assignment(ctx.default_ingress, ctx, validate=True)
    return AllocationResult(decision=decision, dor=metrics.dor,
                            iterations=1, converged=True)


def al_allocate(ctx: SlotContext) -> AllocationResult:
    """Everyone computes locally; objective exactly 0."""
    assignment = np.full(ctx.num_users, LOCAL, dtype=int)
    decision, metrics = evaluate_assignment(assignment, ctx, validate=True)
    return AllocationResult(decision=decision, dor=metrics.dor,
                            iterations=1, converged=True)
