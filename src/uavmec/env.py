"""Episodic environment: UAV motions in, per-slot allocation and shared reward out.

Each step applies the commanded displacements under the motion constraints,
draws the slot's tasks, solves the slot allocation (coordinate descent by
default), and pays the slot objective as a shared reward. Constraint
violations (box, speed, UAV separation) subtract a fixed penalty per
violating UAV; positions are never rolled back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocator import AllocationResult, cd_search
from .delay import SlotContext, SlotMetrics, slot_dor
from .errors import ConfigError
from .model import Scenario, apply_motion, generate_tasks, pairwise_distances


@dataclass
class SlotInfo:
    slot: int
    dor: float
    reward: float
    metrics: SlotMetrics
    allocation: AllocationResult
    violating_uavs: list[int]
    box_violations: list[int] = field(default_factory=list)
    speed_violations: list[int] = field(default_factory=list)
    collision_uavs: list[int] = field(default_factory=list)


class EdgeComputeEnv:
    """Time-slotted rollout over one scenario.

    Observations are each UAV's own position. `allocate` maps a SlotContext
    to an AllocationResult, so baseline offloading policies can ride the same
    dynamics.
    """

    def __init__(self, scenario: Scenario, penalty: float = 10.0, allocate=None):
        self.scenario = scenario
        self.config = scenario.config
        self.penalty = penalty
        self.allocate = allocate if allocate is not None else cd_search
        self.slot = 0
        self.num_uavs = scenario.config.num_uavs
        self.obs_dim = 3

    def observe(self) -> np.ndarray:
        return self.scenario.uav_positions

    def reset(self) -> np.ndarray:
        self.scenario.reset_uavs()
        self.scenario.reset_mobility()
        self.slot = 0
        return self.observe()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, float, SlotInfo]:
        """Advance one slot. actions: (num_uavs, 3) displacements in meters."""
        actions = np.asarray(actions, dtype=float)
        if actions.shape != (self.num_uavs, 3):
            raise ConfigError(
                f"actions must have shape ({self.num_uavs}, 3), got {actions.shape}")
        if self.slot >= self.config.horizon:
            raise ConfigError("episode exhausted; call reset()")

        box, speed = [], []
        for n, uav in enumerate(self.scenario.uavs):
            outcome = apply_motion(uav, actions[n], self.config)
            uav.position = outcome.new_position
            if outcome.box_violation:
                box.append(n)
            if outcome.speed_violation:
                speed.append(n)

        too_close = pairwise_distances(self.scenario.uav_positions) < self.config.d_min
        collisions = np.flatnonzero(too_close.any(axis=1)).tolist()

        self.scenario.advance_users()
        tasks = generate_tasks(self.scenario, self.slot)
        ctx = SlotContext(self.scenario.users, self.scenario.uavs, tasks,
                          self.config.channel)
        allocation = self.allocate(ctx)
        metrics = slot_dor(allocation.decision, ctx, validate=False)

        violators = sorted(set(box) | set(speed) | set(collisions))
        reward = metrics.dor - self.penalty * len(violators)

        info = SlotInfo(slot=self.slot, dor=metrics.dor, reward=reward,
                        metrics=metrics, allocation=allocation,
                        violating_uavs=violators, box_violations=box,
                        speed_violations=speed,
                        collision_uavs=collisions)
        self.slot += 1
        return self.observe(), reward, info
