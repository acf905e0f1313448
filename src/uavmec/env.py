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
from .delay import SlotContext
from .delay import slot_dor  # noqa: F401  not called here; bench/tracing.py patches it by this name
from .errors import ConfigError
from .model import Scenario, apply_motion, generate_tasks, pairwise_distances


@dataclass
class SlotInfo:
    slot: int
    dor: float
    reward: float
    allocation: AllocationResult
    violating_uavs: list[int]
    box_violations: list[int] = field(default_factory=list)
    speed_violations: list[int] = field(default_factory=list)
    collision_uavs: list[int] = field(default_factory=list)


class EdgeComputeEnv:
    """Time-slotted rollout over one scenario.

    Observations are each UAV's own position, a fresh (N, 3) array that later
    steps never write. `allocate` maps a SlotContext to an AllocationResult,
    so baseline offloading policies can ride the same dynamics; its `dor`,
    the slot objective of its decision, is the reward before penalties.
    """

    def __init__(self, scenario: Scenario, penalty: float = 10.0, allocate=None):
        self.scenario = scenario
        self.config = scenario.config
        self.penalty = penalty
        self.allocate = allocate if allocate is not None else cd_search
        self.slot = 0
        self.num_uavs = scenario.config.num_uavs

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

        scenario = self.scenario
        positions, box, speed = apply_motion(scenario.uavs.position, actions, self.config)
        scenario.uavs.position[...] = positions
        collisions = (pairwise_distances(positions) < self.config.d_min).any(axis=1)

        scenario.advance_users()
        tasks = generate_tasks(scenario, self.slot)
        ctx = SlotContext(scenario.users, scenario.uavs, tasks, self.config.channel)
        allocation = self.allocate(ctx)

        violators = box | speed | collisions
        reward = allocation.dor - self.penalty * np.count_nonzero(violators)

        info = SlotInfo(slot=self.slot, dor=allocation.dor, reward=reward,
                        allocation=allocation,
                        violating_uavs=np.flatnonzero(violators).tolist(),
                        box_violations=np.flatnonzero(box).tolist(),
                        speed_violations=np.flatnonzero(speed).tolist(),
                        collision_uavs=np.flatnonzero(collisions).tolist())
        self.slot += 1
        return self.observe(), reward, info
