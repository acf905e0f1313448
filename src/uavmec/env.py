"""Episodic environment: UAV motions in, per-slot allocation and shared reward out.

Each step applies the commanded displacements under the motion constraints,
draws the slot's tasks, solves the slot allocation (coordinate descent by
default), and pays the slot objective as a shared reward. Constraint
violations (box, speed, UAV separation) subtract a fixed penalty per
violating UAV; `SlotInfo` keeps the step's (N,) violation masks. Positions
are never rolled back: a step spends its slot once the world moves, so if
the allocator then raises, the slot counter still matches the world and the
next step draws the next slot's tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import AllocationResult, cd_search
from .delay import SlotContext
from .delay import slot_dor  # noqa: F401  not called here; bench/tracing.py patches it by this name
from .errors import NON_NEGATIVE, ConfigError, check_number, require
from .model import Scenario, apply_motion, generate_tasks, pairwise_distances


@dataclass
class SlotInfo:
    """One slot's outcome. `box`, `speed`, `collision` and their union
    `violators` are new (N,) bool masks of the UAVs that broke each constraint."""

    slot: int
    dor: float
    reward: float
    allocation: AllocationResult
    box: np.ndarray
    speed: np.ndarray
    collision: np.ndarray
    violators: np.ndarray


class EdgeComputeEnv:
    """Time-slotted rollout over one scenario.

    Observations are each UAV's own position, a fresh (N, 3) array that later
    steps never write. `allocate` maps a SlotContext to an AllocationResult,
    so baseline offloading policies can ride the same dynamics; its `dor`,
    the slot objective of its decision, is the reward before penalties.
    """

    def __init__(self, scenario: Scenario, penalty: float = 10.0, allocate=None):
        check_number(penalty, NON_NEGATIVE, "penalty")
        self.penalty = penalty
        self.scenario = scenario
        self.config = scenario.config
        self.allocate = allocate if allocate is not None else cd_search
        require(callable(self.allocate), f"allocate must be callable, got {allocate!r}")
        self.slot = 0

    def observe(self) -> np.ndarray:
        return self.scenario.uav_positions

    def reset(self) -> np.ndarray:
        self.scenario.reset()
        self.slot = 0
        return self.observe()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, float, SlotInfo]:
        """Advance one slot. actions: (num_uavs, 3) displacements in meters,
        checked by `apply_motion`."""
        slot = self.slot
        if slot >= self.config.horizon:
            raise ConfigError("episode exhausted; call reset()")

        scenario = self.scenario
        positions, box, speed = apply_motion(scenario.uavs.position, actions, self.config)
        scenario.uavs.position[...] = positions
        collision = (pairwise_distances(positions) < self.config.d_min).any(axis=1)

        scenario.advance_users()
        self.slot = slot + 1   # the world has moved: the slot is spent, whatever follows
        tasks = generate_tasks(scenario, slot)
        ctx = SlotContext(scenario.users, scenario.uavs, tasks, self.config.channel)
        allocation = self.allocate(ctx)

        violators = box | speed | collision
        reward = allocation.dor - self.penalty * np.count_nonzero(violators)

        info = SlotInfo(slot=slot, dor=allocation.dor, reward=reward,
                        allocation=allocation, box=box, speed=speed, collision=collision,
                        violators=violators)
        return self.observe(), reward, info
