"""Multi-UAV edge computing simulator and per-slot offloading optimizer.

Core pieces: a seeded world model held in arrays (`model`), the ground-to-air
link model (`channel`), the delay objective (`delay`), the per-slot
offloading/resource optimizer with oracles (`allocator`), the time-slotted
environment (`env`), a numpy MLP with hand-written gradients (`nets`), a
multi-agent actor-critic trajectory learner (`learner`), reference policies
(`baselines`) and the shared exception types (`errors`).
"""

from .model import (ScenarioConfig, Scenario, UserArrays, UavArrays, TaskArrays,
                    apply_motion, coverage_radius, pairwise_distances, generate_tasks)
from .channel import ChannelParams
from .delay import LOCAL, SlotContext, SlotDecision, SlotMetrics, slot_dor
from .allocator import (AllocationResult, evaluate_assignment, cd_search,
                        brute_force_oracle, numeric_convex_oracle)

__all__ = ["ScenarioConfig", "Scenario", "UserArrays", "UavArrays", "TaskArrays",
           "apply_motion", "coverage_radius", "pairwise_distances", "generate_tasks",
           "ChannelParams", "LOCAL", "SlotContext", "SlotDecision", "SlotMetrics", "slot_dor",
           "AllocationResult", "evaluate_assignment", "cd_search",
           "brute_force_oracle", "numeric_convex_oracle"]

__version__ = "0.1.0"
