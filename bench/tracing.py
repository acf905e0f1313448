"""Spans around calls into uavmec's layers, recorded from the benchmark's own files.

A traced run replaces module attributes (functions, classes and methods) with
wrappers that record one span per call: name, start, end, the enclosing span
and the op it belongs to. Nothing in the package changes; the originals are
restored when `Tracer.patched()` exits. Spans stay in memory and are written
out once, at the end of the run.

Spans are recorded only between `start_op` and `stop_op`, so input generation
and output checks, which run between ops, leave no spans.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from uavmec import allocator, baselines, channel, delay, learner, model, nets
from uavmec import env as env_module

_NO_PARENT = -1


def _count_solve(tracer: "Tracer", args, result):
    tracer.counts["solves"] += 1
    tracer.counts["sweeps"] += result.iterations
    tracer.counts["converged"] += bool(result.converged)


def _macs(params: nets.MlpParams, x) -> int:
    """Multiply-adds of one forward pass, from the layer shapes and batch size."""
    batch = 1 if np.ndim(x) == 1 else np.shape(x)[0]
    return batch * sum(w.size for w in params.weights)


def _count_forward_flops(tracer: "Tracer", args, result):
    tracer.counts["flops"] += 2 * _macs(args[0], args[1])


def _count_gradient_flops(tracer: "Tracer", args, result):
    # cached forward plus two backward products (dW and d_input) per layer
    tracer.counts["flops"] += 6 * _macs(args[0], args[1])


# (owner, attribute, span name, callback on the result). The same function is
# patched under every name its callers look it up by.
PATCHES = [
    (allocator, "evaluate_assignment", "allocator.evaluate_assignment", None),
    (baselines, "evaluate_assignment", "allocator.evaluate_assignment", None),
    (allocator, "cd_search", "allocator.cd_search", _count_solve),
    (env_module, "cd_search", "allocator.cd_search", _count_solve),
    (allocator, "slot_dor", "delay.slot_dor", None),
    (env_module, "slot_dor", "delay.slot_dor", None),
    (delay, "SlotContext", "delay.SlotContext", None),
    (env_module, "SlotContext", "delay.SlotContext", None),
    (channel, "mean_path_loss_db", "channel.mean_path_loss_db", None),
    (model.Scenario, "advance_users", "model.advance_users", None),
    (env_module, "generate_tasks", "model.generate_tasks", None),
    (env_module, "apply_motion", "model.apply_motion", None),
    (env_module.EdgeComputeEnv, "step", "env.step", None),
    (baselines, "rt_actions", "baselines.rt_actions", None),
    (baselines, "ao_allocate", "baselines.ao_allocate", None),
    (learner.MaddpgTrainer, "joint_actions", "learner.joint_actions", None),
    (learner.MaddpgTrainer, "critic_update", "learner.critic_update", None),
    (learner.MaddpgTrainer, "actor_update", "learner.actor_update", None),
    (learner.MaddpgTrainer, "soft_update_agent", "learner.soft_update_agent", None),
    (learner.ReplayBuffer, "push", "learner.buffer_push", None),
    (learner.ReplayBuffer, "sample", "learner.buffer_sample", None),
    (nets, "mlp_forward", "nets.mlp_forward", _count_forward_flops),
    (nets, "mlp_gradients", "nets.mlp_gradients", _count_gradient_flops),
]


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = {"solves": 0, "sweeps": 0, "converged": 0, "flops": 0}
        self._stack: list[int] = []
        self._op = -1
        self.enabled = False

    def start_op(self, index: int):
        """Attribute the following spans to op `index` and record them."""
        self._op = index
        self.enabled = True

    def stop_op(self):
        self.enabled = False

    def wrap(self, name: str, fn, on_result=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else _NO_PARENT)
            self.op.append(self._op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper in PATCHES; restore the originals on exit."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in PATCHES]
        try:
            for owner, attr, name, on_result in PATCHES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))
            yield self
        finally:
            self.enabled = False
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write every span, with the name table, as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def _durations(self):
        """Span arrays, each span's duration and the time its direct children cover."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent != _NO_PARENT
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        return spans, dur, child_time

    def layer_metrics(self, num_ops: int) -> dict[str, float]:
        """Per-layer metrics over `num_ops` traced ops.

        Times are milliseconds per op, summed over every call in the op. A
        layer that the workload never calls reads 0.
        """
        spans, dur, child_time = self._durations()
        parent = spans["parent"]
        ids = spans["name_id"]

        def mask(name):
            if name not in self._name_ids:
                return np.zeros(dur.size, dtype=bool)
            return ids == self._name_ids[name]

        def ms(*names):
            return 1e3 * sum(float(dur[mask(n)].sum()) for n in names) / num_ops

        def calls(name):
            return int(mask(name).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        cd = mask("allocator.cd_search")
        cd_ids = np.flatnonzero(cd)
        in_cd = mask("allocator.evaluate_assignment") & np.isin(parent, cd_ids)
        step = mask("env.step")
        solves = self.counts["solves"]
        update_parts = ("learner.critic_update", "learner.actor_update",
                        "learner.soft_update_agent", "learner.buffer_sample")
        return {
            "allocator.cd_search_ms": ms("allocator.cd_search"),
            "allocator.sweeps_per_solve": ratio(self.counts["sweeps"], solves),
            "allocator.evaluate_calls_per_solve": ratio(int(in_cd.sum()), int(cd.sum())),
            "allocator.evaluate_share": ratio(float(dur[in_cd].sum()), float(dur[cd].sum())),
            "allocator.converged_frac": ratio(self.counts["converged"], solves),
            "delay.slot_context_ms": ms("delay.SlotContext"),
            "delay.slot_dor_ms": ms("delay.slot_dor"),
            "delay.slot_dor_calls_per_op": calls("delay.slot_dor") / num_ops,
            "channel.path_loss_ms": ms("channel.mean_path_loss_db"),
            "model.advance_users_ms": ms("model.advance_users"),
            "model.generate_tasks_ms": ms("model.generate_tasks"),
            "model.apply_motion_ms": ms("model.apply_motion"),
            "env.step_ms": ms("env.step"),
            "env.self_ms": 1e3 * float((dur[step] - child_time[step]).sum()) / num_ops,
            "baselines.rt_actions_ms": ms("baselines.rt_actions"),
            "baselines.ao_allocate_ms": ms("baselines.ao_allocate"),
            "learner.act_ms": ms("learner.joint_actions"),
            "learner.update_ms": ms(*update_parts),
            "learner.critic_update_ms": ms("learner.critic_update"),
            "learner.actor_update_ms": ms("learner.actor_update"),
            "learner.soft_update_ms": ms("learner.soft_update_agent"),
            "learner.buffer_ms": ms("learner.buffer_push", "learner.buffer_sample"),
            "nets.forward_calls_per_slot": calls("nets.mlp_forward") / num_ops,
            "nets.gradients_calls_per_slot": calls("nets.mlp_gradients") / num_ops,
            "nets.forward_ms": ms("nets.mlp_forward"),
            "nets.gradients_ms": ms("nets.mlp_gradients"),
            "nets.flops_per_slot": self.counts["flops"] / num_ops,
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self milliseconds per span name, over the whole run."""
        spans, dur, child_time = self._durations()
        self_time = dur - child_time
        out = {}
        for name, name_id in self._name_ids.items():
            sel = spans["name_id"] == name_id
            out[name] = {"calls": int(sel.sum()),
                         "total_ms": 1e3 * float(dur[sel].sum()),
                         "self_ms": 1e3 * float(self_time[sel].sum())}
        return out
