"""The benchmark's three workloads: seeded inputs, closed-loop timing, output checks.

    train_warm      learner.train() on the default 10 x 4 scenario; one op is one
                    training slot once the replay buffer is warm
    alloc_dense     one SlotContext build plus one cd_search at 40 users x 8 UAVs
    rollout_mobile  rt_actions plus EdgeComputeEnv.step at 100 x 10 with mobile
                    users and the all-offload allocator

Every op starts only after the previous one returned: one client, closed loop.
Inputs are generated and outputs checked between ops, outside the timed region.
README.md gives the reason for each workload and the layer each one stresses.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from uavmec import allocator, baselines, delay, learner, model
from uavmec import env as env_module
from uavmec.errors import (ConfigError, ConvergenceError, InfeasibleError,
                           NumericError, ValidationError)

from tracing import Tracer

# Errors the package raises for an op it cannot complete; such an op counts as failed.
OP_ERRORS = (ConfigError, ValidationError, InfeasibleError, ConvergenceError, NumericError)

# Relative slack when a recomputed DOR is compared with a reported one.
DOR_RTOL = 1e-9

# One set-up is timed, between ops, per this much op time. Sampling set-up
# across the run, rather than only at its start, lets its median see the
# same machine as the ops do: on a shared box the speed drifts over seconds.
SETUP_EVERY_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "allocator.cd_search_ms": "ms",
    "allocator.sweeps_per_solve": "count",
    "allocator.evaluate_calls_per_solve": "count",
    "allocator.evaluate_share": "ratio",
    "allocator.converged_frac": "ratio",
    "delay.slot_context_ms": "ms",
    "delay.slot_dor_ms": "ms",
    "delay.slot_dor_calls_per_op": "count",
    "channel.path_loss_ms": "ms",
    "model.advance_users_ms": "ms",
    "model.generate_tasks_ms": "ms",
    "model.apply_motion_ms": "ms",
    "env.step_ms": "ms",
    "env.self_ms": "ms",
    "baselines.rt_actions_ms": "ms",
    "baselines.ao_allocate_ms": "ms",
    "learner.act_ms": "ms",
    "learner.update_ms": "ms",
    "learner.critic_update_ms": "ms",
    "learner.actor_update_ms": "ms",
    "learner.soft_update_ms": "ms",
    "learner.buffer_ms": "ms",
    "nets.forward_calls_per_slot": "count",
    "nets.gradients_calls_per_slot": "count",
    "nets.forward_ms": "ms",
    "nets.gradients_ms": "ms",
    "nets.flops_per_slot": "count",
    "trace.overhead_ms": "ms",
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Size:
    min_ops: int            # per timed phase; 100 leaves 10 samples above p90
    setup_reps: int         # set-ups timed before the first op
    quality_ops: int        # DOR is averaged over the first ops, so the seed fixes it
    train_users: int
    train_uavs: int
    train_warm: int         # min_fill = batch_size; slots before it are not timed
    train_check_horizon: int  # slots of the repeated short training runs
    alloc_users: int
    alloc_uavs: int
    alloc_optimality_every: int  # every k-th context gets the single-move optimality check
    rollout_users: int
    rollout_uavs: int


FULL = Size(min_ops=100, setup_reps=5, quality_ops=100,
            train_users=10, train_uavs=4, train_warm=128, train_check_horizon=192,
            alloc_users=40, alloc_uavs=8, alloc_optimality_every=25,
            rollout_users=100, rollout_uavs=10)

# For the benchmark's own smoke tests only.
TINY = Size(min_ops=5, setup_reps=2, quality_ops=5,
            train_users=4, train_uavs=2, train_warm=8, train_check_horizon=12,
            alloc_users=6, alloc_uavs=3, alloc_optimality_every=2,
            rollout_users=8, rollout_uavs=3)


@dataclass
class Phase:
    """What one timed phase produced."""

    op_seconds: list[float] = field(default_factory=list)
    failed: int = 0
    dors: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)   # failed output checks
    errors: list[str] = field(default_factory=list)     # errors raised by ops
    slot_rewards: list[float] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    _next_setup: float = SETUP_EVERY_S

    @property
    def timed_seconds(self) -> float:
        return sum(self.op_seconds)

    def maybe_time_setup(self, setup, elapsed: float):
        """Time one set-up when another SETUP_EVERY_S of op time has passed."""
        if elapsed >= self._next_setup:
            self._next_setup += SETUP_EVERY_S
            t0 = time.perf_counter()
            setup()
            self.setup_seconds.append(time.perf_counter() - t0)

    def record(self, dor: float, converged: bool):
        self.dors.append(dor)
        if not converged:
            self.failed += 1


def check_decision(decision, ctx, claimed_dor: float):
    """Validate a decision and recompute its DOR; raise CheckFailed on a mismatch."""
    try:
        metrics = delay.slot_dor(decision, ctx, validate=True)
    except ValidationError as exc:
        raise CheckFailed(f"decision does not validate: {exc}") from exc
    if not abs(metrics.dor - claimed_dor) <= DOR_RTOL * max(1.0, abs(claimed_dor)):
        raise CheckFailed(f"reported DOR {claimed_dor!r} != recomputed {metrics.dor!r}")


def closed_loop(prepare, execute, verify, setup, seconds: float, min_ops: int,
                tracer: Tracer | None) -> Phase:
    """Run ops back to back until `seconds` of op time and `min_ops` ops are done."""
    phase = Phase()
    elapsed = 0.0
    while elapsed < seconds or len(phase.op_seconds) < min_ops:
        i = len(phase.op_seconds)
        inputs = prepare(i)
        if tracer is not None:
            tracer.start_op(i)
        t0 = time.perf_counter()
        try:
            output = execute(inputs)
        except OP_ERRORS as exc:
            output = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop_op()
        phase.op_seconds.append(dt)
        elapsed += dt
        phase.maybe_time_setup(setup, elapsed)
        if isinstance(output, Exception):
            phase.failed += 1
            phase.errors.append(f"op {i}: {type(output).__name__}: {output}")
            continue
        try:
            verify(i, inputs, output, phase)
        except CheckFailed as exc:
            phase.problems.append(f"op {i}: {exc}")
    return phase


class AllocDense:
    """SlotContext build plus cd_search on a seeded stream of 40 x 8 slots.

    Users, UAV positions and tasks are redrawn for every context from the
    scenario's ranges, and every odd context gets a narrow coverage cone, so
    some users are forced local. Redrawing the users too keeps the mix of
    search lengths the same from seed to seed; with one user layout per run,
    the median op time moved by a fifth between seeds.
    """

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size

    def setup(self):
        return model.build_scenario(model.ScenarioConfig(
            num_users=self.size.alloc_users, num_uavs=self.size.alloc_uavs,
            rng_seed=self.seed))

    def run_phase(self, scenario, seconds, tracer=None) -> Phase:
        cfg = scenario.config

        def prepare(i):
            rng = np.random.default_rng([self.seed, i])
            users = [model.UserState(
                position=np.array([rng.uniform(0.0, cfg.area_x), rng.uniform(0.0, cfg.area_y), 0.0]),
                cpu_freq=float(rng.uniform(*cfg.user_freq_range)),
                tx_power=float(rng.uniform(*cfg.user_power_range)))
                for _ in range(cfg.num_users)]
            half_angle = float(rng.uniform(30.0, 60.0)) if i % 2 else 90.0
            uavs = [model.UavState(
                position=rng.uniform([0.0, 0.0, cfg.z_min], [cfg.area_x, cfg.area_y, cfg.z_max]),
                cpu_freq=cfg.uav_freq, tx_power=cfg.uav_power, half_angle_deg=half_angle)
                for _ in range(cfg.num_uavs)]
            bits = rng.uniform(*cfg.task_bits_range, size=cfg.num_users)
            cycles = rng.uniform(*cfg.task_cycles_per_bit_range, size=cfg.num_users)
            tasks = [model.Task(bits=float(b), cycles_per_bit=float(c))
                     for b, c in zip(bits, cycles)]
            return users, uavs, tasks

        def execute(inputs):
            users, uavs, tasks = inputs
            ctx = delay.SlotContext(users, uavs, tasks, cfg.channel)
            return ctx, allocator.cd_search(ctx)

        def verify(i, inputs, output, phase):
            ctx, result = output
            check_decision(result.decision, ctx, result.dor)
            if result.dor < 0:
                raise CheckFailed(f"DOR {result.dor!r} < 0 although search starts all-local")
            if i % self.size.alloc_optimality_every == 0:
                check_no_improving_move(ctx, result)
            phase.record(result.dor, result.converged)

        return closed_loop(prepare, execute, verify, self.setup, seconds,
                           self.size.min_ops, tracer)


def check_no_improving_move(ctx, result):
    """Raise CheckFailed if moving one user to another choice raises the DOR."""
    assignment = np.asarray(result.decision.assignment)
    slack = DOR_RTOL * max(1.0, abs(result.dor))
    for user in range(ctx.num_users):
        choices = [delay.LOCAL]
        if ctx.default_ingress[user] != delay.LOCAL:
            choices += list(range(ctx.num_uavs))
        for choice in choices:
            if choice == assignment[user]:
                continue
            trial = assignment.copy()
            trial[user] = choice
            _, metrics = allocator.evaluate_assignment(trial, ctx)
            if metrics.dor > result.dor + slack:
                raise CheckFailed(f"moving user {user} to {choice} raises DOR "
                                  f"{result.dor!r} -> {metrics.dor!r}")


class RolloutMobile:
    """rt_actions plus EdgeComputeEnv.step at 100 x 10, random-waypoint users,
    every covered user offloaded by ao_allocate."""

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size

    def setup(self):
        scenario = model.build_scenario(model.ScenarioConfig(
            num_users=self.size.rollout_users, num_uavs=self.size.rollout_uavs,
            user_mobility="random_waypoint", rng_seed=self.seed))
        env = env_module.EdgeComputeEnv(scenario, allocate=baselines.ao_allocate)
        env.reset()
        return env

    def run_phase(self, env, seconds, tracer=None) -> Phase:
        scenario = env.scenario
        cfg = scenario.config
        rng = np.random.default_rng([self.seed, 3])
        lo = np.array([0.0, 0.0, cfg.z_min])
        hi = np.array([cfg.area_x, cfg.area_y, cfg.z_max])

        def prepare(i):
            if env.slot >= cfg.horizon:
                env.reset()

        def execute(_):
            actions = baselines.rt_actions(rng, cfg.num_uavs, cfg.max_step)
            return env.step(actions)[2]

        def verify(i, _, info, phase):
            pos = scenario.uav_positions
            if np.any(pos < lo) or np.any(pos > hi):
                raise CheckFailed(f"a UAV left the flight box at slot {info.slot}")
            tasks = model.generate_tasks(scenario, info.slot)
            ctx = delay.SlotContext(scenario.users, scenario.uavs, tasks, cfg.channel)
            check_decision(info.allocation.decision, ctx, info.dor)
            phase.record(info.dor, info.allocation.converged)

        return closed_loop(prepare, execute, verify, self.setup, seconds,
                           self.size.min_ops, tracer)


class _StopTraining(Exception):
    """Raised from the slot callback to end a timed training run."""


class _FirstSlot(Exception):
    """Raised where train() starts its first slot, to end a timed set-up."""


def _first_slot(*args, **kwargs):
    raise _FirstSlot


@contextlib.contextmanager
def _stop_at_first_slot():
    """Make train() raise _FirstSlot when it acts or steps for the first time."""
    owners = [(learner.MaddpgTrainer, "joint_actions"), (env_module.EdgeComputeEnv, "step")]
    originals = [getattr(owner, attr) for owner, attr in owners]
    try:
        for owner, attr in owners:
            setattr(owner, attr, _first_slot)
        yield
    finally:
        for (owner, attr), original in zip(owners, originals):
            setattr(owner, attr, original)


class TrainWarm:
    """learner.train() on the default scenario, min_fill = batch_size, timed per slot.

    An op is the interval from the return of one slot callback to the next
    call, counted from the first slot that runs learner updates. The seed
    sets the trainer's seed (network init, exploration noise, replay
    sampling); the scenario is the default one, so its users and tasks do not
    depend on the seed.
    """

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.scenario_config = model.ScenarioConfig(
            num_users=size.train_users, num_uavs=size.train_uavs)
        self.train_config = learner.TrainConfig(
            min_fill=size.train_warm, batch_size=size.train_warm, seed=seed)

    def setup(self):
        """Scenario build plus train()'s own work up to its first slot."""
        scenario = model.build_scenario(self.scenario_config)
        with _stop_at_first_slot():
            try:
                # the callback ends the run after one slot should train() stop
                # calling the patched methods
                learner.train(scenario, self.train_config, slot_callback=_first_slot)
            except _FirstSlot:
                pass
        return scenario

    def run_phase(self, scenario, seconds, tracer=None) -> Phase:
        phase = Phase()
        warm = self.size.train_warm
        min_ops = self.size.min_ops
        state = {"last": 0.0, "elapsed": 0.0}

        def on_slot(episode, info):
            now = time.perf_counter()
            if tracer is not None:
                tracer.stop_op()
            k = len(phase.slot_rewards)
            phase.slot_rewards.append(info.reward)
            if k >= warm:
                dt = now - state["last"]
                phase.op_seconds.append(dt)
                state["elapsed"] += dt
                phase.record(info.dor, info.allocation.converged)
                if state["elapsed"] >= seconds and len(phase.op_seconds) >= min_ops:
                    raise _StopTraining
                phase.maybe_time_setup(self.setup, state["elapsed"])
            if k >= warm - 1 and tracer is not None:
                tracer.start_op(k - warm + 1)
            state["last"] = time.perf_counter()

        try:
            learner.train(scenario, self.train_config, slot_callback=on_slot)
        except _StopTraining:
            pass
        except OP_ERRORS as exc:
            phase.failed += 1
            phase.errors.append(f"slot {len(phase.slot_rewards)}: {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.stop_op()
        if not np.all(np.isfinite(phase.slot_rewards)):
            phase.problems.append("non-finite slot reward")
        return phase

    def short_run(self):
        """One episode of check_horizon slots; returns its history and slot rewards."""
        scenario = model.build_scenario(
            replace(self.scenario_config, horizon=self.size.train_check_horizon))
        rewards = []
        _, history = learner.train(scenario, replace(self.train_config, episodes=1),
                                   slot_callback=lambda ep, info: rewards.append(info.reward))
        return history, rewards

    def final_checks(self, phase: Phase) -> list[str]:
        """Finite, seed-repeatable TrainingHistory; the timed run agrees with it."""
        problems = []
        (hist_a, rewards_a), (hist_b, _) = self.short_run(), self.short_run()
        fields = ("episode_reward", "episode_mean_dor", "episode_violations")
        for name in fields:
            a = np.asarray(getattr(hist_a, name), dtype=float)
            b = np.asarray(getattr(hist_b, name), dtype=float)
            if not np.all(np.isfinite(a)):
                problems.append(f"TrainingHistory.{name} is not finite")
            if a.tobytes() != b.tobytes():
                problems.append(f"TrainingHistory.{name} differs between repeats of seed {self.seed}")
        prefix = np.asarray(phase.slot_rewards[:len(rewards_a)], dtype=float)
        if prefix.tobytes() != np.asarray(rewards_a, dtype=float).tobytes():
            problems.append("timed run's slot rewards differ from a repeat with the same seed")
        return problems


WORKLOADS = {"train_warm": TrainWarm, "alloc_dense": AllocDense,
             "rollout_mobile": RolloutMobile}


@dataclass
class Report:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    extra: dict          # figures printed but not gated, per-phase counts
    problems: list[str]
    errors: list[str]
    tracer: Tracer | None = None


def _timed_setup(workload, reps: int):
    times = []
    state = None
    for _ in range(reps):
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
    return times, state


def _p50_ms(phase: Phase) -> float:
    return 1e3 * statistics.median(phase.op_seconds)


def _end_to_end(phase: Phase, setup_times: list[float]) -> dict[str, float]:
    ms = 1e3 * np.asarray(phase.op_seconds)
    return {
        "setup_s": statistics.median(setup_times + phase.setup_seconds),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> Report:
    """One benchmark run. Untraced: end-to-end metrics over `seconds` of ops.

    Traced: an untraced phase and a traced phase of `seconds / 2` each, both
    from a fresh set-up with the same seed; the per-layer metrics come from
    the traced phase and trace.overhead_ms is the difference of their medians.
    """
    workload = WORKLOADS[name](seed, size)
    setup_times, state = _timed_setup(workload, size.setup_reps)
    tracer = None
    if not trace:
        phase = workload.run_phase(state, seconds)
        phases = [phase]
        metrics = _end_to_end(phase, setup_times)
    else:
        plain = workload.run_phase(state, seconds / 2)
        tracer = Tracer()
        with tracer.patched():
            phase = workload.run_phase(workload.setup(), seconds / 2, tracer)
        phases = [plain, phase]
        metrics = tracer.layer_metrics(len(phase.op_seconds))
        metrics["trace.overhead_ms"] = _p50_ms(phase) - _p50_ms(plain)
        common = min(len(plain.dors), len(phase.dors))
        if (np.asarray(plain.dors[:common]).tobytes()
                != np.asarray(phase.dors[:common]).tobytes()):
            phase.problems.append("tracing changed the slot DORs")

    problems = [p for ph in phases for p in ph.problems]
    if isinstance(workload, TrainWarm):
        problems += workload.final_checks(phases[0])
    attempted = sum(len(ph.op_seconds) for ph in phases)
    failed = sum(ph.failed for ph in phases)
    extra = {
        "failed_frac": failed / attempted,
        "dor_mean": float(np.mean(phase.dors[:size.quality_ops])) if phase.dors else float("nan"),
        "ops_per_phase": [len(ph.op_seconds) for ph in phases],
        "op_ms_p50": _p50_ms(phases[0]),
        "ops_per_s": len(phases[0].op_seconds) / phases[0].timed_seconds,
    }
    return Report(workload=name, seed=seed, correct=not problems, attempted=attempted,
                  failed=failed, metrics=metrics, extra=extra, problems=problems,
                  errors=[e for ph in phases for e in ph.errors], tracer=tracer)
