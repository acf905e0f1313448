"""Per-slot optimizer: square-root closed-form resource shares and a
coordinate-descent search over one-hot offloading choices, plus two
independent correctness oracles (exhaustive enumeration and a projected
gradient solver for the fixed-assignment convex subproblem). Offloaded users
enter through `SlotContext.default_ingress` with its weights `w_bw` and `w_cpu`;
users without an ingress (no cover, or zero rate) always compute locally.
`delay.check_assignment` checks every assignment given to them, once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .delay import (LOCAL, SlotContext, SlotDecision, SlotMetrics, check_assignment,
                    check_shares, slot_dor)
from .errors import CapExceededError, ConfigError, ConvergenceError, float_array

BRUTE_FORCE_CAP = 2 ** 20
MAX_SWEEPS = 100
SIMPLEX_TOL = 1e-8          # projected gradient: relative spread of the multipliers
SIMPLEX_MAX_ITER = 100_000


@dataclass
class AllocationResult:
    decision: SlotDecision
    dor: float
    iterations: int      # full coordinate-descent sweeps (1 for the oracles)
    converged: bool


def _sqrt_law_shares(capacity: np.ndarray, group: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Closed-form split of each group's capacity: capacity[g] * w_i / sum of w over g.

    Minimizes sum_i w_i^2 / x_i per group (`SlotContext.w_bw` or `w_cpu` as w).
    """
    total = np.bincount(group, weights, minlength=capacity.size)
    return capacity[group] * weights / total[group]


def evaluate_assignment(assignment, ctx: SlotContext,
                        validate: bool = False) -> tuple[SlotDecision, SlotMetrics]:
    """Resource shares (closed forms per UAV group) and objective for one assignment.

    assignment[m] is LOCAL or the executing UAV index, checked by
    `delay.check_assignment`. Offloaded users enter through their
    `ctx.default_ingress`; executors may be any UAV. With `validate`, the
    shares then pass `delay.check_shares`, so the assignment is checked once.
    """
    a, off_idx = check_assignment(assignment, ctx)
    bw = np.zeros(ctx.num_users)
    cpu = np.zeros(ctx.num_users)
    if off_idx.size:
        bw[off_idx] = _sqrt_law_shares(ctx.uav_bw, ctx.default_ingress[off_idx],
                                       ctx.w_bw[off_idx])
        cpu[off_idx] = _sqrt_law_shares(ctx.uav_cpu, a[off_idx], ctx.w_cpu[off_idx])

    decision = SlotDecision(assignment=a, bandwidth_hz=bw, cpu_hz=cpu)
    if validate:
        check_shares(decision, a, ctx)
    return decision, slot_dor(decision, ctx, validate=False)


def cd_search(ctx: SlotContext) -> AllocationResult:
    """Coordinate descent over per-user choices, starting all-local.

    With ingress fixed per user and square-root-law shares, the objective of
    any assignment is a closed form in per-UAV group sums:

        DOR = |offloaded| - sum_k S_bw,k^2 / B_k - sum_k S_cpu,k^2 / F_k,

    where S_bw,k sums the context's w_bw = sqrt(f / (c r0)) over the users
    entering UAV k and S_cpu,k sums its w_cpu = sqrt(f) over the users
    executing on UAV k. Users without an ingress stay LOCAL and are never
    visited. Each sweep visits the others in ascending index order and scores
    all of a user's choices (LOCAL, then UAVs 0..N-1) at once from the group
    sums with that user taken out; the best strictly improving choice is
    kept, so ties go to the incumbent and then to the earlier choice. Stops
    when a full sweep changes nothing, or unconverged after MAX_SWEEPS
    sweeps. The returned decision and DOR come from a single
    `evaluate_assignment` of the final assignment.
    """
    n = ctx.num_uavs
    ingress = ctx.default_ingress
    served = np.flatnonzero(ingress != LOCAL)
    w_bw, w_cpu = ctx.w_bw, ctx.w_cpu

    assignment = np.full(ctx.num_users, LOCAL, dtype=int)
    s_bw = np.zeros(n)
    s_cpu = np.zeros(n)
    scores = np.zeros(n + 1)  # scores[0] is LOCAL, scores[1 + k] is UAV k

    sweeps = 0
    converged = False
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        changed = False
        for user in served:
            incumbent = assignment[user]
            k = ingress[user]
            wb, wc = w_bw[user], w_cpu[user]
            sb, sc = s_bw[k], s_cpu
            if incumbent != LOCAL:
                sb = sb - wb
                sc = s_cpu.copy()
                sc[incumbent] -= wc
            # DOR gain over LOCAL of offloading `user` to each UAV; adding w to a
            # group with sum S adds ((S + w)^2 - S^2) / capacity = w (2S + w) / capacity
            gain = 1.0 - wb * (2.0 * sb + wb) / ctx.uav_bw[k]
            scores[1:] = gain - wc * (2.0 * sc + wc) / ctx.uav_cpu
            best = int(np.argmax(scores)) - 1
            if scores[best + 1] > scores[incumbent + 1]:
                assignment[user] = best
                # fresh sums, not running updates: an emptied group is exactly 0
                off = assignment != LOCAL
                s_bw = np.bincount(ingress[off], w_bw[off], minlength=n)
                s_cpu = np.bincount(assignment[off], w_cpu[off], minlength=n)
                changed = True
        if not changed:
            converged = True
            break

    decision, metrics = evaluate_assignment(assignment, ctx, validate=True)
    return AllocationResult(decision=decision, dor=metrics.dor,
                            iterations=sweeps, converged=converged)


def brute_force_oracle(ctx: SlotContext) -> AllocationResult:
    """Global optimum by enumerating every feasible one-hot assignment.

    Ties resolve to the lexicographically smallest assignment (local sorts
    before any UAV). Refuses instances above BRUTE_FORCE_CAP evaluations.
    """
    m, n = ctx.num_users, ctx.num_uavs
    can_offload = ctx.default_ingress != LOCAL
    per_user = [[LOCAL] + (list(range(n)) if can_offload[u] else []) for u in range(m)]
    total = math.prod(map(len, per_user))
    if total > BRUTE_FORCE_CAP:
        raise CapExceededError(f"exhaustive search needs {total} evaluations, "
                               f"above the cap of {BRUTE_FORCE_CAP}")

    best_assignment = None
    best_dor = -np.inf
    for combo in itertools.product(*per_user):
        assignment = np.array(combo, dtype=int)
        _, metrics = evaluate_assignment(assignment, ctx)
        if metrics.dor > best_dor:
            best_dor = metrics.dor
            best_assignment = assignment

    decision, metrics = evaluate_assignment(best_assignment, ctx, validate=True)
    return AllocationResult(decision=decision, dor=metrics.dor,
                            iterations=1, converged=True)


def minimize_inverse_on_simplex(weights, capacity: float) -> np.ndarray:
    """Projected gradient for: minimize sum(w_i / x_i) s.t. x >= 0, sum(x) <= capacity.

    Independent numeric check of the square-root closed forms; it never uses
    them. Works on the scale-free unit-simplex problem in extended precision
    and stops when the first-order multipliers w_i / x_i^2 agree to a relative
    spread below SIMPLEX_TOL (the budget binds at any optimum, so sum(x) = capacity).
    Both arguments go through `errors.float_array`.
    """
    w64 = float_array(weights, "weights")
    capacity = float_array(capacity, "capacity")
    if w64.size == 0:
        return np.empty(0)
    if np.any(w64 <= 0):
        raise ConfigError("simplex solver needs strictly positive weights")
    if capacity <= 0:
        raise ConfigError(f"capacity must be > 0, got {capacity}")
    if w64.size == 1:
        return np.array([capacity])

    ld = np.longdouble

    def project_unit(v):
        # Euclidean projection onto {y >= 0, sum(y) = 1}
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - ld(1)
        ks = np.arange(1, v.size + 1)
        rho = np.max(ks[u - css / ks > 0])
        theta = css[rho - 1] / rho
        return np.maximum(v - theta, ld(0))

    w = np.asarray(w64, dtype=ld)
    w = w / w.sum()
    y = np.full(w.size, ld(1) / w.size)
    fy = np.sum(w / y)
    step = ld(0.1)
    residual = np.inf
    for _ in range(SIMPLEX_MAX_ITER):
        lam = w / y ** 2
        residual = float((lam.max() - lam.min()) / lam.mean())
        if residual < SIMPLEX_TOL:
            return np.asarray(capacity * y, dtype=float)
        t = step
        while True:
            y_new = project_unit(y + t * lam)  # ascent on -f is descent on f
            f_new = np.sum(w / y_new) if np.all(y_new > 0) else np.inf
            if f_new < fy:
                break
            t *= ld(0.5)
            if t < ld(1e-30):
                break
        if f_new >= fy:
            break  # no descent left at extended precision
        y, fy = y_new, f_new
        step = t * 2
    raise ConvergenceError(
        f"projected gradient stalled: multiplier spread {residual:.3e} "
        f"above tolerance {SIMPLEX_TOL:.1e}")


def numeric_convex_oracle(assignment, ctx: SlotContext) -> tuple[np.ndarray, np.ndarray]:
    """Numerically optimal (bandwidth, cpu) shares for a fixed assignment.

    Solves each UAV's bandwidth group and processor group by projected
    gradient; used to cross-check the closed forms, never to replace them.
    The assignment is checked by `delay.check_assignment`.
    """
    a, off_idx = check_assignment(assignment, ctx)
    ing = ctx.default_ingress[off_idx]
    bw = np.zeros(ctx.num_users)
    cpu = np.zeros(ctx.num_users)
    for uav in range(ctx.num_uavs):
        members = off_idx[ing == uav]
        if members.size:
            w = ctx.user_freq[members] / (ctx.task_cycles[members] * ctx.r0[members, uav])
            bw[members] = minimize_inverse_on_simplex(w, float(ctx.uav_bw[uav]))
        executors = off_idx[a[off_idx] == uav]
        if executors.size:
            cpu[executors] = minimize_inverse_on_simplex(ctx.user_freq[executors],
                                                         float(ctx.uav_cpu[uav]))
    return bw, cpu

