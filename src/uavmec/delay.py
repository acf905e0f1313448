"""Task delays and the per-slot delay-improvement objective.

A slot's objective sums, over users, 1 - (achieved delay) / (local delay).
Local users contribute exactly 0; offloaded users may contribute negative
values when offloading is slower, and those are deliberately kept.

`SlotContext` holds all that is fixed in a slot, each user's uplink UAV (its
ingress) included; a `SlotDecision` holds only who offloads where, and the shares.

`check_assignment` checks an assignment, and `check_shares` a decision's
bandwidth_hz and cpu_hz given its checked assignment; it reads them through
`errors.float_array` and raises its refusal as a ValidationError. `validate_decision`
runs both, and `slot_dor(validate=True)` scores the arrays it returns. A
validated `allocator.evaluate_assignment` runs each once: its assignment, then
its shares. `allocator.numeric_convex_oracle` runs `check_assignment` too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .errors import ConfigError, InfeasibleError, ValidationError, float_array
from .model import TaskArrays, UavArrays, UserArrays, coverage_radius, pair_geometry

LOCAL = -1  # assignment value for "compute on the user's own device"

_CAP_RTOL = 1e-9  # slack for capacity sums, floating-point only


class SlotContext:
    """Everything one slot's allocation needs, precomputed in array form.

    r0[m, n] is the per-Hz uplink rate from user m to UAV n. default_ingress[m]
    is the covering UAV with the best r0 if that rate is > 0, else LOCAL (no
    cover, or zero tx_power): user m's uplink entry point whatever UAV executes
    its task, since the relay hop between UAVs is treated as delay-free.
    w_bw = sqrt(f / (c r0)) at the ingress (exactly 0 without one) and w_cpu =
    sqrt(f) are the square-root-law weights of each user's bandwidth and cpu.

    horiz[m, n] and dist3d[m, n] are the horizontal and 3D user-UAV distances
    from `model.pair_geometry`, whose docstring states their summation order;
    the elevation, path loss, r0, coverage and ingress inherit their bits.

    users, uavs and tasks are the model's array bundles, or record lists that
    are stacked into bundles first. `_Columns.check` holds each bundle to every
    user, UAV or task rule; then the slot needs users, UAVs and one task per
    user. task_bits, user_freq, uav_cpu, ... are the bundles' own arrays, not
    copies; positions are not kept.
    """

    def __init__(self, users: UserArrays | list, uavs: UavArrays | list,
                 tasks: TaskArrays | list, params: channel.ChannelParams):
        users, uavs, tasks = (
            bundle if isinstance(bundle, kind)
            else kind.from_rows([vars(record) for record in bundle], f"{name} records")
            for kind, name, bundle in ((UserArrays, "user", users), (UavArrays, "UAV", uavs),
                                       (TaskArrays, "task", tasks)))
        for bundle in (users, uavs, tasks):
            bundle.check()
        self.num_users = len(users.cpu_freq)
        self.num_uavs = len(uavs.cpu_freq)
        if not (self.num_users and self.num_uavs):
            raise ConfigError(f"a slot needs users and UAVs, got {self.num_users} users "
                              f"and {self.num_uavs} UAVs")
        if len(tasks.bits) != self.num_users:
            raise ConfigError(f"{len(tasks.bits)} tasks for {self.num_users} users")
        self.task_bits = tasks.bits
        self.task_cycles = tasks.cycles_per_bit
        self.user_freq = users.cpu_freq
        self.user_power = users.tx_power
        self.uav_cpu = uavs.cpu_freq
        self.uav_bw = np.full(self.num_uavs, params.bw_g2a_hz)
        self.t_loc = self.task_bits * self.task_cycles / self.user_freq

        altitude = uavs.position[:, 2]
        self.horiz, self.dist3d = pair_geometry(users.position, uavs.position)  # (M, N) each
        theta = channel.elevation_deg_from_geometry(altitude, self.horiz)
        self.path_loss_db = channel.mean_path_loss_db(np.maximum(self.dist3d, 1e-9),
                                                      theta, params)
        self.r0 = channel.spectral_efficiency(self.user_power[:, None], self.path_loss_db,
                                              params.noise_g2a_watts)

        radius = coverage_radius(altitude, uavs.half_angle_deg)
        self.coverage = self.horiz <= radius                  # (M, N)

        # r0 >= 0, so a row's best covering UAV beats every -inf. A row that
        # nobody covers is all -inf, and a best rate of 0 carries no data:
        # neither gets an ingress, and `where` keeps both out of the division.
        masked = np.where(self.coverage, self.r0, -np.inf)
        best = masked.argmax(axis=1)
        best_r0 = masked[np.arange(self.num_users), best]
        served = best_r0 > 0
        self.default_ingress = np.where(served, best, LOCAL)

        self.w_cpu = np.sqrt(self.user_freq)
        self.w_bw = np.zeros(self.num_users)
        np.divide(self.user_freq, self.task_cycles * best_r0, out=self.w_bw, where=served)
        np.sqrt(self.w_bw, out=self.w_bw)


@dataclass
class SlotDecision:
    """One slot's offloading choice plus the resource shares that realize it.

    assignment[m]: LOCAL or the executing UAV's index (an integer array).
    bandwidth_hz[m] / cpu_hz[m]: the shares granted to user m at its ingress
    `SlotContext.default_ingress[m]` / its executor (0 for local users).
    """

    assignment: np.ndarray
    bandwidth_hz: np.ndarray
    cpu_hz: np.ndarray


@dataclass
class SlotMetrics:
    dor: float
    per_user_delay: np.ndarray
    per_user_contribution: np.ndarray


def check_assignment(assignment, ctx: SlotContext) -> tuple[np.ndarray, np.ndarray]:
    """A fresh int copy of `assignment` and the indices of its offloaded users.
    ValidationError unless it has shape (num_users,), an integer dtype (not
    bool, float or str) and each entry LOCAL or a UAV index, naming the first
    bad user; InfeasibleError naming the first offloaded user without an ingress."""
    raw = np.asarray(assignment)
    m, n = ctx.num_users, ctx.num_uavs
    if raw.shape != (m,):
        raise ValidationError(f"assignment must have shape ({m},), got {raw.shape}")
    if raw.dtype.kind not in "iu":
        raise ValidationError(f"assignment entries must be integers, got dtype {raw.dtype}")
    if raw.min() < LOCAL or raw.max() >= n:
        user = ((raw < LOCAL) | (raw >= n)).argmax()
        raise ValidationError(f"one-hot choice: assignment of user {user} must be LOCAL "
                              f"({LOCAL}) or a UAV index in [0, {n}), got {raw[user]}")
    a = raw.astype(int)
    off = (a != LOCAL).nonzero()[0]
    stranded = ctx.default_ingress[off] == LOCAL
    if stranded.any():
        raise InfeasibleError(f"user {off[stranded.argmax()]} is offloaded but has no ingress UAV")
    return a, off


def validate_decision(decision: SlotDecision,
                      ctx: SlotContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`decision`'s assignment (`check_assignment`) and shares (`check_shares`),
    checked in that order, as arrays; ValidationError naming the first violated
    constraint."""
    a, _ = check_assignment(decision.assignment, ctx)
    return (a, *check_shares(decision, a, ctx))


def check_shares(decision: SlotDecision, a: np.ndarray,
                 ctx: SlotContext) -> tuple[np.ndarray, np.ndarray]:
    """`decision`'s bandwidth and cpu shares as float arrays, given `a` from
    `check_assignment`. ValidationError naming the first violated constraint
    unless `errors.float_array` reads both, they have shape (num_users,), are
    >= 0, are zero for local users and fit every UAV's capacities. Each
    constraint is one or two whole-array tests; the index a message names is
    looked up only after a test has failed."""
    try:
        bw = float_array(decision.bandwidth_hz, "bandwidth_hz")
        cpu = float_array(decision.cpu_hz, "cpu_hz")
    except ConfigError as exc:   # a decision's fault, not a config's
        raise ValidationError(str(exc)) from None
    m, n = ctx.num_users, ctx.num_uavs
    if not bw.shape == cpu.shape == (m,):
        raise ValidationError(f"bandwidth_hz and cpu_hz must have shape ({m},), "
                              f"got {bw.shape}, {cpu.shape}")
    if not bw.min() >= 0:       # a NaN fails too
        raise ValidationError("bandwidth shares must be >= 0")
    if not cpu.min() >= 0:
        raise ValidationError("cpu shares must be >= 0")
    local = a == LOCAL
    if local.any() and (bw[local].any() or cpu[local].any()):
        raise ValidationError("local users must hold zero bandwidth and cpu shares")

    # Local users hold zero shares: counting them anywhere adds exactly 0.
    for kind, group, share, capacity in (("bandwidth", ctx.default_ingress, bw, ctx.uav_bw),
                                         ("cpu", a, cpu, ctx.uav_cpu)):
        total = np.bincount(np.maximum(group, 0), share, minlength=n)
        over = total > capacity * (1 + _CAP_RTOL)
        if over.any():
            uav = over.nonzero()[0][0]
            raise ValidationError(f"{kind} oversubscribed on UAV {uav}: "
                                  f"{total[uav]:.6g} > {capacity[uav]:.6g} Hz")
    return bw, cpu


def slot_dor(decision: SlotDecision, ctx: SlotContext, validate: bool = True) -> SlotMetrics:
    """Per-slot objective value and its per-user breakdown; with `validate`, of
    the arrays `validate_decision` returns."""
    if validate:
        a, bw, cpu = validate_decision(decision, ctx)
    else:
        a, bw, cpu = decision.assignment, decision.bandwidth_hz, decision.cpu_hz
    off = (np.asarray(a) != LOCAL).nonzero()[0]

    delay = ctx.t_loc.copy()
    contribution = np.zeros(ctx.num_users)
    if off.size:
        bits = ctx.task_bits[off]
        # max(x, 1e-300) > 0: the divisions are finite; a zero share takes forever
        rate = bw[off] * ctx.r0[off, ctx.default_ingress[off]]
        t_edge = np.where(rate > 0, bits / np.maximum(rate, 1e-300), np.inf)
        cpu_off = cpu[off]
        t_edge += np.where(cpu_off > 0,
                           bits * ctx.task_cycles[off] / np.maximum(cpu_off, 1e-300), np.inf)
        delay[off] = t_edge
        t_edge /= ctx.t_loc[off]
        contribution[off] = 1.0 - t_edge
    return SlotMetrics(dor=float(contribution.sum()),
                       per_user_delay=delay,
                       per_user_contribution=contribution)
