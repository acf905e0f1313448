"""Task delays and the per-slot delay-improvement objective.

A slot's objective sums, over users, 1 - (achieved delay) / (local delay).
Local users contribute exactly 0; offloaded users may contribute negative
values when offloading is slower, and those are deliberately kept.

`SlotContext` holds all that is fixed in a slot, each user's uplink UAV (its
ingress) included; a `SlotDecision` holds only who offloads where, and the shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .errors import ValidationError, ConfigError
from .model import (TaskArrays, UavArrays, UserArrays, coverage_radius,
                    first_not_positive, pair_geometry)

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
    from `model.pair_geometry`: with per-axis differences dx, dy, dz,
    horiz = sqrt(dx*dx + dy*dy) and dist3d = sqrt((dx*dx + dy*dy) + dz*dz).
    That summation order is fixed because it is the one `np.linalg.norm` uses
    on the (M, N, 3) difference: both arrays, and the elevation, path loss,
    r0, coverage and ingress computed from them, keep the exact bits of the
    norms that seeded rollouts were recorded with. Another grouping changes
    last bits, and through coverage ties and argmax, choices.

    users, uavs and tasks are the model's array bundles, or record lists that
    are stacked into bundles first. task_bits, user_freq, uav_cpu, ... are the
    bundles' own arrays, not copies; positions are not kept. A malformed
    record, or a user or UAV with a non-finite position or cpu_freq, a
    cpu_freq <= 0, (users) a non-finite or negative tx_power or (UAVs) a
    half_angle_deg outside [0, 90], is a ConfigError naming it.
    """

    def __init__(self, users: UserArrays | list, uavs: UavArrays | list,
                 tasks: TaskArrays | list, params: channel.ChannelParams):
        users, uavs, tasks = (
            bundle if isinstance(bundle, kind)
            else kind.from_rows([vars(record) for record in bundle], f"{name} records")
            for kind, name, bundle in ((UserArrays, "user", users), (UavArrays, "UAV", uavs),
                                       (TaskArrays, "task", tasks)))
        self.num_users = len(users.cpu_freq)
        self.num_uavs = len(uavs.cpu_freq)
        if not (self.num_users and self.num_uavs):
            raise ConfigError(f"a slot needs users and UAVs, got {self.num_users} users "
                              f"and {self.num_uavs} UAVs")
        if len(tasks.bits) != self.num_users:
            raise ConfigError(f"{len(tasks.bits)} tasks for {self.num_users} users")
        upos = users.position                                 # (M, 3)
        vpos = uavs.position                                  # (N, 3)
        _require_positive("user", "cpu_freq", users.cpu_freq)
        _require_positive("user", "tx_power", users.tx_power, zero_ok=True)
        _require_positive("UAV", "cpu_freq", uavs.cpu_freq)
        _require_finite_rows("user", upos)
        _require_finite_rows("UAV", vpos)
        half = uavs.half_angle_deg
        if not (half.min() >= 0 and half.max() <= 90):     # a NaN fails too
            bad = (~((half >= 0) & (half <= 90))).nonzero()[0][0]
            raise ConfigError(f"UAV {bad} half_angle_deg must lie in [0, 90], got {half[bad]}")

        self.task_bits = tasks.bits
        self.task_cycles = tasks.cycles_per_bit
        self.user_freq = users.cpu_freq
        self.user_power = users.tx_power
        self.uav_cpu = uavs.cpu_freq
        self.uav_bw = np.full(self.num_uavs, params.bw_g2a_hz)
        self.t_loc = self.task_bits * self.task_cycles / self.user_freq

        self.horiz, self.dist3d = pair_geometry(upos, vpos)   # (M, N) each
        theta = channel.elevation_deg_from_geometry(vpos[:, 2], self.horiz)
        self.path_loss_db = channel.mean_path_loss_db(np.maximum(self.dist3d, 1e-9),
                                                      theta, params)
        self.r0 = channel.spectral_efficiency(self.user_power[:, None], self.path_loss_db,
                                              params.noise_g2a_watts)

        radius = coverage_radius(vpos[:, 2], half)
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


def _require_positive(kind: str, name: str, values: np.ndarray, zero_ok: bool = False):
    """ConfigError naming the first `kind` whose `name` is not finite and > 0
    (>= 0 with `zero_ok`)."""
    bad = first_not_positive(values, zero_ok)
    if bad is not None:
        raise ConfigError(f"{kind} {bad} {name} must be finite and {'>=' if zero_ok else '>'} 0, "
                          f"got {values[bad]}")


def _require_finite_rows(kind: str, position: np.ndarray):
    """ConfigError naming the first `kind` whose position has a non-finite coordinate.

    A sum of finite coordinates is finite unless it overflows; only then, or
    when a coordinate is not finite, are the rows searched."""
    if math.isfinite(position.sum()):
        return
    bad = np.flatnonzero(~np.isfinite(position).all(axis=1))
    if bad.size:
        raise ConfigError(f"{kind} {bad[0]} position must be finite, got {position[bad[0]]}")


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


def validate_decision(decision: SlotDecision, ctx: SlotContext):
    """Raise ValidationError naming the first violated decision constraint.

    A valid decision passes each constraint in one or two whole-array tests;
    the index a message names is looked up only after a test has failed.
    """
    a = np.asarray(decision.assignment)
    bw = np.asarray(decision.bandwidth_hz)
    cpu = np.asarray(decision.cpu_hz)
    ing = ctx.default_ingress
    m, n = ctx.num_users, ctx.num_uavs
    if not a.shape == bw.shape == cpu.shape == (m,):
        raise ValidationError(f"assignment, bandwidth_hz and cpu_hz must have shape ({m},), "
                              f"got {a.shape}, {bw.shape}, {cpu.shape}")
    if a.dtype.kind != "i":
        raise ValidationError(f"assignment entries must be integers, got dtype {a.dtype}")
    if a.min() < LOCAL or a.max() >= n:
        raise ValidationError("one-hot choice: assignment entries must be LOCAL or a UAV index")

    local = a == LOCAL
    stranded = ~local & (ing == LOCAL)
    if stranded.any():
        raise ValidationError(f"user {stranded.argmax()} is offloaded but has no ingress UAV")
    if not bw.min() >= 0:       # a NaN fails too
        raise ValidationError("bandwidth shares must be >= 0")
    if not cpu.min() >= 0:
        raise ValidationError("cpu shares must be >= 0")
    if local.any() and (bw[local].any() or cpu[local].any()):
        raise ValidationError("local users must hold zero bandwidth and cpu shares")

    # Local users hold zero shares: counting them anywhere adds exactly 0.
    for kind, group, share, capacity in (("bandwidth", ing, bw, ctx.uav_bw),
                                         ("cpu", a, cpu, ctx.uav_cpu)):
        total = np.bincount(np.maximum(group, 0), share, minlength=n)
        over = total > capacity * (1 + _CAP_RTOL)
        if over.any():
            uav = over.nonzero()[0][0]
            raise ValidationError(f"{kind} oversubscribed on UAV {uav}: "
                                  f"{total[uav]:.6g} > {capacity[uav]:.6g} Hz")


def slot_dor(decision: SlotDecision, ctx: SlotContext, validate: bool = True) -> SlotMetrics:
    """Per-slot objective value and its per-user breakdown."""
    if validate:
        validate_decision(decision, ctx)
    off = (np.asarray(decision.assignment) != LOCAL).nonzero()[0]

    delay = ctx.t_loc.copy()
    contribution = np.zeros(ctx.num_users)
    if off.size:
        bits = ctx.task_bits[off]
        # max(x, 1e-300) > 0: the divisions are finite; a zero share takes forever
        rate = decision.bandwidth_hz[off] * ctx.r0[off, ctx.default_ingress[off]]
        t_edge = np.where(rate > 0, bits / np.maximum(rate, 1e-300), np.inf)
        cpu = decision.cpu_hz[off]
        t_edge += np.where(cpu > 0, bits * ctx.task_cycles[off] / np.maximum(cpu, 1e-300),
                           np.inf)
        delay[off] = t_edge
        t_edge /= ctx.t_loc[off]
        contribution[off] = 1.0 - t_edge
    return SlotMetrics(dor=float(contribution.sum()),
                       per_user_delay=delay,
                       per_user_contribution=contribution)
