"""Task delays and the per-slot delay-improvement objective.

A slot's objective sums, over users, 1 - (achieved delay) / (local delay).
Local users contribute exactly 0; offloaded users may contribute negative
values when offloading is slower, and those are deliberately kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .errors import ValidationError, ConfigError
from .model import TaskArrays, UavArrays, UserArrays, coverage_radius

LOCAL = -1  # assignment value for "compute on the user's own device"

_CAP_RTOL = 1e-9  # slack for capacity sums, floating-point only


class SlotContext:
    """Everything one slot's allocation needs, precomputed in array form.

    r0[m, n] is the per-Hz uplink rate from user m to UAV n. default_ingress[m]
    is the covering UAV with the best r0 (-1 when nobody covers the user); it is
    the uplink entry point for user m regardless of which UAV executes the task,
    since the relay hop between UAVs is treated as delay-free.

    users, uavs and tasks are the model's array bundles, or record lists that
    are stacked into bundles first. task_bits, user_freq, uav_cpu, ... are the
    bundles' own arrays, not copies; positions are not kept.
    """

    def __init__(self, users: UserArrays | list, uavs: UavArrays | list,
                 tasks: TaskArrays | list, params: channel.ChannelParams):
        users, uavs, tasks = (bundle if isinstance(bundle, kind) else kind.from_records(bundle)
                              for kind, bundle in ((UserArrays, users), (UavArrays, uavs),
                                                   (TaskArrays, tasks)))
        self.num_users = len(users.cpu_freq)
        self.num_uavs = len(uavs.cpu_freq)
        if len(tasks.bits) != self.num_users:
            raise ConfigError(f"{len(tasks.bits)} tasks for {self.num_users} users")

        self.task_bits = tasks.bits
        self.task_cycles = tasks.cycles_per_bit
        self.user_freq = users.cpu_freq
        self.user_power = users.tx_power
        self.uav_cpu = uavs.cpu_freq
        self.uav_bw = np.full(self.num_uavs, params.bw_g2a_hz)
        if np.any(self.user_freq <= 0):
            raise ConfigError(f"user cpu_freq must be > 0, got {self.user_freq.min()}")
        self.t_loc = self.task_bits * self.task_cycles / self.user_freq

        upos = users.position                                 # (M, 3)
        vpos = uavs.position                                  # (N, 3)
        diff = upos[:, None, :] - vpos[None, :, :]
        self.dist3d = np.linalg.norm(diff, axis=-1)           # (M, N)
        self.horiz = np.linalg.norm(diff[:, :, :2], axis=-1)  # (M, N)
        alt = vpos[:, 2][None, :]

        theta = channel.elevation_deg_from_geometry(alt, self.horiz)
        pl = channel.mean_path_loss_db(np.maximum(self.dist3d, 1e-9), theta, params)
        self.path_loss_db = pl
        self.r0 = channel.spectral_efficiency(self.user_power[:, None], pl,
                                              params.noise_g2a_watts)

        radius = coverage_radius(vpos[:, 2], uavs.half_angle_deg)
        self.coverage = self.horiz <= radius[None, :]         # (M, N)

        masked = np.where(self.coverage, self.r0, -np.inf)
        self.default_ingress = np.where(self.coverage.any(axis=1),
                                        masked.argmax(axis=1), LOCAL)


@dataclass
class SlotDecision:
    """One slot's offloading choice plus the resource shares that realize it.

    assignment[m]: LOCAL or the executing UAV's index. ingress[m]: the uplink
    UAV for offloaded users, LOCAL otherwise. bandwidth_hz[m] / cpu_hz[m]: the
    shares granted to user m at its ingress / executor (0 for local users).
    """

    assignment: np.ndarray
    ingress: np.ndarray
    bandwidth_hz: np.ndarray
    cpu_hz: np.ndarray


@dataclass
class SlotMetrics:
    dor: float
    per_user_delay: np.ndarray
    per_user_contribution: np.ndarray


def validate_decision(decision: SlotDecision, ctx: SlotContext):
    """Raise ValidationError naming the first violated decision constraint."""
    a = np.asarray(decision.assignment)
    ing = np.asarray(decision.ingress)
    bw = np.asarray(decision.bandwidth_hz)
    cpu = np.asarray(decision.cpu_hz)
    m, n = ctx.num_users, ctx.num_uavs
    if a.shape != (m,):
        raise ValidationError(f"assignment must have shape ({m},), got {a.shape}")
    if np.any((a < LOCAL) | (a >= n)):
        raise ValidationError("one-hot choice: assignment entries must be LOCAL or a UAV index")

    local = a == LOCAL
    if np.any(ing[local] != LOCAL):
        raise ValidationError("local users must carry no ingress UAV")
    if np.any((ing[~local] < 0) | (ing[~local] >= n)):
        raise ValidationError("offloaded users need a valid ingress UAV index")
    if np.any(bw < 0):
        raise ValidationError("bandwidth shares must be >= 0")
    if np.any(cpu < 0):
        raise ValidationError("cpu shares must be >= 0")
    if np.any(bw[local] != 0) or np.any(cpu[local] != 0):
        raise ValidationError("local users must hold zero bandwidth and cpu shares")

    offloaded = np.flatnonzero(~local)
    if offloaded.size and not ctx.coverage[offloaded, ing[offloaded]].all():
        bad = offloaded[~ctx.coverage[offloaded, ing[offloaded]]][0]
        raise ValidationError(
            f"ingress UAV {ing[bad]} does not cover user {bad}")

    for kind, group, share, capacity in (("bandwidth", ing, bw, ctx.uav_bw),
                                         ("cpu", a, cpu, ctx.uav_cpu)):
        total = np.bincount(group[offloaded], share[offloaded], minlength=n)
        over = np.flatnonzero(total > capacity * (1 + _CAP_RTOL))
        if over.size:
            uav = over[0]
            raise ValidationError(f"{kind} oversubscribed on UAV {uav}: "
                                  f"{total[uav]:.6g} > {capacity[uav]:.6g} Hz")


def slot_dor(decision: SlotDecision, ctx: SlotContext, validate: bool = True) -> SlotMetrics:
    """Per-slot objective value and its per-user breakdown."""
    if validate:
        validate_decision(decision, ctx)
    a = np.asarray(decision.assignment)
    ing = np.asarray(decision.ingress)
    local = a == LOCAL

    delay = ctx.t_loc.copy()
    contribution = np.zeros(ctx.num_users)
    off = np.flatnonzero(~local)
    if off.size:
        rate = decision.bandwidth_hz[off] * ctx.r0[off, ing[off]]
        with np.errstate(divide="ignore"):
            t_off = np.where(rate > 0, ctx.task_bits[off] / np.maximum(rate, 1e-300), np.inf)
            cpu = decision.cpu_hz[off]
            t_exe = np.where(cpu > 0,
                             ctx.task_bits[off] * ctx.task_cycles[off] / np.maximum(cpu, 1e-300),
                             np.inf)
        t_edge = t_off + t_exe
        delay[off] = t_edge
        contribution[off] = 1.0 - t_edge / ctx.t_loc[off]
    return SlotMetrics(dor=float(contribution.sum()),
                       per_user_delay=delay,
                       per_user_contribution=contribution)
