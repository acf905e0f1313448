"""World state: scenario construction, UAV kinematics, coverage geometry, task generation.

Positions are 3-vectors in meters. Users sit on the ground plane (z = 0);
UAVs fly inside the box [0, area_x] x [0, area_y] x [z_min, z_max].
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .channel import ChannelParams
from .errors import ConfigError, check_fields

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable world parameters. Defaults give the standard desk-scale scenario."""

    area_x: float = 50.0            # box side, meters
    area_y: float = 50.0
    z_min: float = 10.0             # UAV altitude band, meters
    z_max: float = 20.0
    d_min: float = 3.0              # UAV collision-avoidance distance, meters
    v_max: float = 1.73             # max instantaneous UAV speed, m/s
    slot_seconds: float = 1.0
    num_users: int = 10
    num_uavs: int = 4
    horizon: int = 500              # slots per episode
    task_bits_range: tuple[float, float] = (100e3, 150e3)
    task_cycles_per_bit_range: tuple[float, float] = (500.0, 1000.0)
    user_freq_range: tuple[float, float] = (0.8e9, 1.0e9)    # Hz
    user_power_range: tuple[float, float] = (1.0, 1.2)       # watts
    uav_freq: float = 10e9          # Hz
    uav_power: float = 5.0          # watts
    coverage_half_angle_deg: float = 90.0
    rng_seed: int = 0
    channel: ChannelParams = field(default_factory=ChannelParams)
    user_mobility: str = "static"   # "static" | "random_waypoint"
    user_speed: float = 0.5         # m/s, waypoint mode only
    initial_uav_positions: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self):
        def require(cond, msg):
            if not cond:
                raise ConfigError(msg)

        require(self.area_x > 0, f"area_x must be > 0, got {self.area_x}")
        require(self.area_y > 0, f"area_y must be > 0, got {self.area_y}")
        require(0 < self.z_min <= self.z_max,
                f"need 0 < z_min <= z_max, got z_min={self.z_min}, z_max={self.z_max}")
        require(self.d_min > 0, f"d_min must be > 0, got {self.d_min}")
        require(self.v_max > 0, f"v_max must be > 0, got {self.v_max}")
        require(self.slot_seconds > 0, f"slot_seconds must be > 0, got {self.slot_seconds}")
        require(self.num_users >= 1, f"num_users must be >= 1, got {self.num_users}")
        require(self.num_uavs >= 1, f"num_uavs must be >= 1, got {self.num_uavs}")
        require(self.horizon >= 1, f"horizon must be >= 1, got {self.horizon}")
        for name in ("task_bits_range", "task_cycles_per_bit_range",
                     "user_freq_range", "user_power_range"):
            lo, hi = getattr(self, name)
            require(0 < lo <= hi, f"{name} must satisfy 0 < low <= high, got ({lo}, {hi})")
        require(self.uav_freq > 0, f"uav_freq must be > 0, got {self.uav_freq}")
        require(self.uav_power > 0, f"uav_power must be > 0, got {self.uav_power}")
        require(0 <= self.coverage_half_angle_deg <= 90,
                f"coverage_half_angle_deg must lie in [0, 90], got {self.coverage_half_angle_deg}")
        require(self.user_mobility in ("static", "random_waypoint"),
                f"user_mobility must be 'static' or 'random_waypoint', got {self.user_mobility!r}")

    @property
    def max_step(self) -> float:
        """Largest displacement a UAV may cover in one slot, meters."""
        return self.v_max * self.slot_seconds


@dataclass
class UserState:
    position: np.ndarray      # (3,), z fixed at 0
    cpu_freq: float           # Hz
    tx_power: float           # watts


@dataclass
class UavState:
    position: np.ndarray      # (3,)
    cpu_freq: float           # Hz
    tx_power: float           # watts
    half_angle_deg: float     # coverage half-angle


@dataclass(frozen=True)
class Task:
    bits: float
    cycles_per_bit: float

    def __post_init__(self):
        if not self.bits > 0:
            raise ConfigError(f"task bits must be > 0, got {self.bits}")
        if not self.cycles_per_bit > 0:
            raise ConfigError(f"task cycles_per_bit must be > 0, got {self.cycles_per_bit}")


@dataclass(frozen=True)
class MotionOutcome:
    new_position: np.ndarray
    box_violation: bool
    speed_violation: bool


def _default_uav_positions(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """First four UAVs at the area corners at z_min; extras seeded-uniform at z_min."""
    corners = np.array([
        [0.0, 0.0, config.z_min],
        [0.0, config.area_y, config.z_min],
        [config.area_x, 0.0, config.z_min],
        [config.area_x, config.area_y, config.z_min],
    ])
    n = config.num_uavs
    if n <= 4:
        return corners[:n].copy()
    extra_xy = rng.uniform([0.0, 0.0], [config.area_x, config.area_y], size=(n - 4, 2))
    extras = np.column_stack([extra_xy, np.full(n - 4, config.z_min)])
    return np.vstack([corners, extras])


class Scenario:
    """Users, UAVs, and the configuration that produced them.

    Single-writer: mutation happens only through explicit position updates
    (the environment adapter) or `advance_users`. Independent scenarios share
    no state, so many can run in parallel.
    """

    def __init__(self, config: ScenarioConfig, users: list[UserState],
                 uavs: list[UavState], initial_uav_positions: np.ndarray):
        self.config = config
        self.users = users
        self.uavs = uavs
        self.initial_uav_positions = initial_uav_positions
        self._waypoints: np.ndarray | None = None
        self._mobility_rng: np.random.Generator | None = None

    @property
    def user_positions(self) -> np.ndarray:
        return np.array([u.position for u in self.users])

    @property
    def uav_positions(self) -> np.ndarray:
        return np.array([u.position for u in self.uavs])

    def reset_uavs(self):
        for uav, pos in zip(self.uavs, self.initial_uav_positions):
            uav.position = pos.copy()

    def reset_mobility(self):
        """Re-arm the waypoint walk so a fresh episode replays identically."""
        self._mobility_rng = np.random.default_rng([self.config.rng_seed, 7])
        self._waypoints = None

    def advance_users(self):
        """One slot of random-waypoint motion; no-op for static users."""
        cfg = self.config
        if cfg.user_mobility != "random_waypoint":
            return
        if self._mobility_rng is None:
            self.reset_mobility()
        rng = self._mobility_rng
        if self._waypoints is None:
            self._waypoints = rng.uniform([0, 0], [cfg.area_x, cfg.area_y],
                                          size=(cfg.num_users, 2))
        step = cfg.user_speed * cfg.slot_seconds
        for m, user in enumerate(self.users):
            target = self._waypoints[m]
            delta = target - user.position[:2]
            dist = float(np.linalg.norm(delta))
            if dist <= step:
                user.position[:2] = target
                self._waypoints[m] = rng.uniform([0, 0], [cfg.area_x, cfg.area_y])
            else:
                user.position[:2] += delta * (step / dist)

    # ---- JSON snapshot (schema shared with the allocator CLI) ----

    def to_dict(self) -> dict:
        cfg = asdict(self.config)
        cfg["task_bits_range"] = list(self.config.task_bits_range)
        cfg["task_cycles_per_bit_range"] = list(self.config.task_cycles_per_bit_range)
        cfg["user_freq_range"] = list(self.config.user_freq_range)
        cfg["user_power_range"] = list(self.config.user_power_range)
        if cfg["initial_uav_positions"] is not None:
            cfg["initial_uav_positions"] = [list(p) for p in cfg["initial_uav_positions"]]
        return {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "users": [
                {"position": list(map(float, u.position)),
                 "cpu_freq": u.cpu_freq, "tx_power": u.tx_power}
                for u in self.users
            ],
            "uavs": [
                {"position": list(map(float, u.position)),
                 "cpu_freq": u.cpu_freq, "tx_power": u.tx_power,
                 "half_angle_deg": u.half_angle_deg}
                for u in self.uavs
            ],
            "initial_uav_positions": [list(map(float, p)) for p in self.initial_uav_positions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported scenario schema_version: {version!r}")
        try:
            cfg_dict = dict(data["config"])
            check_fields(ScenarioConfig, cfg_dict, "scenario config")
            check_fields(ChannelParams, cfg_dict["channel"], "scenario channel config")
            cfg_dict["channel"] = ChannelParams(**cfg_dict["channel"])
            for key in ("task_bits_range", "task_cycles_per_bit_range",
                        "user_freq_range", "user_power_range"):
                cfg_dict[key] = tuple(cfg_dict[key])
            if cfg_dict["initial_uav_positions"] is not None:
                cfg_dict["initial_uav_positions"] = tuple(
                    tuple(p) for p in cfg_dict["initial_uav_positions"])
            config = ScenarioConfig(**cfg_dict)
            users = [UserState(position=np.array(u["position"], dtype=float),
                               cpu_freq=u["cpu_freq"], tx_power=u["tx_power"])
                     for u in data["users"]]
            uavs = [UavState(position=np.array(u["position"], dtype=float),
                             cpu_freq=u["cpu_freq"], tx_power=u["tx_power"],
                             half_angle_deg=u["half_angle_deg"])
                    for u in data["uavs"]]
            initial = np.array(data["initial_uav_positions"], dtype=float)
        except KeyError as exc:
            raise ConfigError(f"scenario snapshot is missing key {exc.args[0]!r}") from exc
        return cls(config, users, uavs, initial)

    def save(self, path: str | os.PathLike):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Seeded construction: users uniform on the ground, UAVs at their start corners."""
    rng = np.random.default_rng(config.rng_seed)
    xy = rng.uniform([0.0, 0.0], [config.area_x, config.area_y],
                     size=(config.num_users, 2))
    freqs = rng.uniform(*config.user_freq_range, size=config.num_users)
    powers = rng.uniform(*config.user_power_range, size=config.num_users)
    users = [UserState(position=np.array([x, y, 0.0]), cpu_freq=float(f), tx_power=float(p))
             for (x, y), f, p in zip(xy, freqs, powers)]

    if config.initial_uav_positions is not None:
        if len(config.initial_uav_positions) != config.num_uavs:
            raise ConfigError(
                f"initial_uav_positions has {len(config.initial_uav_positions)} entries, "
                f"expected num_uavs={config.num_uavs}")
        initial = np.array(config.initial_uav_positions, dtype=float)
        if (initial[:, 2] < config.z_min).any() or (initial[:, 2] > config.z_max).any():
            raise ConfigError("initial UAV altitude outside [z_min, z_max]")
    else:
        initial = _default_uav_positions(config, rng)

    uavs = [UavState(position=p.copy(), cpu_freq=config.uav_freq,
                     tx_power=config.uav_power,
                     half_angle_deg=config.coverage_half_angle_deg)
            for p in initial]
    return Scenario(config, users, uavs, initial)


def apply_motion(uav: UavState, delta: np.ndarray, config: ScenarioConfig) -> MotionOutcome:
    """Enforce the speed cap and the flight box on a commanded displacement.

    Oversized displacements are rescaled to v_max * slot_seconds; the resulting
    position is clamped componentwise. Enforcement never rejects, it flags.
    """
    delta = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise ConfigError(f"motion delta must be finite, got {delta}")

    speed_violation = False
    norm = float(np.linalg.norm(delta))
    max_step = config.max_step
    if norm > max_step:
        delta = delta * (max_step / norm)
        speed_violation = True

    raw = uav.position + delta
    lo = np.array([0.0, 0.0, config.z_min])
    hi = np.array([config.area_x, config.area_y, config.z_max])
    clamped = np.clip(raw, lo, hi)
    box_violation = bool(np.any(clamped != raw))
    return MotionOutcome(new_position=clamped, box_violation=box_violation,
                         speed_violation=speed_violation)


def coverage_radius(altitude_m, half_angle_deg):
    """Max horizontal service radius per UAV; +inf for a 90-degree half-angle."""
    alt = np.asarray(altitude_m, dtype=float)
    angle = np.asarray(half_angle_deg, dtype=float)
    return np.where(angle < 90.0, alt * np.tan(np.radians(angle)), np.inf)


def pairwise_distances(positions) -> np.ndarray:
    """3D distance between every pair of positions (N, 3) as an (N, N) array.

    The diagonal is +inf, so a UAV is never its own nearest neighbour and the
    minimum over the array is +inf for fewer than two UAVs.
    """
    pos = np.asarray(positions, dtype=float)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    return dist


def generate_tasks(scenario: Scenario, slot: int) -> list[Task]:
    """One task per user for the given slot, keyed by (rng_seed, slot) only."""
    cfg = scenario.config
    if slot >= cfg.horizon:
        raise ConfigError(f"slot {slot} outside horizon {cfg.horizon}")
    rng = np.random.default_rng([cfg.rng_seed, slot])
    bits = rng.uniform(*cfg.task_bits_range, size=cfg.num_users)
    cycles = rng.uniform(*cfg.task_cycles_per_bit_range, size=cfg.num_users)
    return [Task(bits=float(b), cycles_per_bit=float(c)) for b, c in zip(bits, cycles)]

