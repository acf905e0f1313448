"""World state: scenario construction, UAV kinematics, coverage geometry, task generation.

Positions are 3-vectors in meters. Users sit on the ground plane (z = 0);
UAVs fly inside the box [0, area_x] x [0, area_y] x [z_min, z_max].

The world is a struct of arrays, row i belonging to user or UAV i, all float64:

    UserArrays  position (M, 3), cpu_freq (M,), tx_power (M,)
    UavArrays   position (N, 3), cpu_freq (N,), tx_power (N,), half_angle_deg (N,)
    TaskArrays  bits (M,), cycles_per_bit (M,); one slot's tasks, checked when built

Each part of a slot's world step (`Scenario.advance_users`, `apply_motion`,
`generate_tasks`) is one array operation over all users or all UAVs.
`pair_geometry` gives every pairwise horizontal and 3D distance from per-axis
differences, summed as (dx*dx + dy*dy) + dz*dz: the order `np.linalg.norm`
uses, so the distances, and everything computed from them, are bitwise
those of the norms. The records `UserState`, `UavState` and `Task` describe
one entity each; `SlotContext` stacks a list of them into a bundle through
`from_rows`, which checks every field. Only the benchmark's workloads and
the tests build them.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .channel import ChannelParams
from .errors import ConfigError, check_fields, require

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
        require(self.user_speed >= 0, f"user_speed must be >= 0, got {self.user_speed}")
        if self.initial_uav_positions is not None:
            self._check_initial_uav_positions()

    def _check_initial_uav_positions(self):
        """ConfigError unless there are num_uavs starts, each 3 finite
        coordinates inside the flight box; a bad start names its UAV."""
        positions = self.initial_uav_positions
        require(len(positions) == self.num_uavs, f"initial_uav_positions has "
                f"{len(positions)} entries, expected num_uavs={self.num_uavs}")
        low, high = (0.0, 0.0, self.z_min), (self.area_x, self.area_y, self.z_max)
        for n, position in enumerate(positions):
            try:
                row = np.array(position, dtype=float)
            except (TypeError, ValueError):
                row = None
            require(row is not None and row.shape == (3,),
                    f"initial position of UAV {n} must be 3 numbers, got {position!r}")
            require(np.isfinite(row).all(),
                    f"initial position of UAV {n} must be finite, got {position}")
            require(((row >= low) & (row <= high)).all(),
                    f"initial position of UAV {n} {position} lies outside the flight box "
                    f"[0, {self.area_x}] x [0, {self.area_y}] x [{self.z_min}, {self.z_max}]")

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


class _Columns:
    """A bundle of float64 arrays, one per dataclass field, one row per entity."""

    @classmethod
    def from_rows(cls, rows, where: str):
        """Stack a list of mappings that carry every field name (snapshot rows,
        or the `vars` of records) into arrays. ConfigError, prefixed with
        `where`, naming the field unless every value is a number (3 numbers
        for `position`)."""
        columns = []
        for f in fields(cls):
            try:
                column = np.array([row[f.name] for row in rows], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where} field {f.name!r} is not a numeric column: "
                                  f"{exc}") from exc
            shape = (len(rows), 3) if f.name == "position" else (len(rows),)
            if column.shape != shape:
                raise ConfigError(f"{where} field {f.name!r} has shape {column.shape}, "
                                  f"expected {shape}")
            columns.append(column)
        return cls(*columns)

    def to_rows(self) -> list[dict]:
        names = [f.name for f in fields(self)]
        columns = [getattr(self, name).tolist() for name in names]
        return [dict(zip(names, row)) for row in zip(*columns)]


@dataclass
class UserArrays(_Columns):
    position: np.ndarray        # (M, 3), z fixed at 0
    cpu_freq: np.ndarray        # (M,) Hz
    tx_power: np.ndarray        # (M,) watts


@dataclass
class UavArrays(_Columns):
    position: np.ndarray        # (N, 3)
    cpu_freq: np.ndarray        # (N,) Hz
    tx_power: np.ndarray        # (N,) watts
    half_angle_deg: np.ndarray  # (N,) coverage half-angle


@dataclass(frozen=True)
class TaskArrays(_Columns):
    """One slot's tasks, row m for user m; every entry finite and > 0."""

    bits: np.ndarray            # (M,)
    cycles_per_bit: np.ndarray  # (M,)

    def __post_init__(self):
        for name in ("bits", "cycles_per_bit"):
            values = getattr(self, name)
            bad = first_not_positive(values)
            if bad is not None:
                raise ConfigError(f"task {name} of user {bad} must be finite and > 0, "
                                  f"got {values[bad]}")


def first_not_positive(values: np.ndarray, zero_ok: bool = False) -> int | None:
    """Index of the first entry that is not finite and > 0 (>= 0 with `zero_ok`),
    or None. A good array is cleared by its minimum and maximum (the minimum of
    an array with a NaN is NaN); only a bad one is searched."""
    if values.size:
        low = values.min()
        if (low >= 0 if zero_ok else low > 0) and values.max() < np.inf:
            return None
    ok = (values >= 0) if zero_ok else (values > 0)
    bad = (~(ok & (values < np.inf))).nonzero()[0]
    return int(bad[0]) if bad.size else None


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Norm of each row of a (K, D) array, bitwise equal to `np.linalg.norm(row)`
    per row (`np.linalg.norm(d, axis=1)` and `np.hypot` are not)."""
    return np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())


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

    `users` is a `UserArrays` and `uavs` a `UavArrays` (shapes in the module
    docstring). Single-writer rule: only two arrays are ever written after
    construction, both in place. `advance_users` and `reset_mobility` write
    `users.position`; the environment's step and `reset_uavs` write
    `uavs.position`. `user_positions` and `uav_positions` return copies, and
    `initial_uav_positions` is never written. Independent scenarios share no
    state, so many can run in parallel.
    """

    def __init__(self, config: ScenarioConfig, users: UserArrays,
                 uavs: UavArrays, initial_uav_positions: np.ndarray):
        self.config = config
        self.users = users
        self.uavs = uavs
        self.initial_uav_positions = initial_uav_positions
        self._walk_start: np.ndarray | None = None   # user positions before the first walk step
        self._waypoints: np.ndarray | None = None
        self._mobility_rng: np.random.Generator | None = None

    @property
    def user_positions(self) -> np.ndarray:
        return self.users.position.copy()

    @property
    def uav_positions(self) -> np.ndarray:
        return self.uavs.position.copy()

    def reset_uavs(self):
        self.uavs.position[...] = self.initial_uav_positions

    def reset_mobility(self):
        """Put users back where the waypoint walk started and re-arm it, so a
        fresh episode replays identically."""
        if self._walk_start is not None:
            self.users.position[...] = self._walk_start
        self._mobility_rng = None
        self._waypoints = None

    def advance_users(self):
        """One slot of random-waypoint motion for every user; no-op for static users.

        Users within one step of their waypoint land on it and draw the next
        one, in user order; the others move one step towards theirs."""
        cfg = self.config
        if cfg.user_mobility != "random_waypoint":
            return
        pos = self.users.position
        if self._walk_start is None:
            self._walk_start = pos.copy()
        if self._mobility_rng is None:
            self._mobility_rng = np.random.default_rng([cfg.rng_seed, 7])
        rng = self._mobility_rng
        area = [cfg.area_x, cfg.area_y]
        if self._waypoints is None:
            self._waypoints = rng.uniform([0, 0], area, size=(cfg.num_users, 2))
        step = cfg.user_speed * cfg.slot_seconds
        waypoints = self._waypoints
        delta = waypoints - pos[:, :2]
        dist = _row_norms(delta)
        reached = dist <= step
        # step / dist only where the user walks: dist may be 0 at a waypoint
        scale = np.divide(step, dist, out=np.zeros_like(dist), where=~reached)
        delta *= scale[:, None]
        delta += pos[:, :2]
        pos[:, :2] = np.where(reached[:, None], waypoints, delta)
        if reached.any():
            waypoints[reached] = rng.uniform([0, 0], area, size=(np.count_nonzero(reached), 2))

    # ---- JSON snapshot (schema v1) ----

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": json.loads(json.dumps(asdict(self.config))),  # tuples become lists
            "users": self.users.to_rows(),
            "uavs": self.uavs.to_rows(),
            "initial_uav_positions": self.initial_uav_positions.tolist(),
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
            users = UserArrays.from_rows(data["users"], "scenario snapshot users")
            uavs = UavArrays.from_rows(data["uavs"], "scenario snapshot uavs")
            initial = np.array(data["initial_uav_positions"], dtype=float)
        except KeyError as exc:
            raise ConfigError(f"scenario snapshot is missing key {exc.args[0]!r}") from exc
        for key, rows, need in (("users", users.position, config.num_users),
                                ("uavs", uavs.position, config.num_uavs),
                                ("initial_uav_positions", initial, config.num_uavs)):
            require(np.shape(rows) == (need, 3), f"scenario snapshot {key} has shape "
                    f"{np.shape(rows)}, its config needs ({need}, 3)")
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
    users = UserArrays(position=np.column_stack([xy, np.zeros(config.num_users)]),
                       cpu_freq=freqs, tx_power=powers)

    if config.initial_uav_positions is not None:   # checked by ScenarioConfig
        initial = np.array(config.initial_uav_positions, dtype=float)
    else:
        initial = _default_uav_positions(config, rng)

    n = config.num_uavs
    uavs = UavArrays(position=initial.copy(),
                     cpu_freq=np.full(n, config.uav_freq, dtype=float),
                     tx_power=np.full(n, config.uav_power, dtype=float),
                     half_angle_deg=np.full(n, config.coverage_half_angle_deg, dtype=float))
    return Scenario(config, users, uavs, initial)


def apply_motion(positions: np.ndarray, deltas,
                 config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enforce the speed cap and the flight box on every UAV's commanded displacement.

    positions and deltas are (N, 3). Oversized displacements are rescaled to
    v_max * slot_seconds; the resulting positions are clamped componentwise.
    Enforcement never rejects, it flags. Returns the new (N, 3) positions and
    the (N,) box and speed violation masks; neither input is written.
    """
    deltas = np.asarray(deltas, dtype=float)
    if not np.isfinite(deltas).all():
        bad = np.flatnonzero(~np.isfinite(deltas).all(axis=1))[0]
        raise ConfigError(f"motion delta of UAV {bad} must be finite, got {deltas[bad]}")

    norm = _row_norms(deltas)
    max_step = config.max_step
    speed = norm > max_step
    # max_step / norm on the speeding rows; the others move by delta * 1.0 = delta
    scale = np.divide(max_step, norm, out=np.ones_like(norm), where=speed)
    raw = deltas * scale[:, None]
    raw += positions
    # np.clip's bitwise result at half its cost for a (N, 3) array
    clamped = np.maximum(raw, np.array([0.0, 0.0, config.z_min]))
    np.minimum(clamped, np.array([config.area_x, config.area_y, config.z_max]), out=clamped)
    return clamped, (clamped != raw).any(axis=1), speed


def coverage_radius(altitude_m, half_angle_deg):
    """Max horizontal service radius per UAV; +inf for a 90-degree half-angle."""
    alt = np.asarray(altitude_m, dtype=float)
    angle = np.asarray(half_angle_deg, dtype=float)
    return np.where(angle < 90.0, alt * np.tan(np.radians(angle)), np.inf)


def pair_geometry(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and 3D distance from every row of `a` (M, 3) to every row of
    `b` (N, 3), as two (M, N) arrays.

    With the per-axis differences dx, dy, dz (each (M, N)),

        horiz  = sqrt(dx*dx + dy*dy)
        dist3d = sqrt((dx*dx + dy*dy) + dz*dz)

    The summation order is part of the result: it is the order in which
    `np.linalg.norm` reduces an (M, N, 3) difference over its last axis, so
    both arrays equal those norms bit for bit, and a point directly below
    another has horiz exactly 0. Any other grouping, such as
    dx*dx + (dy*dy + dz*dz), rounds differently in the last bit.
    """
    dx = a[:, 0, None] - b[:, 0]
    dy = a[:, 1, None] - b[:, 1]
    dz = a[:, 2, None] - b[:, 2]
    dx *= dx
    dy *= dy
    dx += dy                    # dx*dx + dy*dy
    dz *= dz
    dz += dx                    # (dx*dx + dy*dy) + dz*dz; the addition commutes exactly
    return np.sqrt(dx, out=dx), np.sqrt(dz, out=dz)


def pairwise_distances(positions) -> np.ndarray:
    """3D distance between every pair of positions (N, 3) as an (N, N) array.

    The diagonal is +inf, so a UAV is never its own nearest neighbour and the
    minimum over the array is +inf for fewer than two UAVs.
    """
    pos = np.asarray(positions, dtype=float)
    dist = pair_geometry(pos, pos)[1]
    np.fill_diagonal(dist, np.inf)
    return dist


def generate_tasks(scenario: Scenario, slot: int) -> TaskArrays:
    """One task per user for the given slot, keyed by (rng_seed, slot) only."""
    cfg = scenario.config
    if not 0 <= slot < cfg.horizon:
        raise ConfigError(f"slot {slot} outside horizon [0, {cfg.horizon})")
    rng = np.random.default_rng([cfg.rng_seed, slot])
    bits = rng.uniform(*cfg.task_bits_range, size=cfg.num_users)
    cycles = rng.uniform(*cfg.task_cycles_per_bit_range, size=cfg.num_users)
    return TaskArrays(bits=bits, cycles_per_bit=cycles)

