"""World state: scenario construction, UAV kinematics, coverage geometry, task generation.

Positions are 3-vectors in meters. Users sit on the ground plane (z = 0);
UAVs fly inside the box [0, area_x] x [0, area_y] x [z_min, z_max].

The world is a struct of arrays, row i belonging to user or UAV i, all float64:

    UserArrays  position (M, 3), cpu_freq (M,), tx_power (M,)
    UavArrays   position (N, 3), cpu_freq (N,), tx_power (N,), half_angle_deg (N,)
    TaskArrays  bits (M,), cycles_per_bit (M,); one slot's tasks

Each part of a slot's world step (`Scenario.advance_users`, `apply_motion`,
`generate_tasks`) is one array operation over all users or all UAVs.
`pair_geometry` gives every pairwise horizontal and 3D distance from per-axis
differences, summed as (dx*dx + dy*dy) + dz*dz: the order `np.linalg.norm`
uses, so the distances, and everything computed from them, are bitwise
those of the norms. The records `UserState`, `UavState` and `Task` describe
one entity each; `SlotContext` stacks a list of them into a bundle through
`from_rows`. Only the benchmark's workloads and the tests build them.

Building a bundle checks nothing. `_Columns.check` applies every rule in
`FIELD_RULES`: `SlotContext` calls it once per slot, `Scenario.from_dict` at load.
Each field's rule there is one of the rule tuples of `errors` (or the angle rule
`_SCENARIO_RULES` shares), so a range and its wording are written once.
`ScenarioConfig` holds its numbers to `_SCENARIO_RULES` (`errors.check_numbers`),
and `Scenario.from_dict` reads a snapshot's config with `errors.config_from_dict`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import ChannelParams
from .errors import (COUNT, FINITE, HUGE, NON_NEGATIVE, POSITIVE, SEED, TINY, ConfigError,
                     check_numbers, config_from_dict, config_to_dict, float_array,
                     replace_file, require)

SCHEMA_VERSION = 1


_RANGE = ("pair", TINY, HUGE, "be two finite numbers with 0 < low <= high")
_ANGLE = ("float", 0.0, 90.0, "lie in [0, 90]")
_SCENARIO_RULES = {
    "area_x": POSITIVE, "area_y": POSITIVE, "z_min": POSITIVE, "z_max": POSITIVE,
    "d_min": POSITIVE, "v_max": POSITIVE, "slot_seconds": POSITIVE,
    "num_users": COUNT, "num_uavs": COUNT, "horizon": COUNT,
    "task_bits_range": _RANGE, "task_cycles_per_bit_range": _RANGE,
    "user_freq_range": _RANGE, "user_power_range": _RANGE,
    "uav_freq": POSITIVE, "uav_power": POSITIVE,
    "coverage_half_angle_deg": _ANGLE,
    "user_speed": NON_NEGATIVE, "rng_seed": SEED,
}


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
        check_numbers(self, _SCENARIO_RULES)
        if self.z_min > self.z_max:
            raise ConfigError(f"need 0 < z_min <= z_max, got z_min={self.z_min}, "
                              f"z_max={self.z_max}")
        if self.user_mobility not in ("static", "random_waypoint"):
            raise ConfigError(f"user_mobility must be 'static' or 'random_waypoint', "
                              f"got {self.user_mobility!r}")
        if self.initial_uav_positions is not None:   # stored as float triples: hashable
            object.__setattr__(self, "initial_uav_positions",
                               self._check_initial_uav_positions(self.initial_uav_positions))

    def _check_initial_uav_positions(self, positions) -> tuple[tuple[float, float, float], ...]:
        """`positions` as a tuple of float triples; ConfigError unless it holds
        num_uavs starts, each 3 finite coordinates inside this config's flight
        box. A bad start names its UAV."""
        require(hasattr(positions, "__len__"),
                f"initial_uav_positions must be a list of positions, got {positions!r}")
        require(len(positions) == self.num_uavs, f"initial_uav_positions has "
                f"{len(positions)} entries, expected num_uavs={self.num_uavs}")
        low, high = (0.0, 0.0, self.z_min), (self.area_x, self.area_y, self.z_max)
        starts = []
        for n, position in enumerate(positions):
            row = float_array(position, f"initial position of UAV {n}")
            require(row.shape == (3,),
                    f"initial position of UAV {n} must be 3 numbers, got {position!r}")
            require(np.isfinite(row).all(),
                    f"initial position of UAV {n} must be finite, got {position}")
            require(((row >= low) & (row <= high)).all(),
                    f"initial position of UAV {n} {position} lies outside the flight box "
                    f"[0, {self.area_x}] x [0, {self.area_y}] x [{self.z_min}, {self.z_max}]")
            starts.append(tuple(row.tolist()))
        return tuple(starts)

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


_FLOAT64 = np.dtype(float)

# Every field of every bundle, by name: the shape of one row, and the rule whose
# closed range [low, high] each value must lie in (a NaN lies in none).
FIELD_RULES = {
    "position": ((3,), FINITE), "cpu_freq": ((), POSITIVE), "tx_power": ((), NON_NEGATIVE),
    "half_angle_deg": ((), _ANGLE), "bits": ((), POSITIVE), "cycles_per_bit": ((), POSITIVE),
}


class _Columns:
    """A bundle of float64 arrays, one per dataclass field, one row per entity.
    Building one checks nothing; `check` holds every rule."""

    entity = ""   # names the entity in messages: "user 1 cpu_freq must ..."

    def check(self):
        """ConfigError unless every field is a float64 ndarray of K rows, shaped
        as its `FIELD_RULES` row, whose values all lie in its range; it names the
        field, or for a bad value the entity and its index. A good column is
        cleared by its values at `argmin` and `argmax` (a NaN is both, if there
        is one), a third of the cost of `min` and `max`; only a bad one is searched."""
        rows = None
        for name in self.__dataclass_fields__:
            values = getattr(self, name)
            tail, (_, low, high, wording) = FIELD_RULES[name]
            if not isinstance(values, np.ndarray) or values.dtype != _FLOAT64:
                raise ConfigError(f"{self.entity} field {name!r} must be a float64 array, "
                                  f"got {getattr(values, 'dtype', type(values).__name__)}")
            if rows is None and values.ndim == 1 + len(tail):
                rows = len(values)
            if values.shape != (rows, *tail):
                raise ConfigError(f"{self.entity} field {name!r} has shape {values.shape}, "
                                  f"expected {('K' if rows is None else rows, *tail)}")
            if rows and not (low <= values.item(values.argmin())
                             and values.item(values.argmax()) <= high):
                bad = ((values >= low) & (values <= high)).reshape(rows, -1).all(axis=1).argmin()
                raise ConfigError(f"{self.entity} {bad} {name} must {wording}, "
                                  f"got {values[bad]}")

    @classmethod
    def from_rows(cls, rows, where: str):
        """Stack a list of mappings that carry every field name (snapshot rows,
        or the `vars` of records) into arrays, each column through
        `errors.float_array`. Rows that are not mappings raise TypeError."""
        return cls(*(float_array([row[f.name] for row in rows], f"{where} field {f.name!r}")
                     for f in fields(cls)))

    def to_rows(self) -> list[dict]:
        names = [f.name for f in fields(self)]
        columns = [getattr(self, name).tolist() for name in names]
        return [dict(zip(names, row)) for row in zip(*columns)]


@dataclass
class UserArrays(_Columns):
    entity = "user"
    position: np.ndarray        # (M, 3), z fixed at 0
    cpu_freq: np.ndarray        # (M,) Hz
    tx_power: np.ndarray        # (M,) watts


@dataclass
class UavArrays(_Columns):
    entity = "UAV"
    position: np.ndarray        # (N, 3)
    cpu_freq: np.ndarray        # (N,) Hz
    tx_power: np.ndarray        # (N,) watts
    half_angle_deg: np.ndarray  # (N,) coverage half-angle


@dataclass(frozen=True)
class TaskArrays(_Columns):
    """One slot's tasks, row m for user m."""

    entity = "task"
    bits: np.ndarray            # (M,)
    cycles_per_bit: np.ndarray  # (M,)


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
    construction, both in place. `reset` writes both; otherwise
    `advance_users` writes `users.position` and the environment's step
    writes `uavs.position`. `initial_uav_positions` and
    `initial_user_positions` are never written; `user_positions` and
    `uav_positions` return copies. Independent scenarios share no state, so
    many can run in parallel.

    An episode starts from the UAV starts and from the users where the
    scenario was built or loaded. A snapshot stores the UAV starts but not
    the users' start, so a loaded scenario walks from its loaded positions.
    """

    def __init__(self, config: ScenarioConfig, users: UserArrays,
                 uavs: UavArrays, initial_uav_positions: np.ndarray):
        self.config = config
        self.users = users
        self.uavs = uavs
        self.initial_uav_positions = initial_uav_positions
        self.initial_user_positions = users.position.copy()
        self._walk: tuple[np.random.Generator, np.ndarray] | None = None  # (rng, waypoints)

    @property
    def user_positions(self) -> np.ndarray:
        return self.users.position.copy()

    @property
    def uav_positions(self) -> np.ndarray:
        return self.uavs.position.copy()

    def reset(self):
        """Put UAVs and users back at their starts and re-arm the waypoint
        walk, so a fresh episode replays identically."""
        self.uavs.position[...] = self.initial_uav_positions
        self.users.position[...] = self.initial_user_positions
        self._walk = None

    def advance_users(self):
        """One slot of random-waypoint motion for every user; no-op for static users.

        Users within one step of their waypoint land on it and draw the next
        one, in user order; the others move one step towards theirs."""
        cfg = self.config
        if cfg.user_mobility != "random_waypoint":
            return
        pos = self.users.position
        area = [cfg.area_x, cfg.area_y]
        if self._walk is None:   # the walk's first step since construction or a reset
            rng = np.random.default_rng([cfg.rng_seed, 7])
            self._walk = rng, rng.uniform([0, 0], area, size=(cfg.num_users, 2))
        rng, waypoints = self._walk
        step = cfg.user_speed * cfg.slot_seconds
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
            "config": config_to_dict(self.config),
            "users": self.users.to_rows(),
            "uavs": self.uavs.to_rows(),
            "initial_uav_positions": self.initial_uav_positions.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        version = data.get("schema_version") if isinstance(data, dict) else None
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported scenario schema_version: {version!r}")
        try:
            config = config_from_dict(ScenarioConfig, data["config"], "scenario config")
            users = UserArrays.from_rows(data["users"], "scenario snapshot users")
            uavs = UavArrays.from_rows(data["uavs"], "scenario snapshot uavs")
            initial = data["initial_uav_positions"]
        except KeyError as exc:
            raise ConfigError(f"scenario snapshot is missing key {exc.args[0]!r}") from exc
        except TypeError as exc:   # a section that is not a list of row objects
            raise ConfigError(f"scenario snapshot is malformed: {exc}") from exc
        for key, rows, need in (("users", users.position, config.num_users),
                                ("uavs", uavs.position, config.num_uavs)):
            require(np.shape(rows) == (need, 3), f"scenario snapshot {key} has shape "
                    f"{np.shape(rows)}, its config needs ({need}, 3)")
        initial = config._check_initial_uav_positions(initial)
        for n, (start, own) in enumerate(zip(initial, config.initial_uav_positions or ())):
            if start != own:   # a config with starts has them written twice in a snapshot
                raise ConfigError(f"scenario snapshot initial position of UAV {n} {list(start)} "
                                  f"differs from its config's {list(own)}")
        users.check()
        uavs.check()
        return cls(config, users, uavs, np.array(initial, dtype=float))

    def save(self, path: str | os.PathLike):
        """Write `to_dict()` as JSON at `path` through `errors.replace_file`."""
        with replace_file(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Scenario":
        try:   # not JSON, or not text: a ValueError from the decoder
            with open(path) as fh:
                data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not a JSON scenario snapshot: {exc}") from exc
        return cls.from_dict(data)


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
    the (N,) box and speed violation masks; neither input is written. Deltas
    that are not an array of numbers (`errors.float_array`) shaped as the
    positions, or not finite, are a ConfigError.
    """
    deltas = float_array(deltas, "motion deltas")
    if deltas.shape != positions.shape:
        raise ConfigError(f"motion deltas must have the shape of the UAV positions "
                          f"{positions.shape}, got {deltas.shape}")
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
    """Max horizontal service radius per UAV; +inf for a 90-degree half-angle.
    Both arguments go through `errors.float_array`."""
    alt = float_array(altitude_m, "altitude_m")
    angle = float_array(half_angle_deg, "half_angle_deg")
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
    minimum over the array is +inf for fewer than two UAVs. `positions` goes
    through `errors.float_array`.
    """
    pos = float_array(positions, "positions")
    dist = pair_geometry(pos, pos)[1]
    np.fill_diagonal(dist, np.inf)
    return dist


def generate_tasks(scenario: Scenario, slot: int) -> TaskArrays:
    """One task per user for the given slot, keyed by (rng_seed, slot) only."""
    cfg = scenario.config
    if not isinstance(slot, (int, np.integer)) or slot.__class__ is bool:
        raise ConfigError(f"slot must be an integer, got {slot!r}")
    if not 0 <= slot < cfg.horizon:
        raise ConfigError(f"slot {slot} outside horizon [0, {cfg.horizon})")
    rng = np.random.default_rng([cfg.rng_seed, slot])
    bits = rng.uniform(*cfg.task_bits_range, size=cfg.num_users)
    cycles = rng.uniform(*cfg.task_cycles_per_bit_range, size=cfg.num_users)
    return TaskArrays(bits=bits, cycles_per_bit=cycles)

