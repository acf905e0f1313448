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
`FIELD_RULES`, and `SlotContext` calls it once per slot. Each field's rule there
is one of the rule tuples of `errors` (or the angle rule `_SCENARIO_RULES`
shares), so a range and its wording are written once. `ScenarioConfig` holds
its numbers to `_SCENARIO_RULES` (`errors.check_numbers`).

`Scenario(config)` is the one constructor of the world, and every array but
the two positions follows from the config: a snapshot (schema 2) is the config
and those two arrays, read by `errors.config_from_dict` and `float_array`.

Every random generator of the package comes from `stream(seed, role, *keys)`,
whose one table `STREAMS` keys each role: the scenario build, each slot's
tasks, the waypoint walk, and the learner.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import ChannelParams
from .errors import (COUNT, FINITE, HUGE, NON_NEGATIVE, POSITIVE, SEED, TINY, ConfigError,
                     broadcast_error, check_array, check_keys, check_number, check_numbers,
                     config_from_dict, config_to_dict, float_array, replace_file, require)

SCHEMA_VERSION = 2
SNAPSHOT_KEYS = ("schema_version", "config", "user_positions", "uav_positions")


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
        if (positions := self.initial_uav_positions) is None:
            return
        require(hasattr(positions, "__len__"),
                f"initial_uav_positions must be a list of positions, got {positions!r}")
        require(len(positions) == self.num_uavs, f"initial_uav_positions has "
                f"{len(positions)} entries, expected num_uavs={self.num_uavs}")
        low, high = (0.0, 0.0, self.z_min), (self.area_x, self.area_y, self.z_max)
        starts = []
        for n, position in enumerate(positions):
            what = f"initial position of UAV {n}"
            row = check_array(float_array(position, what), (3,), FINITE, what)
            require(((row >= low) & (row <= high)).all(),
                    f"initial position of UAV {n} {position} lies outside the flight box "
                    f"[0, {self.area_x}] x [0, {self.area_y}] x [{self.z_min}, {self.z_max}]")
            starts.append(tuple(row.tolist()))
        object.__setattr__(self, "initial_uav_positions", tuple(starts))   # hashable

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


# Every random stream, by role: the keys after the seed that name its seed
# sequence, and how many keys its caller adds. A stream is
# default_rng([seed, *fixed, *added]); "build" is default_rng(seed) itself.
STREAMS = {"build": ((), 0), "tasks": ((), 1), "walk": ((7,), 0), "learner": ((11,), 0)}


def stream(seed: int, role: str, *keys: int) -> np.random.Generator:
    """The generator of `role` (a `STREAMS` key) under `seed`, the only place
    the package makes one: tasks take the slot as their key."""
    fixed, count = STREAMS[role]
    require(len(keys) == count, f"stream {role!r} takes {count} key(s), got {keys}")
    return np.random.default_rng([seed, *fixed, *keys])


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

    def __init_subclass__(cls):
        # per field, in order: its name, `FIELD_RULES` entry and message template
        cls.rules = [(name, *FIELD_RULES[name], f"{cls.entity} {{}} {name}")
                     for name in cls.__annotations__]

    def check(self):
        """ConfigError unless every field is a float64 ndarray of K rows, shaped
        as its `FIELD_RULES` row, whose values all lie in its range
        (`errors.check_array`); it names the field, or for a bad value the
        entity and its index. The first field with rows sets K."""
        rows = None
        for name, tail, rule, what in self.rules:
            values = getattr(self, name)
            if not isinstance(values, np.ndarray) or values.dtype != _FLOAT64:
                raise ConfigError(f"{self.entity} field {name!r} must be a float64 array, "
                                  f"got {getattr(values, 'dtype', type(values).__name__)}")
            if rows is None and values.ndim == 1 + len(tail):
                rows = len(values)
            check_array(values, (rows, *tail), rule, what)

    @classmethod
    def from_rows(cls, rows, where: str):
        """Stack the `vars` of a list of records, mappings that carry every
        field name, into arrays, each column through `errors.float_array`. A
        key that is no field name is a ConfigError naming `where`."""
        names = [f.name for f in fields(cls)]
        bundle = cls(*(float_array([row[name] for row in rows], f"{where} field {name!r}")
                       for name in names))
        unknown = set().union(*rows).difference(names)
        require(not unknown, f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
        return bundle


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


class Scenario:
    """Users, UAVs, and the configuration that produced them.

    `users` is a `UserArrays` and `uavs` a `UavArrays` (shapes in the module
    docstring), both drawn from the config's seed. Single-writer rule: only
    two arrays are ever written after construction or load, both in place.
    `reset` writes both; otherwise `advance_users` writes `users.position`
    and the environment's step writes `uavs.position`. `user_positions` and
    `uav_positions` return copies. Independent scenarios share no state, so
    many can run in parallel.

    An episode starts from the UAV starts and from the users where the
    scenario was built or loaded. A snapshot is the config plus the two
    position arrays, so a loaded scenario rebuilds every other array, the
    UAV starts included, and walks from its loaded positions.
    """

    def __init__(self, config: ScenarioConfig):
        """Seeded construction: users uniform on the ground, UAVs at their starts
        (the config's, else the area's corners and then seeded-uniform extras)."""
        rng = stream(config.rng_seed, "build")
        m, n, area = config.num_users, config.num_uavs, [config.area_x, config.area_y]
        xy = rng.uniform([0.0, 0.0], area, size=(m, 2))
        freqs = rng.uniform(*config.user_freq_range, size=m)
        powers = rng.uniform(*config.user_power_range, size=m)
        if config.initial_uav_positions is not None:   # checked by ScenarioConfig
            initial = np.array(config.initial_uav_positions, dtype=float)
        else:   # all at z_min
            starts = np.array([[0.0, 0.0], [0.0, area[1]], [area[0], 0.0], area])[:n]
            if n > 4:
                starts = np.vstack([starts, rng.uniform([0.0, 0.0], area, size=(n - 4, 2))])
            initial = np.column_stack([starts, np.full(n, config.z_min)])
        self.config = config
        self.users = UserArrays(position=np.column_stack([xy, np.zeros(m)]),
                                cpu_freq=freqs, tx_power=powers)
        self.uavs = UavArrays(
            position=initial.copy(), cpu_freq=np.full(n, config.uav_freq, dtype=float),
            tx_power=np.full(n, config.uav_power, dtype=float),
            half_angle_deg=np.full(n, config.coverage_half_angle_deg, dtype=float))
        self.initial_uav_positions = initial
        self.initial_user_positions = self.users.position.copy()
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
            rng = stream(cfg.rng_seed, "walk")
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

    # ---- JSON snapshot (schema v2) ----

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "config": config_to_dict(self.config),
                "user_positions": self.users.position.tolist(),
                "uav_positions": self.uavs.position.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """`Scenario(config)` with `data`'s positions, each array held to a finite
        (count, 3) from its config before anything is built."""
        version = data.get("schema_version") if isinstance(data, dict) else None
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported scenario schema_version: {version!r}")
        check_keys(data, SNAPSHOT_KEYS, "scenario snapshot")
        config = config_from_dict(ScenarioConfig, data["config"], "scenario config")
        users, uavs = (check_array(float_array(data[key], f"scenario snapshot {key}"),
                                   (count, 3), FINITE, f"scenario snapshot {key}")
                       for key, count in (("user_positions", config.num_users),
                                          ("uav_positions", config.num_uavs)))
        scenario = cls(config)
        scenario.users.position[...] = scenario.initial_user_positions[...] = users
        scenario.uavs.position[...] = uavs
        return scenario

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
    """`Scenario(config)`."""
    return Scenario(config)


def apply_motion(positions: np.ndarray, deltas,
                 config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enforce the speed cap and the flight box on every UAV's commanded displacement.

    positions and deltas are (N, 3). Oversized displacements are rescaled to
    v_max * slot_seconds; the resulting positions are clamped componentwise.
    Enforcement never rejects, it flags. Returns the new (N, 3) positions and
    the (N,) box and speed violation masks; neither input is written. Deltas
    that are not an array of numbers (`errors.float_array`) shaped as the
    positions, or not finite (`errors.check_array`), are a ConfigError.
    """
    deltas = check_array(float_array(deltas, "motion deltas"), positions.shape, FINITE,
                         "UAV {} motion delta")

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
    Both arguments go through `errors.float_array` and must broadcast
    (`errors.broadcast_error`)."""
    alt = float_array(altitude_m, "altitude_m")
    angle = float_array(half_angle_deg, "half_angle_deg")
    try:
        return np.where(angle < 90.0, alt * np.tan(np.radians(angle)), np.inf)
    except ValueError:
        raise broadcast_error(altitude_m=alt, half_angle_deg=angle) from None


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
    through `errors.float_array` and must be (N, 3) (`errors.check_array`).
    """
    pos = check_array(float_array(positions, "positions"), (None, 3), None, "positions")
    dist = pair_geometry(pos, pos)[1]
    np.fill_diagonal(dist, np.inf)
    return dist


def generate_tasks(scenario: Scenario, slot: int) -> TaskArrays:
    """One task per user for the given slot, keyed by (rng_seed, slot) only."""
    cfg = scenario.config
    check_number(slot, ("int", 0, cfg.horizon - 1, f"lie in [0, {cfg.horizon})"), "slot")
    rng = stream(cfg.rng_seed, "tasks", slot)
    bits = rng.uniform(*cfg.task_bits_range, size=cfg.num_users)
    cycles = rng.uniform(*cfg.task_cycles_per_bit_range, size=cfg.num_users)
    return TaskArrays(bits=bits, cycles_per_bit=cycles)

