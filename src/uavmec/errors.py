"""Exception types shared across the package, the two checks of a config, the
one rule for an array of numbers, and the one way saved state is written.
`check_numbers` holds a config dataclass to its rule table, and
`config_from_dict` is the one reader of a saved config (a scenario snapshot's
or a checkpoint's), which yields the config or a ConfigError. `config_to_dict`
is its inverse, and `replace_file` the one write path of a snapshot or a
checkpoint.

`float_array` is the one rule for an array of numbers (numpy must read it as
integers or floats), and every array that enters the package from outside
passes it: it returns the array as float64 or raises a ConfigError naming the
input. Its callers: snapshot rows and records, UAV starts, motion deltas, the
arguments of the `channel` helpers, `model.coverage_radius` and
`pairwise_distances`, `allocator.minimize_inverse_on_simplex`, and
`MaddpgTrainer.joint_actions` (its obs) and `remember`. `delay.check_shares`
reads a decision's shares through it and raises its refusal as a
ValidationError.
InfeasibleError is a ValidationError: `except ValidationError` catches every
decision that `delay.validate_decision` refuses.
"""

import contextlib
import json
import math
import os
from dataclasses import asdict, fields, is_dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or experiment spec (CLI exit code 2)."""


class ValidationError(ValueError):
    """A slot decision violates one of its structural constraints."""


class InfeasibleError(ValidationError):
    """An assignment offloads a user with no ingress UAV (none covers it at a rate > 0)."""


class CapExceededError(RuntimeError):
    """Exhaustive enumeration refused: instance larger than the configured cap."""


class ConvergenceError(RuntimeError):
    """Iterative numeric solver failed to converge (CLI exit code 3)."""


class NumericError(RuntimeError):
    """Non-finite values detected during training (CLI exit code 3)."""


TINY = float(np.finfo(float).smallest_subnormal)   # least float > 0: x >= TINY is x > 0
HUGE = float(np.finfo(float).max)                  # x <= HUGE is x finite (and not NaN)

# Rules shared by the config tables: (kind, low, high, wording), see check_numbers.
FINITE = ("float", -HUGE, HUGE, "be finite")
POSITIVE = ("float", TINY, HUGE, "be finite and > 0")
NON_NEGATIVE = ("float", 0.0, HUGE, "be finite and >= 0")
COUNT = ("int", 1, math.inf, "be >= 1")
SEED = ("seed", 0, math.inf, "be a non-negative integer")

_REALS = (int, float, np.integer, np.floating)
_KINDS = {"int": ((int, np.integer), "an integer"), "float": (_REALS, "a number"),
          "seed": ((int, np.integer), "a non-negative integer")}


def require(cond, msg: str):
    """Raise ConfigError(msg) unless `cond` holds."""
    if not cond:
        raise ConfigError(msg)


def check_numbers(obj, rules: dict):
    """ConfigError naming the first field of `obj` that breaks its rule in `rules`:
    name -> (kind, low, high, wording). Kinds "int" and "seed" are integers
    (numpy ones too), "float" real numbers, "pair" (lo, hi) sequences of two
    reals with lo <= hi; a bool is none of them. Every number must lie in
    [low, high], where a NaN never lies. Messages are built only on failure."""
    for name, (kind, low, high, wording) in rules.items():
        value = getattr(obj, name)
        if kind == "pair":
            ok = (isinstance(value, (tuple, list)) and len(value) == 2
                  and all(isinstance(v, _REALS) and v.__class__ is not bool for v in value)
                  and low <= value[0] <= value[1] <= high)
        else:
            types, noun = _KINDS[kind]
            if not isinstance(value, types) or value.__class__ is bool:
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
            ok = low <= value <= high
        if not ok:
            raise ConfigError(f"{name} must {wording}, got {value!r}")


def float_array(value, what: str) -> np.ndarray:
    """`value` as a float64 array (itself if it is one); ConfigError naming `what`
    unless numpy reads it as integers or floats. A cast would drop a complex
    part, and bools, strings and objects are not numbers."""
    try:
        array = np.asarray(value)
        if array.dtype.kind not in "iuf":
            raise TypeError(f"dtype {array.dtype} is not real: need integers or floats")
        return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an array of numbers, got {value!r}: {exc}") from None


def config_from_dict(cls, data, where: str):
    """Dataclass `cls` from `data`, a JSON object with exactly its fields. Lists
    become tuples, at any depth, and a field whose default is a dataclass
    (`ScenarioConfig.channel`) is read the same way. Any other input, or a
    TypeError or ValueError of `cls`, is a ConfigError naming `where`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    names = {f.name: f for f in fields(cls)}
    for problem, keys in (("unknown", set(data) - set(names)), ("missing", set(names) - set(data))):
        require(not keys, f"{where}: {problem} key(s) {', '.join(sorted(keys))}")
    values = {name: config_from_dict(f.default_factory, data[name], f"{where} {name}")
              if is_dataclass(f.default_factory) else _tuples(data[name])
              for name, f in names.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:   # a ConfigError too: name `where`
        raise ConfigError(f"{where}: {exc}") from exc


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def config_to_dict(config) -> dict:
    """Dataclass `config` as the JSON object `config_from_dict` reads: tuples
    become lists, and numpy numbers and arrays Python ones, at any depth."""
    return json.loads(json.dumps(asdict(config), default=_plain))


def _plain(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@contextlib.contextmanager
def replace_file(path, mode: str):
    """A file opened in `mode` at `<path>.tmp`; once the block has written it,
    it is synced to disk and replaces `path` in one `os.replace`, so an
    interrupted save leaves the previous file whole. If the block, the sync or
    the rename raises, `<path>.tmp` is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):   # keep the original error
            os.remove(tmp)
        raise
