"""Exception types shared across the package, the readers of outside numbers,
the two checks of a config, and the one way saved state is written.

Every number from outside the package passes one rule: an array goes through
a reader, `float_array` (numbers, as float64) or `int_array` (integers), then
`check_array` (its shape and range); a scalar through `check_number` (its type
and range). A rule tuple (FINITE, POSITIVE, UNIT, ...) gives a range and its
wording. Each refusal is a ConfigError naming the argument, which `delay`
raises as a ValidationError; arrays a helper cannot broadcast together, as
`broadcast_error`.

`config_from_dict` is the one reader of a saved config (a scenario
snapshot's or a checkpoint's), `config_to_dict` its inverse, and
`replace_file` the one write path of a snapshot or a checkpoint.
InfeasibleError is a ValidationError: `except ValidationError` catches every
decision that `delay.validate_decision` refuses.
"""

import contextlib
import json
import math
import operator
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

# Rules shared by the readers: (kind, low, high, wording), see check_number.
FINITE = ("float", -HUGE, HUGE, "be finite")
POSITIVE = ("float", TINY, HUGE, "be finite and > 0")
NON_NEGATIVE = ("float", 0.0, HUGE, "be finite and >= 0")
UNIT = ("float", TINY, 1.0, "lie in (0, 1]")
COUNT = ("int", 1, math.inf, "be >= 1")
SEED = ("seed", 0, math.inf, "be a non-negative integer")

_REALS = (int, float, np.integer, np.floating)
_KINDS = {"int": ((int, np.integer), "an integer"), "float": (_REALS, "a number"),
          "seed": ((int, np.integer), "a non-negative integer")}
_BOOLS = (bool, np.bool_)
_DTYPE_KIND = operator.attrgetter("dtype.kind")


def require(cond, msg: str):
    """Raise ConfigError(msg) unless `cond` holds."""
    if not cond:
        raise ConfigError(msg)


def check_number(value, rule: tuple, name: str):
    """ConfigError naming `name` unless `value` keeps `rule`, a tuple (kind,
    low, high, wording). Kinds "int" and "seed" are integers (numpy ones too),
    "float" real numbers, "pair" (lo, hi) sequences of two reals with
    lo <= hi; a bool is none of them. Every number must lie in [low, high],
    where a NaN never lies. Messages are built only on failure."""
    kind, low, high, wording = rule
    if kind == "pair":
        ok = (isinstance(value, (tuple, list)) and len(value) == 2
              and all(isinstance(v, _REALS) and v.__class__ is not bool for v in value)
              and low <= _python(value[0]) <= _python(value[1]) <= high)
    else:
        types, noun = _KINDS[kind]
        if not isinstance(value, types) or value.__class__ is bool:
            raise ConfigError(f"{name} must be {noun}, got {value!r}")
        ok = low <= _python(value) <= high
    if not ok:
        raise ConfigError(f"{name} must {wording}, got {value!r}")


def _python(number):
    """`number` as a Python number: against a float32, numpy would round the
    bounds to float32 (HUGE to inf, TINY to 0)."""
    return number.item() if isinstance(number, np.generic) else number


def check_numbers(obj, rules: dict):
    """`check_number` on each field of `obj` named in `rules` (name -> rule),
    in table order."""
    for name, rule in rules.items():
        check_number(getattr(obj, name), rule, name)


def float_array(value, what: str) -> np.ndarray:
    """`value` as a float64 array (itself if it is one); ConfigError naming `what`
    unless numpy reads it as integers or floats, with no bool among them. A
    cast would drop a complex part, and bools, strings and objects are not
    numbers."""
    return _number_array(value, "iuf", "numbers", "real: need integers or floats",
                         what).astype(float, copy=False)


def int_array(value, what: str) -> np.ndarray:
    """`value` as numpy reads it (itself if it is an array), of any integer
    dtype; ConfigError naming `what` unless numpy reads it as integers, with
    no bool among them. Floats, integral ones too, are refused."""
    return _number_array(value, "iu", "integers", "an integer type", what)


def check_array(array: np.ndarray, shape, rule, what: str) -> np.ndarray:
    """`array`, as a reader returned it; ConfigError naming `what` unless it has
    `shape`, a tuple whose None entries match any length, and every entry lies
    in `rule`'s closed range [low, high], where a NaN never lies. None in place
    of `shape` or `rule` checks nothing. A "{}" in `what` stands for a row
    index: a range refusal fills it with the first bad row (of axis 0), a
    shape refusal leaves it out. A good array is cleared by its values at
    `argmin` and `argmax` (a NaN is both, if there is one), a third of the cost
    of `min` and `max`; only a bad one is searched."""
    if shape is not None and array.shape != shape and (array.ndim != len(shape) or any(
            want not in (None, have) for have, want in zip(array.shape, shape))):
        raise ConfigError(f"{' '.join(what.format('').split())} must have shape "
                          f"{str(shape).replace('None', 'K')}, got {array.shape}")
    if rule is not None and array.size:
        _, low, high, wording = rule
        if not (low <= array.item(array.argmin()) and array.item(array.argmax()) <= high):
            rows = array.reshape(len(array) if array.ndim else 1, -1)
            bad = ((rows >= low) & (rows <= high)).all(axis=1).argmin()
            raise ConfigError(f"{what.format(bad)} must {wording}, "
                              f"got {array[bad] if array.ndim else array}")
    return array


def broadcast_error(**arrays) -> ConfigError:
    """The refusal of `arrays` (argument name -> array read), whose shapes
    numpy could not broadcast together: a ConfigError naming each with its
    shape. A helper builds it only on failure, so broadcasting costs nothing."""
    shapes = " and ".join(f"{name} of shape {array.shape}" for name, array in arrays.items())
    return ConfigError(f"{shapes} do not broadcast together")


def _number_array(value, kinds: str, noun: str, need: str, what: str) -> np.ndarray:
    """The two array readers' core: `np.asarray(value)`, whose dtype kind must
    be in `kinds`, and, for a list or tuple, a scan for a bool among numbers.
    An ndarray answers by its dtype and is never scanned."""
    try:
        array = np.asarray(value)
        if array.dtype.kind not in kinds:
            raise TypeError(f"dtype {array.dtype} is not {need}")
        if isinstance(value, (list, tuple)) and _holds_bool(value):
            raise TypeError("it holds a bool among numbers")
        return array
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an array of {noun}, got {value!r}: {exc}") from None


def _holds_bool(items) -> bool:
    """Whether a list or tuple holds a bool, at any depth of lists and tuples;
    a nested ndarray answers by its dtype. Entries are grouped by type first,
    so a list of plain numbers costs one pass in C."""
    kinds = set(map(type, items))
    for kind in kinds:
        if issubclass(kind, _BOOLS):
            return True
        if issubclass(kind, (list, tuple, np.ndarray)):
            group = items if len(kinds) == 1 else [item for item in items if type(item) is kind]
            if (any(map(_holds_bool, group)) if issubclass(kind, (list, tuple))
                    else "b" in map(_DTYPE_KIND, group)):
                return True
    return False


def config_from_dict(cls, data, where: str):
    """Dataclass `cls` from `data`, a JSON object with exactly its fields. Lists
    become tuples, at any depth, and a field whose default is a dataclass
    (`ScenarioConfig.channel`) is read the same way. Any other input, or a
    TypeError or ValueError of `cls`, is a ConfigError naming `where`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    names = {f.name: f for f in fields(cls)}
    check_keys(data, names, where)
    values = {name: config_from_dict(f.default_factory, data[name], f"{where} {name}")
              if is_dataclass(f.default_factory) else _tuples(data[name])
              for name, f in names.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:   # a ConfigError too: name `where`
        raise ConfigError(f"{where}: {exc}") from exc


def check_keys(data: dict, names, where: str):
    """ConfigError naming `where` and the unknown, then the missing, keys of `data`."""
    for problem, keys in (("unknown", set(data) - set(names)), ("missing", set(names) - set(data))):
        require(not keys, f"{where}: {problem} key(s) {', '.join(sorted(keys))}")


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
