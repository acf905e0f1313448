"""Exception types shared across the package."""

import numbers
from dataclasses import fields


class ConfigError(ValueError):
    """Invalid configuration or experiment spec (CLI exit code 2)."""


class ValidationError(ValueError):
    """A slot decision violates one of its structural constraints."""


class InfeasibleError(ValueError):
    """An assignment offloads a user with no ingress UAV (none covers it at a rate > 0)."""


class CapExceededError(RuntimeError):
    """Exhaustive enumeration refused: instance larger than the configured cap."""


class ConvergenceError(RuntimeError):
    """Iterative numeric solver failed to converge (CLI exit code 3)."""


class NumericError(RuntimeError):
    """Non-finite values detected during training (CLI exit code 3)."""


def require(cond, msg: str):
    """Raise ConfigError(msg) unless `cond` holds."""
    if not cond:
        raise ConfigError(msg)


def require_seed(value, name: str):
    """Raise ConfigError unless `value`, a seed, is a non-negative integer."""
    require(isinstance(value, numbers.Integral) and value >= 0,
            f"{name} must be a non-negative integer, got {value!r}")


def check_fields(cls, data: dict, where: str):
    """Raise ConfigError unless `data` has exactly the fields of dataclass `cls`."""
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(names - set(data))
    if missing:
        raise ConfigError(f"{where}: missing key(s) {', '.join(missing)}")
