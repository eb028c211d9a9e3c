"""Exception types shared across the package, and the one check of the
config rules.

A config class declares each numeric field's rule once, with ``ruled``, and
its ``__post_init__`` runs ``check_fields``, so the Python API and a scenario
file meet the same rule; a failure names ``<section> <field>`` in the API and
the key's dotted path in a file.
"""

import dataclasses
import numbers
import sys

import numpy as np

_MAX = sys.float_info.max       # NaN, ±inf and an int no float can hold all fail x <= _MAX
_I64 = 2 ** 63                  # numpy's int64 holds [-_I64, _I64)

# each rule: the numbers it takes, the test such a number must pass, and what
# a failure says the value must be
_RULES = {
    "finite": (numbers.Real, lambda x: -_MAX <= x <= _MAX, "finite"),
    "positive": (numbers.Real, lambda x: 0 < x <= _MAX, "positive and finite"),
    "non-negative": (numbers.Real, lambda x: 0 <= x <= _MAX, "non-negative and finite"),
    "integer": (numbers.Integral, lambda x: -_I64 <= x < _I64, "an integer in [-2**63, 2**63)"),
    "positive integer": (numbers.Integral, lambda x: 0 < x < _I64, "an integer in [1, 2**63)"),
    "non-negative integer": (numbers.Integral, lambda x: 0 <= x < _I64, "an integer in [0, 2**63)"),
}
INTEGER_RULES = ("integer", "positive integer", "non-negative integer")


class ConfigurationError(ValueError):
    """Invalid scenario, mission, or module configuration."""


class OutOfBoundsError(ValueError):
    """A point or voxel index lies outside the grid extent."""


class GridMismatchError(ValueError):
    """Two occupancy maps do not share the same grid."""


class PlanningError(RuntimeError):
    """Path planning was invoked from an invalid start state."""


def ruled(rule: str, default=dataclasses.MISSING) -> dataclasses.Field:
    """A dataclass field that ``check_fields`` holds to ``rule``."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def widened(value):
    """value, or a numpy float's float64 value: a float16 or float32 compared
    with a Python float casts that float to its own width, where
    sys.float_info.max is inf."""
    return float(value) if isinstance(value, np.floating) else value


def check_value(what: str, value, rule: str):
    """value, once it keeps rule; else raise ConfigurationError naming what.
    A bool is not a number here; a numpy number is, and a numpy float keeps a
    rule as its float64 value does."""
    kind, keeps, must = _RULES[rule]
    # an exact int or float skips the isinstance test against the abc, which
    # costs most of a check; every other type takes it
    if type(value) is int or (type(value) is float and kind is numbers.Real):
        number = True
    else:
        number = not isinstance(value, bool) and isinstance(value, kind)
    if not (number and keeps(widened(value))):
        raise ConfigurationError(f"{what} must be {must}, got {value!r}")
    return value


def check_fields(config, section: str) -> None:
    """Hold every ruled field of a config dataclass to its rule, naming a
    failure "<section> <field>"; None passes where it is the field's default."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if "rule" in f.metadata and not (value is None and f.default is None):
            check_value(f"{section} {f.name}", value, f.metadata["rule"])
