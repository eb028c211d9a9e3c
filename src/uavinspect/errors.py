"""Exception types shared across the package, and the check every config
class runs on its real-valued fields."""

import math
import numbers

# what each rule of check_real asks of a finite value
_RULES = {"finite": lambda x: True, "positive": lambda x: x > 0,
          "non-negative": lambda x: x >= 0}


class ConfigurationError(ValueError):
    """Invalid scenario, mission, or module configuration."""


class OutOfBoundsError(ValueError):
    """A point or voxel index lies outside the grid extent."""


class GridMismatchError(ValueError):
    """Two occupancy maps do not share the same grid."""


class PlanningError(RuntimeError):
    """Path planning was invoked from an invalid start state."""


def check_real(what: str, value, rule: str = "finite") -> None:
    """Raise ConfigurationError naming what unless value is a finite real
    number that keeps rule: "finite", "positive" or "non-negative".  A bool
    is not a number here; a numpy number is."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not _RULES[rule](value)):
        qualifier = "" if rule == "finite" else f"{rule} and "
        raise ConfigurationError(f"{what} must be {qualifier}finite, got {value!r}")
