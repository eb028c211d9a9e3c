"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid scenario, mission, or module configuration."""


class OutOfBoundsError(ValueError):
    """A point or voxel index lies outside the grid extent."""


class GridMismatchError(ValueError):
    """Two occupancy maps do not share the same grid."""


class PlanningError(RuntimeError):
    """Path planning was invoked from an invalid start state."""
