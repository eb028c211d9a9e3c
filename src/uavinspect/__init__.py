"""Cooperative multi-UAV structure-inspection simulator and planning library."""

__version__ = "0.1.0"

from .engine import (AgentSpec, MissionConfig, MissionResult, ScoreLedger, run_mission,
                     update_ledger, write_outputs)
from .scene import Scene
from .world import BoundingBox, OccupancyMap, VoxelGrid

__all__ = [
    "AgentSpec", "BoundingBox", "MissionConfig", "MissionResult",
    "OccupancyMap", "Scene", "ScoreLedger", "VoxelGrid",
    "run_mission", "update_ledger", "write_outputs",
]
