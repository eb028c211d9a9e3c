"""Scenario generators for the mission benchmark.

Each generator maps a seed to a raw scenario mapping in the scenario-file
schema; the simulator only ever sees the generated mapping, passed through
``cli.normalize_scenario`` and ``cli.scenario_from_dict``.
"""

from __future__ import annotations

import math

import numpy as np

DESK_BOX_SHIPPED_SEED = 1
# CLI digest of scenarios/desk_box.yaml at its shipped seed.
DESK_BOX_DIGEST = "bdfa5f71d745a0cd5622ca606ccdac482288c5cbf269d29bd55d2821a021f67c"

# The hollow 24 m cube of scenarios/desk_box.yaml: six 6 m slabs.
_DESK_WALLS = [
    {"min": [12.0, 12.0, 12.0], "max": [18.0, 36.0, 36.0]},
    {"min": [30.0, 12.0, 12.0], "max": [36.0, 36.0, 36.0]},
    {"min": [12.0, 12.0, 12.0], "max": [36.0, 18.0, 36.0]},
    {"min": [12.0, 30.0, 12.0], "max": [36.0, 36.0, 36.0]},
    {"min": [12.0, 12.0, 12.0], "max": [36.0, 36.0, 18.0]},
    {"min": [12.0, 12.0, 30.0], "max": [36.0, 36.0, 36.0]},
]
_DESK_INSPECTION = [{"min": [6.0, 6.0, 6.0], "max": [42.0, 42.0, 42.0]}]
_DESK_CUBE = {"min": [12.0, 12.0, 12.0], "max": [36.0, 36.0, 36.0]}


def desk_box(seed: int) -> dict:
    """scenarios/desk_box.yaml with mission.seed set to ``seed``.

    The interest-point scatter follows mission.seed, so the seed moves the
    200 points over the cube faces; at seed 1 this is the shipped file.
    """
    return {
        "mission": {"duration": 120.0, "tick": 0.1, "voxel_size": 6.0,
                    "horizon": 3, "waypoint_standoff": 12.0, "seed": seed},
        "agents": [
            {"kind": "explorer", "start": [9.0, 24.0, 21.0]},
            {"kind": "photographer", "start": [9.0, 12.0, 9.0]},
            {"kind": "photographer", "start": [9.0, 36.0, 9.0]},
        ],
        "camera": {"exposure": 0.01, "range": 40.0},
        "lidar": {"azimuth_steps": 180},
        "scene": {
            "solid_boxes": [dict(b) for b in _DESK_WALLS],
            "inspection_boxes": [dict(b) for b in _DESK_INSPECTION],
            "interest_points": {"scatter": [dict(_DESK_CUBE, count=200)]},
        },
    }


_TOWER_CENTER = (24.0, 24.0)
_TOWER_RADIUS = 8.0
_TOWER_HEIGHT = 24.0        # cap lies on a voxel plane of the 6 m grid
_TOWER_SIDES = 12
_TOWER_RINGS = 8
_SIDE_POINTS = 20           # per side of the prism
_CAP_POINTS = 40


def _tower_triangles() -> list[list[list[float]]]:
    """A ground-mounted regular prism, sides split into rings, cap as a fan.

    12 sides x 8 rings x 2 + 12 cap triangles = 204 triangles, wound so the
    normals point outward.
    """
    cx, cy = _TOWER_CENTER
    ang = [2.0 * math.pi * i / _TOWER_SIDES for i in range(_TOWER_SIDES)]
    rim = [(cx + _TOWER_RADIUS * math.cos(a), cy + _TOWER_RADIUS * math.sin(a))
           for a in ang]
    zs = [_TOWER_HEIGHT * r / _TOWER_RINGS for r in range(_TOWER_RINGS + 1)]
    tris = []
    for i in range(_TOWER_SIDES):
        (x0, y0), (x1, y1) = rim[i], rim[(i + 1) % _TOWER_SIDES]
        for r in range(_TOWER_RINGS):
            z0, z1 = zs[r], zs[r + 1]
            tris.append([[x0, y0, z0], [x1, y1, z0], [x1, y1, z1]])
            tris.append([[x0, y0, z0], [x1, y1, z1], [x0, y0, z1]])
    top = [cx, cy, _TOWER_HEIGHT]
    for i in range(_TOWER_SIDES):
        (x0, y0), (x1, y1) = rim[i], rim[(i + 1) % _TOWER_SIDES]
        tris.append([top, [x0, y0, _TOWER_HEIGHT], [x1, y1, _TOWER_HEIGHT]])
    return tris


def _points_on_triangles(tris: np.ndarray, count: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Area-weighted uniform points on the triangles, with outward normals."""
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    cross = np.cross(e1, e2)
    area = np.linalg.norm(cross, axis=1)
    picks = rng.choice(len(tris), size=count, p=area / area.sum())
    uv = rng.random((count, 2))
    flip = uv.sum(axis=1) > 1.0
    uv[flip] = 1.0 - uv[flip]
    pos = tris[picks, 0] + uv[:, :1] * e1[picks] + uv[:, 1:] * e2[picks]
    return pos, cross[picks] / area[picks, None]


def mesh_tower(seed: int) -> dict:
    """A tessellated 12-sided tower of 204 triangles and no solid boxes.

    The seed places 280 interest points on the faces, a fixed number on each
    side and on the cap, so the score varies little between seeds.  Every
    LiDAR ray and sight line pays the triangle path of the raycaster.  The
    8 x 30 LiDAR keeps a 50 s mission affordable while the survey pass still
    crosses the tower cap.
    """
    tris = _tower_triangles()
    arr = np.asarray(tris)
    per_side = 2 * _TOWER_RINGS
    groups = [(arr[i * per_side:(i + 1) * per_side], _SIDE_POINTS)
              for i in range(_TOWER_SIDES)]
    groups.append((arr[_TOWER_SIDES * per_side:], _CAP_POINTS))
    rng = np.random.default_rng(seed)
    points = []
    for group, count in groups:
        for pos, nrm in zip(*_points_on_triangles(group, count, rng)):
            points.append({"id": len(points),
                           "position": [round(float(c), 6) for c in pos],
                           "normal": [round(float(c), 6) for c in nrm]})
    return {
        "mission": {"duration": 50.0, "tick": 0.1, "voxel_size": 6.0,
                    "horizon": 3, "waypoint_standoff": 12.0, "seed": seed},
        "agents": [
            {"kind": "explorer", "start": [9.0, 21.0, 21.0]},
            {"kind": "photographer", "start": [9.0, 9.0, 9.0]},
            {"kind": "photographer", "start": [39.0, 39.0, 9.0]},
        ],
        "camera": {"exposure": 0.01, "range": 40.0},
        "lidar": {"beams": 8, "azimuth_steps": 30},
        "scene": {
            "triangles": tris,
            "inspection_boxes": [{"min": [6.0, 6.0, 0.0], "max": [42.0, 42.0, 36.0]}],
            "interest_points": {"explicit": points},
        },
    }


def fleet_fine(seed: int) -> dict:
    """The desk cube at 3 m voxels with six agents and 100 points per face.

    Two explorers with a sparse 8 x 30 LiDAR and four photographers.  The
    survey ends near 47 s; the last 8 s are the inspection stage, where
    every tick plans.
    """
    return {
        "mission": {"duration": 55.0, "tick": 0.1, "voxel_size": 3.0,
                    "horizon": 3, "waypoint_standoff": 12.0, "seed": seed},
        "agents": [
            {"kind": "explorer", "start": [7.5, 16.5, 22.5]},
            {"kind": "explorer", "start": [7.5, 31.5, 22.5]},
            {"kind": "photographer", "start": [7.5, 7.5, 7.5]},
            {"kind": "photographer", "start": [7.5, 40.5, 7.5]},
            {"kind": "photographer", "start": [40.5, 7.5, 40.5]},
            {"kind": "photographer", "start": [40.5, 40.5, 40.5]},
        ],
        "camera": {"exposure": 0.01, "range": 40.0},
        "lidar": {"beams": 8, "azimuth_steps": 30},
        "scene": {
            "solid_boxes": [dict(b) for b in _DESK_WALLS],
            "inspection_boxes": [dict(b) for b in _DESK_INSPECTION],
            "interest_points": {"scatter": [
                dict(_DESK_CUBE, count=100, seed=6 * seed + i, faces=[face])
                for i, face in enumerate(("x-", "x+", "y-", "y+", "z-", "z+"))]},
        },
    }


WORKLOADS = {"desk_box": desk_box, "mesh_tower": mesh_tower, "fleet_fine": fleet_fine}
