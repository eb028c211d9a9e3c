"""The LiDAR firing the mission makes, culled, against the firing of every ray.

The mission skips a firing whose map holds no cell it can change and casts
only the rays whose box holds one (engine._fire).  The oracle is the
unculled firing: every ray cast and folded into the map under the same hit
rule.  The two must leave the same map after every firing.
"""

import dataclasses
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine import bench_workload
from uavinspect import cli, engine
from uavinspect.engine import AgentSpec, MissionConfig, _Mission, run_mission
from uavinspect.scene import Scene, scene_occupancy
from uavinspect.sensors import CameraConfig, LidarConfig, lidar_directions, lidar_sweep
from uavinspect.world import (FREE, OCCUPIED, UNKNOWN, BoundingBox, FiringGuard,
                              OccupancyMap, VoxelGrid, integrate_points)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def reference_fire(occ, truth, position, yaw, scene, lidar, t):
    """The unculled firing: every ray cast, the map updated under the hit rule."""
    hits, misses = lidar_sweep(position, scene, lidar, lidar_directions(yaw, lidar, t))
    return integrate_points(occ, position, hits[:, 0], hits[:, 1], misses, truth)


# --- the firing of a mission ---------------------------------------------------

def checked_run(cfg, scene, monkeypatch, stats):
    """Run a mission, checking every explorer's map against the unculled
    firing after each sense stage.  stats counts firings, skipped firings,
    rays and the rays cast."""
    cast = engine.lidar_sweep

    def counting(position, scene, lidar, dirs):
        stats["cast"] += len(dirs)
        stats["swept"] += 1
        return cast(position, scene, lidar, dirs)

    sense = _Mission._sense

    def checked(self, k, t):
        expected = {}
        for a in self.agents:
            if a.spec.kind == "explorer":
                occ = a.occ.copy()
                stats["reference_suppressed"] += reference_fire(
                    occ, self.truth, self.position[a.id], self.yaw[a.id], self.scene,
                    self.cfg.lidar, t)
                if occ.cells[a.voxel] == UNKNOWN:
                    occ.cells[a.voxel] = FREE
                expected[a.id] = occ
                stats["firings"] += 1
                stats["rays"] += self.cfg.lidar.beams * self.cfg.lidar.azimuth_steps
        swept = stats["swept"]
        sense(self, k, t)
        stats["skipped"] += len(expected) - (stats["swept"] - swept)
        for aid, occ in expected.items():
            assert np.array_equal(self.agents[aid].occ.cells, occ.cells), (k, aid)

    monkeypatch.setattr(engine, "lidar_sweep", counting)
    monkeypatch.setattr(_Mission, "_sense", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # mesh_tower maps hold structure free
        result = _Mission(cfg, scene).run()
    stats["suppressed"] += result.suppressed_returns
    return result


def shipped(name, ticks):
    cfg, scene = cli.parse_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    return dataclasses.replace(cfg, duration=ticks * cfg.tick), scene


def workload(name, ticks):
    cfg, scene = bench_workload(name, 1)
    return dataclasses.replace(cfg, duration=ticks * cfg.tick), scene


SHORT_RUNS = {
    "desk_box": lambda: workload("desk_box", 30),
    "fleet_fine": lambda: workload("fleet_fine", 60),
    "mesh_tower": lambda: workload("mesh_tower", 80),
    "twin_pillars.yaml": lambda: shipped("twin_pillars", 60),
    "open_field.yaml": lambda: shipped("open_field", 40),
}


def test_culled_firings_equal_the_unculled_firing(monkeypatch):
    total = Counter()
    for name, build in SHORT_RUNS.items():
        stats = Counter()
        checked_run(*build(), monkeypatch, stats)
        assert stats["firings"] > 0, name
        assert stats["suppressed"] == stats["reference_suppressed"] == 0, name
        total.update(stats)
    # most rays are culled, and twin_pillars skips most of its firings
    assert 0 < total["cast"] < 0.5 * total["rays"]
    assert total["skipped"] > 0


def test_the_guard_sees_a_map_change_in_place():
    # the mission writes an agent's own voxel into the map it fires into
    grid = VoxelGrid((0.0, 0.0, 0.0), (3, 3, 3), 6.0)
    occ = OccupancyMap(grid, np.full(grid.dims, FREE, dtype=np.uint8))
    occ.cells[1, 1, 1] = UNKNOWN
    guard = FiringGuard(grid, np.zeros(grid.dims, dtype=bool))
    assert guard.at(occ, np.array([3.0, 3.0, 3.0])).live
    occ.cells[1, 1, 1] = FREE
    assert not guard.at(occ, np.array([3.0, 3.0, 3.0])).live


# --- random scenes ---------------------------------------------------------------

LEVEL = 2.0             # at this time the servo holds the beams level (period 8 s)


def coordinate(v, n):
    """A box corner coordinate: on a voxel plane, or anywhere on the grid."""
    return st.one_of(st.integers(0, n).map(lambda k: k * v),
                     st.floats(0.0, n * v, allow_nan=False))


@st.composite
def boxes(draw, v, dims):
    lo, hi = [], []
    for n in dims:
        a, b = sorted((draw(coordinate(v, n)), draw(coordinate(v, n))))
        if b - a < 0.25:
            a, b = max(0.0, b - 0.5 * v), b + 0.5 * v
        lo.append(a)
        hi.append(b)
    return BoundingBox(tuple(lo), tuple(hi))


@st.composite
def plane_triangle(draw, v, dims):
    """A triangle in a voxel plane, facing either way."""
    axis = draw(st.integers(0, 2))
    u, w = [a for a in range(3) if a != axis]
    level = draw(st.integers(1, dims[axis] - 1)) * v
    corners = []
    for _ in range(3):
        p = [0.0, 0.0, 0.0]
        p[axis] = level
        p[u] = draw(st.floats(0.0, dims[u] * v))
        p[w] = draw(st.floats(0.0, dims[w] * v))
        corners.append(p)
    if draw(st.booleans()):
        corners.reverse()
    return corners


@st.composite
def firings(draw):
    """A scene on a small grid, a partly known map, a sensor and a LiDAR."""
    v = draw(st.sampled_from([2.0, 3.0, 6.0]))
    dims = tuple(draw(st.integers(3, 6)) for _ in range(3))
    grid = VoxelGrid((0.0, 0.0, 0.0), dims, v)
    solid = draw(st.lists(boxes(v, dims), min_size=1, max_size=3))
    tris = [draw(plane_triangle(v, dims))] if draw(st.booleans()) else None
    scene = Scene(solid_boxes=solid, triangles=tris)
    truth = scene_occupancy(scene, grid)

    # the map: each cell unknown with some chance, else known; structure cells
    # may be known FREE, as a ray crossing part of the cell leaves them
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_unknown = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    cells = np.where(truth, rng.choice((FREE, OCCUPIED), size=dims), FREE).astype(np.uint8)
    cells[rng.random(dims) < p_unknown] = UNKNOWN

    # a sensor at a cell centre, so a range in half voxels ends on a voxel plane
    cell = np.array([draw(st.integers(0, n - 1)) for n in dims])
    position = (cell + 0.5) * v
    if draw(st.booleans()):
        position = position + np.array([draw(st.floats(-0.45, 0.45)) for _ in range(3)]) * v
    reach = draw(st.one_of(st.integers(1, 2 * max(dims)).map(lambda k: (k + 0.5) * v),
                           st.floats(0.5, 2.0 * max(dims) * v)))
    lidar = LidarConfig(range=reach, beams=draw(st.sampled_from([1, 2, 5])),
                        azimuth_steps=draw(st.sampled_from([4, 8, 12, 30])))
    t = draw(st.one_of(st.just(LEVEL), st.floats(0.0, 8.0)))
    yaw = draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
    return grid, scene, truth, cells, position, yaw, lidar, t


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(firing=firings())
def test_culled_firing_equals_the_unculled_firing_on_random_scenes(firing):
    grid, scene, truth, cells, position, yaw, lidar, t = firing
    expected = OccupancyMap(grid, cells.copy())
    suppressed = reference_fire(expected, truth, position, yaw, scene, lidar, t)
    got = OccupancyMap(grid, cells.copy())
    got_suppressed = engine._fire(got, FiringGuard(grid, truth), position, yaw, scene, lidar, t)
    assert np.array_equal(got.cells, expected.cells)
    assert got_suppressed <= suppressed
    # the hit rule: no firing marks a cell the structure does not occupy
    assert not np.any((got.cells == OCCUPIED) & ~truth)


# --- the two ways a firing can change a known map ---------------------------------

def test_a_hit_at_full_range_on_a_voxel_plane_is_cast():
    # the -x beam ends on the plane x = 6; its nudged hit lies in cell 0,
    # one cell past the cell at full range
    grid = VoxelGrid((0.0, 0.0, 0.0), (4, 1, 1), 2.0)
    scene = Scene(solid_boxes=[BoundingBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))])
    truth = scene_occupancy(scene, grid)
    cells = np.array([UNKNOWN, FREE, FREE, FREE], dtype=np.uint8).reshape(grid.dims)
    position = np.array([7.0, 1.0, 1.0])
    lidar = LidarConfig(range=5.0, beams=1, azimuth_steps=2)
    expected = OccupancyMap(grid, cells.copy())
    reference_fire(expected, truth, position, 0.0, scene, lidar, LEVEL)
    got = OccupancyMap(grid, cells.copy())
    engine._fire(got, FiringGuard(grid, truth), position, 0.0, scene, lidar, LEVEL)
    assert expected.cells[0, 0, 0] == OCCUPIED
    assert np.array_equal(got.cells, expected.cells)


def test_a_free_structure_cell_keeps_its_firing():
    # no cell is unknown, but a hit can still turn the free structure cell
    grid = VoxelGrid((0.0, 0.0, 0.0), (4, 1, 1), 2.0)
    scene = Scene(solid_boxes=[BoundingBox((0.0, 0.0, 0.0), (1.0, 2.0, 2.0))])
    truth = scene_occupancy(scene, grid)
    cells = np.full(grid.dims, FREE, dtype=np.uint8)
    position = np.array([7.0, 1.0, 1.0])
    lidar = LidarConfig(range=10.0, beams=1, azimuth_steps=2)
    got = OccupancyMap(grid, cells.copy())
    engine._fire(got, FiringGuard(grid, truth), position, 0.0, scene, lidar, LEVEL)
    assert got.cells[0, 0, 0] == OCCUPIED


# --- the hit rule in a mission ------------------------------------------------------

def test_a_mission_that_suppresses_hits_warns_with_the_count():
    # a mesh in the voxel plane z = 18 faces up; the explorer below it hits
    # it from behind, and each nudged hit lands in the empty cell above
    tri = [[(6.0, 6.0, 18.0), (30.0, 6.0, 18.0), (6.0, 30.0, 18.0)]]
    scene = Scene(triangles=tri,
                  inspection_boxes=[BoundingBox((0.0, 0.0, 0.0), (36.0, 36.0, 36.0))])
    cfg = MissionConfig(duration=1.0,
                        agents=(AgentSpec("explorer", (15.0, 15.0, 9.0)),
                                AgentSpec("photographer", (3.0, 3.0, 3.0))),
                        camera=CameraConfig(range=40.0),
                        lidar=LidarConfig(beams=8, azimuth_steps=60))
    with pytest.warns(UserWarning, match=r"\d+ LiDAR hits fell outside the structure"):
        result = run_mission(cfg, scene)
    assert result.suppressed_returns > 0
    truth = _Mission(cfg, scene).truth
    for occ in result.final_maps.values():
        assert not np.any((occ.cells == OCCUPIED) & ~truth)
