"""The LiDAR firing the mission makes, culled, against the firing of every ray.

The mission skips a firing whose map holds no cell it can change, or whose
cells one occluder's shadow holds, and casts only the rays whose box holds
one and, on a dense firing, whose line meets the box of those cells, every
explorer's firing of a tick in one sweep and one map update (engine._fire).
A cell counts only if a ray can change it (world.ReachMask).  The oracles
are the unculled firing, every ray cast and folded into the map under the
same hit rule, and the culled firing of one explorer at a time.  They must
all leave the same maps after every firing.  The shadow test has one more
oracle, reference_hides, which tests the segments to every corner of every
changeable cell against each occluder.
"""

import dataclasses
import math
import re
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_engine import bench_workload
from test_sensors import NO_SIGHT_LINES, sweep_from
from test_world import reference_on_grid
from uavinspect import cli, engine, sensors, world
from uavinspect.engine import AgentSpec, MissionConfig, _Mission, run_mission
from uavinspect.errors import OutOfBoundsError
from uavinspect.scene import Scene, line_of_sight, scatter_box_face_points, scene_occupancy
from uavinspect.sensors import CameraConfig, LidarConfig, lidar_directions
from uavinspect.world import (_BOX_PAD, _NUDGE, FREE, OCCUPIED, UNKNOWN, BoundingBox,
                              FiringGuard, OccupancyMap, VoxelGrid, integrate_points, reach_mask)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def field_keeps(guard, origin, dirs, reach, can_change=FiringGuard.can_change):
    """FiringGuard.can_change with its box field's cull alone."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(world, "_BOX_CULL_RAYS", math.inf)
        return can_change(guard, origin, dirs, reach)


@contextmanager
def lidar_range(reach):
    """A context in which the LiDAR reaches reach metres: the guard's cull and
    the sweep both read sensors._LIDAR_RANGE."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sensors, "_LIDAR_RANGE", reach)
        yield


def reference_fire(occ, truth, position, yaw, scene, lidar, t):
    """The unculled firing: every ray cast, the map updated under the hit rule."""
    hits, misses = sweep_from(position, scene, lidar_directions(yaw, lidar, t))
    return integrate_points(occ, position, hits[:, 0], hits[:, 1], misses, truth)


def explorer_fire(occ, guard, position, yaw, scene, lidar, t):
    """One explorer's culled firing on its own: its own sweep and map update."""
    if guard.at(occ, position).field is None:
        return 0
    dirs = lidar_directions(yaw, lidar, t)
    dirs = dirs[guard.can_change(position, dirs, sensors._LIDAR_RANGE)]
    if not len(dirs):
        return 0
    hits, misses = sweep_from(position, scene, dirs)
    return integrate_points(occ, position, hits[:, 0], hits[:, 1], misses, guard.truth,
                            guard.field)


def fire_one(occ, guard, position, yaw, scene, lidar, t):
    """The mission's firing with one explorer, on a fleet of one map: a view
    of occ's cells, so the firing writes occ."""
    return engine._fire(OccupancyMap(occ.grid, occ.cells[None]), [0], [guard],
                        np.asarray(position, dtype=float).reshape(1, 3), [yaw], scene, lidar, t,
                        NO_SIGHT_LINES)[0]


# --- the firing of a mission ---------------------------------------------------

def checked_run(cfg, scene, monkeypatch, stats):
    """Run a mission, checking every explorer's map against the unculled
    firing after each sense stage, and that the firing changes no cell the
    reach mask masks.  stats counts firings, skipped firings, firings from
    the flood, rays, the rays cast, the rays the guard's box culls and the
    firings a shadow hides, and the ticks on which a shadow hides every
    firing or hides one beside a firing that is cast."""
    cast = engine.lidar_sweep
    can_change = FiringGuard.can_change
    hides = FiringGuard.hides

    def hiding(guard, origin):
        hidden = hides(guard, origin)
        stats["hidden"] += hidden
        return hidden

    def culling(guard, origin, dirs, reach):
        kept = can_change(guard, origin, dirs, reach)
        stats["box_culled"] += int(np.count_nonzero(field_keeps(guard, origin, dirs, reach))
                                   - np.count_nonzero(kept))
        return kept

    def counting(origins, scene, dirs, hit_mask, segments, clear):
        # one sweep casts the firings of several explorers, one origin each;
        # the sight lines that ride along are neither rays nor origins of a firing
        stats["cast"] += len(dirs)
        stats["swept"] += len(np.unique(origins, axis=0))
        return cast(origins, scene, dirs, hit_mask, segments, clear)

    sense = _Mission._sense

    def checked(self, k, t):
        expected = {}
        for a in self.agents:
            if a.spec.kind == "explorer":
                occ = a.occ.copy()
                stats["reference_suppressed"] += reference_fire(
                    occ, self.truth, self.position[a.id], self.yaw[a.id], self.scene,
                    self.cfg.lidar, t)
                reach = self.reach
                g = (self.position[a.id] - self.grid.origin_arr) / self.grid.voxel_size
                if reach is None or reach.holds(g, np.floor(g).astype(np.int64)):
                    # a sensor in the flood changes no masked cell
                    assert reach is None or reach.cells[occ.cells != a.occ.cells].all(), (k, a.id)
                    stats["in_flood"] += 1
                expected[a.id] = occ
                stats["firings"] += 1
                stats["rays"] += self.cfg.lidar.beams * self.cfg.lidar.azimuth_steps
        swept, hidden = stats["swept"], stats["hidden"]
        clear = sense(self, k, t)
        swept, hidden = stats["swept"] - swept, stats["hidden"] - hidden
        stats["skipped"] += len(expected) - swept
        if hidden == len(expected):
            stats["all hidden"] += 1
        elif hidden and swept:
            stats["hidden beside a firing"] += 1
        for aid, occ in expected.items():
            assert np.array_equal(self.agents[aid].occ.cells, occ.cells), (k, aid)
        return clear

    monkeypatch.setattr(engine, "lidar_sweep", counting)
    monkeypatch.setattr(FiringGuard, "can_change", culling)
    monkeypatch.setattr(FiringGuard, "hides", hiding)
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


def explorer_last(cfg, scene):
    """The mission with its fleet in reverse order: the explorer fires into
    the last row of the maps."""
    return dataclasses.replace(cfg, agents=cfg.agents[::-1]), scene


def lone_explorer(cfg, scene):
    """The mission with its first agent alone: a fleet with no agent pair,
    whose firings cast no sight line."""
    return dataclasses.replace(cfg, agents=cfg.agents[:1]), scene


SHORT_RUNS = {
    # the guard's box first culls at tick 71, and a shadow first hides a
    # firing at tick 72
    "desk_box": lambda: workload("desk_box", 150),
    "desk_box, explorer last": lambda: explorer_last(*workload("desk_box", 30)),
    "desk_box, lone explorer": lambda: lone_explorer(*workload("desk_box", 100)),
    # a shadow first hides one of the two explorers' firings at tick 162,
    # and both at tick 280
    "fleet_fine": lambda: workload("fleet_fine", 300),
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
        assert stats["in_flood"] == stats["firings"], name
        if name == "desk_box":
            assert stats["box_culled"] > 0
            assert stats["hidden"] > 0
        if name == "fleet_fine":
            assert stats["hidden beside a firing"] > 0
            assert stats["all hidden"] > 0
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
    assert guard.at(occ, np.array([3.0, 3.0, 3.0])).field is not None
    occ.cells[1, 1, 1] = FREE
    assert guard.at(occ, np.array([3.0, 3.0, 3.0])).field is None


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
def scenes(draw):
    """A scene on a small grid, its structure cells, a LiDAR and its range."""
    v = draw(st.sampled_from([2.0, 3.0, 6.0]))
    dims = tuple(draw(st.integers(3, 6)) for _ in range(3))
    grid = VoxelGrid((0.0, 0.0, 0.0), dims, v)
    solid = draw(st.lists(boxes(v, dims), min_size=1, max_size=3))
    tris = [draw(plane_triangle(v, dims))] if draw(st.booleans()) else None
    scene = Scene(solid_boxes=solid, triangles=tris)
    # a sensor at a cell centre, so a range in half voxels ends on a voxel plane
    reach = draw(st.one_of(st.integers(1, 2 * max(dims)).map(lambda k: (k + 0.5) * v),
                           st.floats(0.5, 2.0 * max(dims) * v)))
    lidar = LidarConfig(beams=draw(st.sampled_from([1, 2, 5])),
                        azimuth_steps=draw(st.sampled_from([4, 8, 12, 30])))
    return grid, scene, scene_occupancy(scene, grid), lidar, reach


@st.composite
def maps_and_sensors(draw, grid, truth):
    """A partly known map, and a sensor's position and yaw on the grid."""
    # the map: each cell unknown with some chance, else known; structure cells
    # may be known FREE, as a ray crossing part of the cell leaves them
    dims, v = grid.dims, grid.voxel_size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_unknown = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    cells = np.where(truth, rng.choice((FREE, OCCUPIED), size=dims), FREE).astype(np.uint8)
    cells[rng.random(dims) < p_unknown] = UNKNOWN

    cell = np.array([draw(st.integers(0, n - 1)) for n in dims])
    position = (cell + 0.5) * v
    if draw(st.booleans()):
        position = position + np.array([draw(st.floats(-0.45, 0.45)) for _ in range(3)]) * v
    yaw = draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
    return cells, position, yaw


@st.composite
def firings(draw):
    """A scene on a small grid, a partly known map, a sensor and a LiDAR."""
    grid, scene, truth, lidar, reach = draw(scenes())
    cells, position, yaw = draw(maps_and_sensors(grid, truth))
    t = draw(st.one_of(st.just(LEVEL), st.floats(0.0, 8.0)))
    return grid, scene, truth, cells, position, yaw, lidar, reach, t


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(firing=firings())
def test_culled_firing_equals_the_unculled_firing_on_random_scenes(firing):
    grid, scene, truth, cells, position, yaw, lidar, lidar_reach, t = firing
    expected = OccupancyMap(grid, cells.copy())
    got = OccupancyMap(grid, cells.copy())
    reach = reach_mask(grid, scene.solid_boxes, [position])
    guard = FiringGuard(grid, truth, reach)
    with lidar_range(lidar_reach):
        suppressed = reference_fire(expected, truth, position, yaw, scene, lidar, t)
        got_suppressed = fire_one(got, guard, position, yaw, scene, lidar, t)
    assert np.array_equal(got.cells, expected.cells)
    if guard.masked:
        # a sensor in the flood changes no masked cell
        assert reach.cells[expected.cells != cells].all()
    assert got_suppressed <= suppressed
    # the hit rule: no firing marks a cell the structure does not occupy
    assert not np.any((got.cells == OCCUPIED) & ~truth)


def reference_can_change(guard, origin, dirs, reach):
    """FiringGuard.can_change with its end points in metres, floored,
    clamped and looked up by three index arrays."""
    grid = guard.grid
    v, lo, dims = grid.voxel_size, grid.origin_arr, np.asarray(grid.dims)
    ends = origin + dirs * reach + np.sign(dirs) * (2 * _NUDGE * v)
    end_cells = np.floor((ends - lo) / v).astype(np.int64)
    end_cells = np.clip(end_cells, 0, dims - 1)
    return guard.field[tuple(end_cells.T)]


@st.composite
def plane_firings(draw):
    """An axis-aligned firing, one level beam at four azimuths along the
    grid axes, from a sensor with some coordinates on voxel planes, out to a
    range that from a plane or a cell centre ends on a plane."""
    grid, scene, truth, _, _ = draw(scenes())
    cells, position, _ = draw(maps_and_sensors(grid, truth))
    v = grid.voxel_size
    # a coordinate as drawn, or on the plane below or above it on the grid
    position = np.array([draw(st.sampled_from([p, k * v] + [(k + 1) * v] * (k + 1 < n)))
                         for p, k, n in zip(position.tolist(),
                                            np.floor(position / v).astype(int).tolist(),
                                            grid.dims)])
    reach = draw(st.integers(1, 4 * max(grid.dims))) * v / 2
    lidar = LidarConfig(beams=1, azimuth_steps=4)
    yaw = draw(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]))
    return grid, scene, truth, cells, position, yaw, lidar, reach, LEVEL


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(firing=st.one_of(firings(), plane_firings()))
def test_the_cull_in_grid_units_keeps_every_ray_the_cull_in_metres_keeps(firing):
    grid, scene, truth, cells, position, yaw, lidar, reach, t = firing
    guard = FiringGuard(grid, truth, reach_mask(grid, scene.solid_boxes, [position]))
    if guard.at(OccupancyMap(grid, cells), position).field is None:
        return
    dirs = lidar_directions(yaw, lidar, t)
    kept = guard.can_change(position, dirs, reach)
    assert kept[reference_can_change(guard, position, dirs, reach)].all()


@st.composite
def dense_firings(draw):
    """A map known but for a small cluster of changeable cells, on a grid of
    1-6 m voxels and 3-12 cells a side with solid boxes, and a dense firing
    at it: a LiDAR pattern, and rays aimed a few hundredths of a voxel
    inside the cluster cells' corners and edges, some of them with a zero
    component.  The sensor lies on the grid, on voxel planes or off the
    grid."""
    v = draw(st.sampled_from([1.0, 2.5, 4.0, 6.0]))
    dims = tuple(draw(st.integers(3, 12)) for _ in range(3))
    grid = VoxelGrid((0.0, 0.0, 0.0), dims, v)
    scene = Scene(solid_boxes=draw(st.lists(boxes(v, dims), min_size=1, max_size=3)))
    truth = scene_occupancy(scene, grid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    # the cluster: UNKNOWN cells, and FREE cells of the structure
    cells = np.where(truth, OCCUPIED, FREE).astype(np.uint8)
    centre = rng.integers(0, dims)
    cluster = np.clip(centre + rng.integers(-1, 2, (draw(st.integers(1, 6)), 3)),
                      0, np.subtract(dims, 1))
    for c in map(tuple, cluster):
        cells[c] = FREE if truth[c] and rng.random() < 0.5 else UNKNOWN

    size = np.multiply(dims, v)
    position = rng.uniform(0.0, size)
    place = draw(st.sampled_from(["grid", "plane", "off"]))
    if place == "plane":
        snap = rng.random(3) < 0.5
        snap[rng.integers(3)] = True
        position = np.where(snap, np.floor(position / v) * v, position)
    elif place == "off":
        out = rng.random(3) < 0.5
        out[rng.integers(3)] = True
        beyond = rng.uniform(0.1, 2.0, 3) * v
        position = np.where(out, np.where(rng.random(3) < 0.5, -beyond, size + beyond), position)

    # aim points a hair inside each cluster cell, near its corners and edges
    inset = np.array([0.01, 0.03, 0.5, 0.97, 0.99])
    offsets = inset[rng.integers(0, len(inset), (40, 3))]
    targets = (cluster[rng.integers(0, len(cluster), 40)] + offsets) * v
    aimed = targets - position
    zeroed = np.flatnonzero(rng.random(40) < 0.3)
    aimed[zeroed, rng.integers(0, 3, len(zeroed))] = 0.0   # a zero component
    aimed = aimed[np.linalg.norm(aimed, axis=1) > 0]
    axes = np.vstack([np.eye(3), -np.eye(3)])
    reach = draw(st.floats(5.0, 80.0))
    lidar = LidarConfig(beams=draw(st.sampled_from([4, 8, 16])),
                        azimuth_steps=draw(st.sampled_from([30, 90, 180])))
    pattern = lidar_directions(draw(st.floats(-math.pi, math.pi)), lidar,
                               draw(st.one_of(st.just(LEVEL), st.floats(0.0, 8.0))))
    dirs = np.vstack([pattern, aimed / np.linalg.norm(aimed, axis=1)[:, None], axes])
    return grid, scene, truth, cells, position, reach, dirs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(firing=dense_firings())
def test_a_ray_the_box_culls_changes_nothing(firing):
    # every ray that the field keeps but the box culls, cast and folded in
    # unculled, leaves the map as it is; the box runs on firings of any size
    grid, scene, truth, cells, position, lidar_reach, dirs = firing
    on_grid = np.all((position >= 0) & (position < np.multiply(grid.dims, grid.voxel_size)))
    reach = reach_mask(grid, scene.solid_boxes, [position]) if on_grid else None
    guard = FiringGuard(grid, truth, reach)
    if guard.at(OccupancyMap(grid, cells), position).field is None:
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(world, "_BOX_CULL_RAYS", 0)
        kept = guard.can_change(position, dirs, lidar_reach)
    field = field_keeps(guard, position, dirs, lidar_reach)
    assert not np.any(kept & ~field)
    culled = field & ~kept
    occ = OccupancyMap(grid, cells.copy())
    with lidar_range(lidar_reach):
        hits, misses = sweep_from(position, scene, dirs[culled])
    integrate_points(occ, position, hits[:, 0], hits[:, 1], misses, truth)
    assert np.array_equal(occ.cells, cells)


@st.composite
def fleet_firings(draw):
    """A scene and the maps and sensors of two explorers firing at one time,
    one of whose maps may hold nothing to change: its structure cells
    OCCUPIED, the rest FREE."""
    grid, scene, truth, lidar, reach = draw(scenes())
    fleet = [draw(maps_and_sensors(grid, truth)) for _ in range(2)]
    done = draw(st.sampled_from([None, None, None, 0, 1]))
    if done is not None:
        fleet[done] = (np.where(truth, OCCUPIED, FREE).astype(np.uint8), *fleet[done][1:])
    t = draw(st.one_of(st.just(LEVEL), st.floats(0.0, 8.0)))
    return grid, scene, truth, fleet, lidar, reach, t


def test_fleet_firing_equals_the_explorers_firing_apart(monkeypatch):
    # the examples are counted by how many of the two explorers fire: where
    # one does, the firing a mission makes for a lone explorer, here with the
    # pair's sight line riding along
    seen = Counter()
    update = engine.integrate_points

    def counting(occ_map, *args, **kwargs):
        seen[len(occ_map.cells)] += 1
        return update(occ_map, *args, **kwargs)

    monkeypatch.setattr(engine, "integrate_points", counting)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(firing=fleet_firings())
    def check(firing):
        grid, scene, truth, fleet, lidar, lidar_reach, t = firing
        expected = [OccupancyMap(grid, cells.copy()) for cells, _, _ in fleet]
        got = OccupancyMap(grid, np.stack([cells for cells, _, _ in fleet]))
        positions = np.array([position for _, position, _ in fleet])
        reach = reach_mask(grid, scene.solid_boxes, positions)
        # the pair's sight line rides in the sweep
        segment = (positions[:1], positions[1:])
        with lidar_range(lidar_reach):
            suppressed = sum(explorer_fire(occ, FiringGuard(grid, truth), position, yaw, scene,
                                           lidar, t)
                             for occ, (_, position, yaw) in zip(expected, fleet))
            got_suppressed, clear = engine._fire(got, [0, 1],
                                                 [FiringGuard(grid, truth, reach) for _ in fleet],
                                                 positions, [yaw for _, _, yaw in fleet], scene,
                                                 lidar, t, segment)
        for cells, want in zip(got.cells, expected):
            assert np.array_equal(cells, want.cells)
        assert got_suppressed == suppressed
        assert clear.tolist() == line_of_sight(scene, *segment).tolist()

    check()
    assert seen[1] >= 20 and seen[2] >= 20, seen


def test_a_lone_firing_writes_only_its_own_row():
    # the explorer of fleet row 2 fires alone into a fleet of three maps,
    # with the fleet's sight lines riding along
    mission = _Mission(*workload("desk_box", 1))
    grid, truth, scene, lidar = mission.grid, mission.truth, mission.scene, mission.cfg.lidar
    rng = np.random.default_rng(3)
    cells = np.where(rng.random((3, *grid.dims)) < 0.3, FREE, UNKNOWN).astype(np.uint8)
    positions = mission.position[::-1].copy()
    yaws = [0.4, -1.1, 0.7]
    expected = OccupancyMap(grid, cells[2].copy())
    suppressed = explorer_fire(expected, FiringGuard(grid, truth, mission.reach), positions[2],
                               yaws[2], scene, lidar, 1.3)
    maps = OccupancyMap(grid, cells.copy())
    segments = (positions[mission.first], positions[mission.second])
    got_suppressed, clear = engine._fire(maps, [2], [FiringGuard(grid, truth, mission.reach)],
                                         positions, yaws, scene, lidar, 1.3, segments)
    assert np.array_equal(maps.cells[:2], cells[:2])
    assert not np.array_equal(maps.cells[2], cells[2])
    assert np.array_equal(maps.cells[2], expected.cells)
    assert got_suppressed == suppressed
    assert clear.tolist() == line_of_sight(scene, *segments).tolist()


# --- the two ways a firing can change a known map ---------------------------------

def test_a_hit_at_full_range_on_a_voxel_plane_is_cast(monkeypatch):
    # the -x beam ends on the plane x = 6; its nudged hit lies in cell 0,
    # one cell past the cell at full range
    grid = VoxelGrid((0.0, 0.0, 0.0), (4, 1, 1), 2.0)
    scene = Scene(solid_boxes=[BoundingBox((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))])
    truth = scene_occupancy(scene, grid)
    cells = np.array([UNKNOWN, FREE, FREE, FREE], dtype=np.uint8).reshape(grid.dims)
    position = np.array([7.0, 1.0, 1.0])
    monkeypatch.setattr(sensors, "_LIDAR_RANGE", 5.0)
    lidar = LidarConfig(beams=1, azimuth_steps=2)
    expected = OccupancyMap(grid, cells.copy())
    reference_fire(expected, truth, position, 0.0, scene, lidar, LEVEL)
    got = OccupancyMap(grid, cells.copy())
    fire_one(got, FiringGuard(grid, truth), position, 0.0, scene, lidar, LEVEL)
    assert expected.cells[0, 0, 0] == OCCUPIED
    assert np.array_equal(got.cells, expected.cells)


def test_a_free_structure_cell_keeps_its_firing(monkeypatch):
    # no cell is unknown, but a hit can still turn the free structure cell
    grid = VoxelGrid((0.0, 0.0, 0.0), (4, 1, 1), 2.0)
    scene = Scene(solid_boxes=[BoundingBox((0.0, 0.0, 0.0), (1.0, 2.0, 2.0))])
    truth = scene_occupancy(scene, grid)
    cells = np.full(grid.dims, FREE, dtype=np.uint8)
    position = np.array([7.0, 1.0, 1.0])
    monkeypatch.setattr(sensors, "_LIDAR_RANGE", 10.0)
    lidar = LidarConfig(beams=1, azimuth_steps=2)
    got = OccupancyMap(grid, cells.copy())
    fire_one(got, FiringGuard(grid, truth), position, 0.0, scene, lidar, LEVEL)
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


# --- the cells no ray can reach ---------------------------------------------------

def test_the_desk_box_masks_exactly_its_cavity():
    mission = _Mission(*workload("desk_box", 1))
    cavity = np.zeros(mission.grid.dims, dtype=bool)
    cavity[3:5, 3:5, 3:5] = True
    assert np.array_equal(~mission.reach.cells, cavity)
    assert not np.any(mission.truth & cavity)         # air sealed in, not structure


def test_a_desk_box_map_known_outside_the_cavity_is_dead():
    # every cell known but the sealed cavity: no firing can change the map,
    # and the guard skips every firing without casting
    mission = _Mission(*workload("desk_box", 1))
    truth, scene, grid = mission.truth, mission.scene, mission.grid
    cells = np.where(truth, OCCUPIED, FREE).astype(np.uint8)
    cells[~mission.reach.cells] = UNKNOWN
    lidar = mission.cfg.lidar
    guard = FiringGuard(grid, truth, mission.reach)
    corners = [3.0, 45.0]
    positions = [mission.position[0]] + [np.array([x, y, z]) for x in corners
                                         for y in corners for z in corners]
    positions += [np.array([24.0, 24.0, 9.0]), np.array([24.0, 24.0, 39.0])]
    for position in positions:
        for yaw, t in [(0.0, LEVEL), (0.7, 0.0), (-2.0, 5.3)]:
            occ = OccupancyMap(grid, cells.copy())
            assert guard.at(occ, position).field is None
            reference_fire(occ, truth, position, yaw, scene, lidar, t)
            assert np.array_equal(occ.cells, cells), (position, yaw, t)


def test_a_triangle_only_scene_masks_nothing():
    # no mask, so no occluder: a guard never hides a firing, even on a steady map
    mission = _Mission(*workload("mesh_tower", 1))
    assert not mission.scene.solid_boxes
    assert mission.reach is None
    guard = FiringGuard(mission.grid, mission.truth, mission.reach)
    position = mission.position[0]
    for _ in range(2):
        assert guard.at(mission.agents[0].occ, position).field is not None
    assert guard.steady and not guard.hides(position)


def test_a_sensor_outside_the_flood_is_not_masked():
    # inside the desk cube's wall a sensor is off the flood, so its guard
    # counts every UNKNOWN cell
    mission = _Mission(*workload("desk_box", 1))
    grid, truth = mission.grid, mission.truth
    cells = np.where(truth, OCCUPIED, FREE).astype(np.uint8)
    cells[3, 3, 3] = UNKNOWN                               # sealed in the cavity
    guard = FiringGuard(grid, truth, mission.reach)
    occ = OccupancyMap(grid, cells)
    assert guard.at(occ, np.array([3.0, 24.0, 24.0])).field is None
    assert guard.at(occ, np.array([15.0, 24.0, 24.0])).field is not None


def test_a_ray_between_two_boxes_that_share_a_face_is_not_masked(monkeypatch):
    # the +x beam runs in the plane z = 12 that the two boxes share, so it
    # misses both and frees the cells above the plane; cell (3, 1, 2) has
    # no neighbour that either box leaves open
    grid = VoxelGrid((0.0, 0.0, 0.0), (6, 4, 4), 6.0)
    scene = Scene(solid_boxes=[BoundingBox((6.0, 0.0, 0.0), (30.0, 24.0, 12.0)),
                               BoundingBox((6.0, 0.0, 12.0), (30.0, 24.0, 24.0))])
    truth = scene_occupancy(scene, grid)
    position = np.array([3.0, 9.0, 12.0])
    monkeypatch.setattr(sensors, "_LIDAR_RANGE", 27.0)
    lidar = LidarConfig(beams=1, azimuth_steps=4)
    cells = np.where(truth, OCCUPIED, FREE).astype(np.uint8)
    cells[3, 1, 2] = UNKNOWN
    expected = OccupancyMap(grid, cells.copy())
    reference_fire(expected, truth, position, 0.0, scene, lidar, LEVEL)
    assert expected.cells[3, 1, 2] == FREE
    reach = reach_mask(grid, scene.solid_boxes, [position])
    got = OccupancyMap(grid, cells.copy())
    fire_one(got, FiringGuard(grid, truth, reach), position, 0.0, scene, lidar, LEVEL)
    assert np.array_equal(got.cells, expected.cells)


TICKS = 60


@st.composite
def hollow_missions(draw):
    """A short mission of one explorer by a hollow box of six walls, 1-2
    voxels thick and off the voxel planes by fractions of a voxel; some
    walls have an opening.  The explorer may start in the plane of a wall
    face, where its +x beam runs along the face at the first firing."""
    v = draw(st.sampled_from([3.0, 6.0]))
    share = st.sampled_from([0.0, 0.25, 0.5, 0.75])
    # per axis: the outer faces, the inner faces and the opening's edges
    outer_lo, inner_lo, inner_hi, outer_hi = [], [], [], []
    for _ in range(3):
        lo = (2 + draw(share)) * v
        inner = lo + draw(st.sampled_from([1.0, 1.25, 1.5, 2.0])) * v
        cavity = inner + draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])) * v
        outer_lo.append(lo)
        inner_lo.append(inner)
        inner_hi.append(cavity)
        outer_hi.append(cavity + draw(st.sampled_from([1.0, 1.5, 2.0])) * v)
    walls = []
    for axis in range(3):
        for lo_face in (True, False):
            lo, hi = list(outer_lo), list(outer_hi)
            if lo_face:
                hi[axis] = inner_lo[axis]
            else:
                lo[axis] = inner_hi[axis]
            walls.append((lo, hi, axis))
    opened = draw(st.one_of(st.none(), st.integers(0, 5)))
    boxes = []
    for n, (lo, hi, axis) in enumerate(walls):
        if n != opened:
            boxes.append(BoundingBox(tuple(lo), tuple(hi)))
            continue
        # the wall less a hole inside the cavity's face, as four boxes
        p, q = [a for a in range(3) if a != axis]
        hole = {}
        for a in (p, q):
            span = inner_hi[a] - inner_lo[a]
            start = inner_lo[a] + draw(st.sampled_from([0.0, 0.25])) * span
            hole[a] = (start, start + draw(st.sampled_from([0.25, 0.5, 0.75])) * span)
        for p_lo, p_hi, q_lo, q_hi in [(lo[p], hole[p][0], lo[q], hi[q]),
                                       (hole[p][1], hi[p], lo[q], hi[q]),
                                       (hole[p][0], hole[p][1], lo[q], hole[q][0]),
                                       (hole[p][0], hole[p][1], hole[q][1], hi[q])]:
            piece_lo, piece_hi = list(lo), list(hi)
            piece_lo[p], piece_hi[p], piece_lo[q], piece_hi[q] = p_lo, p_hi, q_lo, q_hi
            boxes.append(BoundingBox(tuple(piece_lo), tuple(piece_hi)))
    size = (max(outer_hi) // v + 2) * v
    outer = BoundingBox(tuple(outer_lo), tuple(outer_hi))
    scene = Scene(solid_boxes=boxes,
                  interest_points=scatter_box_face_points(outer, 20, draw(st.integers(0, 99))),
                  inspection_boxes=[BoundingBox((0.0, 0.0, 0.0), (size, size, size))])
    # y and z: a cell centre, or a face of the hollow box
    planes = [sorted(set(c[a] for b in boxes for c in (b.min_corner, b.max_corner)))
              for a in range(3)]
    start = (0.5 * v,) + tuple(draw(st.sampled_from([(k + 0.5) * v for k in range(3)]
                                                    + planes[a])) for a in (1, 2))
    cfg = MissionConfig(duration=TICKS * 0.1, agents=(AgentSpec("explorer", start),),
                        voxel_size=v, camera=CameraConfig(range=40.0),
                        lidar=LidarConfig(beams=3, azimuth_steps=draw(st.sampled_from([16, 24]))))
    return cfg, scene


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(mission=hollow_missions())
def test_culled_firings_equal_the_unculled_firing_by_hollow_boxes(mission):
    stats = Counter()
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked_run(*mission, monkeypatch, stats)
    assert stats["firings"] == stats["in_flood"] == TICKS


# --- the shadows of occluders ------------------------------------------------------

@pytest.mark.parametrize("build, boxes", [
    (lambda: workload("desk_box", 1), [((2, 2, 2), (6, 6, 6))]),
    (lambda: workload("fleet_fine", 1), [((3, 3, 3), (11, 11, 11))]),
    (lambda: shipped("twin_pillars", 1), [((2, 2, 1), (3, 3, 4)), ((5, 5, 1), (6, 6, 4))]),
], ids=["desk_box", "fleet_fine", "twin_pillars"])
def test_the_occluders_fuse_the_solid_boxes_with_the_cells_they_seal(build, boxes):
    # the desk cube's six walls and its cavity are one box; each pillar is its own
    mission = _Mission(*build())
    assert mission.reach.occluders == tuple(
        (tuple(a + _BOX_PAD for a in lo), tuple(b - _BOX_PAD for b in hi)) for lo, hi in boxes)


CORNERS = np.array([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


def in_shadow(g, box, cells):
    """Per cell (n, 3), whether the segments from the point g to the 8
    corners of the cell grown by _BOX_PAD all pass through the open box,
    all in grid units: the slab test, with division."""
    lo, hi = np.asarray(box, dtype=float)
    corners = cells[:, None, :] + 0.5 + CORNERS * (0.5 + _BOX_PAD)       # (n, 8, 3)
    d = corners - g
    with np.errstate(divide="ignore", invalid="ignore"):
        s, t = (lo - g) / d, (hi - g) / d
    enter, leave = np.minimum(s, t), np.maximum(s, t)
    still = d == 0.0
    inside = (lo < g) & (g < hi)
    enter = np.where(still, np.where(inside, -np.inf, np.inf), enter).max(axis=-1)
    leave = np.where(still, np.where(inside, np.inf, -np.inf), leave).min(axis=-1)
    return ((np.maximum(enter, 0.0) < np.minimum(leave, 1.0))).all(axis=1)


def reference_hides(guard, origin):
    """FiringGuard.hides by brute force: for a sensor in the flood, the
    segments from it to the 8 corners of every changeable cell grown by
    _BOX_PAD pass through one occluder, which by the convexity of a shadow
    puts every point of those cells in it."""
    if not guard.masked:
        return False
    g = guard.grid.coords(np.asarray(origin, dtype=float))
    cells = np.argwhere(guard.changeable)
    return any(in_shadow(g, box, cells).all() for box in guard.reach.occluders)


@st.composite
def hollow_box(draw, v, dims):
    """The six walls of a hollow box on the grid, each face on a voxel plane or off it."""
    wall = draw(st.sampled_from([0.5, 1.0, 1.5]))
    cavity = draw(st.sampled_from([0.5, 1.0, 2.0]))
    lo = [draw(st.one_of(st.integers(0, int(n - 2 * wall - cavity)),
                         st.floats(0.0, n - 2 * wall - cavity))) for n in dims]
    hi = [a + 2 * wall + cavity for a in lo]
    walls = []
    for axis in range(3):
        for face in ((lo[axis], lo[axis] + wall), (hi[axis] - wall, hi[axis])):
            a, b = list(lo), list(hi)
            a[axis], b[axis] = face
            walls.append(BoundingBox(tuple(x * v for x in a), tuple(x * v for x in b)))
    return walls, tuple((a + wall + cavity / 2) * v for a in lo)


@st.composite
def shadow_cases(draw):
    """Solid boxes on a small grid, a hollow box among them or not, the
    start the flood runs from, two sensors, the seed of a map, and a
    firing's yaw and time.  A sensor is the start, a point anywhere on the
    grid (in a box, maybe), the hollow box's centre or a point off the grid."""
    v = draw(st.sampled_from([1.0, 3.0, 6.0]))
    dims = tuple(draw(st.integers(5, 9)) for _ in range(3))
    grid = VoxelGrid((0.0, 0.0, 0.0), dims, v)
    solid = draw(st.lists(boxes(v, dims), max_size=2))
    centre = None
    if not solid or draw(st.booleans()):
        walls, centre = draw(hollow_box(v, dims))
        solid += walls
    start = np.array([draw(st.floats(0.0, n * v, exclude_max=True)) for n in dims])

    def sensor():
        kind = draw(st.sampled_from(["start", "start", "grid", "centre", "off"]))
        if kind == "start" or (kind == "centre" and centre is None):
            return start
        if kind == "centre":
            return np.array(centre)
        point = np.array([draw(st.floats(0.0, n * v, exclude_max=True)) for n in dims])
        if kind == "off":
            axis = draw(st.integers(0, 2))
            point[axis] = draw(st.sampled_from([-0.5, dims[axis] + 0.5])) * v
        return point

    sensors = [sensor(), sensor()]
    yaw = draw(st.floats(-math.pi, math.pi))
    t = draw(st.one_of(st.just(LEVEL), st.floats(0.0, 8.0)))
    return grid, Scene(solid_boxes=solid), start, sensors, draw(st.integers(0, 2**32 - 1)), yaw, t


def test_a_shadow_hides_only_a_firing_that_changes_nothing():
    # the changeable cells are some that one occluder shadows from the first
    # sensor, and perhaps a cell on the shadow's rim or anywhere; each sensor
    # fires on the map made steady, the second with the first's witness
    seen = Counter()
    lidar = LidarConfig(beams=8, azimuth_steps=60)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=shadow_cases())
    def check(case):
        grid, scene, start, sensors, seed, yaw, t = case
        reach = reach_mask(grid, scene.solid_boxes, [start])
        if reach is None:
            return
        truth = scene_occupancy(scene, grid)
        rng = np.random.default_rng(seed)
        cells = np.where(truth, OCCUPIED, FREE).astype(np.uint8)
        every = np.argwhere(np.ones(grid.dims, dtype=bool))
        chosen = every[rng.integers(len(every), size=int(rng.random() < 0.1))]
        if reach.occluders:
            box = reach.occluders[rng.integers(len(reach.occluders))]
            shadowed = every[in_shadow(grid.coords(sensors[0]), box, every)]
            # the rim: cells beside the shadow but not in it, where a shadow
            # reckoned too large would claim a cell
            near = np.abs(every[:, None] - shadowed[None]).max(axis=-1).min(axis=1, initial=2)
            rim = every[near == 1]
            on_rim = rng.integers(len(rim), size=int(len(rim) and rng.random() < 0.25))
            chosen = np.vstack([chosen, shadowed[rng.random(len(shadowed)) < 0.5], rim[on_rim]])
        cells[tuple(chosen.T)] = UNKNOWN
        guard = FiringGuard(grid, truth, reach)
        guard.at(OccupancyMap(grid, cells), sensors[0])
        for sensor in sensors:
            occ = OccupancyMap(grid, cells.copy())
            if guard.at(occ, sensor).field is None:
                continue
            assert guard.steady
            hidden = guard.hides(sensor)
            seen["examples"] += 1
            seen["hidden"] += hidden
            if not guard.masked:
                assert not hidden
            if hidden:
                assert reference_hides(guard, sensor)
                reference_fire(occ, truth, sensor, yaw, scene, lidar, t)
                assert np.array_equal(occ.cells, cells)

    check()
    assert seen["hidden"] > 0.25 * seen["examples"], seen


# --- the grid's domain ----------------------------------------------------------

def off_grid(dims):
    """Points off a grid of dims, in grid units: below every face, above
    every face, and below one face only."""
    return [(-0.5, -0.5, -0.5), tuple(n + 0.5 for n in dims), (-0.5, 1.5, 1.5)]


@pytest.mark.parametrize("start", off_grid((4, 4, 4)) + [(math.nan, math.nan, math.nan)])
def test_a_reach_mask_start_off_the_grid_is_named(start):
    # a negative lattice element is a numpy index that wraps to the far
    # corner's, and one past the lattice an IndexError: the start is named
    # before either
    grid = VoxelGrid((0.0, 0.0, 0.0), (4, 4, 4), 1.0)
    box = BoundingBox((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
    assert reach_mask(grid, [box], [(0.5, 0.5, 0.5)]) is not None
    problem = "outside grid" if all(map(math.isfinite, start)) else "is not finite"
    with pytest.raises(OutOfBoundsError, match=re.escape(f"point {list(start)} {problem}")):
        reach_mask(grid, [box], [(0.5, 0.5, 0.5), start])


def axis_coordinates(v, n):
    """A coordinate on a voxel plane (the faces among them), a hair either
    side of a face, anywhere near the grid of n cells of v, or NaN."""
    faces = [0.0, n * v]
    return st.one_of(st.integers(-2, n + 2).map(lambda k: k * v),
                     st.sampled_from([f + s for f in faces for s in (-1e-9 * v, 1e-9 * v)]
                                     + [np.nextafter(f, d) for f in faces
                                        for d in (-math.inf, math.inf)]),
                     st.floats(-2.0 * v, (n + 2) * v),
                     st.just(math.nan))


@st.composite
def domain_cases(draw):
    """A firing on a small grid, points around the grid, and int cells on
    it and off it."""
    grid, scene, truth, cells, position, yaw, lidar, lidar_reach, t = draw(firings())
    v, dims = grid.voxel_size, grid.dims
    points = np.array(draw(st.lists(st.tuples(*(axis_coordinates(v, n) for n in dims)),
                                    min_size=1, max_size=8)))
    ints = draw(hnp.arrays(np.int64, st.tuples(st.integers(0, 12), st.just(3)),
                           elements=st.integers(-3, max(dims) + 2)))
    return grid, scene, truth, cells, position, yaw, lidar, lidar_reach, t, points, ints


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=domain_cases(), dense=st.booleans())
def test_the_grid_checks_its_domain_and_a_firing_off_it_equals_the_unculled_one(case, dense):
    grid, scene, truth, cells, position, yaw, lidar, lidar_reach, t, points, ints = case
    # voxels: the floor of each point on the grid, or OutOfBoundsError
    # naming it; a batch names its first point off the grid
    ref = np.floor((points - grid.origin_arr) / grid.voxel_size)
    finite = np.isfinite(points).all(axis=1)
    on = finite & reference_on_grid(ref, grid.dims)
    for p, cell, ok, real in zip(points, ref, on, finite):
        if ok:
            assert grid.voxels(p).tolist() == cell.astype(np.int64).tolist()
        else:
            with pytest.raises(OutOfBoundsError, match="outside grid" if real else "is not finite"):
                grid.voxels(p)
    if on.all():
        assert np.array_equal(grid.voxels(points), ref.astype(np.int64))
    else:
        named = re.escape(f"point {points[np.argmin(on)].tolist()} ")
        with pytest.raises(OutOfBoundsError, match=named):
            grid.voxels(points)
    # on_grid: the axis reduction, on int cells and on the points' floors
    assert np.array_equal(grid.on_grid(ints), reference_on_grid(ints, grid.dims))
    assert np.array_equal(grid.on_grid(ref[finite].astype(np.int64)), on[finite])

    # a firing from a sensor off the grid, culled by a guard by the field
    # alone or by the field and the box, leaves the map of the unculled one
    off = [p for p, ok, real in zip(points, on, finite) if real and not ok][:2]
    reach = reach_mask(grid, scene.solid_boxes, [position])
    for sensor in list(np.multiply(off_grid(grid.dims), grid.voxel_size)) + off:
        expected = OccupancyMap(grid, cells.copy())
        got = OccupancyMap(grid, cells.copy())
        guard = FiringGuard(grid, truth, reach)
        with lidar_range(lidar_reach), pytest.MonkeyPatch.context() as monkeypatch:
            reference_fire(expected, truth, sensor, yaw, scene, lidar, t)
            monkeypatch.setattr(world, "_BOX_CULL_RAYS", 0 if dense else math.inf)
            fire_one(got, guard, sensor, yaw, scene, lidar, t)
        assert not guard.masked
        assert np.array_equal(got.cells, expected.cells)
