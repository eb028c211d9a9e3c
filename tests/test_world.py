import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavinspect.errors import (ConfigurationError, GridMismatchError,
                               OutOfBoundsError)
from uavinspect.scene import Scene, ray_cast_batch, scene_occupancy
from uavinspect.world import (FREE, OCCUPIED, UNKNOWN, BoundingBox,
                              OccupancyMap, VoxelGrid,
                              _segment_cells, build_grid, carve_free,
                              compute_operational_volume, integrate_points, load_map,
                              merge_maps, save_map, voxel_to_world, world_to_voxel)

STATES = (UNKNOWN, FREE, OCCUPIED)


def ray_dirs(origin, hits):
    """The unit direction of each hit's ray from origin; zero for a hit at
    the origin."""
    rel = np.asarray(hits, dtype=float).reshape(-1, 3) - np.asarray(origin, dtype=float)
    lengths = np.linalg.norm(rel, axis=1)[:, None]
    return np.divide(rel, lengths, out=np.zeros_like(rel), where=lengths > 1e-12)


def make_map(dims, voxel=6.0, origin=(0.0, 0.0, 0.0)):
    grid = VoxelGrid(origin, dims, voxel)
    return OccupancyMap(grid)


# --- operational volume ---------------------------------------------------

def test_volume_is_padded_min_max_of_boxes_and_positions():
    boxes = [BoundingBox((0, 0, 0), (10, 10, 10))]
    vol = compute_operational_volume(boxes, [(-5.0, 2.0, 3.0)], voxel_size=6.0)
    assert vol.min_corner == (-11.0, -6.0, -6.0)
    assert vol.max_corner == (16.0, 16.0, 16.0)


def test_volume_positions_inside_boxes_change_nothing():
    boxes = [BoundingBox((0, 0, 0), (1, 1, 1))]
    vol = compute_operational_volume(boxes, [(0.5, 0.5, 0.5)], voxel_size=2.0)
    assert vol.min_corner == (-2.0, -2.0, -2.0)
    assert vol.max_corner == (3.0, 3.0, 3.0)


def test_volume_scenario_scale():
    boxes = [BoundingBox((0, 0, 0), (140, 60, 60))]
    vol = compute_operational_volume(boxes, [(5.0, 5.0, 5.0)], voxel_size=6.0)
    assert np.allclose(vol.hi - vol.lo, [140 + 12, 60 + 12, 60 + 12])


def test_volume_rejects_empty_inputs():
    with pytest.raises(ConfigurationError):
        compute_operational_volume([], [(0, 0, 0)], 6.0)
    with pytest.raises(ConfigurationError):
        compute_operational_volume([BoundingBox((0, 0, 0), (1, 1, 1))], [], 6.0)


# --- grid -----------------------------------------------------------------

def test_grid_dims_exact_division():
    vol = BoundingBox((0, 0, 0), (12, 12, 6))
    assert build_grid(vol, 6.0).dims == (2, 2, 1)


def test_grid_dims_round_up():
    vol = BoundingBox((0, 0, 0), (13, 12, 6))
    assert build_grid(vol, 6.0).dims == (3, 2, 1)


def test_grid_rejects_bad_voxel_size():
    vol = BoundingBox((0, 0, 0), (12, 12, 6))
    with pytest.raises(ConfigurationError):
        build_grid(vol, 0.0)
    with pytest.raises(ConfigurationError):
        build_grid(vol, -1.0)


@pytest.mark.parametrize("origin, voxel", [
    ((0.0, 0.0, 0.0), math.nan),
    ((0.0, 0.0, 0.0), math.inf),
    ((0.0, 0.0, 0.0), 0.0),
    ((0.0, 0.0, 0.0), -1.0),
    ((math.nan, 0.0, 0.0), 1.0),
    ((0.0, -math.inf, 0.0), 1.0),
], ids=["nan-voxel", "inf-voxel", "zero-voxel", "negative-voxel", "nan-origin", "inf-origin"])
def test_grid_rejects_non_finite_or_non_positive_values(origin, voxel):
    with pytest.raises(ConfigurationError):
        VoxelGrid(origin, (2, 2, 2), voxel)


def test_grid_origin_array_is_built_once_and_read_only():
    grid = VoxelGrid((-1.0, 2.0, 0.5), (3, 4, 5), 2.5)
    arr = grid.origin_arr
    assert grid.origin_arr is arr
    assert arr.dtype == float and arr.tolist() == [-1.0, 2.0, 0.5]
    with pytest.raises(ValueError):
        arr[0] = 9.0
    same = VoxelGrid((-1.0, 2.0, 0.5), (3, 4, 5), 2.5)
    assert same == grid and hash(same) == hash(grid)
    moved = dataclasses.replace(grid, origin=(0.0, 0.0, 0.0))
    assert moved != grid and moved.origin_arr.tolist() == [0.0, 0.0, 0.0]
    assert dataclasses.replace(grid) == grid


# --- voxel indexing -------------------------------------------------------

def test_world_to_voxel_basics():
    grid = VoxelGrid((0, 0, 0), (4, 4, 4), 6.0)
    assert world_to_voxel(grid, (1, 1, 1)) == (0, 0, 0)
    assert world_to_voxel(grid, (6, 0, 0)) == (1, 0, 0)   # boundary -> upper voxel
    assert np.allclose(voxel_to_world(grid, (0, 0, 0)), (3, 3, 3))


def test_world_to_voxel_out_of_bounds():
    grid = VoxelGrid((0, 0, 0), (2, 2, 2), 6.0)
    with pytest.raises(OutOfBoundsError):
        world_to_voxel(grid, (-0.01, 0, 0))
    with pytest.raises(OutOfBoundsError):
        world_to_voxel(grid, (12.0, 0, 0))
    with pytest.raises(OutOfBoundsError):
        voxel_to_world(grid, (2, 0, 0))


def test_voxel_center_roundtrip_is_exact():
    grid = VoxelGrid((-7.0, 3.0, -2.5), (5, 4, 6), 1.7)
    for voxel in itertools.product(range(5), range(4), range(6)):
        center = voxel_to_world(grid, voxel)
        assert world_to_voxel(grid, center) == voxel


# --- integration of range hits --------------------------------------------

def crossed_cells_oracle(grid, origin, end):
    """Cells with positive segment overlap, excluding the end cell: slab test
    against every candidate voxel, independent of the stepping traversal."""
    v = grid.voxel_size
    o = (np.asarray(origin, dtype=float) - grid.origin_arr) / v
    e = (np.asarray(end, dtype=float) - grid.origin_arr) / v
    d = e - o
    lo = np.floor(np.minimum(o, e)).astype(int)
    hi = np.floor(np.maximum(o, e)).astype(int)
    end_cell = tuple(np.floor(e + np.sign(d) * 1e-9).astype(int))
    cells = set()
    for c in itertools.product(*(range(lo[a], hi[a] + 1) for a in range(3))):
        t0, t1 = 0.0, 1.0
        ok = True
        for a in range(3):
            if abs(d[a]) < 1e-15:
                if not (c[a] <= o[a] <= c[a] + 1):
                    ok = False
                    break
            else:
                ta = (c[a] - o[a]) / d[a]
                tb = (c[a] + 1 - o[a]) / d[a]
                if ta > tb:
                    ta, tb = tb, ta
                t0, t1 = max(t0, ta), min(t1, tb)
        if ok and t1 - t0 > 1e-9 and c != end_cell:
            cells.add(c)
    return cells


def test_single_hit_marks_voxel_occupied():
    m = make_map((4, 4, 4), voxel=1.0)
    integrate_points(m, (0.5, 0.5, 0.5), [(2.5, 1.5, 0.5)], ray_dirs((0.5, 0.5, 0.5), [(2.5, 1.5, 0.5)]))
    assert m.cells[2, 1, 0] == OCCUPIED


def test_ray_marks_crossed_voxels_free_then_hit_occupied():
    m = make_map((6, 1, 1), voxel=1.0)
    integrate_points(m, (0.5, 0.5, 0.5), [(3.5, 0.5, 0.5)], ray_dirs((0.5, 0.5, 0.5), [(3.5, 0.5, 0.5)]))
    assert m.cells[0, 0, 0] == FREE
    assert m.cells[1, 0, 0] == FREE
    assert m.cells[2, 0, 0] == FREE
    assert m.cells[3, 0, 0] == OCCUPIED
    assert m.cells[4, 0, 0] == UNKNOWN


def test_empty_hits_leave_map_unchanged():
    m = make_map((3, 3, 3))
    before = m.cells.copy()
    integrate_points(m, (1, 1, 1), [], [])
    assert np.array_equal(m.cells, before)


def test_hits_outside_grid_are_dropped():
    m = make_map((2, 2, 2), voxel=1.0)
    integrate_points(m, (0.5, 0.5, 0.5), [(10.0, 0.5, 0.5)], ray_dirs((0.5, 0.5, 0.5), [(10.0, 0.5, 0.5)]))
    assert np.count_nonzero(m.cells == OCCUPIED) == 0


def test_boundary_hits_attach_to_the_surface_side():
    # wall voxel index 2 spans [12, 18); rays from both sides hit its faces
    m = make_map((8, 1, 1), voxel=6.0, origin=(0, 0, 0))
    integrate_points(m, (3.0, 3.0, 3.0), [(12.0, 3.0, 3.0)], ray_dirs((3.0, 3.0, 3.0), [(12.0, 3.0, 3.0)]))
    assert m.cells[2, 0, 0] == OCCUPIED
    m2 = make_map((8, 1, 1), voxel=6.0, origin=(0, 0, 0))
    integrate_points(m2, (21.0, 3.0, 3.0), [(18.0, 3.0, 3.0)], ray_dirs((21.0, 3.0, 3.0), [(18.0, 3.0, 3.0)]))
    assert m2.cells[2, 0, 0] == OCCUPIED
    assert m2.cells[3, 0, 0] == FREE


def test_a_hit_at_the_sensor_is_not_nudged():
    # the sensor sits on the plane x = 6 between cells 0 and 1; nudged back
    # along its ray, a hit there would land in cell 0
    m = make_map((3, 1, 1), voxel=6.0)
    integrate_points(m, (6.0, 3.0, 3.0), [(6.0, 3.0, 3.0)], [(-1.0, 0.0, 0.0)])
    assert m.cells[1, 0, 0] == OCCUPIED and m.cells[0, 0, 0] == UNKNOWN
    m = make_map((3, 1, 1), voxel=6.0)
    integrate_points(m, (12.0, 3.0, 3.0), [(6.0, 3.0, 3.0)], [(-1.0, 0.0, 0.0)])
    assert m.cells[0, 0, 0] == OCCUPIED and m.cells[1, 0, 0] == FREE


def cast_and_integrate(scene, grid, origin, target):
    """Cast one ray from origin toward target and fold its hit into a blank
    map under the hit rule: (map, suppressed hits, structure cells)."""
    origin = np.asarray(origin, dtype=float)
    d = np.asarray(target, dtype=float) - origin
    d /= np.linalg.norm(d)
    hit, dist = ray_cast_batch(scene, origin, d[None], 50.0)
    assert hit[0]
    truth = scene_occupancy(scene, grid)
    m = OccupancyMap(grid)
    suppressed = integrate_points(m, origin, origin + d * dist[0], d, (), truth)
    return m, suppressed, truth


def test_a_hit_grazing_a_box_edge_marks_no_cell_beyond_it():
    # the ray meets the cube's top face 1e-7 m short of its +x edge; nudged
    # along the ray, the hit lands in the empty cell (6, 4, 5) beside it
    scene = Scene(solid_boxes=[BoundingBox((12.0, 12.0, 12.0), (36.0, 36.0, 36.0))])
    grid = VoxelGrid((0.0, 0.0, 0.0), (8, 8, 9), 6.0)
    m, suppressed, truth = cast_and_integrate(scene, grid, (20.0, 24.0, 45.0),
                                              (36.0 - 1e-7, 24.0, 36.0))
    assert suppressed == 1 and not truth[6, 4, 5]
    assert m.cells[6, 4, 5] == UNKNOWN
    assert not np.any((m.cells == OCCUPIED) & ~truth)
    assert m.cells[3, 4, 7] == FREE             # the ray still frees the cells before it


def test_a_hit_on_a_mesh_in_a_voxel_plane_from_behind_marks_no_cell_in_front():
    # the triangle in the plane z = 6 faces up and occupies layer z = 0 only;
    # hit from below, the nudged hit lands in the empty cell (0, 0, 1)
    scene = Scene(triangles=[[(1.0, 1.0, 6.0), (17.0, 1.0, 6.0), (1.0, 17.0, 6.0)]])
    grid = VoxelGrid((0.0, 0.0, 0.0), (4, 4, 4), 6.0)
    m, suppressed, truth = cast_and_integrate(scene, grid, (4.0, 4.0, 3.0), (4.0, 4.0, 9.0))
    assert truth[:, :, 0].any() and not truth[:, :, 1:].any()
    assert suppressed == 1
    assert m.cells[0, 0, 1] == UNKNOWN
    assert not np.any((m.cells == OCCUPIED) & ~truth)


def test_traversal_matches_slab_oracle_on_random_rays():
    rng = np.random.default_rng(11)
    grid = VoxelGrid((0, 0, 0), (10, 10, 10), 1.0)
    for _ in range(150):
        origin = rng.uniform(0.3, 9.7, 3)
        end = rng.uniform(0.3, 9.7, 3)
        m = OccupancyMap(grid)
        integrate_points(m, origin, [end], ray_dirs(origin, [end]))
        freed = {tuple(c) for c in np.argwhere(m.cells == FREE)}
        expected = crossed_cells_oracle(grid, origin, end)
        assert freed == expected


def test_integration_monotone_occupied_superset():
    rng = np.random.default_rng(5)
    grid = VoxelGrid((0, 0, 0), (8, 8, 8), 1.0)
    m = OccupancyMap(grid)
    previous = set()
    for _ in range(20):
        origin = rng.uniform(0.5, 7.5, 3)
        hits = rng.uniform(0.5, 7.5, (4, 3))
        integrate_points(m, origin, hits, ray_dirs(origin, hits))
        occupied = {tuple(c) for c in m.occupied_voxels()}
        assert previous <= occupied
        previous = occupied


# --- loop-free traversal against the stepping loop --------------------------

def stepping_segment_cells(grid, origin, ends, end_cells):
    """The grid traversal as a stepping loop, the oracle for _segment_cells:
    each round every segment still short of its end cell steps along the axis
    whose next plane crossing comes first (argmin: ties to the lower axis, a
    NaN first), and an axis stops once it reaches its end coordinate.
    Returns the cells round by round, each segment's origin cell first."""
    n = len(ends)
    if n == 0:
        return np.zeros((0, 3), dtype=np.int64)
    v = grid.voxel_size
    g0 = (origin - grid.origin_arr) / v
    start = np.floor(g0).astype(np.int64)
    rounds = np.abs(end_cells - start).sum(axis=1)
    order = np.argsort(-rounds, kind="stable")   # longest first: the rays still
    rounds = rounds[order]                       # stepping are always a prefix
    last = end_cells[order].astype(np.int64)
    d = (ends[order] - origin) / v
    cur = np.tile(start, (n, 1))
    step = np.sign(last - cur)
    with np.errstate(divide="ignore", invalid="ignore"):
        next_boundary = cur + (step > 0)
        t_max = np.where(step != 0, (next_boundary - g0) / d, np.inf)
        t_delta = np.where(step != 0, np.abs(1.0 / d), np.inf)
    stepping = np.searchsorted(-rounds, -np.arange(rounds[0] + 2), side="right")
    collected = [cur[:stepping[1]].copy()]
    for r in range(1, rounds[0] + 1):
        rows = np.arange(stepping[r])
        ax = np.argmin(t_max[rows], axis=1)
        cur[rows, ax] += step[rows, ax]
        t_max[rows, ax] += t_delta[rows, ax]
        reached = cur[rows, ax] == last[rows, ax]
        t_max[rows[reached], ax[reached]] = np.inf
        collected.append(cur[:stepping[r + 1]].copy())
    assert np.array_equal(cur, last), "grid traversal stopped short of its end cell"
    return np.vstack(collected)


def as_multiset(cells):
    return sorted(map(tuple, np.asarray(cells).tolist()))


def cells_of(grid, points):
    return np.floor((points - grid.origin_arr) / grid.voxel_size).astype(np.int64)


def assert_traversal_equals_stepping(grid, origin, ends, end_cells=None):
    """Each segment alone in path order, and all of them as one multiset."""
    origin = np.asarray(origin, dtype=float)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    end_cells = cells_of(grid, ends) if end_cells is None else np.asarray(end_cells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(len(ends)):
            got = _segment_cells(grid, origin, ends[i:i + 1], end_cells[i:i + 1])
            assert np.array_equal(
                got, stepping_segment_cells(grid, origin, ends[i:i + 1], end_cells[i:i + 1]))
        together = _segment_cells(grid, origin, ends, end_cells)
    assert together.shape == (np.abs(end_cells - cells_of(grid, origin)).sum(), 3)
    assert as_multiset(together) == as_multiset(
        stepping_segment_cells(grid, origin, ends, end_cells))


def test_traversal_ties_follow_the_lower_axis():
    grid = VoxelGrid((0.0, 0.0, 0.0), (6, 6, 6), 1.0)
    # diagonals from a centre and from a corner tie two and three axes at every plane
    assert_traversal_equals_stepping(grid, (0.5, 0.5, 0.5), [(3.5, 3.5, 0.5)])
    assert np.array_equal(
        _segment_cells(grid, np.array([0.5, 0.5, 0.5]), np.array([[2.5, 2.5, 0.5]]),
                       np.array([[2, 2, 0]])),
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0]])
    for origin, ends in (((0.5, 0.5, 0.5), [(3.5, 3.5, 3.5), (5.5, 0.5, 5.5)]),
                         ((1.0, 1.0, 1.0), [(4.0, 4.0, 4.0), (4.0, 1.0, 4.0)]),
                         ((4.0, 4.0, 4.0), [(1.0, 1.0, 1.0), (1.0, 4.0, 1.0),
                                            (1.5, 4.0, 0.5)]),
                         ((3.0, 2.5, 3.0), [(0.0, 2.5, 0.0), (6.0, 5.5, 0.0)])):
        assert_traversal_equals_stepping(grid, origin, ends)


def test_traversal_of_zero_length_and_empty_batches():
    grid = VoxelGrid((0.0, 0.0, 0.0), (4, 4, 4), 1.0)
    origin = np.array([1.2, 2.0, 3.0])
    assert _segment_cells(grid, origin, np.zeros((0, 3)), np.zeros((0, 3), int)).shape == (0, 3)
    assert_traversal_equals_stepping(grid, origin, [origin, (1.9, 2.7, 3.99), origin])
    assert_traversal_equals_stepping(grid, origin, [origin, (3.5, 0.5, 0.5), (1.2, 2.0, 3.0)])


def test_traversal_takes_a_nan_crossing_first():
    # an origin on the grid's upper x face, not moving along x, with its end
    # cell clipped onto the grid: the x crossing time is 0 / 0
    grid = VoxelGrid((0.0, 0.0, 0.0), (4, 4, 4), 1.0)
    origin = np.array([4.0, 1.5, 1.5])
    ends = np.array([[4.0, 3.5, 2.5], [4.0, 0.5, 1.5], [4.0, 1.5, 1.5]])
    end_cells = np.clip(cells_of(grid, ends), 0, 3)
    assert_traversal_equals_stepping(grid, origin, ends, end_cells)
    assert np.array_equal(_segment_cells(grid, origin, ends[:1], end_cells[:1]),
                          [[4, 1, 1], [3, 1, 1], [3, 2, 1], [3, 2, 2]])


def test_traversal_equals_stepping_on_random_rays():
    rng = np.random.default_rng(23)
    for grid in (VoxelGrid((0.0, 0.0, 0.0), (7, 5, 6), 1.0),
                 VoxelGrid((-4.5, 2.0, 1.0), (5, 6, 4), 3.0)):
        v, dims = grid.voxel_size, np.asarray(grid.dims)
        lo, hi = grid.origin_arr, grid.origin_arr + dims * v
        for _ in range(6):
            for origin in sensor_origins(grid, rng):
                ends = rng.uniform(lo - 2 * v, hi + 2 * v, (40, 3))
                ends[::2] = lo + v * np.round((ends[::2] - lo) / v * 2) / 2
                ends[::5] = lo + v * np.round((ends[::5] - lo) / v)   # voxel corners
                ends[1::7] = origin
                assert_traversal_equals_stepping(grid, origin, ends)


def test_long_rays_on_a_fine_grid_equal_the_stepping_loop():
    # many crossings per axis at a voxel size that is not a power of two:
    # summing |1/d| one crossing at a time differs from t0 + i * |1/d|
    rng = np.random.default_rng(29)
    grid = VoxelGrid((0.0, 0.0, 0.0), (40, 3, 25), 0.7)
    dims = np.asarray(grid.dims)
    for _ in range(40):
        origin = 0.7 * rng.integers(0, dims + 1)
        ends = 0.7 * rng.integers(0, dims + 1, (30, 3)).astype(float)
        ends[::3] = rng.uniform(0.0, dims * 0.7, (10, 3))
        assert_traversal_equals_stepping(grid, origin, ends)


# --- the box guard and the unknown-cell cull --------------------------------

def reference_segment_cells(grid, origin, ends, end_cells):
    """The stepping loop without the box guard: each axis steps by the sign of
    its displacement until the segment reaches its end cell or L1 + 4 rounds
    have run.  Returns the cells and, per segment, whether it arrived."""
    n = len(ends)
    if n == 0:
        return np.zeros((0, 3), dtype=np.int64), np.ones(0, dtype=bool)
    v = grid.voxel_size
    g0 = (origin - grid.origin_arr) / v
    d = (ends - origin) / v
    cur = np.tile(np.floor(g0).astype(np.int64), (n, 1))
    last = end_cells.astype(np.int64)
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        next_boundary = cur + (step > 0)
        t_max = np.where(step != 0, (next_boundary - g0) / d, np.inf)
        t_delta = np.where(step != 0, np.abs(1.0 / d), np.inf)
    active = np.any(cur != last, axis=1)
    collected = [cur[active].copy()]
    max_iter = int(np.abs(last - cur).sum(axis=1).max(initial=0)) + 4
    for _ in range(max_iter):
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        ax = np.argmin(t_max[rows], axis=1)
        cur[rows, ax] += step[rows, ax]
        t_max[rows, ax] += t_delta[rows, ax]
        arrived = np.all(cur[rows] == last[rows], axis=1)
        collected.append(cur[rows[~arrived]].copy())
        active[rows[arrived]] = False
    return np.vstack(collected), ~active


def _mark_free(occ_map, cells):
    ok = np.all((cells >= 0) & (cells < np.asarray(occ_map.grid.dims)), axis=1)
    cx, cy, cz = cells[ok].T
    unknown = occ_map.cells[cx, cy, cz] == UNKNOWN
    occ_map.cells[cx[unknown], cy[unknown], cz[unknown]] = FREE


def reference_integrate_points(occ_map, sensor_origin, hits):
    """integrate_points with every ray traversed by the reference loop.
    Returns the map and, per hit, whether its ray arrived (dropped hits count
    as arrived)."""
    hits = np.asarray(hits, dtype=float).reshape(-1, 3)
    origin = np.asarray(sensor_origin, dtype=float)
    grid = occ_map.grid
    v = grid.voxel_size
    rel = hits - origin
    lengths = np.linalg.norm(rel, axis=1)
    dirs = np.zeros_like(rel)
    moving = lengths > 1e-12
    dirs[moving] = rel[moving] / lengths[moving, None]
    nudged = hits + dirs * (1e-6 * v)
    cells_f = np.floor((nudged - grid.origin_arr) / v).astype(np.int64)
    inside = np.all((cells_f >= 0) & (cells_f < np.asarray(grid.dims)), axis=1)
    hit_cells = cells_f[inside]
    crossed, arrived = reference_segment_cells(grid, origin, nudged[inside], hit_cells)
    _mark_free(occ_map, crossed)
    occ_map.cells[hit_cells[:, 0], hit_cells[:, 1], hit_cells[:, 2]] = OCCUPIED
    all_arrived = np.ones(len(hits), dtype=bool)
    all_arrived[inside] = arrived
    return occ_map, all_arrived


def enters_grid(lo, hi, origin, end):
    """Whether the segment from origin to end meets the box lo..hi, clipping
    its parameter range [0, 1] axis by axis.  A segment with no motion along
    an axis meets the box only if lo <= origin < hi on that axis: boundary
    planes belong to the upper voxel."""
    t0, t1 = 0.0, 1.0
    for a in range(3):
        d = end[a] - origin[a]
        if d == 0.0:
            if not lo[a] <= origin[a] < hi[a]:
                return False
        else:
            ta, tb = sorted(((lo[a] - origin[a]) / d, (hi[a] - origin[a]) / d))
            t0, t1 = max(t0, ta), min(t1, tb)
    return t0 <= t1


def reference_carve_free(occ_map, sensor_origin, endpoints):
    """carve_free with every ray traversed by the reference loop, and a ray
    that never enters the grid dropped.  Returns the map and, per endpoint,
    whether its ray arrived (dropped rays count as arrived)."""
    endpoints = np.asarray(endpoints, dtype=float).reshape(-1, 3)
    origin = np.asarray(sensor_origin, dtype=float)
    grid = occ_map.grid
    v = grid.voxel_size
    dims = np.asarray(grid.dims)
    lo = grid.origin_arr
    hi = lo + dims * v
    enters = np.array([enters_grid(lo, hi, origin, p) for p in endpoints], dtype=bool)
    rel = endpoints[enters] - origin
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origin) / rel
        t2 = (hi - origin) / rel
        t_exit = np.nanmin(np.fmax(t1, t2), axis=1)
    t = np.clip(np.minimum(1.0, t_exit * (1.0 - 1e-9)), 0.0, 1.0)
    ends = origin + rel * t[:, None]
    end_cells = np.clip(np.floor((ends - lo) / v).astype(np.int64), 0, dims - 1)
    crossed, arrived = reference_segment_cells(grid, origin, ends, end_cells)
    _mark_free(occ_map, np.vstack([crossed, end_cells]))
    all_arrived = np.ones(len(endpoints), dtype=bool)
    all_arrived[enters] = arrived
    return occ_map, all_arrived


def partially_known_maps(dims, rng):
    known = rng.choice((FREE, OCCUPIED), size=dims).astype(np.uint8)
    single = known.copy()
    single[tuple(rng.integers(0, dims))] = UNKNOWN
    yield np.zeros(dims, dtype=np.uint8)
    yield known
    yield single
    for p_unknown in (0.05, 0.3, 0.8):
        p_known = (1.0 - p_unknown) / 2
        yield rng.choice(STATES, size=dims, p=(p_unknown, p_known, p_known)).astype(np.uint8)


def sensor_origins(grid, rng):
    v, dims = grid.voxel_size, np.asarray(grid.dims)
    lo, hi = grid.origin_arr, grid.origin_arr + dims * v
    on_plane = rng.uniform(lo, hi)
    on_plane[1] = lo[1] + v * rng.integers(0, dims[1])
    yield rng.uniform(lo, hi)                          # interior
    yield on_plane                                     # on a voxel plane
    yield lo + v * rng.integers(0, dims, 3)            # on a voxel corner
    yield lo - v * rng.uniform(0.2, 2.0, 3)            # below the grid
    yield hi + v * rng.uniform(0.0, 2.0, 3)            # above the grid


def test_cull_matches_unculled_reference_on_partially_known_maps():
    rng = np.random.default_rng(17)
    compared = drawn = 0
    for grid in (VoxelGrid((0.0, 0.0, 0.0), (7, 5, 6), 1.0),
                 VoxelGrid((-4.5, 2.0, 1.0), (5, 6, 4), 3.0)):
        v, dims = grid.voxel_size, np.asarray(grid.dims)
        lo, hi = grid.origin_arr, grid.origin_arr + dims * v
        for cells in partially_known_maps(grid.dims, rng):
            for origin in sensor_origins(grid, rng):
                points = rng.uniform(lo - 2 * v, hi + 2 * v, (60, 3))
                points[::2] = lo + v * np.round((points[::2] - lo) / v * 2) / 2
                integrate = (lambda m, o, h: integrate_points(m, o, h, ray_dirs(o, h)))
                for reference, culled in ((reference_integrate_points, integrate),
                                          (reference_carve_free, carve_free)):
                    _, arrived = reference(OccupancyMap(grid, cells.copy()), origin, points)
                    kept = points[arrived]
                    expected, _ = reference(OccupancyMap(grid, cells.copy()), origin, kept)
                    got = OccupancyMap(grid, cells.copy())
                    culled(got, origin, kept)
                    assert np.array_equal(got.cells, expected.cells)
                    compared += len(kept)
                    drawn += len(points)
    assert compared > 0.8 * drawn


def test_firing_update_equals_sequential_reference():
    # one call with hits and misses against the hits, then the misses, each
    # ray stepped by the reference loop
    rng = np.random.default_rng(19)
    compared = drawn = never_enter = hits_off = 0
    for grid in (VoxelGrid((0.0, 0.0, 0.0), (7, 5, 6), 1.0),
                 VoxelGrid((-4.5, 2.0, 1.0), (5, 6, 4), 3.0)):
        v, dims = grid.voxel_size, np.asarray(grid.dims)
        lo, hi = grid.origin_arr, grid.origin_arr + dims * v
        for cells in partially_known_maps(grid.dims, rng):
            for origin in sensor_origins(grid, rng):
                near = rng.uniform(lo - 2 * v, hi + 2 * v, (30, 3))
                near[::2] = lo + v * np.round((near[::2] - lo) / v * 2) / 2
                # farther hits and misses along the same rays cross the near
                # hit cells; misses pointing away from the grid's centre never
                # enter it from an origin outside
                hits = np.vstack([near, origin + (near[:10] - origin) * 1.7])
                away = origin + (origin - (lo + hi) / 2) * rng.uniform(0.2, 2.0, (5, 1))
                misses = np.vstack([origin + (near[10:] - origin) * 2.5,
                                    rng.uniform(lo - 2 * v, hi + 2 * v, (10, 3)), away])
                _, hit_ok = reference_integrate_points(OccupancyMap(grid, cells.copy()),
                                                       origin, hits)
                _, miss_ok = reference_carve_free(OccupancyMap(grid, cells.copy()),
                                                  origin, misses)
                hits, misses = hits[hit_ok], misses[miss_ok]
                expected, _ = reference_integrate_points(OccupancyMap(grid, cells.copy()),
                                                         origin, hits)
                reference_carve_free(expected, origin, misses)
                got = OccupancyMap(grid, cells.copy())
                integrate_points(got, origin, hits, ray_dirs(origin, hits), misses)
                assert np.array_equal(got.cells, expected.cells)
                compared += len(hits) + len(misses)
                drawn += len(hit_ok) + len(miss_ok)
                never_enter += sum(not enters_grid(lo, hi, origin, p) for p in misses)
                hits_off += np.count_nonzero(np.any((hits < lo) | (hits >= hi), axis=1))
    assert compared > 0.8 * drawn
    assert never_enter > 50 and hits_off > 50


def test_carve_free_frees_only_cells_in_the_ray_box():
    # the segment never goes below y = 1; the unguarded loop freed (0, 0, 1)
    # and (0, 0, 2) after its y axis stepped past the end cell's y
    m = make_map((8, 8, 8), voxel=1.0)
    carve_free(m, (3.0, 2.0, 1.0), [(0.5, 1.0, 2.0)])
    freed = {tuple(c) for c in np.argwhere(m.cells == FREE).tolist()}
    assert (0, 0, 1) not in freed and (0, 0, 2) not in freed
    assert all(0 <= x <= 3 and 1 <= y <= 2 and 1 <= z <= 2 for x, y, z in freed)
    assert freed >= crossed_cells_oracle(m.grid, (3.0, 2.0, 1.0), (0.5, 1.0, 2.0))


def test_carve_free_stays_in_box_on_random_plane_endpoints():
    rng = np.random.default_rng(3)
    grid = VoxelGrid((0, 0, 0), (8, 8, 8), 1.0)
    for _ in range(3000):
        origin = rng.uniform(0.5, 7.5, 3)
        end = np.round(rng.uniform(0.5, 7.5, 3) * 2) / 2   # on voxel planes or mid-voxel
        m = OccupancyMap(grid)
        carve_free(m, origin, [end])
        freed = np.argwhere(m.cells == FREE)
        a, b = np.floor(origin), np.floor(origin + (end - origin))
        assert np.all((freed >= np.minimum(a, b)) & (freed <= np.maximum(a, b)))
        assert {tuple(c) for c in freed.tolist()} >= crossed_cells_oracle(grid, origin, end)


def test_carve_free_drops_rays_that_never_enter_the_grid():
    # both sensors sit outside the grid and look away from it; clipping the
    # end cell onto the grid freed (0, 0, 0), or stopped the traversal short
    for origin, end in (((-1.0, 0.5, 0.5), (-5.0, 0.5, 0.5)),
                        ((0.5, 0.5, -1.0), (0.5, 0.5, -5.0)),
                        ((-5.0, 0.5, 0.5), (-1.0, 0.5, 0.5))):
        m = make_map((4, 4, 4), voxel=1.0)
        carve_free(m, origin, [end])
        assert np.count_nonzero(m.cells == UNKNOWN) == 64
    # a ray from outside that does enter still frees its cells
    m = make_map((4, 4, 4), voxel=1.0)
    carve_free(m, (-1.0, 0.5, 0.5), [(-5.0, 0.5, 0.5), (2.5, 0.5, 0.5)])
    assert {tuple(c) for c in np.argwhere(m.cells == FREE).tolist()} == {
        (0, 0, 0), (1, 0, 0), (2, 0, 0)}


def test_carve_free_along_the_grid_lower_face():
    # the plane x = 0 belongs to the cells of index 0, as in world_to_voxel;
    # the plane x = 4 belongs to no cell of the grid
    for origin, end, freed in (((0.0, 0.5, 0.5), (0.0, 3.5, 0.5), 4),
                               ((0.5, 0.5, 0.5), (0.5, 3.5, 0.5), 4),
                               ((4.0, 0.5, 0.5), (4.0, 3.5, 0.5), 0),
                               ((0.5, 0.0, 0.0), (3.5, 0.0, 0.0), 4)):
        m = make_map((4, 4, 4), voxel=1.0)
        carve_free(m, origin, [end])
        assert np.count_nonzero(m.cells == FREE) == freed
    assert np.argwhere(m.cells == FREE).tolist() == [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]


def plane_or_float(n, v, upper):
    """A coordinate on one of the voxel planes 0..upper, or anywhere in [0, n*v)."""
    return st.one_of(st.integers(0, upper).map(lambda k: k * v),
                     st.floats(0.0, n * v, exclude_max=True))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dims=st.tuples(*[st.integers(1, 9)] * 3), voxel=st.sampled_from([1.0, 3.0, 6.0]),
       data=st.data())
def test_traversal_takes_l1_steps_inside_each_box(dims, voxel, data):
    grid = VoxelGrid((-2.0, 5.0, 1.5), dims, voxel)
    base = grid.origin_arr
    origin = base + np.array([data.draw(plane_or_float(n, voxel, n - 1)) for n in dims])
    ends = base + np.array([[data.draw(plane_or_float(n, voxel, n)) for n in dims]
                            for _ in range(data.draw(st.integers(1, 6)))])
    start = np.floor((origin - base) / voxel).astype(np.int64)

    end_cells = np.floor((ends - base) / voxel).astype(np.int64)
    steps = np.abs(end_cells - start).sum(axis=1)
    for i in range(len(ends)):
        cells = _segment_cells(grid, origin, ends[i:i + 1], end_cells[i:i + 1])
        assert len(cells) == steps[i]
        assert np.all((cells >= np.minimum(start, end_cells[i]))
                      & (cells <= np.maximum(start, end_cells[i])))
    assert_traversal_equals_stepping(grid, origin, ends, end_cells)

    # the cells each call may change: its rays' boxes, end cells as the call sees them
    rel = ends - origin
    dirs = ray_dirs(origin, ends)
    hit_cells = np.floor((ends + dirs * (1e-6 * voxel) - base) / voxel).astype(np.int64)
    miss_cells = np.clip(np.floor((origin + rel - base) / voxel).astype(np.int64),
                         0, np.asarray(dims) - 1)
    idx = np.indices(dims).reshape(3, -1).T
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    before = rng.choice(STATES, size=dims).astype(np.uint8)
    half = len(ends) // 2
    for update, box_ends in (
            (lambda m: integrate_points(m, origin, ends, dirs), hit_cells),
            (lambda m: carve_free(m, origin, ends), miss_cells),
            (lambda m: integrate_points(m, origin, ends[:half], dirs[:half], ends[half:]),
             np.vstack([hit_cells[:half], miss_cells[half:]]))):
        boxed = np.zeros(len(idx), dtype=bool)
        for e in box_ends:
            boxed |= np.all((idx >= np.minimum(start, e)) & (idx <= np.maximum(start, e)), axis=1)
        after = before.copy()
        update(OccupancyMap(grid, after))
        changed = (after != before).reshape(-1)
        assert not np.any(changed & ~boxed)


# --- merging ----------------------------------------------------------------

def test_merge_examples():
    m = make_map((2, 1, 1))
    m.cells[0, 0, 0] = FREE
    m.cells[1, 0, 0] = OCCUPIED
    assert np.array_equal(merge_maps(m, m).cells, m.cells)

    a = make_map((1, 1, 1))
    b = make_map((1, 1, 1))
    a.cells[0, 0, 0] = FREE
    b.cells[0, 0, 0] = OCCUPIED
    assert merge_maps(a, b).cells[0, 0, 0] == OCCUPIED


def test_merge_state_table_exhaustive():
    # commutativity and idempotence over the full 3x3 table, associativity over 3x3x3
    def join(x, y):
        a = make_map((1, 1, 1))
        b = make_map((1, 1, 1))
        a.cells[0, 0, 0] = x
        b.cells[0, 0, 0] = y
        return merge_maps(a, b).cells[0, 0, 0]

    for x in STATES:
        assert join(x, x) == x
        for y in STATES:
            assert join(x, y) == join(y, x)
            for z in STATES:
                assert join(join(x, y), z) == join(x, join(y, z))


def test_merge_commutes_on_random_maps():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = make_map((4, 3, 2))
        b = make_map((4, 3, 2))
        a.cells[:] = rng.choice(STATES, size=(4, 3, 2))
        b.cells[:] = rng.choice(STATES, size=(4, 3, 2))
        ab = merge_maps(a, b)
        ba = merge_maps(b, a)
        assert np.array_equal(ab.cells, ba.cells)


def test_merge_rejects_grid_mismatch():
    a = make_map((2, 2, 2))
    b = make_map((2, 2, 3))
    with pytest.raises(GridMismatchError):
        merge_maps(a, b)
    with pytest.raises(GridMismatchError):
        merge_maps(a, make_map((2, 2, 2)), b, make_map((2, 2, 2)))


def test_nary_merge_equals_pairwise_fold():
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        for _ in range(10):
            maps = [make_map((4, 3, 5)) for _ in range(n)]
            for m in maps:
                m.cells[:] = rng.choice(STATES, size=(4, 3, 5))
            before = [m.cells.copy() for m in maps]
            merged = merge_maps(*maps)
            fold = maps[0]
            for m in maps[1:]:
                fold = merge_maps(fold, m)
            assert np.array_equal(merged.cells, fold.cells)
            assert merged.grid == maps[0].grid
            assert merged.cells is not maps[0].cells
            assert all(np.array_equal(m.cells, b) for m, b in zip(maps, before))


# --- serialization ----------------------------------------------------------

def test_map_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    m = make_map((3, 4, 5), voxel=2.5, origin=(-1.0, 2.0, 0.5))
    m.cells[:] = rng.choice(STATES, size=(3, 4, 5))
    path = tmp_path / "dump.vox"
    save_map(m, path)
    loaded = load_map(path)
    assert loaded.grid == m.grid
    assert np.array_equal(loaded.cells, m.cells)


def test_map_dump_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(14)
    m = make_map((4, 3, 2), voxel=0.3, origin=(-0.1, 1e-3, 7.25))
    m.cells[:] = rng.choice(STATES, size=(4, 3, 2))
    first, second = tmp_path / "first.vox", tmp_path / "second.vox"
    save_map(m, first)
    save_map(load_map(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("header", [
    b"VOXMAP 1 origin 0 0 0 dims 2 2\n",
    b"VOXMAP 1 origin a 0 0 dims 1 1 1 voxel 1.0\n",
    b"VOXMAP 1 origin 0 0 0 dims 1 1 1 voxel nan\n",
    b"\xff\xfe\n",
], ids=["short", "non-numeric-origin", "nan-voxel", "binary"])
def test_load_map_rejects_a_malformed_header_naming_the_file(tmp_path, header):
    path = tmp_path / "bad.vox"
    path.write_bytes(header + bytes([UNKNOWN]))
    with pytest.raises(ConfigurationError, match="bad.vox"):
        load_map(path)


def test_map_dump_payload_is_x_fastest(tmp_path):
    m = make_map((2, 1, 1), voxel=1.0)
    m.cells[1, 0, 0] = OCCUPIED
    path = tmp_path / "dump.vox"
    save_map(m, path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    assert payload == bytes([UNKNOWN, OCCUPIED])
