import itertools

import numpy as np
import pytest

from uavinspect.errors import (ConfigurationError, GridMismatchError,
                               OutOfBoundsError)
from uavinspect.world import (FREE, OCCUPIED, UNKNOWN, BoundingBox,
                              OccupancyMap, OperationalVolume, VoxelGrid,
                              build_grid, compute_operational_volume, integrate_points,
                              load_map, merge_maps, save_map, voxel_to_world,
                              world_to_voxel)

STATES = (UNKNOWN, FREE, OCCUPIED)


def make_map(dims, voxel=6.0, origin=(0.0, 0.0, 0.0)):
    grid = VoxelGrid(origin, dims, voxel)
    return OccupancyMap(grid)


# --- operational volume ---------------------------------------------------

def test_volume_is_padded_min_max_of_boxes_and_positions():
    boxes = [BoundingBox((0, 0, 0), (10, 10, 10))]
    vol = compute_operational_volume(boxes, [(-5.0, 2.0, 3.0)], voxel_size=6.0)
    assert vol.lo == (-11.0, -6.0, -6.0)
    assert vol.hi == (16.0, 16.0, 16.0)


def test_volume_positions_inside_boxes_change_nothing():
    boxes = [BoundingBox((0, 0, 0), (1, 1, 1))]
    vol = compute_operational_volume(boxes, [(0.5, 0.5, 0.5)], voxel_size=2.0)
    assert vol.lo == (-2.0, -2.0, -2.0)
    assert vol.hi == (3.0, 3.0, 3.0)


def test_volume_scenario_scale():
    boxes = [BoundingBox((0, 0, 0), (140, 60, 60))]
    vol = compute_operational_volume(boxes, [(5.0, 5.0, 5.0)], voxel_size=6.0)
    assert np.allclose(vol.extent, [140 + 12, 60 + 12, 60 + 12])


def test_volume_rejects_empty_inputs():
    with pytest.raises(ConfigurationError):
        compute_operational_volume([], [(0, 0, 0)], 6.0)
    with pytest.raises(ConfigurationError):
        compute_operational_volume([BoundingBox((0, 0, 0), (1, 1, 1))], [], 6.0)


# --- grid -----------------------------------------------------------------

def test_grid_dims_exact_division():
    vol = OperationalVolume((0, 0, 0), (12, 12, 6))
    assert build_grid(vol, 6.0).dims == (2, 2, 1)


def test_grid_dims_round_up():
    vol = OperationalVolume((0, 0, 0), (13, 12, 6))
    assert build_grid(vol, 6.0).dims == (3, 2, 1)


def test_grid_rejects_bad_voxel_size():
    vol = OperationalVolume((0, 0, 0), (12, 12, 6))
    with pytest.raises(ConfigurationError):
        build_grid(vol, 0.0)
    with pytest.raises(ConfigurationError):
        build_grid(vol, -1.0)


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
    integrate_points(m, (0.5, 0.5, 0.5), [(2.5, 1.5, 0.5)])
    assert m.state((2, 1, 0)) == OCCUPIED


def test_ray_marks_crossed_voxels_free_then_hit_occupied():
    m = make_map((6, 1, 1), voxel=1.0)
    integrate_points(m, (0.5, 0.5, 0.5), [(3.5, 0.5, 0.5)])
    assert m.state((0, 0, 0)) == FREE
    assert m.state((1, 0, 0)) == FREE
    assert m.state((2, 0, 0)) == FREE
    assert m.state((3, 0, 0)) == OCCUPIED
    assert m.state((4, 0, 0)) == UNKNOWN


def test_empty_hits_leave_map_unchanged():
    m = make_map((3, 3, 3))
    before = m.cells.copy()
    integrate_points(m, (1, 1, 1), [])
    assert np.array_equal(m.cells, before)


def test_hits_outside_grid_are_dropped():
    m = make_map((2, 2, 2), voxel=1.0)
    integrate_points(m, (0.5, 0.5, 0.5), [(10.0, 0.5, 0.5)])
    assert m.count(OCCUPIED) == 0


def test_boundary_hits_attach_to_the_surface_side():
    # wall voxel index 2 spans [12, 18); rays from both sides hit its faces
    m = make_map((8, 1, 1), voxel=6.0, origin=(0, 0, 0))
    integrate_points(m, (3.0, 3.0, 3.0), [(12.0, 3.0, 3.0)])
    assert m.state((2, 0, 0)) == OCCUPIED
    m2 = make_map((8, 1, 1), voxel=6.0, origin=(0, 0, 0))
    integrate_points(m2, (21.0, 3.0, 3.0), [(18.0, 3.0, 3.0)])
    assert m2.state((2, 0, 0)) == OCCUPIED
    assert m2.state((3, 0, 0)) == FREE


def test_traversal_matches_slab_oracle_on_random_rays():
    rng = np.random.default_rng(11)
    grid = VoxelGrid((0, 0, 0), (10, 10, 10), 1.0)
    for _ in range(150):
        origin = rng.uniform(0.3, 9.7, 3)
        end = rng.uniform(0.3, 9.7, 3)
        m = OccupancyMap(grid)
        integrate_points(m, origin, [end])
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
        integrate_points(m, origin, hits)
        occupied = {tuple(c) for c in m.occupied_voxels()}
        assert previous <= occupied
        previous = occupied


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
    assert merge_maps(a, b).state((0, 0, 0)) == OCCUPIED


def test_merge_state_table_exhaustive():
    # commutativity and idempotence over the full 3x3 table, associativity over 3x3x3
    def join(x, y):
        a = make_map((1, 1, 1))
        b = make_map((1, 1, 1))
        a.cells[0, 0, 0] = x
        b.cells[0, 0, 0] = y
        return merge_maps(a, b).state((0, 0, 0))

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


def test_map_dump_payload_is_x_fastest(tmp_path):
    m = make_map((2, 1, 1), voxel=1.0)
    m.cells[1, 0, 0] = OCCUPIED
    path = tmp_path / "dump.vox"
    save_map(m, path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    assert payload == bytes([UNKNOWN, OCCUPIED])
