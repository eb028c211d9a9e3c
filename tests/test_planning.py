import heapq
from collections import deque

import numpy as np
import pytest

from uavinspect.errors import ConfigurationError, OutOfBoundsError, PlanningError
from uavinspect.planning import (Waypoint, dijkstra_path, drhlp_step,
                                 generate_waypoints, mapping_paths, mtsp_assign)
from uavinspect.world import (FACE_STEPS, FREE, OCCUPIED, UNKNOWN, BoundingBox,
                              OccupancyMap, Voxel, VoxelGrid)


def free_map(dims, voxel=6.0):
    grid = VoxelGrid((0, 0, 0), dims, voxel)
    m = OccupancyMap(grid)
    m.cells[:] = FREE
    return m


def wp(pos, direction=(1.0, 0.0, 0.0), voxel=(0, 0, 0)):
    return Waypoint(tuple(float(c) for c in pos), direction, voxel)


# --- survey sweep paths ------------------------------------------------------

def test_two_band_sweeps_along_longest_axis():
    vol = BoundingBox((0, 0, 0), (140, 60, 60))
    paths = mapping_paths(vol, [(0, 10, 30), (0, 50, 30)])
    assert len(paths) == 2
    for path, band_y in zip(paths, (15.0, 45.0)):
        assert len(path) == 3
        assert np.allclose(path[0], (0, band_y, 30))
        assert np.allclose(path[1], (140, band_y, 30))
        assert np.allclose(path[2], path[0])


def test_single_explorer_center_line():
    vol = BoundingBox((0, 0, 0), (10, 4, 4))
    (path,) = mapping_paths(vol, [(9.5, 0, 0)])
    # nearer endpoint comes first
    assert np.allclose(path[0], (10, 2, 2))
    assert np.allclose(path[1], (0, 2, 2))


def test_vertical_volume_gives_vertical_pass():
    vol = BoundingBox((0, 0, 0), (4, 4, 20))
    (path,) = mapping_paths(vol, [(2, 2, 1)])
    assert np.allclose(path[0], (2, 2, 0))
    assert np.allclose(path[1], (2, 2, 20))


def test_margin_pulls_endpoints_inward():
    vol = BoundingBox((0, 0, 0), (60, 12, 12))
    (path,) = mapping_paths(vol, [(0, 0, 0)], margin=3.0)
    assert np.allclose(path[0], (3, 6, 6))
    assert np.allclose(path[1], (57, 6, 6))


def test_mapping_paths_rejects_bad_explorer_count():
    vol = BoundingBox((0, 0, 0), (10, 10, 10))
    with pytest.raises(ConfigurationError):
        mapping_paths(vol, [])


# --- waypoint generation -------------------------------------------------------

def big_box():
    return [BoundingBox((-1000, -1000, -1000), (1000, 1000, 1000))]


def source_voxel(m, w, standoff):
    """The occupied voxel a waypoint inspects: its direction points from the
    waypoint center at that voxel's center, standoff away."""
    return tuple(m.grid.voxels(np.add(w.position, np.multiply(w.direction, standoff))).tolist())


def test_isolated_occupied_voxel_yields_six_waypoints():
    m = free_map((5, 5, 5))
    m.cells[2, 2, 2] = OCCUPIED
    wps = generate_waypoints(m, big_box(), standoff=6.0)
    assert len(wps) == 6
    center = np.array([15.0, 15.0, 15.0])
    for w in wps:
        n = np.asarray(w.direction)
        assert np.linalg.norm(n) == pytest.approx(1.0)
        # direction points from the waypoint back at the occupied center
        assert np.allclose(np.add(w.position, n * 6.0), center)
        assert sorted(np.abs(n)) == pytest.approx([0.0, 0.0, 1.0])
        assert m.cells[w.voxel] == FREE
        assert source_voxel(m, w, 6.0) == (2, 2, 2)


def test_occupied_voxel_outside_boxes_ignored():
    m = free_map((5, 5, 5))
    m.cells[2, 2, 2] = OCCUPIED
    far = [BoundingBox((100, 100, 100), (200, 200, 200))]
    assert generate_waypoints(m, far, standoff=6.0) == []


def brute_force_free_faces(m):
    faces = 0
    dims = m.grid.dims
    for v in np.argwhere(m.cells == OCCUPIED):
        for step in ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)):
            n = tuple(v + np.array(step))
            if all(0 <= n[a] < dims[a] for a in range(3)) and m.cells[n] == FREE:
                faces += 1
    return faces


def test_two_voxel_slab_yields_ten_waypoints():
    m = free_map((6, 5, 5))
    m.cells[2, 2, 2] = OCCUPIED
    m.cells[3, 2, 2] = OCCUPIED
    wps = generate_waypoints(m, big_box(), standoff=6.0)
    assert brute_force_free_faces(m) == 10
    assert len(wps) == 10


def test_waypoints_skip_unknown_neighbors_and_blocked_standoff():
    m = free_map((7, 5, 5))
    m.cells[3, 2, 2] = OCCUPIED
    m.cells[2, 2, 2] = 0          # unknown face neighbor: no waypoint that way
    m.cells[5, 2, 2] = OCCUPIED   # blocks the +x standoff cell at distance 2V
    wps = generate_waypoints(m, big_box(), standoff=12.0)
    directions = {tuple(np.round(w.direction).astype(int)) for w in wps
                  if source_voxel(m, w, 12.0) == (3, 2, 2)}
    assert (1, 0, 0) not in directions     # -x side blocked by unknown
    assert (-1, 0, 0) not in directions    # +x standoff cell occupied
    assert (0, 1, 0) in directions and (0, 0, 1) in directions


def test_waypoint_standoff_snaps_to_voxel_centers():
    m = free_map((7, 7, 7))
    m.cells[3, 3, 3] = OCCUPIED
    wps = generate_waypoints(m, big_box(), standoff=12.0)
    assert len(wps) == 6
    for w in wps:
        assert np.allclose(np.add(w.position, np.multiply(w.direction, 12.0)),
                           [21.0, 21.0, 21.0])


def test_waypoints_deduplicated_and_deterministic():
    m = free_map((8, 8, 8))
    m.cells[2:4, 3, 3] = OCCUPIED
    a = generate_waypoints(m, big_box(), standoff=6.0)
    b = generate_waypoints(m, big_box(), standoff=6.0)
    assert a == b
    keys = {(w.voxel, tuple(np.round(w.direction, 9))) for w in a}
    assert len(keys) == len(a)


def reference_waypoints(occ_map, boxes, standoff):
    """The per-(voxel, face) loop that generate_waypoints replaced, kept as its oracle."""
    grid = occ_map.grid
    if standoff <= 0:
        raise ConfigurationError("waypoint standoff must be positive")
    out = []
    seen = set()
    occupied = occ_map.occupied_voxels()
    if len(occupied) == 0 or not boxes:
        return out
    centers = grid.origin_arr + (occupied + 0.5) * grid.voxel_size
    in_box = np.zeros(len(occupied), dtype=bool)
    for b in boxes:
        in_box |= np.all((centers >= b.lo) & (centers <= b.hi), axis=1)

    dims = grid.dims
    cells = occ_map.cells
    for row, center in zip(occupied[in_box], centers[in_box]):
        vx = (int(row[0]), int(row[1]), int(row[2]))
        for step in FACE_STEPS:
            nb = (vx[0] + step[0], vx[1] + step[1], vx[2] + step[2])
            if not (0 <= nb[0] < dims[0] and 0 <= nb[1] < dims[1] and 0 <= nb[2] < dims[2]):
                continue
            if cells[nb] != FREE:
                continue
            normal = np.asarray(step, dtype=float)
            pos = center + normal * standoff
            try:
                wp_voxel = tuple(grid.voxels(pos).tolist())
            except OutOfBoundsError:
                continue
            if cells[wp_voxel] != FREE:
                continue
            wp_pos = grid.centers(wp_voxel)
            n_hat = center - wp_pos
            norm = np.linalg.norm(n_hat)
            if norm < 1e-12:
                continue
            n_hat = n_hat / norm
            key = (wp_voxel, (-step[0], -step[1], -step[2]))
            if key in seen:
                continue
            seen.add(key)
            out.append(Waypoint(tuple(wp_pos.tolist()), tuple(n_hat.tolist()), wp_voxel))
    return out


def assert_matches_reference(m, boxes, standoff):
    got = generate_waypoints(m, boxes, standoff)
    want = reference_waypoints(m, boxes, standoff)
    assert got == want
    assert repr(got) == repr(want)      # pins order and scalar types too
    return got


def random_map(rng, dims, voxel, origin, p_occupied):
    m = OccupancyMap(VoxelGrid(origin, dims, voxel))
    p_rest = (1.0 - p_occupied) / 3.0
    m.cells[:] = rng.choice([UNKNOWN, FREE, OCCUPIED], size=dims,
                            p=[p_rest, 2.0 * p_rest, p_occupied])
    return m


def box_sets(grid):
    """Inspection-box sets for a grid: everything, overlapping boxes, and a
    box whose faces pass exactly through voxel centers on every axis."""
    o = grid.origin_arr
    v = grid.voxel_size
    d = np.asarray(grid.dims, dtype=float)
    center = lambda i: o + (np.asarray(i, dtype=float) + 0.5) * v
    lower = o + 0.3 * d * v
    upper = o + 0.7 * d * v
    return [
        big_box(),
        [BoundingBox(tuple(o - v), tuple(upper + 0.1 * v)),
         BoundingBox(tuple(lower), tuple(o + d * v + v)),
         BoundingBox(tuple(lower - 0.2 * v), tuple(upper + 0.2 * v))],
        [BoundingBox(tuple(center(np.zeros(3)) - (d < 2) * v),
                     tuple(center(np.maximum(d - 2, 1)) + (d < 2) * v))],
    ]


@pytest.mark.parametrize("dims", [(5, 5, 5), (7, 4, 6), (1, 6, 5), (6, 1, 4), (9, 3, 1)])
@pytest.mark.parametrize("voxel", [1.0, 3.0, 6.0])
def test_waypoints_match_loop_reference_on_random_maps(dims, voxel):
    rng = np.random.default_rng([*dims, int(voxel)])
    for origin, p_occupied in (((0.0, 0.0, 0.0), 0.3), ((-7.25, 3.5, 0.1), 0.15),
                               ((2.0, -11.0, 5.0), 0.5)):
        m = random_map(rng, dims, voxel, origin, p_occupied)
        for boxes in box_sets(m.grid):
            for standoff in (0.5 * voxel, voxel, 1.5 * voxel, 2 * voxel, 4 * voxel, 7.3):
                assert_matches_reference(m, boxes, standoff)


def test_waypoints_dedup_keeps_first_occurrence():
    # At x = 1e16 doubles are 2 m apart, so the centers of voxels (0, 0, 0)
    # and (1, 0, 0) round to the same x and both +y standoffs land in voxel
    # (0, 1, 0) with the same direction: one waypoint is kept.
    m = OccupancyMap(VoxelGrid((1e16, 0.0, 0.0), (4, 3, 1), 0.5))
    m.cells[:] = FREE
    m.cells[0:2, 0, 0] = OCCUPIED
    boxes = [BoundingBox((-1e17, -1e3, -1e3), (1e17, 1e3, 1e3))]
    wps = assert_matches_reference(m, boxes, 0.5)
    assert [(w.direction, w.voxel) for w in wps] == [((0.0, -1.0, 0.0), (0, 1, 0))]
    assert source_voxel(m, wps[0], 0.5) == (0, 0, 0)


def test_waypoints_empty_without_free_cells():
    rng = np.random.default_rng(71)
    full = free_map((4, 3, 5), voxel=3.0)
    full.cells[:] = OCCUPIED
    no_free = OccupancyMap(VoxelGrid((0, 0, 0), (6, 5, 4), 1.0))
    no_free.cells[:] = rng.choice([UNKNOWN, OCCUPIED], size=(6, 5, 4))
    for m in (full, no_free):
        for boxes in box_sets(m.grid):
            assert assert_matches_reference(m, boxes, 2 * m.grid.voxel_size) == []


def test_waypoint_fields_hold_python_scalars():
    # plans.log prints Waypoint.voxel; a numpy scalar would print as np.int64(3).
    rng = np.random.default_rng(73)
    m = random_map(rng, (6, 6, 6), 3.0, (-1.5, 0.0, 2.25), 0.25)
    wps = generate_waypoints(m, big_box(), 4.5)
    assert wps
    for w in wps:
        assert all(type(c) is float for c in w.position + w.direction)
        assert all(type(c) is int for c in w.voxel)
        assert type(w.position) is type(w.direction) is type(w.voxel) is tuple


# --- greedy multi-salesman assignment --------------------------------------------

def test_mtsp_hand_trace():
    wps = [wp((1, 0, 0)), wp((9, 0, 0)), wp((2, 0, 0))]
    positions = {1: np.array([0.0, 0.0, 0.0]), 2: np.array([10.0, 0.0, 0.0])}
    out = mtsp_assign(wps, positions)
    assert [w.position for w in out[1]] == [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
    assert [w.position for w in out[2]] == [(9.0, 0.0, 0.0)]


def test_mtsp_single_agent_is_nearest_neighbor_tour():
    rng = np.random.default_rng(61)
    pts = rng.uniform(0, 50, (12, 3))
    wps = [wp(p) for p in pts]
    out = mtsp_assign(wps, {0: np.zeros(3)})
    tour = [w.position for w in out[0]]
    assert len(tour) == 12
    # replay the greedy rule independently
    remaining = list(range(12))
    cur = np.zeros(3)
    expected = []
    while remaining:
        dists = [float(np.linalg.norm(pts[i] - cur)) for i in remaining]
        pick = remaining.pop(int(np.argmin(dists)))
        expected.append(pick)
        cur = pts[pick]
    assert tour == [tuple(pts[i]) for i in expected]


def test_mtsp_no_waypoints_gives_empty_paths():
    out = mtsp_assign([], {0: np.zeros(3), 4: np.ones(3)})
    assert out[0] == []
    assert out[4] == []


def test_mtsp_partitions_waypoints_randomized():
    rng = np.random.default_rng(67)
    for _ in range(50):
        n_agents = int(rng.integers(1, 6))
        n_wp = int(rng.integers(0, 40))
        wps = [wp(p) for p in rng.uniform(-30, 30, (n_wp, 3))]
        positions = {int(i): rng.uniform(-30, 30, 3)
                     for i in rng.choice(100, size=n_agents, replace=False)}
        out = mtsp_assign(wps, positions)
        assigned = [w for p in out.values() for w in p]
        assert len(assigned) == n_wp
        seen = {id(w) for w in assigned}
        assert len(seen) == n_wp
        assert set(out.keys()) == set(positions.keys())


def test_mtsp_requires_positions():
    with pytest.raises(ConfigurationError):
        mtsp_assign([wp((0, 0, 0))], {})


# --- shortest paths ---------------------------------------------------------------

def bfs_hops(occ_map, reserved, start, goal):
    if occ_map.cells[goal] == OCCUPIED or goal in reserved:
        return None
    dims = occ_map.grid.dims
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        v, d = queue.popleft()
        if v == goal:
            return d
        for step in ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)):
            n = (v[0] + step[0], v[1] + step[1], v[2] + step[2])
            if not all(0 <= n[a] < dims[a] for a in range(3)):
                continue
            if n in seen or occ_map.cells[n] == OCCUPIED or n in reserved:
                continue
            seen.add(n)
            queue.append((n, d + 1))
    return None


def test_dijkstra_straight_corridor():
    m = free_map((3, 1, 1))
    path = dijkstra_path(m, set(), (0, 0, 0), (2, 0, 0))
    assert path == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert (len(path) - 1) * m.grid.voxel_size == 12.0


def test_dijkstra_detours_around_center_obstacle():
    m = free_map((3, 3, 1))
    m.cells[1, 1, 0] = OCCUPIED
    path = dijkstra_path(m, set(), (0, 1, 0), (2, 1, 0))
    assert len(path) == 5
    assert (1, 1, 0) not in path


def test_dijkstra_same_start_and_goal():
    m = free_map((2, 2, 2))
    assert dijkstra_path(m, set(), (1, 1, 1), (1, 1, 1)) == [(1, 1, 1)]


def test_dijkstra_respects_reservations():
    m = free_map((3, 1, 1))
    assert dijkstra_path(m, {(1, 0, 0)}, (0, 0, 0), (2, 0, 0)) == []
    with pytest.raises(PlanningError):
        dijkstra_path(m, {(0, 0, 0)}, (0, 0, 0), (2, 0, 0))


def test_dijkstra_start_occupied_raises():
    m = free_map((3, 1, 1))
    m.cells[0, 0, 0] = OCCUPIED
    with pytest.raises(PlanningError):
        dijkstra_path(m, set(), (0, 0, 0), (2, 0, 0))


@pytest.mark.parametrize("start", [(-1, 0, 0), (0, -1, 0), (0, 0, -1),
                                   (3, 0, 0), (0, 2, 0), (0, 0, 2)])
def test_dijkstra_rejects_an_off_grid_start(start):
    # a negative index used to wrap around to the far end of the grid
    m = free_map((3, 2, 2))
    with pytest.raises(PlanningError, match="outside grid"):
        dijkstra_path(m, set(), start, (2, 0, 0))


def test_dijkstra_matches_bfs_oracle_random_grids():
    rng = np.random.default_rng(71)
    for _ in range(30):
        m = free_map((8, 8, 8), voxel=6.0)
        blocked = rng.random((8, 8, 8)) < 0.2
        m.cells[blocked] = OCCUPIED
        free_cells = [tuple(v) for v in np.argwhere(m.cells == FREE)]
        if len(free_cells) < 2:
            continue
        idx = rng.choice(len(free_cells), size=2, replace=False)
        start, goal = free_cells[idx[0]], free_cells[idx[1]]
        path = dijkstra_path(m, set(), start, goal)
        hops = bfs_hops(m, set(), start, goal)
        if hops is None:
            assert path == []
        else:
            assert len(path) - 1 == hops
            for v in path:
                assert m.cells[v] == FREE
            for a, b in zip(path, path[1:]):
                assert sum(abs(a[i] - b[i]) for i in range(3)) == 1


def test_dijkstra_deterministic_tie_breaks():
    m = free_map((5, 5, 1))
    p1 = dijkstra_path(m, set(), (0, 0, 0), (4, 4, 0))
    p2 = dijkstra_path(m, set(), (0, 0, 0), (4, 4, 0))
    assert p1 == p2


def reference_dijkstra_path(occ_map, reserved, start, goal):
    """The heap Dijkstra that dijkstra_path replaced: the oracle for its paths."""
    start = tuple(start)
    goal = tuple(goal)
    cells = occ_map.cells
    if cells[start] == OCCUPIED:
        raise PlanningError(f"start voxel {start} is occupied")
    if start in reserved:
        raise PlanningError(f"start voxel {start} is reserved")
    dims = occ_map.grid.dims
    if not all(0 <= goal[a] < dims[a] for a in range(3)):
        return []
    if cells[goal] == OCCUPIED or goal in reserved:
        return []
    if start == goal:
        return [start]

    weight = occ_map.grid.voxel_size
    dist: dict[Voxel, float] = {start: 0.0}
    prev: dict[Voxel, Voxel] = {}
    heap: list[tuple[float, Voxel]] = [(0.0, start)]
    settled: set[Voxel] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == goal:
            break
        x, y, z = v
        for dx, dy, dz in FACE_STEPS:
            n = (x + dx, y + dy, z + dz)
            if not (0 <= n[0] < dims[0] and 0 <= n[1] < dims[1] and 0 <= n[2] < dims[2]):
                continue
            if n in settled or cells[n] == OCCUPIED or n in reserved:
                continue
            nd = d + weight
            if nd < dist.get(n, float("inf")):
                dist[n] = nd
                prev[n] = v
                heapq.heappush(heap, (nd, n))
    if goal not in settled:
        return []
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def path_outcome(search, occ_map, reserved, start, goal):
    try:
        return search(occ_map, reserved, start, goal)
    except PlanningError as exc:
        return ("PlanningError", str(exc))


def test_dijkstra_paths_equal_heap_reference_random_grids():
    """Same list, voxel for voxel, as the heap search on mixed random grids,
    at voxel sizes whose repeated float sums are inexact."""
    rng = np.random.default_rng(19)
    seen = {"path": 0, "unreachable": 0, "raises": 0, "same": 0, "off_grid": 0}
    for _ in range(2400):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        voxel = float(rng.choice([0.1, 0.3, 1.0 / 3.0, 1.5, 6.0]))
        m = OccupancyMap(VoxelGrid((0.0, 0.0, 0.0), dims, voxel))
        m.cells[:] = rng.choice([UNKNOWN, FREE, OCCUPIED], size=dims, p=[0.25, 0.5, 0.25])
        cells = [tuple(int(c) for c in v) for v in np.argwhere(np.ones(dims, dtype=bool))]
        pick = rng.integers(len(cells), size=5)
        start = cells[pick[0]]
        reserved = {cells[i] for i in pick[2:2 + rng.integers(0, 4)]}
        roll = rng.random()
        if roll < 0.05:
            goal = start
        elif roll < 0.1:
            goal = tuple(int(c) for c in rng.integers(-1, np.asarray(dims) + 1))
        else:
            goal = cells[pick[1]]
        got = path_outcome(dijkstra_path, m, reserved, start, goal)
        assert got == path_outcome(reference_dijkstra_path, m, reserved, start, goal)
        if isinstance(got, tuple):
            seen["raises"] += 1
        elif not all(0 <= goal[a] < dims[a] for a in range(3)):
            seen["off_grid"] += 1
        elif goal == start:
            seen["same"] += 1
        else:
            seen["path" if got else "unreachable"] += 1
    assert min(seen.values()) >= 20, seen


# --- receding-horizon step ----------------------------------------------------------

def corridor_path(m):
    """One waypoint at the far end of a 10-voxel corridor."""
    goal = (9, 0, 0)
    center = tuple((np.array(goal) + 0.5) * m.grid.voxel_size)
    return [Waypoint(center, (1.0, 0.0, 0.0), goal)]


def checked_step(agent_voxel, path, cursor, m, reserved, horizon):
    """drhlp_step, checked to return an empty segment exactly when the
    cursor has run off the end of the path."""
    step = drhlp_step(agent_voxel, path, cursor, m, reserved, horizon)
    assert (step.segment == []) == (step.next_index == len(path))
    return step


def test_drhlp_horizon_limits_segment():
    m = free_map((10, 1, 1))
    sigma = corridor_path(m)
    step = checked_step((0, 0, 0), sigma, 0, m, set(), horizon=3)
    assert step.segment == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert step.segment
    assert step.next_index == 0
    # from the fourth voxel the replanned segment continues toward the goal
    step2 = checked_step((3, 0, 0), sigma, step.next_index, m, set(), horizon=3)
    assert step2.segment == [(4, 0, 0), (5, 0, 0), (6, 0, 0)]


def test_drhlp_survey_goal_has_no_camera_directive():
    m = free_map((10, 1, 1))
    goal = (9, 0, 0)
    sigma = [Waypoint((57.0, 3.0, 3.0), None, goal)]
    step = checked_step((0, 0, 0), sigma, 0, m, set(), horizon=3)
    assert step.segment == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert step.direction is None


def test_drhlp_adjacent_waypoint_then_epoch_complete():
    m = free_map((2, 1, 1))
    goal = (1, 0, 0)
    sigma = [Waypoint((9.0, 3.0, 3.0), (1, 0, 0), goal)]
    step = checked_step((0, 0, 0), sigma, 0, m, set(), horizon=3)
    assert step.segment == [(1, 0, 0)]
    done = checked_step((1, 0, 0), sigma, step.next_index, m, set(), horizon=3)
    assert not done.segment
    assert done.next_index == 1


def test_drhlp_skips_unreachable_waypoint():
    m = free_map((4, 1, 1))
    m.cells[1, 0, 0] = OCCUPIED
    unreachable = (3, 0, 0)
    reachable = (0, 0, 0)
    sigma = [
        Waypoint((21.0, 3.0, 3.0), (1, 0, 0), unreachable),
        Waypoint((3.0, 3.0, 3.0), (1, 0, 0), reachable),
    ]
    step = checked_step((0, 0, 0), sigma, 0, m, set(), horizon=3)
    # first waypoint skipped, second is where the agent already stands
    assert step.skipped == [0]
    assert not step.segment
    assert step.next_index == 2


def test_drhlp_replans_around_new_blockage():
    m = free_map((5, 2, 1))
    goal = (4, 0, 0)
    sigma = [Waypoint((27.0, 3.0, 3.0), (1, 0, 0), goal)]
    first = checked_step((0, 0, 0), sigma, 0, m, set(), horizon=2)
    assert first.segment == [(1, 0, 0), (2, 0, 0)]
    # a new obstacle appears mid-route; the next replan detours through y=1
    m.cells[2, 0, 0] = OCCUPIED
    second = checked_step((1, 0, 0), sigma, 0, m, set(), horizon=4)
    assert (2, 0, 0) not in second.segment
    assert (1, 1, 0) in second.segment or (2, 1, 0) in second.segment
