"""Triangle-mesh scenes: raycaster exactness, voxelization and a golden mission."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from uavinspect.engine import AgentSpec, MissionConfig, run_mission
from uavinspect.errors import ConfigurationError
from uavinspect.scene import Scene, line_of_sight, ray_cast_batch, scene_occupancy
from uavinspect.sensors import CameraConfig, LidarConfig, _base_directions, lidar_sweep
from uavinspect.world import BoundingBox, VoxelGrid


def per_ray(origin, dirs, max_range):
    """Rays along dirs from one origin (3,) to one range, in the form that
    ray_cast_batch takes: (origins, dirs, ranges), one origin and one range
    per ray."""
    dirs = np.asarray(dirs, dtype=float)
    return np.tile(origin, (len(dirs), 1)), dirs, np.full(len(dirs), max_range)


def prism_triangles(center, radius, height, sides, rings):
    """A ground-mounted regular prism: sides split into rings, the cap a fan.

    sides x rings x 2 + sides triangles, wound so the normals point outward.
    """
    cx, cy = center
    rim = [(cx + radius * math.cos(2.0 * math.pi * i / sides),
            cy + radius * math.sin(2.0 * math.pi * i / sides)) for i in range(sides)]
    zs = [height * r / rings for r in range(rings + 1)]
    tris = []
    for i in range(sides):
        (x0, y0), (x1, y1) = rim[i], rim[(i + 1) % sides]
        for r in range(rings):
            z0, z1 = zs[r], zs[r + 1]
            tris.append([[x0, y0, z0], [x1, y1, z0], [x1, y1, z1]])
            tris.append([[x0, y0, z0], [x1, y1, z1], [x0, y0, z1]])
    top = [cx, cy, height]
    for i in range(sides):
        (x0, y0), (x1, y1) = rim[i], rim[(i + 1) % sides]
        tris.append([top, [x0, y0, height], [x1, y1, height]])
    return np.asarray(tris, dtype=float)


def centroid_points(tris):
    """One interest point at each triangle's centroid, normal outward."""
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    normals = cross / np.linalg.norm(cross, axis=1)[:, None]
    return np.arange(len(tris)), tris.mean(axis=1), normals


# --- raycaster against the all-pairs reference -----------------------------------

def dense_ray_cast(scene, origin, dirs, max_range):
    """Every ray against every primitive: the raycaster before the broad phase.

    The two-phase raycaster must return the same distances, bit for bit.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    origins = np.tile(np.asarray(origin, dtype=float), (len(dirs), 1))
    best = np.full(len(dirs), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        if scene.solid_boxes:
            lo = np.array([b.min_corner for b in scene.solid_boxes], dtype=float)
            hi = np.array([b.max_corner for b in scene.solid_boxes], dtype=float)
            inv = 1.0 / dirs
            t1 = (lo[None, :, :] - origins[:, None, :]) * inv[:, None, :]
            t2 = (hi[None, :, :] - origins[:, None, :]) * inv[:, None, :]
            tn = np.fmin(t1, t2).max(axis=2)
            tf = np.fmax(t1, t2).min(axis=2)
            ok = (tf >= tn) & (tf > 1e-9) & (tn <= max_range)
            t = np.where(ok, np.where(tn > 1e-9, tn, 0.0), np.inf)
            best = np.minimum(best, t.min(axis=1))
        if len(scene.triangles):
            v0 = scene.triangles[:, 0]
            e1 = scene.triangles[:, 1] - v0
            e2 = scene.triangles[:, 2] - v0
            h = np.cross(dirs[:, None, :], e2[None, :, :])
            a = np.einsum("tk,ntk->nt", e1, h)
            f = 1.0 / a
            s = origins[:, None, :] - v0[None, :, :]
            u = f * np.einsum("ntk,ntk->nt", s, h)
            q = np.cross(s, e1[None, :, :])
            v = f * np.einsum("nk,ntk->nt", dirs, q)
            t = f * np.einsum("tk,ntk->nt", e2, q)
            ok = ((np.abs(a) > 1e-12)
                  & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
                  & (t > 1e-9) & (t <= max_range))
            best = np.minimum(best, np.where(ok, t, np.inf).min(axis=1))
    return best <= max_range, best


def unit_rows(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=1)[:, None]


def awkward_directions(rng, count):
    """Random unit rays plus the six axis rays and rays in each axis plane."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    flat = rng.normal(size=(3 * count, 3))
    for k in range(3):
        flat[k * count:(k + 1) * count, k] = 0.0
    return np.vstack([unit_rows(rng.normal(size=(count, 3))), axes, unit_rows(flat)])


def assert_matches_dense(scene, origin, dirs, max_range):
    hit, dist = ray_cast_batch(scene, *per_ray(origin, dirs, max_range))
    ref_hit, ref_dist = dense_ray_cast(scene, origin, dirs, max_range)
    assert np.array_equal(hit, ref_hit)
    assert np.array_equal(dist, ref_dist)      # == on every distance, inf included
    return dist


def test_equals_dense_reference_on_random_soups():
    rng = np.random.default_rng(31)
    for trial in range(40):
        scale = 10.0 ** rng.uniform(-1, 2)
        tris = rng.uniform(-scale, scale, (int(rng.integers(1, 80)), 3, 3))
        if trial % 4 == 0:                      # shells: edges shared between neighbours
            tris = prism_triangles(tuple(rng.uniform(-5, 5, 2)), scale, 2 * scale,
                                   sides=int(rng.integers(3, 12)),
                                   rings=int(rng.integers(1, 6)))
        scene = Scene(triangles=tris)
        dirs = awkward_directions(rng, 20)
        corners = np.vstack([scene._bin_lo, scene._bin_hi])
        origins = [rng.uniform(-2 * scale, 2 * scale, 3) for _ in range(3)]
        # origins on bin box planes, at triangle vertices and on bin corners
        origins += [np.where(rng.random(3) < 0.5, corners[rng.integers(len(corners))],
                             rng.uniform(-scale, scale, 3)) for _ in range(3)]
        origins += [tris[rng.integers(len(tris)), rng.integers(3)], corners[0]]
        for origin in origins:
            for max_range in (0.5 * scale, 4.0 * scale):
                assert_matches_dense(scene, origin, dirs, max_range)


def test_equals_dense_reference_through_shared_edges_and_vertices():
    rng = np.random.default_rng(32)
    tris = prism_triangles((24.0, 24.0), 8.0, 24.0, sides=12, rings=8)
    scene = Scene(triangles=tris)
    verts = tris.reshape(-1, 3)
    targets = np.vstack([verts, (tris + np.roll(tris, 1, axis=1)).reshape(-1, 3) / 2.0])
    for origin in [(9.0, 9.0, 9.0), (24.0, 24.0, 12.0), (50.0, 30.0, 40.0),
                   (24.0, 5.0, 24.0), (40.0, 40.0, 3.0)]:
        dirs = unit_rows(targets - np.asarray(origin))
        assert_matches_dense(scene, origin, dirs, 60.0)
    # horizontal rays from every ring height and the cap plane
    for z in np.linspace(0.0, 24.0, 9):
        origin = np.array([rng.uniform(0, 48), rng.uniform(0, 48), z])
        assert_matches_dense(scene, origin, awkward_directions(rng, 30), 60.0)


def test_bench_tower_ray_along_a_ring_edge():
    # this ray runs in the plane z = 9, where two rings of the tower meet; its
    # first hit is on their shared edge
    scene = Scene(triangles=prism_triangles((24.0, 24.0), 8.0, 24.0, sides=12, rings=8))
    dirs = np.array([[math.sqrt(0.5), math.sqrt(0.5), 0.0]])
    dist = assert_matches_dense(scene, (9.0, 9.0, 9.0), dirs, 40.0)
    assert round(float(dist[0]), 4) == 13.4858


def test_boxes_and_triangles_equal_dense_reference():
    rng = np.random.default_rng(33)
    boxes = [BoundingBox(tuple(lo), tuple(lo + rng.uniform(1, 6, 3)))
             for lo in np.round(rng.uniform(-10, 10, (5, 3)))]
    scene = Scene(solid_boxes=boxes, triangles=rng.uniform(-12, 12, (30, 3, 3)))
    dirs = awkward_directions(rng, 40)
    origins = [rng.uniform(-15, 15, 3) for _ in range(6)]
    origins += [np.array([b.lo[0], rng.uniform(-10, 10), b.hi[2]]) for b in boxes]
    for origin in origins:
        assert_matches_dense(scene, origin, dirs, 40.0)


def test_multi_origin_cast_equals_one_call_per_origin():
    rng = np.random.default_rng(34)
    tower = prism_triangles((0.0, 0.0), 4.0, 8.0, sides=8, rings=3)
    boxes = [BoundingBox((-10.0, -10.0, -2.0), (-6.0, -4.0, 3.0)),
             BoundingBox((5.0, -3.0, 0.0), (7.0, 9.0, 4.0))]
    scenes = [Scene(solid_boxes=boxes), Scene(triangles=tower),
              Scene(solid_boxes=boxes, triangles=tower),
              Scene(triangles=rng.uniform(-8, 8, (40, 3, 3)))]
    for scene in scenes:
        corners = np.vstack([scene._box_lo, scene._box_hi, scene._bin_lo, scene._bin_hi])
        origins = [rng.uniform(-12, 12, 3) for _ in range(4)]
        # on box faces and corners, on bin planes, at a triangle vertex
        origins += [np.where(rng.random(3) < 0.5, corners[rng.integers(len(corners))],
                             rng.uniform(-12, 12, 3)) for _ in range(6)]
        origins += [corners[0], corners[-1]]
        if len(scene.triangles):
            origins.append(scene.triangles[3, 1])
        # a bundle per origin, over 512 rays in all so that the cast takes
        # several rounds, each with rays of several origins
        bundles = [awkward_directions(rng, 20) for _ in origins]
        each = np.vstack([np.tile(o, (len(d), 1)) for o, d in zip(origins, bundles)])
        dirs = np.vstack(bundles)
        perm = rng.permutation(len(dirs))
        assert len(dirs) > 2 * 512
        for max_range in (3.0, 30.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                hit, dist = ray_cast_batch(scene, each[perm], dirs[perm],
                                           np.full(len(dirs), max_range))
                row = 0
                for o, d in zip(origins, bundles):
                    ref_hit, ref_dist = ray_cast_batch(scene, *per_ray(o, d, max_range))
                    rows = np.argsort(perm)[row:row + len(d)]
                    assert np.array_equal(hit[rows], ref_hit)
                    assert np.array_equal(dist[rows], ref_dist)
                    row += len(d)
            assert hit.any() and not hit.all()


def test_per_ray_range_equals_one_call_per_ray():
    rng = np.random.default_rng(35)
    tower = prism_triangles((0.0, 0.0), 4.0, 8.0, sides=8, rings=3)
    boxes = [BoundingBox((-10.0, -10.0, -2.0), (-6.0, -4.0, 3.0)),
             BoundingBox((5.0, -3.0, 0.0), (7.0, 9.0, 4.0))]
    scene = Scene(solid_boxes=boxes, triangles=tower)
    dirs = awkward_directions(rng, 150)                 # over 512 rays: several rounds
    ranges = rng.uniform(0.0, 25.0, len(dirs))
    # one origin for every ray, then one per ray
    for origins in (np.tile(rng.uniform(-12, 12, 3), (len(dirs), 1)),
                    rng.uniform(-12, 12, (len(dirs), 3))):
        hit, dist = ray_cast_batch(scene, origins, dirs, ranges)
        for i in range(len(dirs)):
            (ref_hit,), (ref_dist,) = ray_cast_batch(scene, origins[i:i + 1], dirs[i:i + 1],
                                                     ranges[i:i + 1])
            assert hit[i] == ref_hit and dist[i] == ref_dist
        assert hit.any() and not hit.all()
    with pytest.raises(ConfigurationError):
        ray_cast_batch(scene, origins, dirs, ranges[1:])


def test_cast_rejects_a_mismatched_origin_count():
    # a cast takes one origin and one range per ray: one shared by every ray
    # raises, naming the shapes it got, rather than broadcasting
    ranges = np.full(3, 10.0)
    for origins, max_range in ((np.zeros((2, 3)), ranges), (np.zeros(3), ranges),
                               (np.zeros((1, 3)), ranges), (np.zeros((3, 3)), 10.0)):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"ray origins {origins.shape}, directions (3, 3) and ranges "
                f"{np.shape(max_range)}")):
            ray_cast_batch(Scene(), origins, np.eye(3), max_range)
    with pytest.raises(ConfigurationError, match=re.escape("starts (1, 3) to ends (3, 3)")):
        line_of_sight(Scene(), np.zeros((1, 3)), np.eye(3))
    for position in (np.zeros(3), np.zeros((1, 3))):
        with pytest.raises(ConfigurationError, match=re.escape(f"origins {position.shape}")):
            lidar_sweep(position, Scene(), np.eye(3), np.empty(3, dtype=bool),
                        (np.zeros((0, 3)), np.zeros((0, 3))), np.empty(0, dtype=bool))


def test_parallel_and_in_plane_rays_raise_no_warning():
    tri = np.array([[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0)]])
    scene = Scene(triangles=tri, solid_boxes=[BoundingBox((10, 0, 0), (11, 1, 1))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        above = ray_cast_batch(scene, *per_ray((-1.0, 1.0, 1.0), [(1.0, 0.0, 0.0)], 50.0))
        inside = ray_cast_batch(scene, *per_ray((-1.0, 1.0, 0.0), [(1.0, 0.0, 0.0)], 50.0))
    assert not above[0][0] and not inside[0][0]


def test_one_firing_on_a_thousand_triangles_stays_under_32_mib():
    tris = prism_triangles((24.0, 24.0), 8.0, 24.0, sides=40, rings=12)
    assert len(tris) == 1000
    scene = Scene(triangles=tris)
    dirs = _base_directions(16, 180, math.radians(15.0))
    assert len(dirs) == 2880
    rays = per_ray((9.0, 9.0, 9.0), dirs, 40.0)
    tracemalloc.start()
    try:
        hit, _ = ray_cast_batch(scene, *rays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit.any()
    assert peak < 32 * 2**20


# --- voxelization against the per-cell loop ----------------------------------------

def loop_tri_box_overlap(center, half, tri):
    """Separating-axis test of one triangle against one cube's interior.

    Touching along an axis separates.  A triangle lying in a face of the cube
    with its normal pointing away from the cube counts as inside: no axis
    parallel to that face's normal separates it.
    """
    v = tri - center
    e = np.array([v[1] - v[0], v[2] - v[1], v[0] - v[2]])
    n = np.cross(e[0], e[1])
    face = [k for k in range(3) if n[k] != 0 and np.all(v[:, k] == math.copysign(half, n[k]))]
    axes = [np.eye(3)[k] for k in range(3)] + [n]
    for i in range(3):
        for j in range(3):
            axes.append(np.cross(e[i], np.eye(3)[j]))
    for axis in axes:
        if not np.any(axis):
            continue
        if face and np.count_nonzero(np.delete(axis, face[0])) == 0:
            continue
        p = v @ axis
        r = half * np.abs(axis).sum()
        if p.min() >= r or p.max() <= -r:
            return False
    return True


def loop_triangle_occupancy(tris, grid):
    """Each triangle against every cell of its bounding range, one at a time."""
    occ = np.zeros(grid.dims, dtype=bool)
    origin, v, dims = grid.origin_arr, grid.voxel_size, np.asarray(grid.dims)
    for tri in tris:
        t_lo = np.maximum(np.floor((tri.min(axis=0) - origin) / v - 1e-9).astype(int), 0)
        t_hi = np.minimum(np.floor((tri.max(axis=0) - origin) / v + 1e-9).astype(int) + 1, dims)
        for ix in range(t_lo[0], t_hi[0]):
            for iy in range(t_lo[1], t_hi[1]):
                for iz in range(t_lo[2], t_hi[2]):
                    center = origin + (np.array([ix, iy, iz]) + 0.5) * v
                    if loop_tri_box_overlap(center, v / 2.0, tri):
                        occ[ix, iy, iz] = True
    return occ


def test_triangle_voxelization_equals_loop_on_random_soups():
    rng = np.random.default_rng(41)
    for _ in range(8):
        grid = VoxelGrid(tuple(rng.uniform(-3, 3, 3)), (7, 6, 5), float(rng.uniform(0.5, 4)))
        span = grid.voxel_size * np.asarray(grid.dims)
        big = grid.origin_arr + rng.uniform(-0.2, 1.2, (3, 3, 3)) * span
        centers = grid.origin_arr + rng.uniform(-0.1, 1.1, (30, 1, 3)) * span
        small = centers + rng.normal(size=(30, 3, 3)) * grid.voxel_size
        tris = np.concatenate([big, small])
        assert np.array_equal(scene_occupancy(Scene(triangles=tris), grid),
                              loop_triangle_occupancy(tris, grid))


def test_triangle_voxelization_equals_loop_in_voxel_planes():
    rng = np.random.default_rng(42)
    grid = VoxelGrid((0.0, 0.0, -6.0), (8, 8, 7), 6.0)
    # vertices on grid points, and triangles flat in a voxel plane of each axis
    tris = 6.0 * (rng.integers(0, 6, (40, 1, 3)) + rng.integers(0, 3, (40, 3, 3)))
    for k in range(3):
        flat = rng.uniform(0, 12, (20, 1, 3)) + rng.uniform(0, 36, (20, 3, 3))
        flat[:, :, k] = 6.0 * rng.integers(1, 7, 20)[:, None]
        tris = np.concatenate([tris, flat, flat[:, ::-1]])     # both windings
    tower = prism_triangles((24.0, 24.0), 8.0, 24.0, sides=12, rings=8)
    for t in (tris, tower):
        assert np.array_equal(scene_occupancy(Scene(triangles=t), grid),
                              loop_triangle_occupancy(t, grid))


def test_touching_triangles_occupy_only_the_cells_they_enter():
    grid = VoxelGrid((0.0, 0.0, 0.0), (3, 3, 3), 1.0)
    # flat in the plane z = 1: the normal picks the cell layer behind it
    up = np.array([[(0.2, 0.2, 1.0), (0.8, 0.2, 1.0), (0.2, 0.8, 1.0)]])
    occ = scene_occupancy(Scene(triangles=up), grid)
    assert np.argwhere(occ).tolist() == [[0, 0, 0]]
    occ = scene_occupancy(Scene(triangles=up[:, ::-1]), grid)
    assert np.argwhere(occ).tolist() == [[0, 0, 1]]
    # standing on the plane z = 1 with one edge: only the cell above
    wall = np.array([[(0.2, 0.5, 1.0), (0.8, 0.5, 1.0), (0.5, 0.5, 1.7)]])
    assert np.argwhere(scene_occupancy(Scene(triangles=wall), grid)).tolist() == [[0, 0, 1]]
    # a closed cube mesh on voxel planes occupies what the same box does
    lo, hi = np.array([1.0, 0.0, 1.0]), np.array([2.0, 3.0, 3.0])
    box = Scene(solid_boxes=[BoundingBox(tuple(lo), tuple(hi))])
    assert np.array_equal(scene_occupancy(Scene(triangles=cube_mesh(lo, hi)), grid),
                          scene_occupancy(box, grid))


def test_tower_cap_leaves_the_cells_above_it_free():
    # the bench tower's cap and top ring meet the plane z = 24 of a 6 m grid
    grid = VoxelGrid((0.0, 0.0, -6.0), (8, 8, 8), 6.0)
    tower = prism_triangles((24.0, 24.0), 8.0, 24.0, sides=12, rings=8)
    occ = scene_occupancy(Scene(triangles=tower), grid)
    assert not occ[:, :, 5:].any()
    assert occ[3:5, 3:5, 4].all()          # the cells under the cap's middle
    assert occ.sum() == 48


def cube_mesh(lo, hi):
    """The 12 triangles of an axis-aligned box, wound with outward normals."""
    c = np.array([[lo[0] if i & 1 == 0 else hi[0], lo[1] if i & 2 == 0 else hi[1],
                   lo[2] if i & 4 == 0 else hi[2]] for i in range(8)])
    quads = [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4), (2, 6, 7, 3), (0, 4, 6, 2), (1, 3, 7, 5)]
    return np.array([c[[a, b, d]] for a, b, cc, d in quads] +
                    [c[[b, cc, d]] for a, b, cc, d in quads])


# --- golden mission -------------------------------------------------------------

# Digest of the mission below; it pins the triangle path of the raycaster
# (LiDAR, camera visibility and line of sight) end to end.
PRISM_GOLDEN = "2d51fadcbf4dc9b64194d7a11ab39f25c1ff6fac897c3e0e6e04f7dcf1b18da9"


def prism_mission():
    """The golden mission's config and scene: a 56-triangle prism, three agents."""
    tris = prism_triangles((24.0, 24.0), 6.0, 18.0, sides=8, rings=3)
    scene = Scene(triangles=tris, interest_points=centroid_points(tris),
                  inspection_boxes=[BoundingBox((6.0, 6.0, 0.0), (42.0, 42.0, 30.0))])
    cfg = MissionConfig(
        duration=45.0,
        agents=(AgentSpec("explorer", (9.0, 21.0, 21.0)),
                AgentSpec("photographer", (9.0, 9.0, 9.0)),
                AgentSpec("photographer", (39.0, 39.0, 9.0))),
        waypoint_standoff=12.0,
        camera=CameraConfig(exposure=0.01, range=40.0),
        lidar=LidarConfig(beams=8, azimuth_steps=60),
    )
    return cfg, scene


def test_prism_mission_matches_golden_digest():
    result = run_mission(*prism_mission())
    assert result.digest() == PRISM_GOLDEN
    # the cap lies on the plane z = 18; the cells above it are free
    assert result.violations == 0
