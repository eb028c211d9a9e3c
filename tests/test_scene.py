import math
import warnings

import numpy as np
import pytest

from test_engine import bench_workload, shipped
from uavinspect.errors import ConfigurationError
from uavinspect.scene import (InterestPoint, Scene, _norm, _slabs, line_of_sight, ray_cast_batch,
                              scatter_box_face_points, scene_occupancy,
                              visible_point_indices)
from uavinspect.world import BoundingBox, VoxelGrid


def wall_scene():
    """Solid slab whose near face is the plane x = 10."""
    return Scene(solid_boxes=[BoundingBox((10, -50, -50), (11, 50, 50))])


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# --- independent single-ray oracle -----------------------------------------

def brute_force_distance(scene, origin, direction, max_range):
    """Nearest hit over every primitive, computed per primitive with scalar math."""
    origin = np.asarray(origin, dtype=float)
    d = unit(direction)
    best = math.inf

    for box in scene.solid_boxes:
        t0, t1 = -math.inf, math.inf
        ok = True
        for a in range(3):
            if abs(d[a]) < 1e-15:
                if not (box.lo[a] <= origin[a] <= box.hi[a]):
                    ok = False
                    break
            else:
                ta = (box.lo[a] - origin[a]) / d[a]
                tb = (box.hi[a] - origin[a]) / d[a]
                if ta > tb:
                    ta, tb = tb, ta
                t0, t1 = max(t0, ta), min(t1, tb)
        if ok and t1 >= t0 and t1 > 1e-9:
            t = t0 if t0 > 1e-9 else 0.0
            best = min(best, t)

    for tri in scene.triangles:
        v0, v1, v2 = tri
        e1, e2 = v1 - v0, v2 - v0
        h = np.cross(d, e2)
        a = float(e1 @ h)
        if abs(a) < 1e-12:
            continue
        f = 1.0 / a
        s = origin - v0
        u = f * float(s @ h)
        if u < -1e-12 or u > 1 + 1e-12:
            continue
        q = np.cross(s, e1)
        v = f * float(d @ q)
        if v < -1e-12 or u + v > 1 + 1e-12:
            continue
        t = f * float(e2 @ q)
        if t > 1e-9:
            best = min(best, t)

    return best if best <= max_range else None


# --- ray casting ------------------------------------------------------------

def test_ray_hits_wall_at_distance_10():
    hit, dist = ray_cast_batch(wall_scene(), (0, 0, 0), [(1, 0, 0)], 50.0)
    assert hit.tolist() == [True]
    assert dist[0] == pytest.approx(10.0, abs=1e-9)


def test_ray_beyond_range_misses():
    hit, dist = ray_cast_batch(wall_scene(), (0, 0, 0), [(1, 0, 0)], 5.0)
    assert hit.tolist() == [False]
    assert dist[0] == math.inf


def test_ray_cast_against_brute_force_oracle():
    rng = np.random.default_rng(21)
    boxes = [
        BoundingBox(tuple(lo), tuple(lo + rng.uniform(1, 6, 3)))
        for lo in rng.uniform(-10, 10, (4, 3))
    ]
    tris = rng.uniform(-12, 12, (6, 3, 3))
    scene = Scene(solid_boxes=boxes, triangles=tris)
    for _ in range(300):
        origin = rng.uniform(-15, 15, 3)
        d = unit(rng.normal(size=3))
        expected = brute_force_distance(scene, origin, d, 40.0)
        (hit,), (dist,) = ray_cast_batch(scene, origin, [d], 40.0)
        if expected is None:
            assert not hit
        else:
            assert hit
            assert dist == pytest.approx(expected, abs=1e-9)


def test_ray_distance_never_exceeds_max_range_and_is_subset_monotone():
    rng = np.random.default_rng(22)
    small = Scene(solid_boxes=[BoundingBox((5, -5, -5), (8, 5, 5))])
    bigger = Scene(solid_boxes=[BoundingBox((5, -5, -5), (8, 5, 5)),
                                BoundingBox((2, -9, -9), (3, 9, 9))])
    for _ in range(200):
        origin = rng.uniform(-4, 1, 3) * np.array([1, 1, 1])
        d = unit(rng.normal(size=3))
        (a_hit,), (a_dist,) = ray_cast_batch(small, origin, [d], 20.0)
        (b_hit,), (b_dist,) = ray_cast_batch(bigger, origin, [d], 20.0)
        if a_hit:
            assert a_dist <= 20.0 + 1e-12
            assert b_hit and b_dist <= a_dist + 1e-12


# --- box slabs against the (rays, boxes) layout ------------------------------

def reference_slabs(lo, hi, inv):
    """The slab test in (rays, boxes) layout, on boxes given relative to the
    ray origins: lo and hi are (1, boxes, 3) for a shared origin, (rays,
    boxes, 3) for one origin per ray."""
    tn = tf = None
    with np.errstate(invalid="ignore"):
        for k in range(3):
            t1 = lo[:, :, k] * inv[:, k, None]
            t2 = hi[:, :, k] * inv[:, k, None]
            n, f = np.minimum(t1, t2), np.maximum(t1, t2)
            tn = n if tn is None else np.maximum(tn, n)
            tf = f if tf is None else np.minimum(tf, f)
    return tn, tf


def reference_box_cast(scene, origins, dirs, max_range):
    """Nearest box hits by the (rays, boxes) slab test."""
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs
    o = origins.reshape(-1, 3)[:, None]
    tn, tf = reference_slabs(scene._box_lo - o, scene._box_hi - o, inv)
    ok = (tf >= tn) & (tf > 1e-9) & (tn <= max_range)
    best = np.where(ok, np.where(tn > 1e-9, tn, 0.0), np.inf).min(axis=1)
    return best <= max_range, best


def face_rays(scene, rng, count):
    """Origins on box faces, edges and corners, with rays along the faces and
    the axes, plus random ones."""
    lo, hi = scene._box_lo, scene._box_hi
    box = rng.integers(0, len(lo), count)
    pick = rng.integers(0, 3, (count, 3))              # per axis: low face, high face, inside
    inside = rng.uniform(lo[box], hi[box])
    origins = np.where(pick == 0, lo[box], np.where(pick == 1, hi[box], inside))
    origins[::7] += rng.uniform(-3, 3, (len(origins[::7]), 3))
    dirs = rng.normal(size=(count, 3))
    dirs[rng.random((count, 3)) < 0.3] = 0.0            # along faces and axes
    dirs[np.all(dirs == 0.0, axis=1), 0] = -1.0
    return origins, dirs / np.linalg.norm(dirs, axis=1)[:, None]


def test_box_slabs_equal_the_rays_by_boxes_reference():
    rng = np.random.default_rng(24)
    nans = 0
    for _ in range(20):
        lo = np.round(rng.uniform(-10, 8, (int(rng.integers(1, 9)), 3)))
        boxes = [BoundingBox(tuple(l), tuple(l + np.round(rng.uniform(1, 6, 3)))) for l in lo]
        scene = Scene(solid_boxes=boxes)
        origins, dirs = face_rays(scene, rng, 300)
        with np.errstate(divide="ignore"):
            inv = 1.0 / dirs
        for o in (origins[:1], origins):                 # shared, then one per ray
            rel = o[:, None]
            ref_tn, ref_tf = reference_slabs(scene._box_lo - rel, scene._box_hi - rel, inv)
            tn, tf = _slabs(scene._box_lo, scene._box_hi, o, np.ascontiguousarray(inv.T))
            assert np.array_equal(tn, ref_tn.T, equal_nan=True)
            assert np.array_equal(tf, ref_tf.T, equal_nan=True)
            nans += np.count_nonzero(np.isnan(tn))
            for max_range in (2.0, 30.0):
                hit, dist = ray_cast_batch(scene, o, dirs, max_range)
                ref_hit, ref_dist = reference_box_cast(scene, o, dirs, max_range)
                assert np.array_equal(hit, ref_hit) and np.array_equal(dist, ref_dist)
    assert nans > 100                                    # rays along box faces


# --- line of sight ----------------------------------------------------------

def test_los_empty_scene_everywhere():
    empty = Scene()
    rng = np.random.default_rng(1)
    pairs = rng.uniform(-50, 50, (20, 2, 3))
    assert line_of_sight(empty, pairs[:, 0], pairs[:, 1]).all()


def test_los_blocked_by_wall():
    got = line_of_sight(wall_scene(), [(0, 0, 0), (0, 0, 0)], [(20, 0, 0), (5, 0, 0)])
    assert got.tolist() == [False, True]


def test_los_symmetric_1000_random_pairs():
    scene = Scene(solid_boxes=[
        BoundingBox((-2, -8, -8), (2, 8, 8)),
        BoundingBox((4, -1, -1), (6, 9, 9)),
    ])
    rng = np.random.default_rng(23)
    pairs = rng.uniform(-12, 12, (1000, 2, 3))
    a, b = pairs[:, 0], pairs[:, 1]
    assert np.array_equal(line_of_sight(scene, a, b), line_of_sight(scene, b, a))


def reference_line_of_sight(scene, a, b):
    """One segment per cast, its length by np.linalg.norm of one vector: the
    pairwise oracle for line_of_sight."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.linalg.norm(b - a))
    if length < 1e-12:
        return True
    d = (b - a) / length
    hit, dist = ray_cast_batch(scene, a, d[None, :], length)
    return not (hit[0] and dist[0] < length - 1e-6)


def awkward_segments(scene, rng, count):
    """Random segments plus ones that graze the scene: ends on box faces,
    corners and triangle vertices, segments lying in box faces, starts
    inside boxes, and coincident ends."""
    lo = scene._box_lo
    hi = scene._box_hi
    corners = np.vstack([lo, hi, scene.triangles.reshape(-1, 3)])
    starts = rng.uniform(-15, 15, (count, 3))
    ends = rng.uniform(-15, 15, (count, 3))
    k = rng.integers(0, 3, count)
    box = rng.integers(0, len(lo), count)
    on_face = ends.copy()
    on_face[np.arange(count), k] = np.where(rng.random(count) < 0.5, lo[box, k], hi[box, k])
    in_face = on_face.copy()
    other = (k + 1) % 3
    in_face[np.arange(count), other] = rng.uniform(lo[box, other], hi[box, other])
    along = in_face.copy()
    along[np.arange(count), (k + 2) % 3] = rng.uniform(-15, 15, count)
    inside = rng.uniform(lo[box], hi[box])
    pick = corners[rng.integers(0, len(corners), (count, 2))]
    return (np.vstack([starts, starts, in_face, inside, pick[:, 0], starts, on_face]),
            np.vstack([ends, on_face, along, ends, pick[:, 1], starts, on_face]))


def test_array_los_equals_pairwise_reference():
    rng = np.random.default_rng(29)
    for trial in range(12):
        lo = np.round(rng.uniform(-10, 8, (4, 3)))
        boxes = [BoundingBox(tuple(l), tuple(l + np.round(rng.uniform(1, 6, 3))))
                 for l in lo]
        tris = rng.uniform(-12, 12, (int(rng.integers(0, 30)), 3, 3))
        scene = Scene(solid_boxes=boxes, triangles=tris if trial % 3 else None)
        a, b = awkward_segments(scene, rng, 150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = line_of_sight(scene, a, b)
        assert got.tolist() == [reference_line_of_sight(scene, p, q) for p, q in zip(a, b)]
    assert line_of_sight(scene, np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


# --- interest point visibility ----------------------------------------------

def within_range(scene, apex, limit):
    """Candidate mask of one viewer: the points within limit of apex."""
    return np.linalg.norm(scene.point_positions - apex, axis=1)[None, :] <= limit


def test_point_directly_ahead_is_visible():
    pts = [InterestPoint(0, (5.0, 0.0, 0.0), (-1.0, 0.0, 0.0))]
    scene = Scene(interest_points=pts)
    viewer, idx = visible_point_indices(scene, [(0, 0, 0)], within_range(scene, (0, 0, 0), 50))
    assert viewer.tolist() == [0]
    assert scene.point_ids[idx].tolist() == [0]


def test_point_behind_wall_is_hidden():
    pts = [InterestPoint(0, (20.0, 0.0, 0.0), (-1.0, 0.0, 0.0))]
    scene = Scene(solid_boxes=[BoundingBox((10, -50, -50), (11, 50, 50))],
                  interest_points=pts)
    _, idx = visible_point_indices(scene, [(0, 0, 0)], within_range(scene, (0, 0, 0), 50))
    assert len(idx) == 0


def test_cube_far_side_points_are_hidden():
    # points centered on each face of a cube; only the -x face looks at the camera
    cube = BoundingBox((10, -5, -5), (20, 5, 5))
    faces = [
        InterestPoint(0, (10.0, 0.0, 0.0), (-1, 0, 0)),
        InterestPoint(1, (20.0, 0.0, 0.0), (1, 0, 0)),
        InterestPoint(2, (15.0, -5.0, 0.0), (0, -1, 0)),
        InterestPoint(3, (15.0, 5.0, 0.0), (0, 1, 0)),
        InterestPoint(4, (15.0, 0.0, -5.0), (0, 0, -1)),
        InterestPoint(5, (15.0, 0.0, 5.0), (0, 0, 1)),
    ]
    scene = Scene(solid_boxes=[cube], interest_points=faces)
    _, idx = visible_point_indices(scene, [(0, 0, 0)], within_range(scene, (0, 0, 0), 100))
    assert scene.point_ids[idx].tolist() == [0]


def test_visible_points_subset_and_deterministic():
    rng = np.random.default_rng(29)
    pts = [InterestPoint(i, tuple(rng.uniform(-10, 10, 3)), tuple(unit(rng.normal(size=3))))
           for i in range(40)]
    scene = Scene(solid_boxes=[BoundingBox((-3, -3, -3), (3, 3, 3))],
                  interest_points=pts)
    apex = (8.0, 8.0, 8.0)
    mask = within_range(scene, apex, 15)
    _, a = visible_point_indices(scene, [apex], mask)
    _, b = visible_point_indices(scene, [apex], mask)
    assert a.tolist() == b.tolist()
    assert set(a.tolist()) <= set(np.flatnonzero(mask[0]).tolist())


def test_zero_normal_rejected():
    with pytest.raises(ConfigurationError):
        Scene(interest_points=[InterestPoint(0, (0, 0, 0), (0, 0, 0))])


def test_scene_rejects_duplicate_ids():
    def points(*ids):
        return [InterestPoint(i, (float(j), 0, 0), (1, 0, 0)) for j, i in enumerate(ids)]
    for ids in ((0, 1, 1), (5, 3, 5)):
        with pytest.raises(ConfigurationError, match="interest point ids are not unique"):
            Scene(interest_points=points(*ids))
    assert Scene(interest_points=points(7, 3, 5)).point_ids.tolist() == [7, 3, 5]


def test_points_outside_inspection_boxes_warn():
    pts = [InterestPoint(0, (100.0, 0.0, 0.0), (1, 0, 0))]
    with pytest.warns(UserWarning):
        Scene(interest_points=pts,
              inspection_boxes=[BoundingBox((0, 0, 0), (1, 1, 1))])


# --- ground-truth voxelization -----------------------------------------------

def test_box_voxelization_exact_and_face_touch_excluded():
    grid = VoxelGrid((0, 0, 0), (8, 8, 8), 6.0)
    scene = Scene(solid_boxes=[BoundingBox((12, 12, 12), (18, 36, 36))])
    occ = scene_occupancy(scene, grid)
    expected = np.zeros((8, 8, 8), dtype=bool)
    expected[2, 2:6, 2:6] = True
    assert np.array_equal(occ, expected)


def test_triangle_voxelization_matches_sampling():
    grid = VoxelGrid((0, 0, 0), (6, 6, 6), 1.0)
    tri = np.array([[(0.2, 0.2, 2.5), (5.5, 0.3, 2.5), (0.3, 5.5, 2.5)]])
    scene = Scene(triangles=tri)
    occ = scene_occupancy(scene, grid)
    # dense barycentric sampling of the triangle as the reference
    expected = np.zeros((6, 6, 6), dtype=bool)
    v0, v1, v2 = tri[0]
    for u in np.linspace(0, 1, 400):
        for w in np.linspace(0, 1 - u, max(2, int(400 * (1 - u)) + 1)):
            p = v0 + u * (v1 - v0) + w * (v2 - v0)
            idx = tuple(np.floor(p / 1.0).astype(int))
            expected[idx] = True
    # sampling can only under-approximate: everything sampled must be marked
    assert np.all(occ[expected])
    # and marked voxels must at least touch the triangle's bounding slab
    assert occ[:, :, 2].sum() == occ.sum()


# --- face scattering ----------------------------------------------------------

def test_scatter_is_deterministic_and_on_surface():
    box = BoundingBox((0, 0, 0), (10, 10, 10))
    a = scatter_box_face_points(box, 50, seed=42)
    b = scatter_box_face_points(box, 50, seed=42)
    assert a == b
    assert len(a) == 50
    for p in a:
        pos = np.asarray(p.position)
        n = np.asarray(p.normal)
        axis = int(np.argmax(np.abs(n)))
        coord = 10.0 if n[axis] > 0 else 0.0
        assert pos[axis] == pytest.approx(coord)
        assert np.linalg.norm(n) == pytest.approx(1.0)


def test_scatter_respects_face_selection():
    box = BoundingBox((0, 0, 0), (4, 4, 4))
    pts = scatter_box_face_points(box, 30, seed=1, faces=("z+",))
    for p in pts:
        assert p.position[2] == pytest.approx(4.0)
        assert p.normal == (0.0, 0.0, 1.0)


# --- vector lengths and tiny direction components ------------------------------

def test_norm_equals_the_per_vector_numpy_norm_bit_for_bit():
    # the act kernels and the camera frames take every length from _norm, so
    # a stack of vectors must get the lengths np.linalg.norm gives one by one;
    # a host whose BLAS dot breaks this fails here, not in a digest
    rng = np.random.default_rng(2024)
    v = rng.normal(size=(200_000, 3)) * 10.0 ** rng.uniform(-6, 6, size=(200_000, 1))
    v[:1000] *= 10.0 ** rng.uniform(-6, 6, size=(1000, 3))     # mixed scales in a vector
    v[1000:2000, rng.integers(3, size=1000)] = 0.0
    v[2000:3000, 0] = -0.0
    got = _norm(v)
    expected = np.array([np.linalg.norm(row) for row in v])
    assert got.tobytes() == expected.tobytes()
    assert _norm(v.reshape(-1, 50, 3)).tobytes() == expected.tobytes()
    # the sum the axis=-1 norm takes is not this one
    assert not np.array_equal(np.linalg.norm(v, axis=-1), expected)


@pytest.mark.parametrize("scene_of", [lambda: shipped("desk_box"),
                                      lambda: bench_workload("mesh_tower", 1)],
                         ids=["desk_box", "mesh_tower"])
def test_a_subnormal_direction_component_casts_as_zero(scene_of):
    # 1 / 5e-324 overflows to the same signed inf that 1 / 0.0 gives
    cfg, scene = scene_of()
    rng = np.random.default_rng(9)
    dirs = rng.normal(size=(3000, 3))
    dirs[rng.random((3000, 3)) < 0.4] = 0.0
    dirs[np.all(dirs == 0.0, axis=1), 2] = -1.0
    dirs[rng.random((3000, 3)) < 0.5] *= -1.0                   # -0.0 as well as 0.0
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    tiny = np.where(dirs == 0.0, np.copysign(5e-324, dirs), dirs)
    assert np.count_nonzero(tiny != dirs) > 1000
    hits = 0
    for start in [a.start for a in cfg.agents]:
        expected = ray_cast_batch(scene, start, dirs, 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ray_cast_batch(scene, start, tiny, 50.0)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        hits += np.count_nonzero(got[0])
    assert hits > 500
