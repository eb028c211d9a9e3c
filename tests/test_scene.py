import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_engine import bench_workload, shipped
from test_mesh import per_ray
from test_world import assert_same, extreme_floats, point_arrays, vector_stacks
from uavinspect.errors import ConfigurationError
from uavinspect import engine
from uavinspect import scene as scene_module
from uavinspect.scene import (_EPS_BACKOFF, FACES, Scene, SightLines, _norm,
                              _slabs, line_of_sight, ray_cast_batch, scatter_box_face_points,
                              scene_occupancy, visible_point_indices)
from uavinspect.world import BoundingBox, VoxelGrid, _max3, _min3


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
    hit, dist = ray_cast_batch(wall_scene(), *per_ray((0, 0, 0), [(1, 0, 0)], 50.0))
    assert hit.tolist() == [True]
    assert dist[0] == pytest.approx(10.0, abs=1e-9)


def test_ray_beyond_range_misses():
    hit, dist = ray_cast_batch(wall_scene(), *per_ray((0, 0, 0), [(1, 0, 0)], 5.0))
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
        (hit,), (dist,) = ray_cast_batch(scene, *per_ray(origin, [d], 40.0))
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
        (a_hit,), (a_dist,) = ray_cast_batch(small, *per_ray(origin, [d], 20.0))
        (b_hit,), (b_dist,) = ray_cast_batch(bigger, *per_ray(origin, [d], 20.0))
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
        # one origin for every ray, then one per ray
        for o in (np.tile(origins[:1], (len(origins), 1)), origins):
            rel = o[:, None]
            ref_tn, ref_tf = reference_slabs(scene._box_lo - rel, scene._box_hi - rel, inv)
            tn, tf = _slabs(scene._box_lo, scene._box_hi, o, np.ascontiguousarray(inv.T))
            assert np.array_equal(tn, ref_tn.T, equal_nan=True)
            assert np.array_equal(tf, ref_tf.T, equal_nan=True)
            nans += np.count_nonzero(np.isnan(tn))
            for max_range in (2.0, 30.0):
                hit, dist = ray_cast_batch(scene, o, dirs, np.full(len(dirs), max_range))
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
    hit, dist = ray_cast_batch(scene, *per_ray(a, d[None, :], length))
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
    scene = Scene(interest_points=point_arrays([(0, (5.0, 0.0, 0.0), (-1.0, 0.0, 0.0))]))
    viewer, idx = visible_point_indices(scene, [(0, 0, 0)], within_range(scene, (0, 0, 0), 50))
    assert viewer.tolist() == [0]
    assert scene.point_ids[idx].tolist() == [0]


def test_point_behind_wall_is_hidden():
    pts = point_arrays([(0, (20.0, 0.0, 0.0), (-1.0, 0.0, 0.0))])
    scene = Scene(solid_boxes=[BoundingBox((10, -50, -50), (11, 50, 50))],
                  interest_points=pts)
    _, idx = visible_point_indices(scene, [(0, 0, 0)], within_range(scene, (0, 0, 0), 50))
    assert len(idx) == 0


def test_cube_far_side_points_are_hidden():
    # points centered on each face of a cube; only the -x face looks at the camera
    cube = BoundingBox((10, -5, -5), (20, 5, 5))
    faces = point_arrays([
        (0, (10.0, 0.0, 0.0), (-1, 0, 0)),
        (1, (20.0, 0.0, 0.0), (1, 0, 0)),
        (2, (15.0, -5.0, 0.0), (0, -1, 0)),
        (3, (15.0, 5.0, 0.0), (0, 1, 0)),
        (4, (15.0, 0.0, -5.0), (0, 0, -1)),
        (5, (15.0, 0.0, 5.0), (0, 0, 1)),
    ])
    scene = Scene(solid_boxes=[cube], interest_points=faces)
    _, idx = visible_point_indices(scene, [(0, 0, 0)], within_range(scene, (0, 0, 0), 100))
    assert scene.point_ids[idx].tolist() == [0]


def test_visible_points_subset_and_deterministic():
    rng = np.random.default_rng(29)
    pts = [(i, rng.uniform(-10, 10, 3), unit(rng.normal(size=3))) for i in range(40)]
    scene = Scene(solid_boxes=[BoundingBox((-3, -3, -3), (3, 3, 3))],
                  interest_points=point_arrays(pts))
    apex = (8.0, 8.0, 8.0)
    mask = within_range(scene, apex, 15)
    _, a = visible_point_indices(scene, [apex], mask)
    _, b = visible_point_indices(scene, [apex], mask)
    assert a.tolist() == b.tolist()
    assert set(a.tolist()) <= set(np.flatnonzero(mask[0]).tolist())


def reference_visible_point_indices(scene, apexes, candidate_mask):
    """visible_point_indices casting the sight line of every facing pair: the
    oracle of its exposure cull."""
    viewer, idx = np.nonzero(np.atleast_2d(candidate_mask))
    apex = np.asarray(apexes, dtype=float).reshape(-1, 3)[viewer]
    point, normal = scene.point_positions[idx], scene.point_normals[idx]
    facing = np.einsum("nk,nk->n", normal, apex - point) > 0.0
    viewer, idx, apex = viewer[facing], idx[facing], apex[facing]
    if len(idx) == 0:
        return viewer, idx
    clear = line_of_sight(scene, apex, point[facing] + normal[facing] * _EPS_BACKOFF)
    return viewer[clear], idx[clear]


def reference_exposed(scene):
    """Scene.exposed primitive by primitive: a triangle rises to its highest
    vertex, a box to its support along the normal."""
    flags = []
    for p, n in zip(scene.point_positions, scene.point_normals):
        rise = [max(float(n @ (v - p)) for v in tri) for tri in scene.triangles]
        rise += [sum(max(n[k] * box.lo[k], n[k] * box.hi[k]) for k in range(3)) - float(n @ p)
                 for box in scene.solid_boxes]
        flags.append(max(rise, default=-math.inf) <= _EPS_BACKOFF / 2)
    return flags


def _tessellated_plane(rng, cells):
    """Triangles of a tilted square, cells x cells quads of two triangles,
    each vertex on the plane up to rounding."""
    sx, sy = rng.uniform(-0.5, 0.5, 2)
    xy = np.linspace(-10.0, 10.0, cells + 1)
    tris = []
    for x0, x1 in zip(xy[:-1], xy[1:]):
        for y0, y1 in zip(xy[:-1], xy[1:]):
            a, b, c, d = ((x, y, sx * x + sy * y + 1.0)
                          for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
            tris += [(a, b, c), (a, c, d)]
    return np.array(tris)


@st.composite
def visibility_cases(draw):
    """A box set, a triangle soup, or a tessellated plane of coplanar
    neighbours with occluders over it; interest points on their surfaces,
    normals tilted a little and rounded to 6 decimals; and viewers anywhere,
    inside boxes, or at heights in (0, 2 * _EPS_BACKOFF] above a point's
    tangent plane, looking along it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["boxes", "soup", "plane"]))
    lo = np.round(rng.uniform(-8, 6, (draw(st.integers(int(kind == "boxes"), 4)), 3)))
    hi = lo + np.round(rng.uniform(1, 6, lo.shape))
    if kind == "plane":
        tris = _tessellated_plane(rng, draw(st.integers(1, 4)))
        lo[:, 2] += 12.0                        # boxes and triangles above the plane
        hi[:, 2] += 12.0
        tris = np.vstack([tris, rng.uniform(-10, 10, (draw(st.integers(0, 3)), 3, 3))
                          + (0.0, 0.0, 12.0)])
    else:
        tris = rng.uniform(-10, 10, (draw(st.integers(1, 12)) if kind == "soup" else 0, 3, 3))
    boxes = [BoundingBox(tuple(a), tuple(b)) for a, b in zip(lo, hi)]

    positions, normals = [], []
    for _ in range(draw(st.integers(1, 16))):
        if len(tris) and (not boxes or rng.random() < 0.5):
            v0, v1, v2 = tris[rng.integers(len(tris))]
            u, v = rng.random(2)
            if u + v > 1.0:
                u, v = 1.0 - u, 1.0 - v
            positions.append(v0 + u * (v1 - v0) + v * (v2 - v0))
            normals.append(np.cross(v1 - v0, v2 - v0) * rng.choice([-1.0, 1.0]))
        else:
            b = rng.integers(len(boxes))
            k, side = rng.integers(3), rng.integers(2)
            p = rng.uniform(lo[b], hi[b])
            p[k] = (lo[b], hi[b])[side][k]
            positions.append(p)
            normals.append(np.eye(3)[k] * (2 * side - 1))
    tilt = draw(st.sampled_from([0.0, 1e-6, 1e-5, 1e-4, 1e-2]))
    normals = [unit(n) + rng.normal(scale=tilt, size=3) for n in normals]
    normals = [np.round(unit(n), 6) for n in normals]
    points = (np.arange(len(positions)), positions, normals)
    scene = Scene(solid_boxes=boxes, triangles=tris if len(tris) else None,
                  interest_points=points)

    apexes = []
    heights = st.one_of(st.sampled_from([_EPS_BACKOFF, np.nextafter(_EPS_BACKOFF, 0.0),
                                         _EPS_BACKOFF / 2, 2 * _EPS_BACKOFF]),
                        st.floats(0.0, 2 * _EPS_BACKOFF, exclude_min=True))
    for _ in range(draw(st.integers(1, 5))):
        where = draw(st.sampled_from(["anywhere", "grazing", "inside"]))
        if where == "grazing":
            j = rng.integers(scene.num_points)
            p, n = scene.point_positions[j], scene.point_normals[j]
            along = rng.normal(size=3)
            along -= (along @ n) * n
            apexes.append(p + n * draw(heights) + along * rng.uniform(0, 3))
        elif where == "inside" and boxes:
            b = rng.integers(len(boxes))
            apexes.append(rng.uniform(lo[b], hi[b]))
        else:
            apexes.append(rng.uniform(-15, 15, 3))
    mask = rng.random((len(apexes), scene.num_points)) < draw(st.sampled_from([1.0, 0.5]))
    return scene, np.array(apexes), mask


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=visibility_cases())
def test_exposure_cull_equals_casting_every_pair(case):
    scene, apexes, mask = case
    assert scene.exposed.tolist() == reference_exposed(scene)
    got = visible_point_indices(scene, apexes, mask)
    expected = reference_visible_point_indices(scene, apexes, mask)
    assert [a.tolist() for a in got] == [a.tolist() for a in expected]


def test_every_mesh_tower_point_is_exposed():
    # a convex tower: no triangle rises above a point's tangent plane
    for seed in (1, 7):
        _, scene = bench_workload("mesh_tower", seed)
        assert scene.exposed.all()


def test_a_point_facing_a_wall_is_not_exposed():
    # the wall's near face is x = 10; a normal tilted by 1e-5 toward +y lifts
    # the face's far edge, 50 m away, 5e-4 above the tangent plane
    pts = point_arrays([(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
                        (1, (0.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
                        (2, (10.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
                        (3, (10.0, 0.0, 0.0), (-1.0, 0.9e-5, 0.0)),
                        (4, (10.0, 0.0, 0.0), (-1.0, 1.1e-5, 0.0))])
    scene = Scene(solid_boxes=wall_scene().solid_boxes, interest_points=pts)
    assert scene.exposed.tolist() == [False, True, True, True, False]
    assert Scene(interest_points=pts).exposed.all()     # nothing to hide behind


def test_exposure_does_not_depend_on_the_chunk(monkeypatch):
    # mesh_tower's points against the tower lifted 0.5 m: its cap then rises
    # above the cap's points, and its sides stay in their planes
    _, tower = bench_workload("mesh_tower", 1)
    points = (tower.point_ids, tower.point_positions, tower.point_normals)
    lifted = tower.triangles + (0.0, 0.0, 0.5)
    expected = reference_exposed(Scene(triangles=lifted, interest_points=points))
    assert 0 < sum(expected) < len(expected)
    # 612 vertices: one point a round, two, eight, and all of them in one
    for chunk in (1, 1300, 5000, 10 ** 9):
        monkeypatch.setattr(scene_module, "_EXPOSED_CHUNK", chunk)
        assert Scene(triangles=lifted, interest_points=points).exposed.tolist() == expected


def test_zero_normal_rejected():
    with pytest.raises(ConfigurationError):
        Scene(interest_points=point_arrays([(0, (0, 0, 0), (0, 0, 0))]))


def test_scene_rejects_duplicate_ids():
    def points(*ids):
        return point_arrays([(i, (float(j), 0, 0), (1, 0, 0)) for j, i in enumerate(ids)])
    for ids, repeat in (((0, 1, 1), 1), ((5, 3, 5), 5), ((4, 9, 2, 9, 4), 9)):
        with pytest.raises(ConfigurationError,
                           match=f"interest point ids are not unique: id {repeat} repeats$"):
            Scene(interest_points=points(*ids))
    assert Scene(interest_points=points(7, 3, 5)).point_ids.tolist() == [7, 3, 5]


@pytest.mark.parametrize("pid", [2 ** 63, -2 ** 63 - 1, 2 ** 70, 1e30])
def test_scene_rejects_an_id_no_int64_holds(pid):
    # np.array(ids, dtype=int) raised a bare OverflowError
    message = f"interest point id must be an integer in [-2**63, 2**63), got {pid!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        Scene(interest_points=([3, pid], [(0.0, 0.0, 0.0)] * 2, [(1.0, 0.0, 0.0)] * 2))
    edges = Scene(interest_points=([2 ** 63 - 1, -2 ** 63], [(0.0, 0.0, 0.0)] * 2,
                                   [(1.0, 0.0, 0.0)] * 2))
    assert edges.point_ids.tolist() == [2 ** 63 - 1, -2 ** 63]


@pytest.mark.parametrize("ids, bad", [
    ([2.5, 3.7], "2.5"),
    ([4, True], "True"),
    (np.array([1, 2 ** 63], dtype=np.uint64), "np.uint64(9223372036854775808)"),
], ids=["fractional", "bool", "uint64-past-int64"])
def test_scene_holds_each_id_to_the_integer_rule(ids, bad):
    # np.array(ids, dtype=int) made these [2, 3], [4, 1] and [1, -2**63]
    message = f"interest point id must be an integer in [-2**63, 2**63), got {bad}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        Scene(interest_points=(ids, [(0.0, 0.0, 0.0)] * 2, [(1.0, 0.0, 0.0)] * 2))


@pytest.mark.parametrize("ids", [np.array([7, -3])], ids=["int64-array"])
def test_scene_takes_int64_ids_whole(monkeypatch, ids):
    # an int64 array, as the scenario parser gives, is not checked id by id
    checked = []
    monkeypatch.setattr(scene_module, "check_value", lambda *args: checked.append(args))
    scene = Scene(interest_points=(ids, [(0.0, 0.0, 0.0)] * 2, [(1.0, 0.0, 0.0)] * 2))
    assert scene.point_ids.dtype == np.int64 and scene.point_ids.tolist() == [7, -3]
    assert checked == []


def test_scene_checks_plain_int_ids_one_by_one(monkeypatch):
    # a list of plain ints takes the per-id check and gives the same array
    checked = []
    monkeypatch.setattr(scene_module, "check_value", lambda *args: checked.append(args))
    scene = Scene(interest_points=([7, -3], [(0.0, 0.0, 0.0)] * 2, [(1.0, 0.0, 0.0)] * 2))
    assert scene.point_ids.dtype == np.int64 and scene.point_ids.tolist() == [7, -3]
    assert checked == [("interest point id", 7, "integer"), ("interest point id", -3, "integer")]


@pytest.mark.parametrize("ids, positions, normals, message", [
    ([0, 1], [(0, 0, 0)], [(1, 0, 0)] * 2, r"positions must be of shape \(2, 3\) for 2 ids"),
    ([0], [(0, 0, 0)], [(1, 0, 0)] * 2, r"normals must be of shape \(1, 3\) for 1 ids"),
    ([0, 1, 2, 3], np.zeros((6, 2)), np.ones((4, 3)), r"got \(6, 2\)"),
    ([], [(0, 0, 0)], [], r"positions must be of shape \(0, 3\) for 0 ids"),
], ids=["short-positions", "long-normals", "same-size-other-shape", "points-without-ids"])
def test_scene_rejects_point_arrays_that_disagree(ids, positions, normals, message):
    with pytest.raises(ConfigurationError, match=message):
        Scene(interest_points=(ids, positions, normals))


@pytest.mark.parametrize("position, normal, message", [
    ((math.nan, 0.0, 0.0), (1, 0, 0), "interest point 7 has a non-finite position"),
    ((0.0, math.inf, 0.0), (1, 0, 0), "interest point 7 has a non-finite position"),
    ((0.0, 0.0, 0.0), (math.nan, 0, 0), "interest point 7 has a non-finite normal"),
    ((0.0, 0.0, 0.0), (math.inf, 0, 0), "interest point 7 has a non-finite normal"),
], ids=["nan-position", "inf-position", "nan-normal", "inf-normal"])
def test_scene_rejects_non_finite_points(position, normal, message):
    # a NaN normal came out as [nan, nan, nan], an inf one as [nan, 0, 0]
    points = point_arrays([(3, (1.0, 0.0, 0.0), (1, 0, 0)), (7, position, normal)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=message):
            Scene(interest_points=points)


@pytest.mark.parametrize("lo, hi", [((0, 0, 0), (math.inf, 1, 1)),
                                    ((-math.inf, 0, 0), (1, 1, 1)),
                                    ((0, math.nan, 0), (1, 1, 1))])
def test_bounding_box_rejects_non_finite_corners(lo, hi):
    with pytest.raises(ConfigurationError, match="bounding box corners must be finite"):
        BoundingBox(lo, hi)


def test_points_outside_inspection_boxes_warn():
    pts = point_arrays([(0, (100.0, 0.0, 0.0), (1, 0, 0))])
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


def test_a_triangle_past_the_arithmetic_range_is_rejected():
    # a vertex at the largest float overflowed the broad phase's bins
    limit = scene_module._MAX_TRIANGLE_COORD
    Scene(triangles=[[(0.0, 0.0, 0.0), (limit, 0.0, 0.0), (0.0, -limit, 0.0)]])
    for far in (sys.float_info.max, -2 * limit):
        with pytest.raises(ConfigurationError, match=r"^triangle 1 has a vertex past 1e\+90 m "):
            Scene(triangles=[[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
                             [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, far)]])


def test_a_normal_too_long_to_normalize_is_rejected():
    # its squared length overflowed, with numpy's RuntimeWarning
    with pytest.raises(ConfigurationError, match="^interest point 7 has a normal too long"):
        Scene(interest_points=point_arrays([(3, (0, 0, 0), (1e150, 0, 0)),
                                            (7, (0, 0, 0), (sys.float_info.max, 1e200, 0))]))


def test_geometry_past_the_grid_keeps_its_cells_on_the_grid():
    # grid coordinates were cast to int before they were clipped: a box or a
    # triangle past int64's range lost cells, with numpy's "invalid value
    # encountered in cast"
    grid = VoxelGrid((0, 0, 0), (8, 8, 8), 6.0)
    big = sys.float_info.max
    beyond = np.zeros(grid.dims, dtype=bool)
    beyond[5:, 2:6, 2:6] = True
    for far in (big, 1e30, 60.0):
        scene = Scene(solid_boxes=[BoundingBox((30, 12, 12), (far, 36, 36))])
        assert np.array_equal(scene_occupancy(scene, grid), beyond), far
    scene = Scene(solid_boxes=[BoundingBox((-big, 12, 12), (18, 36, 36))])
    assert np.array_equal(scene_occupancy(scene, grid), beyond[::-1])
    scene = Scene(triangles=[[(30, 15, 15), (1e30, 15, 15), (1e30, 20, 15)]])
    assert np.argwhere(scene_occupancy(scene, grid)).tolist() == [[5, 2, 2], [6, 2, 2], [7, 2, 2]]


def test_a_wall_past_the_grid_keeps_its_structure_cells():
    # desk_box with its x+ wall stretched to the largest float held 52
    # structure cells, not 56, and suppressed the LiDAR's hits on the cells
    # it lost
    cfg, scene = shipped("desk_box")
    boxes = list(scene.solid_boxes)
    boxes[1] = BoundingBox((30.0, 12.0, 12.0), (sys.float_info.max, 36.0, 36.0))
    stretched = Scene(solid_boxes=boxes, inspection_boxes=scene.inspection_boxes,
                      interest_points=(scene.point_ids, scene.point_positions,
                                       scene.point_normals))
    mission = engine._Mission(dataclasses.replace(cfg, duration=3.0), stretched)
    on_grid = np.zeros(mission.grid.dims, dtype=bool)
    on_grid[5:, 2:6, 2:6] = True
    assert mission.truth[on_grid].all()
    assert np.count_nonzero(mission.truth) == 56 + 2 * 16
    with pytest.warns(UserWarning, match="no explorer finished its survey"):
        assert mission.run().suppressed_returns == 0


# --- face scattering ----------------------------------------------------------

def test_scatter_is_deterministic_and_on_surface():
    box = BoundingBox((0, 0, 0), (10, 10, 10))
    a = scatter_box_face_points(box, 50, seed=42)
    b = scatter_box_face_points(box, 50, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    ids, positions, normals = a
    assert ids.tolist() == list(range(50))
    assert positions.shape == normals.shape == (50, 3)
    for pos, n in zip(positions, normals):
        axis = int(np.argmax(np.abs(n)))
        coord = 10.0 if n[axis] > 0 else 0.0
        assert pos[axis] == pytest.approx(coord)
        assert np.linalg.norm(n) == pytest.approx(1.0)


def test_scatter_rejects_a_repeated_face():
    # [x-, x-, x+] on a cube put two thirds of the points on x-, where the
    # area weighting of the two faces gives half
    box = BoundingBox((0, 0, 0), (4, 4, 4))
    with pytest.raises(ConfigurationError, match="face 'x-' is repeated in a scatter rule"):
        scatter_box_face_points(box, 3000, seed=1, faces=("x-", "x-", "x+"))


@pytest.mark.parametrize("corner, faces, area", [
    ((sys.float_info.max, 4.0, 4.0), FACES, "inf"),
    ((4.0, 1e300, 1e300), ("x-", "x+"), "inf"),
    ((1e-200, 1e-200, 4.0), ("z-", "z+"), "0.0"),
], ids=["largest-float", "product-past-the-range", "product-below-the-range"])
def test_scatter_rejects_faces_whose_area_is_not_positive_and_finite(corner, faces, area):
    # an area of inf made the face draw's probabilities NaN, and rng.choice
    # raised; one of 0 divided by 0
    box = BoundingBox((0.0, 0.0, 0.0), corner)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"have area {area}, which must be positive and finite")):
        scatter_box_face_points(box, 5, seed=1, faces=faces)


def test_scatter_on_a_finite_face_of_a_box_past_the_float_range():
    # the x faces' area is finite though the box's x extent is not
    box = BoundingBox((-sys.float_info.max, 0.0, 0.0), (sys.float_info.max, 4.0, 4.0))
    _, positions, _ = scatter_box_face_points(box, 20, seed=1, faces=("x-", "x+"))
    assert np.isfinite(positions).all()
    assert set(np.abs(positions[:, 0]).tolist()) == {sys.float_info.max}


def scatter_reference(box, count, seed, faces=FACES, id_offset=0):
    """The per-point scatter, kept as the oracle of scatter_box_face_points:
    the same two draws, then each point placed on its own."""
    lo, hi = box.lo, box.hi
    ext = hi - lo
    face_defs = {
        "x-": (0, lo[0], (-1.0, 0.0, 0.0), ext[1] * ext[2]),
        "x+": (0, hi[0], (1.0, 0.0, 0.0), ext[1] * ext[2]),
        "y-": (1, lo[1], (0.0, -1.0, 0.0), ext[0] * ext[2]),
        "y+": (1, hi[1], (0.0, 1.0, 0.0), ext[0] * ext[2]),
        "z-": (2, lo[2], (0.0, 0.0, -1.0), ext[0] * ext[1]),
        "z+": (2, hi[2], (0.0, 0.0, 1.0), ext[0] * ext[1]),
    }
    chosen = [face_defs[f] for f in faces]
    areas = np.array([c[3] for c in chosen], dtype=float)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(chosen), size=count, p=areas / areas.sum())
    uv = rng.random((count, 2))
    points = []
    for i in range(count):
        axis, coord, normal, _ = chosen[picks[i]]
        other = [a for a in range(3) if a != axis]
        p = np.zeros(3)
        p[axis] = coord
        p[other[0]] = lo[other[0]] + uv[i, 0] * ext[other[0]]
        p[other[1]] = lo[other[1]] + uv[i, 1] * ext[other[1]]
        points.append((id_offset + i, tuple(p.tolist()), normal))
    return point_arrays(points)


def outside_reference(positions, boxes) -> int:
    """Points outside every box, each tested against each box on its own;
    a box is closed on both faces."""
    def inside(p, box):
        return bool(np.all(p >= box.lo) and np.all(p <= box.hi))
    return sum(not any(inside(p, b) for b in boxes) for p in positions)


@st.composite
def scatter_scenes(draw):
    """Inspection boxes, a scatter rule on one of them or on a box of its
    own, and explicit points on the boxes' corners, edges and faces, inside
    and outside them."""
    coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))
    extent = st.one_of(st.integers(1, 4).map(float), st.floats(0.5, 100.0))

    def box():
        lo = [draw(coord) for _ in range(3)]
        return BoundingBox(tuple(lo), tuple(a + draw(extent) for a in lo))
    boxes = [box() for _ in range(draw(st.integers(1, 3)))]
    scattered = draw(st.sampled_from(boxes)) if draw(st.booleans()) else box()
    faces = tuple(draw(st.permutations(FACES))[:draw(st.integers(1, 6))])
    explicit = []
    for i in range(draw(st.integers(0, 12))):
        b = draw(st.sampled_from(boxes))
        # per axis: a face plane, the middle, or just outside
        p = tuple(draw(st.sampled_from([lo, hi, (lo + hi) / 2, lo - 0.5, hi + 0.5]))
                  for lo, hi in zip(b.min_corner, b.max_corner))
        explicit.append((i, p, (0.0, 0.0, 1.0)))
    return (boxes, scattered, draw(st.integers(0, 60)), draw(st.integers(0, 2**32 - 1)),
            faces, explicit)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=scatter_scenes())
def test_array_scatter_and_box_test_equal_the_per_point_loops(case):
    boxes, scattered, count, seed, faces, explicit = case
    got = scatter_box_face_points(scattered, count, seed, faces=faces, id_offset=len(explicit))
    expected = scatter_reference(scattered, count, seed, faces=faces, id_offset=len(explicit))
    for a, b in zip(got, expected):                 # ids, positions, normals
        assert a.shape == b.shape and a.dtype == b.dtype
        assert (a == b).all()
        assert repr(a.tolist()) == repr(b.tolist())  # -0.0 and 0.0 apart, every digit
    points = [np.concatenate(column) for column in zip(point_arrays(explicit), got)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Scene(interest_points=points, inspection_boxes=boxes)
    counts = [int(str(w.message).split()[0]) for w in caught]
    outside = outside_reference(points[1], boxes)
    assert counts == ([outside] if outside else [])
    assert all("outside every inspection box" in str(w.message) for w in caught)


@pytest.mark.parametrize("kwargs, message", [
    ({"faces": ()}, "scatter faces must name at least one face"),
    ({"count": 0, "faces": []}, "scatter faces must name at least one face"),
    ({"count": True}, "scatter count must be an integer in [0, 2**63), got True"),
    ({"count": 2.5}, "scatter count must be an integer in [0, 2**63), got 2.5"),
    ({"count": 2.0}, "scatter count must be an integer in [0, 2**63), got 2.0"),
    # numpy raised OverflowError on a count no int64 holds
    ({"count": 2 ** 64}, f"scatter count must be an integer in [0, 2**63), got {2 ** 64}"),
    ({"seed": -1}, "scatter seed must be an integer in [0, 2**63), got -1"),
    ({"seed": True}, "scatter seed must be an integer in [0, 2**63), got True"),
], ids=["no-faces", "no-faces-no-points", "bool-count", "fractional-count", "float-count",
        "count-past-int64", "negative-seed", "bool-seed"])
def test_scatter_rejects_a_bad_argument_by_name(kwargs, message):
    box = BoundingBox((0, 0, 0), (4, 4, 4))
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        scatter_box_face_points(box, **{"count": 5, "seed": 1, **kwargs})


def test_scatter_takes_numpy_integers():
    box = BoundingBox((0, 0, 0), (4, 4, 4))
    for a, b in zip(scatter_box_face_points(box, np.int64(5), np.uint8(1)),
                    scatter_box_face_points(box, 5, 1)):
        assert np.array_equal(a, b)


def test_scatter_respects_face_selection():
    box = BoundingBox((0, 0, 0), (4, 4, 4))
    _, positions, normals = scatter_box_face_points(box, 30, seed=1, faces=("z+",))
    assert positions[:, 2].tolist() == [4.0] * 30
    assert normals.tolist() == [[0.0, 0.0, 1.0]] * 30


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


def reference_lengths(rel):
    """The segment lengths of SightLines.between before the column sum."""
    return np.linalg.norm(rel, axis=1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ends=vector_stacks())
def test_sight_line_lengths_equal_the_axis_norm(ends):
    ends = ends.reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same(SightLines.between(np.zeros(ends.shape), ends).lengths,
                    reference_lengths(ends))


def reference_vertex_min(v):
    """The per-axis extremes of _tri_box_overlap's vertices before the
    column form."""
    return v.min(axis=1)


def reference_vertex_max(v):
    return v.max(axis=1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(v=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(3), st.just(3)),
                    elements=extreme_floats()))
def test_vertex_extremes_equal_the_axis_reductions(v):
    by_axis = v.transpose(0, 2, 1)
    assert_same(_min3(by_axis), reference_vertex_min(v))
    assert_same(_max3(by_axis), reference_vertex_max(v))


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
        expected = ray_cast_batch(scene, *per_ray(start, dirs, 50.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ray_cast_batch(scene, *per_ray(start, tiny, 50.0))
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        hits += np.count_nonzero(got[0])
    assert hits > 500


def test_a_tiny_direction_component_overflows_quietly():
    # the reciprocal of the least normal float is finite, but the slab
    # distances it scales overflow to the signed inf of a component of 0;
    # from an origin off every face plane such a ray casts as that one does
    cfg, scene = shipped("desk_box")
    start = cfg.agents[0].start                     # the explorer, off the faces
    rng = np.random.default_rng(9)
    dirs = rng.normal(size=(3000, 3))
    dirs[rng.random((3000, 3)) < 0.4] = 0.0
    dirs[np.all(dirs == 0.0, axis=1), 2] = -1.0
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    tiny = np.where(dirs == 0.0, 2.2250738585072014e-308, dirs)
    expected = ray_cast_batch(scene, *per_ray(start, dirs, 50.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ray_cast_batch(scene, *per_ray(start, tiny, 50.0))
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert np.count_nonzero(got[0]) > 500
