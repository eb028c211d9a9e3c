import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings

from test_agents import AgentState, GimbalState
from test_mesh import per_ray
from test_scene import awkward_segments
from test_world import assert_same, point_arrays, vector_stacks
from uavinspect import sensors
from uavinspect.errors import ConfigurationError
from uavinspect.scene import (_EPS_LOS, Scene, line_of_sight, ray_cast_batch,
                              scatter_box_face_points, visible_point_indices)
from uavinspect.sensors import (CameraConfig, LidarConfig, _blur_batch, _fov_mask,
                                _resolution_batch, camera_axis, camera_basis, camera_pose,
                                lidar_directions, lidar_sweep, observe, servo_angle)
from uavinspect.world import BoundingBox, _length


def agent(pos=(0, 0, 0), vel=(0, 0, 0), yaw=0.0):
    return AgentState(0, np.array(pos, dtype=float), yaw,
                      np.array(vel, dtype=float))


def cam(**kw):
    return CameraConfig(**kw)


def poses(states, gimbals):
    """The pose rows observe takes for index-aligned states and gimbals."""
    return camera_pose(np.array([s.position for s in states], dtype=float).reshape(-1, 3),
                       np.array([s.velocity for s in states], dtype=float).reshape(-1, 3),
                       np.array([s.yaw for s in states], dtype=float),
                       np.array([g.inclination for g in gimbals], dtype=float),
                       np.array([g.azimuth for g in gimbals], dtype=float))


# --- camera frame -------------------------------------------------------------

def test_camera_axis_neutral_is_body_forward():
    assert np.allclose(camera_axis(0.0, 0.0, 0.0), (1, 0, 0))
    assert np.allclose(camera_axis(math.pi / 2, 0.0, 0.0), (0, 1, 0), atol=1e-12)


def test_camera_axis_pitched_down():
    assert np.allclose(camera_axis(0.3, math.radians(-90.0), 0.0), (0, 0, -1), atol=1e-12)


def test_camera_basis_is_orthonormal_and_right_handed():
    rng = np.random.default_rng(2)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        basis = camera_basis(axis)
        assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
        x, y, z = basis.T
        assert np.allclose(np.cross(x, y), z, atol=1e-12)
        assert abs(x[2]) < 1e-9          # image-right stays level
        assert np.allclose(z, axis)


def reference_basis(axis):
    """The camera frame of one axis, by np.linalg.norm and np.cross."""
    z = np.asarray(axis, dtype=float)
    z = z / np.linalg.norm(z)
    horiz = np.array([z[1], -z[0], 0.0])
    h = float(np.linalg.norm(horiz))
    x = horiz / h if h > 1e-9 else np.array([1.0, 0.0, 0.0])
    return np.column_stack([x, np.cross(z, x), z])


def test_camera_basis_equals_np_cross_reference():
    rng = np.random.default_rng(5)
    axes = list(rng.normal(size=(2000, 3)) * rng.uniform(1e-3, 1e3, (2000, 1)))
    axes += [(0, 0, 1), (0, 0, -1), (0, 0, 7.5), (1e-12, 0, -1), (0, -1e-10, 3)]
    for axis in axes:
        assert np.array_equal(camera_basis(axis), reference_basis(axis))
    # a stack of axes gives the frames one by one
    stacked = camera_basis(np.array(axes))
    assert all(np.array_equal(b, reference_basis(a)) for b, a in zip(stacked, axes))


# --- field of view --------------------------------------------------------------

# The camera sits at the origin and looks along world +x, so a point's offset
# from the apex is the point itself; @ LEVEL takes it into the camera frame.
LEVEL = camera_basis((1.0, 0.0, 0.0))


def test_fov_contains_point_on_axis():
    c = cam()
    rel = np.array([[c.range / 2, 0.0, 0.0]])
    assert _fov_mask(rel @ LEVEL, np.linalg.norm(rel, axis=1), c).tolist() == [True]


def test_fov_rejects_point_behind_apex():
    rel = np.array([[-5.0, 0.0, 0.0]])
    assert _fov_mask(rel @ LEVEL, np.linalg.norm(rel, axis=1), cam()).tolist() == [False]


def test_fov_rejects_point_beyond_range():
    c = cam(range=10.0)
    rel = np.array([[11.0, 0.0, 0.0]])
    assert _fov_mask(rel @ LEVEL, np.linalg.norm(rel, axis=1), c).tolist() == [False]


def test_fov_boundary_is_closed():
    c = cam()                       # an 80 x 60 degree field of view
    z = 10.0
    off = math.tan(math.radians(40.0)) * z
    off_v = math.tan(math.radians(30.0)) * z
    rel = np.array([
        (z, -off, 0.0),             # exactly on the horizontal half-angle, world -y is image right
        (z, -off * 1.001, 0.0),     # just beyond is rejected
        (z, 0.0, -off_v),           # vertical half-angle, image down is world -z when level
        (z, 0.0, -off_v * 1.001),
    ])
    got = _fov_mask(rel @ LEVEL, np.linalg.norm(rel, axis=1), c)
    assert got.tolist() == [True, False, True, False]


# --- blur ----------------------------------------------------------------------------

def test_blur_static_point_is_perfect():
    assert _blur_batch(np.array([[0.0, 0.0, 10.0]]), np.zeros((1, 3)), cam()).tolist() == [1.0]


def test_blur_ten_pixel_smear():
    c = cam(exposure=0.1)           # a 1000 px focal length
    q = _blur_batch(np.array([[0.0, 0.0, 10.0]]), np.array([[1.0, 0.0, 0.0]]), c)
    assert q.tolist() == pytest.approx([0.1], abs=1e-12)


def test_blur_subpixel_motion_caps_at_one():
    c = cam(exposure=0.1)
    q = _blur_batch(np.array([[0.0, 0.0, 10.0]]), np.array([[0.05, 0.0, 0.0]]), c)
    assert q.tolist() == [1.0]


def test_blur_crossing_image_plane_scores_zero():
    c = cam(exposure=0.1)
    q = _blur_batch(np.array([[0.0, 0.0, 0.4]]), np.array([[0.0, 0.0, -5.0]]), c)
    assert q.tolist() == [0.0]


def test_blur_leaving_frustum_scores_zero():
    c = cam(exposure=0.1)
    # starts just inside the 40 degree horizontal edge, races outward
    z = 5.0
    x = math.tan(math.radians(39.9)) * z
    q = _blur_batch(np.array([[x, 0.0, z]]), np.array([[50.0, 0.0, 0.0]]), c)
    assert q.tolist() == [0.0]


@pytest.mark.parametrize("exposure", [1e200, 1.7976931348623157e+308])
def test_blur_of_a_shutter_past_the_float_range_scores_zero(exposure):
    # the smear overflowed, with numpy's RuntimeWarning; a still point keeps
    # its perfect score
    c = cam(exposure=exposure)
    p_cam = np.array([[0.0, 0.0, 10.0], [0.0, 0.0, 10.0], [1.0, 0.0, 10.0]])
    v_cam = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert _blur_batch(p_cam, v_cam, c).tolist() == [0.0, 1.0, 0.0]


def test_blur_non_increasing_in_speed():
    c = cam()
    speeds = np.linspace(0, 12, 1000)
    p_cam = np.tile([0.5, -0.2, 12.0], (len(speeds), 1))
    v_cam = np.outer(speeds, [1.0, 0.3, 0.0])
    scores = _blur_batch(p_cam, v_cam, c).tolist()
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))
    assert all(0.0 <= s <= 1.0 for s in scores)


# --- resolution -----------------------------------------------------------------------

def test_resolution_examples(monkeypatch):
    monkeypatch.setattr(sensors, "_DESIRED_RESOLUTION", 0.04)
    q = _resolution_batch(np.array([[0.0, 0.0, 20.0], [0.0, 0.0, 80.0]]))
    assert q[0] == 1.0                                      # 0.02 m/px, capped
    assert q[1] == pytest.approx(0.5, abs=1e-12)


def test_resolution_near_zero_depth_caps_at_one():
    assert _resolution_batch(np.array([[0.0, 0.0, 1e-6]])).tolist() == [1.0]


def test_resolution_behind_plane_scores_zero():
    q = _resolution_batch(np.array([[1.0, 1.0, -3.0], [1.0, 1.0, 0.0]]))
    assert q.tolist() == [0.0, 0.0]


def test_resolution_non_increasing_in_depth():
    depths = np.linspace(0.5, 120, 1000)
    p_cam = np.column_stack([np.full_like(depths, 0.3), np.full_like(depths, -0.1), depths])
    scores = _resolution_batch(p_cam).tolist()
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))
    assert all(0.0 <= s <= 1.0 for s in scores)


# --- observe ----------------------------------------------------------------------------

def on_axis_scene(distance, normal=(-1.0, 0.0, 0.0)):
    return Scene(interest_points=point_arrays([(0, (distance, 0.0, 0.0), normal)]))


@dataclass(frozen=True)
class Observation:
    """One scored point, as the per-agent reference reports it."""

    point_id: int
    q_blur: float
    q_res: float
    q: float


def reference_visible(scene, apex, candidate_mask):
    """Visible candidates of one viewpoint, its sight lines cast from the one
    shared apex: the oracle for the fleet's visibility call."""
    idx = np.nonzero(candidate_mask)[0]
    apex = np.asarray(apex, dtype=float)
    facing = np.einsum("nk,nk->n", scene.point_normals[idx],
                       apex[None, :] - scene.point_positions[idx]) > 0.0
    idx = idx[facing]
    if len(idx) == 0:
        return idx
    rel = scene.point_positions[idx] + scene.point_normals[idx] * 1e-3 - apex
    lengths = np.linalg.norm(rel, axis=1)
    safe = np.where(lengths > 1e-12, lengths, 1.0)
    hit, dist = ray_cast_batch(scene, *per_ray(apex, rel / safe[:, None],
                                               float(lengths.max(initial=0.0)) + 1.0))
    return idx[~(hit & (dist < lengths - 1e-6))]


def reference_observe(a, gimbal, scene, cfg):
    """observe for one agent at a time: the oracle for the fleet's observe."""
    if scene.num_points == 0:
        return []
    basis = reference_basis(camera_axis(a.yaw, gimbal.inclination, gimbal.azimuth))
    rel = scene.point_positions - a.position
    p_cam = rel @ basis
    candidates = _fov_mask(p_cam, np.linalg.norm(rel, axis=1), cfg)
    idx = reference_visible(scene, a.position, candidates)
    if len(idx) == 0:
        return []
    v_cam = -(a.velocity @ basis)
    qb = _blur_batch(p_cam[idx], v_cam, cfg)
    qr = _resolution_batch(p_cam[idx])
    q = qb * qr
    return [Observation(int(scene.point_ids[i]), float(qb[j]), float(qr[j]), float(q[j]))
            for j, i in enumerate(idx) if q[j] > 0.0]


def observe_one(a, gimbal, scene, cfg):
    """observe for a fleet of one, as Observation rows."""
    obs = observe(poses([a], [gimbal]), scene, cfg)
    assert obs.pose.tolist() == [0] * len(obs)
    return [Observation(*row) for row in zip(
        scene.point_ids[obs.point].tolist(), obs.q_blur.tolist(), obs.q_res.tolist(),
        obs.q.tolist())]


def test_hovering_agent_perfect_observation():
    c = cam()                       # 0.02 m/px at 20 m, finer than the 0.03 desired
    obs = observe_one(agent(), GimbalState(), on_axis_scene(20.0), c)
    assert len(obs) == 1
    assert obs[0].point_id == 0
    assert obs[0].q == 1.0
    assert obs[0].q_blur == 1.0 and obs[0].q_res == 1.0


def test_lateral_motion_composes_blur_and_resolution():
    c = cam(exposure=0.1)
    obs = observe_one(agent(vel=(0, 1.0, 0)), GimbalState(), on_axis_scene(10.0), c)
    assert len(obs) == 1
    expected_res = _resolution_batch(np.array([[0.0, 0.0, 10.0]]))[0]
    assert obs[0].q_blur == pytest.approx(0.1, abs=1e-12)
    assert obs[0].q == pytest.approx(0.1 * expected_res, abs=1e-12)


def test_point_outside_fov_absent():
    c = cam()
    scene = Scene(interest_points=point_arrays([(0, (0.0, 50.0, 0.0), (0.0, -1.0, 0.0))]))
    assert observe_one(agent(), GimbalState(), scene, c) == []


def test_occluded_point_absent():
    c = cam()
    scene = Scene(
        solid_boxes=[BoundingBox((5, -2, -2), (6, 2, 2))],
        interest_points=point_arrays([(0, (20.0, 0.0, 0.0), (-1.0, 0.0, 0.0))]),
    )
    assert observe_one(agent(), GimbalState(), scene, c) == []


def test_observe_subset_of_points_and_deterministic():
    rng = np.random.default_rng(41)
    pts = []
    for i in range(60):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        pts.append((i, rng.uniform(-30, 30, 3), n))
    scene = Scene(solid_boxes=[BoundingBox((8, -4, -4), (12, 4, 4))],
                  interest_points=point_arrays(pts))
    a = agent(vel=(0.4, -0.2, 0.1), yaw=0.3)
    g = GimbalState(inclination=-0.2, azimuth=0.4)
    o1 = observe_one(a, g, scene, cam())
    o2 = observe_one(a, g, scene, cam())
    assert o1 == o2
    ids = {o.point_id for o in o1}
    assert ids <= set(range(60))
    for o in o1:
        assert 0.0 <= o.q_blur <= 1.0
        assert 0.0 <= o.q_res <= 1.0
        assert o.q == pytest.approx(o.q_blur * o.q_res, abs=1e-15)


def test_observe_agrees_with_public_fov_predicate():
    # the vectorized pipeline inside observe must match composing its pieces
    # by hand, one point at a time: frustum mask, visibility, scores
    rng = np.random.default_rng(43)
    pts = []
    for i in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        pts.append((i, rng.uniform(-25, 25, 3), n))
    scene = Scene(solid_boxes=[BoundingBox((6, -5, -5), (10, 5, 5))],
                  interest_points=point_arrays(pts))
    a = agent(pos=(-2.0, 1.0, 0.5), vel=(0.8, -0.3, 0.2), yaw=0.25)
    g = GimbalState(inclination=-0.3, azimuth=0.2)
    c = cam()

    basis = camera_basis(camera_axis(a.yaw, g.inclination, g.azimuth))
    v_cam = -(a.velocity @ basis)
    rel = scene.point_positions - a.position
    in_view = np.array([_fov_mask(r @ basis, np.linalg.norm(r), c) for r in rel])
    _, visible = visible_point_indices(scene, [a.position], in_view[None, :])
    expected = {}
    for i in visible:
        p_cam = (rel[i] @ basis)[None, :]
        qb = _blur_batch(p_cam, v_cam[None, :], c)[0]
        qr = _resolution_batch(p_cam)[0]
        if qb * qr > 0.0:
            expected[int(scene.point_ids[i])] = (qb, qr)

    got = {o.point_id: (o.q_blur, o.q_res) for o in observe_one(a, g, scene, c)}
    assert got.keys() == expected.keys()
    for pid in got:
        assert got[pid][0] == pytest.approx(expected[pid][0], abs=1e-12)
        assert got[pid][1] == pytest.approx(expected[pid][1], abs=1e-12)


def fleet_scene(rng):
    """Boxes, a triangle wedge, points on the box faces and loose points."""
    boxes = [BoundingBox((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)),
             BoundingBox((9.0, -2.0, -6.0), (11.0, 6.0, 2.0))]
    pts = list(zip(*scatter_box_face_points(boxes[0], 120, seed=int(rng.integers(1000)))))
    for i in range(60):
        n = rng.normal(size=3)
        pts.append((200 + i, rng.uniform(-15, 15, 3), n / np.linalg.norm(n)))
    wedge = np.array([[(-12.0, -8.0, -3.0), (-12.0, 8.0, -3.0), (-6.0, 0.0, 6.0)],
                      [(-12.0, 8.0, -3.0), (-12.0, -8.0, -3.0), (-14.0, 0.0, 5.0)]])
    return Scene(solid_boxes=boxes, triangles=wedge, interest_points=point_arrays(pts))


@pytest.mark.parametrize("n_agents", [1, 3, 6])
def test_fleet_observe_equals_per_agent_reference(n_agents):
    rng = np.random.default_rng(60 + n_agents)
    c = cam(exposure=0.02, range=40.0)
    total = 0
    for _ in range(10):
        scene = fleet_scene(rng)
        states, gimbals = [], []
        for i in range(n_agents):
            pos = rng.uniform(-25, 25, 3)
            look = -pos + rng.normal(size=3)                  # roughly at the boxes
            states.append(AgentState(3 * i + 1, pos, math.atan2(look[1], look[0]),
                                     rng.normal(size=3)))
            gimbals.append(GimbalState(inclination=float(rng.uniform(-0.8, 0.5)),
                                       azimuth=float(rng.uniform(-0.4, 0.4))))
        got = observe(poses(states, gimbals), scene, c)
        expected = [(row, o) for row, (s, g) in enumerate(zip(states, gimbals))
                    for o in reference_observe(s, g, scene, c)]
        assert len(got) == len(expected)
        assert got.pose.tolist() == [row for row, _ in expected]
        assert scene.point_ids[got.point].tolist() == [o.point_id for _, o in expected]
        assert got.q_blur.tolist() == [o.q_blur for _, o in expected]
        assert got.q_res.tolist() == [o.q_res for _, o in expected]
        assert got.q.tolist() == [o.q for _, o in expected]
        total += len(got)
    assert total > 100 * n_agents


def test_one_agent_at_many_poses_in_one_call():
    # rows address poses, so one call can hold an agent many times, the
    # same pose included; each row's observations are its pose's alone
    rng = np.random.default_rng(77)
    c = cam(exposure=0.02, range=40.0)
    scene = fleet_scene(rng)
    states, gimbals = [], []
    for _ in range(5):
        pos = rng.uniform(-25, 25, 3)
        look = -pos + rng.normal(size=3)
        states.append(AgentState(4, pos, math.atan2(look[1], look[0]), rng.normal(size=3)))
        gimbals.append(GimbalState(inclination=float(rng.uniform(-0.8, 0.5))))
    states.insert(2, states[0])
    gimbals.insert(2, gimbals[0])
    got = observe(poses(states, gimbals), scene, c)
    by_row = [[] for _ in states]
    for row, i, qb, qr, q in zip(got.pose.tolist(), got.point.tolist(), got.q_blur.tolist(),
                                 got.q_res.tolist(), got.q.tolist()):
        by_row[row].append(Observation(int(scene.point_ids[i]), qb, qr, q))
    assert by_row == [observe_one(s, g, scene, c) for s, g in zip(states, gimbals)]
    assert by_row[2] == by_row[0] and sum(map(len, by_row)) > 50


def test_camera_pose_is_a_copy():
    position, velocity = np.array([[1.0, 2, 3], [-1, -2, -3]]), np.array([[4.0, 5, 6], [0, 0, 0]])
    yaw, inclination, azimuth = np.array([0.5, 1.5]), np.array([-0.25, 0]), np.array([0.125, -0.0])
    pose = camera_pose(position, velocity, yaw, inclination, azimuth)
    position[0, 0] = velocity[0, 0] = yaw[0] = inclination[0] = azimuth[1] = 9.0
    # one row of 9 doubles per agent, in fleet order; -0.0 keeps its sign
    assert pose.dtype == np.float64
    assert pose.tolist() == [[1, 2, 3, 4, 5, 6, 0.5, -0.25, 0.125],
                             [-1, -2, -3, 0, 0, 0, 1.5, 0, 0]]
    assert pose[-1, -1].tobytes() == np.float64(-0.0).tobytes()


def reference_ranges(rel):
    """observe's (poses, points) ranges to the points, before the column sum."""
    return np.linalg.norm(rel, axis=2)


def reference_blur_ranges(p_cam):
    """_blur_batch's ranges to the advanced points, before the column sum."""
    return np.linalg.norm(p_cam, axis=1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rel=vector_stacks())
def test_camera_ranges_equal_the_axis_norms(rel):
    reference = reference_ranges if rel.ndim == 3 else reference_blur_ranges
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same(_length(rel), reference(rel))


def test_observe_without_points_or_agents_is_empty():
    a, g = agent(), GimbalState()
    assert len(observe(poses([a], [g]), Scene(), cam())) == 0
    assert len(observe(np.zeros((0, 9)), on_axis_scene(10.0), cam())) == 0


# --- servo and lidar ------------------------------------------------------------------------

@pytest.mark.parametrize("fields", [
    {"beams": math.nan}, {"azimuth_steps": math.inf}, {"beams": -1},
])
def test_lidar_config_rejects_non_finite_or_non_positive_values(fields):
    (name, _), = fields.items()
    with pytest.raises(ConfigurationError, match=f"lidar {name} must be"):
        LidarConfig(**fields)


def test_lidar_config_rejects_more_rays_per_firing_than_the_cap():
    # 10**10 rays passed set-up, then the first firing asked for 224 GiB
    assert LidarConfig(beams=128, azimuth_steps=2048).beams == 128     # the cap, 2**18 rays
    for beams, steps in ((128, 2049), (100000, 100000), (np.int32(100000), np.int32(100000))):
        with pytest.raises(ConfigurationError,
                           match=r"^lidar beams \* azimuth_steps is .* rays per firing"):
            LidarConfig(beams=beams, azimuth_steps=steps)


@pytest.mark.parametrize("fields", [{"beams": 2.0}, {"azimuth_steps": 10.5}, {"beams": True},
                                    {"beams": 0}, {"azimuth_steps": -3}])
def test_lidar_config_rejects_counts_that_are_not_positive_integers(fields):
    # a float count raised TypeError mid-mission
    (name, _), = fields.items()
    with pytest.raises(ConfigurationError, match=f"lidar {name} must be an integer"):
        LidarConfig(**fields)


@pytest.mark.parametrize("name", ["range", "exposure"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_camera_config_rejects_non_finite_fields(name, value):
    with pytest.raises(ConfigurationError, match=name):
        CameraConfig(**{name: value})


def test_servo_triangle_wave():
    assert servo_angle(0.0) == pytest.approx(math.radians(-90.0))
    assert servo_angle(2.0) == pytest.approx(0.0, abs=1e-12)
    assert servo_angle(4.0) == pytest.approx(math.radians(90.0))
    assert servo_angle(6.0) == pytest.approx(0.0, abs=1e-12)
    assert servo_angle(8.0) == pytest.approx(math.radians(-90.0))
    with pytest.raises(ConfigurationError):
        servo_angle(-1.0)


def closed_room(half=10.0, thickness=1.0):
    h, t = half, thickness
    s = h + t
    return Scene(solid_boxes=[
        BoundingBox((-s, -s, -s), (-h, s, s)), BoundingBox((h, -s, -s), (s, s, s)),
        BoundingBox((-s, -s, -s), (s, -h, s)), BoundingBox((-s, h, -s), (s, s, s)),
        BoundingBox((-s, -s, -s), (s, s, -h)), BoundingBox((-s, -s, h), (s, s, s)),
    ])


NO_SIGHT_LINES = (np.zeros((0, 3)), np.zeros((0, 3)))


def sweep_from(position, scene, dirs):
    """lidar_sweep of rays that share one origin, position (3,), with no
    sight line riding along: (hits, misses)."""
    origins, dirs, _ = per_ray(position, dirs, sensors._LIDAR_RANGE)
    return lidar_sweep(origins, scene, dirs, np.empty(len(dirs), dtype=bool), NO_SIGHT_LINES,
                       np.empty(0, dtype=bool))


def fire(a, scene, cfg, t):
    return sweep_from(a.position, scene, lidar_directions(a.yaw, cfg, t))


def test_lidar_empty_scene_returns_empty_cloud():
    cfg = LidarConfig(beams=4, azimuth_steps=24)
    pts = fire(agent(), Scene(), cfg, t=0.0)[0][:, 0]
    assert pts.shape == (0, 3)


def test_lidar_inside_closed_room_every_ray_hits():
    cfg = LidarConfig(beams=6, azimuth_steps=36)
    pts = fire(agent(), closed_room(10.0), cfg, t=1.7)[0][:, 0]
    assert len(pts) == cfg.beams * cfg.azimuth_steps
    dists = np.linalg.norm(pts, axis=1)
    assert np.all(dists <= 10.0 * math.sqrt(3.0) + 1e-9)
    # every hit lies on one of the six inner wall planes
    residual = np.min(np.abs(np.abs(pts) - 10.0), axis=1)
    assert np.all(residual < 1e-6)


def test_lidar_overhead_slab_needs_servo_pitch():
    cfg = LidarConfig(beams=5, azimuth_steps=36)
    slab = Scene(solid_boxes=[BoundingBox((-1, -1, 5), (1, 1, 6))])
    level = fire(agent(), slab, cfg, t=2.0)[0][:, 0]       # servo at 0 degrees
    pitched = fire(agent(), slab, cfg, t=4.0)[0][:, 0]     # servo at +90 degrees
    assert len(level) == 0
    assert len(pitched) > 0
    assert np.all(pitched[:, 2] >= 5.0 - 1e-9)


def test_lidar_hits_within_range_limit(monkeypatch):
    monkeypatch.setattr(sensors, "_LIDAR_RANGE", 9.0)
    cfg = LidarConfig(beams=4, azimuth_steps=24)
    pts = fire(agent(), closed_room(10.0), cfg, t=0.0)[0][:, 0]
    assert np.all(np.linalg.norm(pts, axis=1) <= 9.0 + 1e-9)


def test_lidar_rays_cast_apart_equal_the_whole_firing(monkeypatch):
    # the mission casts only some rays of a firing; each must come out as in
    # the whole firing, bit for bit
    monkeypatch.setattr(sensors, "_LIDAR_RANGE", 30.0)
    cfg = LidarConfig(beams=7, azimuth_steps=40)
    a = agent(pos=(1.5, -2.0, 0.5), yaw=0.7)
    tris = [[(-8, -8, 6), (8, -8, 6), (0, 9, 7)], [(12, -5, -5), (12, 5, -5), (13, 0, 6)]]
    scene = Scene(solid_boxes=closed_room(10.0).solid_boxes[:3], triangles=tris)
    rng = np.random.default_rng(3)
    for t in (0.0, 1.3, 5.9):
        dirs = lidar_directions(a.yaw, cfg, t)
        hits, misses = sweep_from(a.position, scene, dirs)
        hit, dist = ray_cast_batch(scene, *per_ray(a.position, dirs, 30.0))
        assert np.array_equal(hits[:, 1], dirs[hit])        # each hit carries its ray
        assert np.array_equal(hits[:, 0], a.position + dirs[hit] * dist[hit, None])
        for keep in (rng.random(len(dirs)) < 0.3, np.arange(len(dirs)) % 5 == 0):
            part_hits, part_misses = sweep_from(a.position, scene, dirs[keep])
            assert np.array_equal(part_hits, hits[keep[hit]])
            assert np.array_equal(part_misses, misses[keep[~hit]])


def test_lidar_sweep_with_one_origin_per_ray_equals_the_sweeps_apart(monkeypatch):
    # the firings of several explorers in one sweep: each ray keeps its own
    # origin, and hits and misses come out in ray order, bit for bit as the
    # explorers' own sweeps give them; the mask says which rays hit
    monkeypatch.setattr(sensors, "_LIDAR_RANGE", 30.0)
    cfg = LidarConfig(beams=5, azimuth_steps=24)
    tris = [[(-8, -8, 6), (8, -8, 6), (0, 9, 7)], [(12, -5, -5), (12, 5, -5), (13, 0, 6)]]
    scene = Scene(solid_boxes=closed_room(10.0).solid_boxes[:3], triangles=tris)
    fleet = [agent(pos=(1.5, -2.0, 0.5), yaw=0.7), agent(pos=(-4.0, 3.0, -1.0), yaw=-2.1),
             agent(pos=(6.0, 6.0, 4.0), yaw=3.0)]
    rng = np.random.default_rng(5)
    for t in (0.0, 1.3, 5.9):
        bundles = [lidar_directions(a.yaw, cfg, t) for a in fleet]
        bundles = [d[rng.random(len(d)) < 0.6] for d in bundles]
        apart = [sweep_from(a.position, scene, d) for a, d in zip(fleet, bundles)]
        rows = np.repeat(np.arange(len(fleet)), [len(d) for d in bundles])
        origins = np.array([a.position for a in fleet])[rows]
        hit = np.empty(len(rows), dtype=bool)
        hits, misses = lidar_sweep(origins, scene, np.vstack(bundles), hit, NO_SIGHT_LINES,
                                   np.empty(0, dtype=bool))
        assert np.array_equal(hits, np.vstack([h for h, _ in apart]))
        assert np.array_equal(misses, np.vstack([m for _, m in apart]))
        assert np.array_equal(hit, np.concatenate(
            [ray_cast_batch(scene, *per_ray(a.position, d, 30.0))[0]
             for a, d in zip(fleet, bundles)]))
        assert 0 < np.count_nonzero(hit) < len(hit)


def test_sight_lines_in_a_sweep_equal_line_of_sight_alone(monkeypatch):
    # sight lines cast as rows after a firing's rays keep line_of_sight's
    # mask, each from its own start, and leave the firing's hits and misses
    # as the firing alone gives them, from one origin for every ray or one
    # per ray
    monkeypatch.setattr(sensors, "_LIDAR_RANGE", 30.0)
    cfg = LidarConfig(beams=5, azimuth_steps=24)
    tris = [[(-8, -8, 6), (8, -8, 6), (0, 9, 7)], [(12, -5, -5), (12, 5, -5), (13, 0, 6)]]
    wall = BoundingBox((5.0, -3.0, -3.0), (6.0, 3.0, 3.0))
    scene = Scene(solid_boxes=closed_room(10.0).solid_boxes[:3] + [wall], triangles=tris)
    # zero length; ending within _EPS_LOS of the wall's face, and beyond it
    starts = np.array([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
    ends = np.array([(1.0, 1.0, 1.0), (5.0 + 0.5 * _EPS_LOS, 0.0, 0.0),
                     (5.0 + 2.0 * _EPS_LOS, 0.0, 0.0)])
    assert line_of_sight(scene, starts, ends).tolist() == [True, True, False]
    rng = np.random.default_rng(61)
    a, b = awkward_segments(scene, rng, 40)
    starts, ends = np.vstack([starts, a]), np.vstack([ends, b])
    expected = line_of_sight(scene, starts, ends)
    assert 0 < np.count_nonzero(expected) < len(expected)
    dirs = lidar_directions(0.7, cfg, 1.3)
    for origin in (np.tile([1.5, -2.0, 0.5], (len(dirs), 1)),
                   rng.uniform(-9.0, 9.0, (len(dirs), 3))):
        alone_hits, alone_misses = lidar_sweep(origin, scene, dirs, np.empty(len(dirs), dtype=bool),
                                               NO_SIGHT_LINES, np.empty(0, dtype=bool))
        hit, clear = np.empty(len(dirs), dtype=bool), np.empty(len(starts), dtype=bool)
        hits, misses = lidar_sweep(origin, scene, dirs, hit, (starts, ends), clear)
        assert np.array_equal(clear, expected)
        assert np.array_equal(hits, alone_hits) and np.array_equal(misses, alone_misses)
        assert len(hits) == np.count_nonzero(hit)
