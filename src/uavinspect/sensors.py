"""Gimballed camera model with observation-quality scoring, plus rotating LiDAR.

The camera is a pinhole at the agent position.  A captured interest point gets
two scores in [0, 1]:

  blur: how far the point smears across the image during the exposure.  Both
  the point and the point advanced by its camera-frame velocity times the
  exposure are projected; the score is the pixel width over the larger of the
  horizontal / vertical pixel displacements, capped at 1.

  resolution: ground-sample distance against the desired resolution.  The
  point is shifted one meter along the camera x and y axes, both positions are
  projected, and meters-per-pixel along each axis is the pixel width over the
  pixel displacement; the score is the desired resolution over the worse of
  the two, capped at 1.

Projection is the pinhole u = focal * x / z, v = focal * y / z; a point at
or behind the image plane scores zero on both.  The observation quality is
the product of the two scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, check_fields, check_value, ruled
from .scene import Scene, SightLines, _cross, _norm, ray_cast_batch, visible_point_indices
from .world import _kept, _length, _rows

_ANG_TOL = 1e-12        # keeps the field-of-view boundary closed under float error
# the camera's full fields of view (rad), focal length and pixel width (px),
# and the ground-sample distance of a full resolution score (m/px)
_FOV_H = math.radians(80.0)
_FOV_V = math.radians(60.0)
_FOCAL = 1000.0
_PIXEL_WIDTH = 1.0
_DESIRED_RESOLUTION = 0.03
# LiDAR range (m), servo pitch stops and period (s), and the beams' elevation
# spread either side of level
_LIDAR_RANGE = 50.0
_SERVO_PERIOD = 8.0
_SERVO_MIN = math.radians(-90.0)
_SERVO_MAX = math.radians(90.0)
_VERTICAL_APERTURE = math.radians(15.0)
# the most rays one firing may cast: a 128-beam sensor at 2,048 azimuth steps,
# 45 times the default's 5,760.  A firing holds 24 bytes of direction a ray,
# so 10**10 rays asked numpy for 224 GiB at the first firing
_MAX_RAYS = 2 ** 18


@dataclass(frozen=True)
class CameraConfig:
    range: float = ruled("positive", 30.0)
    exposure: float = ruled("positive", 0.05)

    def __post_init__(self):
        check_fields(self, "camera")


@dataclass(frozen=True)
class LidarConfig:
    beams: int = ruled("positive integer", 16)
    azimuth_steps: int = ruled("positive integer", 360)

    def __post_init__(self):
        check_fields(self, "lidar")
        rays = int(self.beams) * int(self.azimuth_steps)
        if rays > _MAX_RAYS:
            raise ConfigurationError(
                f"lidar beams * azimuth_steps is {self.beams} * {self.azimuth_steps} = "
                f"{rays:,} rays per firing, past the {_MAX_RAYS:,} that a firing may cast")


@dataclass(frozen=True, eq=False)
class Observations:
    """Camera observations, index-aligned arrays in pose order, then point
    order; len() counts the observations.  observe names an observation's
    pose by its row in the poses it was given, and its point by its row in
    the scene's point arrays."""

    pose: np.ndarray            # rows of the poses given
    point: np.ndarray           # scene rows
    q_blur: np.ndarray
    q_res: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return len(self.q)


def camera_axis(yaw: float, inclination: float, azimuth: float) -> np.ndarray:
    """World-frame optical axis for the given body yaw and gimbal angles."""
    th, ph = inclination, azimuth
    bx = math.cos(th) * math.cos(ph)
    by = math.cos(th) * math.sin(ph)
    bz = math.sin(th)
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([c * bx - s * by, s * bx + c * by, bz])


def camera_basis(axis) -> np.ndarray:
    """Roll-free camera frames for optical axes (..., 3): (..., 3, 3) arrays
    whose columns are the world-frame image-right, image-down, and forward
    directions.

    Image-right stays horizontal; for a perfectly vertical axis the world
    x-axis is used as image-right by convention.
    """
    z = np.asarray(axis, dtype=float)
    z = z / _norm(z)[..., None]
    horiz = np.stack([z[..., 1], -z[..., 0], np.zeros_like(z[..., 0])], axis=-1)
    h = _norm(horiz)[..., None]
    level = h > 1e-9
    x = np.where(level, horiz / np.where(level, h, 1.0), (1.0, 0.0, 0.0))
    y = _cross(z, x)
    return np.stack([x, y, z], axis=-1)


def _fov_mask(p_cam: np.ndarray, dists: np.ndarray, cfg: CameraConfig) -> np.ndarray:
    z = p_cam[..., 2]
    front = z > 0.0
    with np.errstate(invalid="ignore"):
        ah = np.abs(np.arctan2(p_cam[..., 0], z)) <= _FOV_H / 2.0 + _ANG_TOL
        av = np.abs(np.arctan2(p_cam[..., 1], z)) <= _FOV_V / 2.0 + _ANG_TOL
    return front & ah & av & (dists <= cfg.range + _ANG_TOL)


def _blur_batch(p_cam: np.ndarray, v_cam: np.ndarray, cfg: CameraConfig) -> np.ndarray:
    p0 = p_cam
    # a shutter so long that the point's smeared position passes the float
    # range takes it out of the view pyramid's range too (an inf or NaN
    # distance fails the range test), and the frame scores zero
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p1 = p_cam + v_cam * cfg.exposure
        z0, z1 = p0[:, 2], p1[:, 2]
        ok = (z0 > _ANG_TOL) & (z1 > _ANG_TOL)

        q = np.zeros(len(p0))
        if ok.any():
            a0, a1 = _kept(ok, p0), _kept(ok, p1)
            u0 = _FOCAL * a0[:, 0] / a0[:, 2]
            v0 = _FOCAL * a0[:, 1] / a0[:, 2]
            u1 = _FOCAL * a1[:, 0] / a1[:, 2]
            v1 = _FOCAL * a1[:, 1] / a1[:, 2]
            disp = np.maximum(np.abs(u1 - u0), np.abs(v1 - v0))
            score = np.minimum(_PIXEL_WIDTH / disp, 1.0)
            score[disp == 0.0] = 1.0

            # a point that slides out of the view pyramid mid-exposure scores zero
            inside = _fov_mask(a1, _length(a1), cfg)
            score[~inside] = 0.0
            q[ok] = score
    return q


def _resolution_batch(p_cam: np.ndarray) -> np.ndarray:
    z = p_cam[:, 2]
    q = np.zeros(len(p_cam))
    ok = z > _ANG_TOL
    if ok.any():
        p = _kept(ok, p_cam)
        zz = p[:, 2]
        u3 = _FOCAL * p[:, 0] / zz
        u4 = _FOCAL * (p[:, 0] + 1.0) / zz
        v3 = _FOCAL * p[:, 1] / zz
        v4 = _FOCAL * (p[:, 1] + 1.0) / zz
        r_horz = _PIXEL_WIDTH / np.abs(u4 - u3)
        r_vert = _PIXEL_WIDTH / np.abs(v4 - v3)
        q[ok] = np.minimum(_DESIRED_RESOLUTION / np.maximum(r_horz, r_vert), 1.0)
    return q


def camera_pose(position, velocity, yaw, inclination, azimuth) -> np.ndarray:
    """The fleet's camera inputs as the (n, 9) pose rows of observe, one
    row per agent: position, velocity, yaw, gimbal inclination and azimuth,
    at any finite positions, as no grid is indexed.  The rows are a copy: a
    later edit of the arrays leaves them as they were."""
    return np.concatenate((position, velocity, np.array((yaw, inclination, azimuth)).T), axis=1)


def observe(poses, scene: Scene, cfg: CameraConfig) -> Observations:
    """Score every interest point the camera sees from each pose.

    poses: (n, 9) rows of camera inputs as camera_pose returns them, at any
    finite positions, as no grid is indexed; one agent may appear in several
    rows.  Visibility requires the view pyramid, a front-facing surface
    normal, and a clear sight line; the sight lines of all the poses go
    through one visibility call, and a pose's observations do not depend on
    which other poses share the call.  The point velocity entering the blur
    score is the camera-frame image of the (static) point relative to the
    moving agent.  Observations with zero quality are dropped; the quality
    floor is applied later by the score ledger, not here.
    """
    poses = np.asarray(poses, dtype=float).reshape(-1, 9)
    if scene.num_points == 0 or not len(poses):
        return Observations(np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                            np.zeros(0), np.zeros(0), np.zeros(0))
    apexes = np.ascontiguousarray(poses[:, 0:3])
    velocities = np.ascontiguousarray(poses[:, None, 3:6])
    bases = camera_basis(np.array([camera_axis(*p) for p in poses[:, 6:].tolist()]))
    v_cam = -(velocities @ bases)[:, 0]
    # a point so far that its offset, camera coordinates or distance pass the
    # float range is out of range, and the mask drops it
    with np.errstate(over="ignore", invalid="ignore"):
        rel = scene.point_positions[None, :, :] - apexes[:, None, :]
        p_cam = rel @ bases                                     # (poses, points, 3)
        candidates = _fov_mask(p_cam, _length(rel), cfg)
    row, idx = visible_point_indices(scene, apexes, candidates)
    p_cam = _rows(p_cam.reshape(-1, 3), row * scene.num_points + idx)
    qb = _blur_batch(p_cam, _rows(v_cam, row), cfg)
    qr = _resolution_batch(p_cam)
    q = qb * qr
    keep = q > 0.0
    return Observations(row[keep], idx[keep], qb[keep], qr[keep], q[keep])


def servo_angle(t: float) -> float:
    """Triangle-wave servo pitch: starts at the lower stop, sweeps to the upper
    stop at half period, and returns."""
    check_value("time", t, "non-negative")
    half = _SERVO_PERIOD / 2.0
    s = math.fmod(t, _SERVO_PERIOD)
    span = _SERVO_MAX - _SERVO_MIN
    if s <= half:
        return _SERVO_MIN + span * (s / half)
    return _SERVO_MAX - span * ((s - half) / half)


@lru_cache(maxsize=8)
def _base_directions(beams: int, azimuth_steps: int, aperture: float) -> np.ndarray:
    if beams == 1:
        elev = np.array([0.0])
    else:
        elev = np.linspace(-aperture, aperture, beams)
    az = np.arange(azimuth_steps) * (2.0 * math.pi / azimuth_steps)
    ce, se = np.cos(elev), np.sin(elev)
    ca, sa = np.cos(az), np.sin(az)
    dirs = np.empty((beams * azimuth_steps, 3))
    dirs[:, 0] = np.outer(ce, ca).ravel()
    dirs[:, 1] = np.outer(ce, sa).ravel()
    dirs[:, 2] = np.repeat(se, azimuth_steps)
    return dirs


def lidar_directions(yaw: float, cfg: LidarConfig, t: float) -> np.ndarray:
    """The unit ray directions of one full sensor firing at time t from a
    body at the given yaw.

    Beams are spread over the sensor's vertical aperture, azimuths cover a full
    revolution, and the whole pattern is pitched about the body x-axis by the
    servo angle.
    """
    base = _base_directions(cfg.beams, cfg.azimuth_steps, _VERTICAL_APERTURE)
    s = servo_angle(t)
    cs, ss = math.cos(s), math.sin(s)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cs, -ss], [0.0, ss, cs]])
    cy, sy = math.cos(yaw), math.sin(yaw)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return base @ (rz @ rx).T


def lidar_sweep(origins, scene: Scene, dirs: np.ndarray, hit_mask: np.ndarray, segments,
                clear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cast the rays of a firing, origins and dirs (n, 3), one origin per
    ray, and the sight lines segments, (starts, ends) of (m, 3) each with
    m >= 0, in one cast: the firing's rows, then the sight lines', these
    under the rule of scene.SightLines.  It takes any finite origins and
    indexes no grid.

    Returns (hits, endpoints of empty rays).  hits is (k, 2, 3): each hit's
    point, then the unit direction of its ray, which the mapper nudges the
    hit along.  Rays that see nothing report their endpoint at _LIDAR_RANGE
    so the mapper can clear the corridor they crossed.  Both keep the order
    of the rays; hit_mask, a boolean array of one entry per ray, receives
    which rays hit, and clear, one entry per segment, line_of_sight's mask
    of the segments.  Each ray's result does not depend on which other rays
    are cast.  Noise-free.
    """
    origins = np.asarray(origins, dtype=float)
    if origins.shape != np.shape(dirs):
        raise ConfigurationError(f"firing origins {origins.shape} for directions "
                                 f"{np.shape(dirs)}; give one origin per ray")
    n = len(dirs)
    sight = SightLines.between(*segments)
    hit, dist = ray_cast_batch(scene, np.concatenate((origins, sight.starts)),
                               np.concatenate((dirs, sight.dirs)),
                               np.concatenate((np.full(n, _LIDAR_RANGE), sight.ranges)))
    clear[...] = sight.clear(hit[n:], dist[n:])
    hit, dist = hit[:n], dist[:n]
    hit_mask[...] = hit
    miss = ~hit
    hits = np.empty((np.count_nonzero(hit), 2, 3))
    hits[:, 1] = _kept(hit, dirs)
    hits[:, 0] = _kept(hit, origins) + hits[:, 1] * _kept(hit, dist)[:, None]
    misses = _kept(miss, origins) + _kept(miss, dirs) * _LIDAR_RANGE
    return hits, misses
