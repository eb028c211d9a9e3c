"""Gimballed camera model with observation-quality scoring, plus rotating LiDAR.

The camera is a pinhole at the agent position.  A captured interest point gets
two scores in [0, 1]:

  blur: how far the point smears across the image during the exposure.  Both
  the point and the point advanced by its camera-frame velocity times the
  exposure are projected; the score is pixel_width over the larger of the
  horizontal / vertical pixel displacements, capped at 1.

  resolution: ground-sample distance against the desired resolution.  The
  point is shifted one meter along the camera x and y axes, both positions are
  projected, and meters-per-pixel along each axis is pixel_width over the
  pixel displacement; the score is desired_resolution over the worse of the
  two, capped at 1.

Projection is the pinhole u = focal * x / z, v = focal * y / z; a point at
or behind the image plane scores zero on both.  The observation quality is
the product of the two scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .scene import Scene, _cross, _norm, ray_cast_batch, visible_point_indices

_ANG_TOL = 1e-12        # keeps the field-of-view boundary closed under float error
# LiDAR servo pitch stops, and the beams' elevation spread either side of level
_SERVO_MIN = math.radians(-90.0)
_SERVO_MAX = math.radians(90.0)
_VERTICAL_APERTURE = math.radians(15.0)


@dataclass(frozen=True)
class CameraConfig:
    fov_h: float = math.radians(80.0)
    fov_v: float = math.radians(60.0)
    range: float = 30.0
    focal: float = 1000.0
    pixel_width: float = 1.0
    exposure: float = 0.05
    desired_resolution: float = 0.03
    quality_floor: float = 0.1

    def __post_init__(self):
        for name in ("fov_h", "fov_v", "range", "focal", "pixel_width",
                     "exposure", "desired_resolution"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"camera {name} must be positive")
        if not 0.0 <= self.quality_floor <= 1.0:
            raise ConfigurationError("quality_floor must lie in [0, 1]")


@dataclass(frozen=True)
class LidarConfig:
    range: float = 50.0
    beams: int = 16
    azimuth_steps: int = 360
    servo_period: float = 8.0

    def __post_init__(self):
        if self.range <= 0:
            raise ConfigurationError("lidar range must be positive")
        if self.beams < 1 or self.azimuth_steps < 1:
            raise ConfigurationError("lidar needs at least one beam and azimuth step")
        if self.servo_period <= 0:
            raise ConfigurationError("servo period must be positive")


@dataclass(frozen=True, eq=False)
class Observations:
    """Camera observations, index-aligned arrays in pose order, then point
    order; len() counts the observations.  observe names an observation's
    agent by the row of its pose in the poses it was given, and its point
    by its row in the scene's point arrays; the caller maps pose rows to
    agent ids."""

    agent: np.ndarray           # pose rows, or agent ids once mapped
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
        ah = np.abs(np.arctan2(p_cam[..., 0], z)) <= cfg.fov_h / 2.0 + _ANG_TOL
        av = np.abs(np.arctan2(p_cam[..., 1], z)) <= cfg.fov_v / 2.0 + _ANG_TOL
    return front & ah & av & (dists <= cfg.range + _ANG_TOL)


def _blur_batch(p_cam: np.ndarray, v_cam: np.ndarray, cfg: CameraConfig) -> np.ndarray:
    p0 = p_cam
    p1 = p_cam + v_cam * cfg.exposure
    z0, z1 = p0[:, 2], p1[:, 2]
    ok = (z0 > _ANG_TOL) & (z1 > _ANG_TOL)

    q = np.zeros(len(p0))
    if ok.any():
        a0, a1 = p0[ok], p1[ok]
        u0 = cfg.focal * a0[:, 0] / a0[:, 2]
        v0 = cfg.focal * a0[:, 1] / a0[:, 2]
        u1 = cfg.focal * a1[:, 0] / a1[:, 2]
        v1 = cfg.focal * a1[:, 1] / a1[:, 2]
        disp = np.maximum(np.abs(u1 - u0), np.abs(v1 - v0))
        with np.errstate(divide="ignore"):
            score = np.minimum(cfg.pixel_width / disp, 1.0)
        score[disp == 0.0] = 1.0

        # a point that slides out of the view pyramid mid-exposure scores zero
        inside = _fov_mask(a1, np.linalg.norm(a1, axis=1), cfg)
        score[~inside] = 0.0
        q[ok] = score
    return q


def _resolution_batch(p_cam: np.ndarray, cfg: CameraConfig) -> np.ndarray:
    z = p_cam[:, 2]
    q = np.zeros(len(p_cam))
    ok = z > _ANG_TOL
    if ok.any():
        p = p_cam[ok]
        zz = p[:, 2]
        u3 = cfg.focal * p[:, 0] / zz
        u4 = cfg.focal * (p[:, 0] + 1.0) / zz
        v3 = cfg.focal * p[:, 1] / zz
        v4 = cfg.focal * (p[:, 1] + 1.0) / zz
        r_horz = cfg.pixel_width / np.abs(u4 - u3)
        r_vert = cfg.pixel_width / np.abs(v4 - v3)
        q[ok] = np.minimum(cfg.desired_resolution / np.maximum(r_horz, r_vert), 1.0)
    return q


def camera_pose(position, velocity, yaw, inclination, azimuth) -> bytes:
    """The fleet's camera inputs, packed as the pose rows of observe, one
    row of 9 doubles per agent: position, velocity, yaw, gimbal inclination
    and azimuth.  The bytes are a copy: a later edit of the arrays leaves
    them as they were."""
    return np.concatenate((position, velocity, np.array((yaw, inclination, azimuth)).T),
                          axis=1).tobytes()


def observe(poses, scene: Scene, cfg: CameraConfig) -> Observations:
    """Score every interest point the camera sees from each pose.

    poses: (n, 9) rows of camera inputs as camera_pose packs them;
    one agent may appear in several rows.  Visibility requires the view
    pyramid, a front-facing surface normal, and a clear sight line; the sight
    lines of all the poses go through one visibility call, and a pose's
    observations do not depend on which other poses share the call.  The
    point velocity entering the blur score is the camera-frame image of the
    (static) point relative to the moving agent.  Observations with zero
    quality are dropped; the quality floor is applied later by the score
    ledger, not here.
    """
    poses = np.asarray(poses, dtype=float).reshape(-1, 9)
    if scene.num_points == 0 or not len(poses):
        return Observations(np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                            np.zeros(0), np.zeros(0), np.zeros(0))
    apexes = np.ascontiguousarray(poses[:, 0:3])
    velocities = np.ascontiguousarray(poses[:, None, 3:6])
    bases = camera_basis(np.array([camera_axis(*p) for p in poses[:, 6:].tolist()]))
    v_cam = -(velocities @ bases)[:, 0]
    rel = scene.point_positions[None, :, :] - apexes[:, None, :]
    p_cam = rel @ bases                                         # (poses, points, 3)
    candidates = _fov_mask(p_cam, np.linalg.norm(rel, axis=2), cfg)
    row, idx = visible_point_indices(scene, apexes, candidates)
    p_cam = p_cam[row, idx]
    qb = _blur_batch(p_cam, v_cam[row], cfg)
    qr = _resolution_batch(p_cam, cfg)
    q = qb * qr
    keep = q > 0.0
    return Observations(row[keep], idx[keep], qb[keep], qr[keep], q[keep])


def servo_angle(t: float, cfg: LidarConfig) -> float:
    """Triangle-wave servo pitch: starts at the lower stop, sweeps to the upper
    stop at half period, and returns."""
    if t < 0:
        raise ConfigurationError("time must be non-negative")
    half = cfg.servo_period / 2.0
    s = math.fmod(t, cfg.servo_period)
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
    s = servo_angle(t, cfg)
    cs, ss = math.cos(s), math.sin(s)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cs, -ss], [0.0, ss, cs]])
    cy, sy = math.cos(yaw), math.sin(yaw)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return base @ (rz @ rx).T


def lidar_sweep(position, scene: Scene, cfg: LidarConfig,
                dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cast the given rays of a firing from position (3,): (hits, endpoints
    of empty rays).

    hits is (n, 2, 3): each hit's point, then the unit direction of its ray,
    which the mapper nudges the hit along.  Rays that see nothing report
    their maximum-range endpoint so the mapper can clear the corridor they
    crossed.  Each ray's result does not depend on which other rays are
    cast.  Noise-free.
    """
    hit, dist = ray_cast_batch(scene, position, dirs, cfg.range)
    hits = np.empty((np.count_nonzero(hit), 2, 3))
    hits[:, 1] = dirs[hit]
    hits[:, 0] = position + hits[:, 1] * dist[hit, None]
    misses = position + dirs[~hit] * cfg.range
    return hits, misses
