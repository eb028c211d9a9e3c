"""UAV kinematics, waypoint tracking, and gimbal pointing for a whole fleet.

State follows a discrete double integrator in position and yaw:

  p_{k} = p_{k-1} + dt * v_{k-1}        psi_{k}  = psi_{k-1} + dt * w_{k-1}
  v_{k} = v_{k-1} + dt * u_lin          w_{k}    = w_{k-1} + dt * u_yaw

after which speed and yaw rate are clamped to the platform limits.

The fleet is held as arrays, one row per agent: position and velocity
(n, 3); yaw, yaw rate, speed and yaw-rate limits, gimbal inclination and
azimuth (n,).  Each kernel steps every row at once.  Every vector length is
scene._norm, the dot that np.linalg.norm takes for one vector, and the yaw
and gimbal trigonometry runs in math on Python floats, so each row comes
out as it would for that agent alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import _norm

EXPLORER = "explorer"
PHOTOGRAPHER = "photographer"
KINDS = (EXPLORER, PHOTOGRAPHER)

# PD yaw-tracking gains and yaw-acceleration limit (rad/s^2)
_YAW_KP = 1.0
_YAW_KD = 2.2
_ALPHA_MAX = 2.0


@dataclass(frozen=True)
class GimbalLimits:
    inclination_min: float = math.radians(-90.0)
    inclination_max: float = math.radians(80.0)
    azimuth_min: float = math.radians(-90.0)
    azimuth_max: float = math.radians(90.0)


@dataclass(frozen=True)
class TrackingConfig:
    """PD waypoint-tracking gains; critically damped at unit mass by default."""

    kp: float = 1.0
    kd: float = 2.2
    a_max: float = 4.0


def _capped(v: np.ndarray, limits: list[float]) -> np.ndarray:
    """v (n, 3) with each row longer than its limit scaled to it in place,
    as row * (limit / |row|)."""
    for i, (length, limit) in enumerate(zip(_norm(v).tolist(), limits)):
        if length > limit:
            v[i] *= limit / length
    return v


def step_dynamics(position, velocity, yaw, yaw_rate, acc, yaw_acc, v_max, omega_max,
                  dt: float):
    """One explicit-Euler step of the double integrator for every agent,
    under linear accelerations acc (n, 3) (m/s^2) and yaw accelerations
    yaw_acc (n,) (rad/s^2), then limit clamping: (position, velocity, yaw,
    yaw rate), new arrays.

    Position advances with the pre-update velocity, so under constant
    acceleration a from rest the position after n steps is n(n-1)/2 * a * dt^2.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    yaw_next, rate_next = [], []
    for psi, w, u, w_max in zip(yaw.tolist(), yaw_rate.tolist(), yaw_acc.tolist(),
                                omega_max.tolist()):
        yaw_next.append(psi + w * dt)
        w = w + u * dt
        rate_next.append(math.copysign(w_max, w) if abs(w) > w_max else w)
    return (position + velocity * dt, _capped(velocity + acc * dt, v_max.tolist()),
            np.array(yaw_next), np.array(rate_next))


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def track_segment(position, velocity, yaw, yaw_rate, target, cfg: TrackingConfig,
                  desired_yaw: list[float | None]) -> tuple[np.ndarray, np.ndarray]:
    """PD acceleration commands toward fixed target points (n, 3), saturated
    at a_max: (linear accelerations (n, 3), yaw accelerations (n,)).

    desired_yaw holds one heading or None per agent.  For a heading, a
    separate PD loop commands yaw acceleration toward it; for None the yaw
    rate is damped to zero.
    """
    acc = _capped(cfg.kp * (target - position) - cfg.kd * velocity, [cfg.a_max] * len(yaw))
    yaw_acc = []
    for psi, rate, want in zip(yaw.tolist(), yaw_rate.tolist(), desired_yaw):
        if want is None:
            a = -_YAW_KD * rate
        else:
            a = _YAW_KP * wrap_angle(want - psi) - _YAW_KD * rate
        yaw_acc.append(min(max(a, -_ALPHA_MAX), _ALPHA_MAX))
    return acc, np.array(yaw_acc)


def point_gimbal(yaw, inclination, azimuth, n_hat,
                 limits: GimbalLimits) -> tuple[np.ndarray, np.ndarray]:
    """Aim each camera axis along world direction n_hat (n, 3), clamped to
    the gimbal limits: (inclination, azimuth), new arrays.

    A direction is rotated into the body frame using the agent's yaw;
    targets outside the mount's envelope snap to the nearest reachable
    angle.  An agent whose direction has no length keeps its angles.
    """
    inclination, azimuth = inclination.tolist(), azimuth.tolist()
    for i, (psi, length, (x, y, z)) in enumerate(zip(yaw.tolist(), _norm(n_hat).tolist(),
                                                    n_hat.tolist())):
        if length < 1e-12:
            continue
        x, y, z = x / length, y / length, z / length
        c, s = math.cos(psi), math.sin(psi)
        bx = c * x + s * y
        by = -s * x + c * y
        th = math.asin(min(max(z, -1.0), 1.0))
        ph = 0.0 if math.hypot(bx, by) < 1e-12 else math.atan2(by, bx)
        inclination[i] = min(max(th, limits.inclination_min), limits.inclination_max)
        azimuth[i] = min(max(ph, limits.azimuth_min), limits.azimuth_max)
    return np.array(inclination), np.array(azimuth)
