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

import numpy as np

from .errors import check_value
from .scene import _norm

EXPLORER = "explorer"
PHOTOGRAPHER = "photographer"
KINDS = (EXPLORER, PHOTOGRAPHER)

# PD waypoint-tracking gains, critically damped at unit mass, and the
# linear-acceleration limit (m/s^2)
_KP = 1.0
_KD = 2.2
_A_MAX = 4.0
# PD yaw-tracking gains and yaw-acceleration limit (rad/s^2)
_YAW_KP = 1.0
_YAW_KD = 2.2
_ALPHA_MAX = 2.0
# the gimbal's inclination and azimuth stops (rad)
_INCLINATION_MIN = math.radians(-90.0)
_INCLINATION_MAX = math.radians(80.0)
_AZIMUTH_MIN = math.radians(-90.0)
_AZIMUTH_MAX = math.radians(90.0)
# each kind's speed limit (m/s), and the yaw-rate limit (rad/s)
_SPEED_LIMIT = {EXPLORER: 4.0, PHOTOGRAPHER: 5.0}
_OMEGA_MAX = 1.5


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
    check_value("dt", dt, "positive")
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


def track_segment(position, velocity, yaw, yaw_rate, target,
                  desired_yaw: list[float | None]) -> tuple[np.ndarray, np.ndarray]:
    """PD acceleration commands toward fixed target points (n, 3), saturated
    at _A_MAX: (linear accelerations (n, 3), yaw accelerations (n,)).

    desired_yaw holds one heading or None per agent.  For a heading, a
    separate PD loop commands yaw acceleration toward it; for None the yaw
    rate is damped to zero.
    """
    acc = _capped(_KP * (target - position) - _KD * velocity, [_A_MAX] * len(yaw))
    yaw_acc = []
    for psi, rate, want in zip(yaw.tolist(), yaw_rate.tolist(), desired_yaw):
        if want is None:
            a = -_YAW_KD * rate
        else:
            a = _YAW_KP * wrap_angle(want - psi) - _YAW_KD * rate
        yaw_acc.append(min(max(a, -_ALPHA_MAX), _ALPHA_MAX))
    return acc, np.array(yaw_acc)


def point_gimbal(yaw, inclination, azimuth, n_hat) -> tuple[np.ndarray, np.ndarray]:
    """Aim each camera axis along world direction n_hat (n, 3), clamped to
    the gimbal stops: (inclination, azimuth), new arrays.

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
        inclination[i] = min(max(th, _INCLINATION_MIN), _INCLINATION_MAX)
        azimuth[i] = min(max(ph, _AZIMUTH_MIN), _AZIMUTH_MAX)
    return np.array(inclination), np.array(azimuth)
