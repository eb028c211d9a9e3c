"""UAV kinematics, waypoint tracking, and gimbal pointing.

State follows a discrete double integrator in position and yaw:

  p_{k} = p_{k-1} + dt * v_{k-1}        psi_{k}  = psi_{k-1} + dt * w_{k-1}
  v_{k} = v_{k-1} + dt * u_lin          w_{k}    = w_{k-1} + dt * u_yaw

after which speed and yaw rate are clamped to the platform limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

EXPLORER = "explorer"
PHOTOGRAPHER = "photographer"
KINDS = (EXPLORER, PHOTOGRAPHER)

# PD yaw-tracking gains and yaw-acceleration limit (rad/s^2)
_YAW_KP = 1.0
_YAW_KD = 2.2
_ALPHA_MAX = 2.0


@dataclass
class AgentState:
    id: int
    position: np.ndarray
    yaw: float = 0.0
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw_rate: float = 0.0
    v_max: float = math.inf
    omega_max: float = math.inf

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).copy()
        self.velocity = np.asarray(self.velocity, dtype=float).copy()


@dataclass(frozen=True)
class GimbalLimits:
    inclination_min: float = math.radians(-90.0)
    inclination_max: float = math.radians(80.0)
    azimuth_min: float = math.radians(-90.0)
    azimuth_max: float = math.radians(90.0)


@dataclass(frozen=True)
class GimbalState:
    """Camera mount angles, body-relative: inclination up/down, azimuth left/right."""

    inclination: float = 0.0
    azimuth: float = 0.0
    limits: GimbalLimits = GimbalLimits()

    def __post_init__(self):
        lim = self.limits
        object.__setattr__(self, "inclination",
                           min(max(self.inclination, lim.inclination_min), lim.inclination_max))
        object.__setattr__(self, "azimuth",
                           min(max(self.azimuth, lim.azimuth_min), lim.azimuth_max))


@dataclass(frozen=True)
class TrackingConfig:
    """PD waypoint-tracking gains; critically damped at unit mass by default."""

    kp: float = 1.0
    kd: float = 2.2
    a_max: float = 4.0


def step_dynamics(state: AgentState, acc, yaw_acc: float, dt: float) -> AgentState:
    """One explicit-Euler step of the double integrator under linear
    acceleration acc (m/s^2) and yaw acceleration yaw_acc (rad/s^2), then
    limit clamping.

    Position advances with the pre-update velocity, so under constant
    acceleration a from rest the position after n steps is n(n-1)/2 * a * dt^2.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    pos = state.position + state.velocity * dt
    vel = state.velocity + np.asarray(acc, dtype=float) * dt
    yaw = state.yaw + state.yaw_rate * dt
    yaw_rate = state.yaw_rate + yaw_acc * dt

    speed = float(np.linalg.norm(vel))
    if speed > state.v_max:
        vel = vel * (state.v_max / speed)
    if abs(yaw_rate) > state.omega_max:
        yaw_rate = math.copysign(state.omega_max, yaw_rate)

    return AgentState(state.id, pos, yaw, vel, yaw_rate, state.v_max, state.omega_max)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def track_segment(state: AgentState, target, cfg: TrackingConfig,
                  desired_yaw: float | None = None) -> tuple[np.ndarray, float]:
    """PD acceleration command toward a fixed target point, saturated at a_max:
    (linear acceleration (3,), yaw acceleration).

    When desired_yaw is given, a separate PD loop commands yaw acceleration
    toward it; otherwise the yaw rate is damped to zero.
    """
    target = np.asarray(target, dtype=float)
    acc = cfg.kp * (target - state.position) - cfg.kd * state.velocity
    mag = float(np.linalg.norm(acc))
    if mag > cfg.a_max:
        acc = acc * (cfg.a_max / mag)

    if desired_yaw is None:
        yaw_acc = -_YAW_KD * state.yaw_rate
    else:
        err = wrap_angle(desired_yaw - state.yaw)
        yaw_acc = _YAW_KP * err - _YAW_KD * state.yaw_rate
    yaw_acc = min(max(yaw_acc, -_ALPHA_MAX), _ALPHA_MAX)
    return acc, float(yaw_acc)


def point_gimbal(gimbal: GimbalState, agent: AgentState, n_hat) -> GimbalState:
    """Aim the camera axis along world direction n_hat, clamped to gimbal limits.

    The direction is rotated into the body frame using the agent yaw; targets
    outside the mount's envelope snap to the nearest reachable angle.
    """
    n = np.asarray(n_hat, dtype=float)
    norm = float(np.linalg.norm(n))
    if norm < 1e-12:
        return gimbal
    n = n / norm
    c, s = math.cos(agent.yaw), math.sin(agent.yaw)
    bx = c * n[0] + s * n[1]
    by = -s * n[0] + c * n[1]
    bz = n[2]
    inclination = math.asin(min(max(bz, -1.0), 1.0))
    if math.hypot(bx, by) < 1e-12:
        azimuth = 0.0
    else:
        azimuth = math.atan2(by, bx)
    return replace(gimbal, inclination=inclination, azimuth=azimuth)
