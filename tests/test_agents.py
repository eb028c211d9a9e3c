import math

import numpy as np
import pytest

from uavinspect.agents import (AgentState, GimbalLimits, GimbalState,
                               TrackingConfig, point_gimbal, step_dynamics,
                               track_segment, wrap_angle)


def state(pos=(0, 0, 0), vel=(0, 0, 0), yaw=0.0, yaw_rate=0.0,
          v_max=math.inf, omega_max=math.inf):
    return AgentState(0, np.array(pos, dtype=float), yaw,
                      np.array(vel, dtype=float), yaw_rate, v_max, omega_max)


def add_states(a, b):
    return state(a.position + b.position, a.velocity + b.velocity,
                 a.yaw + b.yaw, a.yaw_rate + b.yaw_rate)


# --- dynamics ---------------------------------------------------------------

def test_zero_state_zero_input_is_fixed_point():
    x = step_dynamics(state(), (0, 0, 0), 0.0, 0.1)
    assert np.allclose(x.position, 0) and np.allclose(x.velocity, 0)
    assert x.yaw == 0 and x.yaw_rate == 0


def test_position_advances_with_previous_velocity():
    x = step_dynamics(state(vel=(1, 0, 0)), (0, 0, 0), 0.0, 0.1)
    assert np.allclose(x.position, (0.1, 0, 0))


def test_constant_acceleration_matches_discrete_closed_form():
    # under explicit Euler from rest, p_n = n(n-1)/2 * a * dt^2
    a = np.array([0.3, -0.2, 0.5])
    dt = 0.05
    x = state()
    for n in range(1, 101):
        x = step_dynamics(x, a, 0.0, dt)
        expected = n * (n - 1) / 2.0 * a * dt * dt
        assert np.allclose(x.position, expected, atol=1e-9)
    assert np.allclose(x.velocity, 100 * a * dt, atol=1e-9)


def test_dynamics_superposition_without_clamping():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x1 = state(rng.normal(size=3), rng.normal(size=3),
                   rng.normal(), rng.normal())
        x2 = state(rng.normal(size=3), rng.normal(size=3),
                   rng.normal(), rng.normal())
        acc1, yaw_acc1 = rng.normal(size=3), rng.normal()
        acc2, yaw_acc2 = rng.normal(size=3), rng.normal()
        lhs = step_dynamics(add_states(x1, x2), acc1 + acc2, yaw_acc1 + yaw_acc2, 0.1)
        r1 = step_dynamics(x1, acc1, yaw_acc1, 0.1)
        r2 = step_dynamics(x2, acc2, yaw_acc2, 0.1)
        zero = step_dynamics(state(), (0, 0, 0), 0.0, 0.1)
        assert np.allclose(lhs.position, r1.position + r2.position - zero.position, atol=1e-12)
        assert np.allclose(lhs.velocity, r1.velocity + r2.velocity - zero.velocity, atol=1e-12)
        assert lhs.yaw == pytest.approx(r1.yaw + r2.yaw - zero.yaw, abs=1e-12)
        assert lhs.yaw_rate == pytest.approx(r1.yaw_rate + r2.yaw_rate - zero.yaw_rate, abs=1e-12)


def test_speed_and_yaw_rate_clamped():
    x = state(vel=(3.9, 0, 0), v_max=4.0, omega_max=1.0)
    x = step_dynamics(x, (10.0, 0, 0), 5.0, 0.5)
    assert np.linalg.norm(x.velocity) == pytest.approx(4.0)
    assert abs(x.yaw_rate) == pytest.approx(1.0)


def test_dt_must_be_positive():
    with pytest.raises(ValueError):
        step_dynamics(state(), (0, 0, 0), 0.0, 0.0)


# --- tracking -----------------------------------------------------------------

def test_tracking_at_target_commands_nothing():
    acc, _ = track_segment(state(pos=(5, 5, 5)), (5, 5, 5), TrackingConfig())
    assert np.allclose(acc, 0, atol=1e-12)


def test_tracking_saturates_toward_distant_target():
    cfg = TrackingConfig()
    acc, _ = track_segment(state(), (10, 0, 0), cfg)
    assert np.linalg.norm(acc) == pytest.approx(cfg.a_max)
    assert acc[0] == pytest.approx(cfg.a_max)


def test_tracking_converges_from_any_start_within_50m():
    cfg = TrackingConfig()
    rng = np.random.default_rng(31)
    target = np.zeros(3)
    for _ in range(10):
        start = rng.uniform(-50, 50, 3)
        x = state(pos=start, v_max=5.0)
        for _ in range(2000):
            x = step_dynamics(x, *track_segment(x, target, cfg), 0.1)
            if np.linalg.norm(x.position - target) < 0.1:
                break
        assert np.linalg.norm(x.position - target) < 0.1


def test_tracking_distance_eventually_decreasing():
    cfg = TrackingConfig()
    x = state(pos=(30, -14, 8), v_max=5.0)
    target = np.zeros(3)
    dists = []
    for _ in range(600):
        x = step_dynamics(x, *track_segment(x, target, cfg), 0.1)
        dists.append(float(np.linalg.norm(x.position)))
    # after the initial acceleration the range must shrink monotonically
    tail = dists[50:]
    assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))


def test_tracking_never_overshoots_by_a_voxel():
    cfg = TrackingConfig()
    x = state(pos=(-6.0, 0, 0), v_max=5.0)
    worst = -math.inf
    for _ in range(400):
        x = step_dynamics(x, *track_segment(x, (0.0, 0.0, 0.0), cfg), 0.1)
        worst = max(worst, float(x.position[0]))
    assert worst < 6.0
    assert abs(x.position[0]) < 0.05


def test_tracking_yaw_toward_heading():
    cfg = TrackingConfig()
    x = state()
    for _ in range(300):
        x = step_dynamics(x, *track_segment(x, (0, 0, 0), cfg, desired_yaw=math.pi / 2), 0.1)
    assert wrap_angle(x.yaw - math.pi / 2) == pytest.approx(0.0, abs=1e-2)


# --- gimbal ---------------------------------------------------------------------

def test_gimbal_forward_is_neutral():
    g = point_gimbal(GimbalState(), state(), (1.0, 0.0, 0.0))
    assert g.inclination == pytest.approx(0.0, abs=1e-12)
    assert g.azimuth == pytest.approx(0.0, abs=1e-12)


def test_gimbal_straight_down_reaches_limit():
    g = point_gimbal(GimbalState(), state(), (0.0, 0.0, -1.0))
    assert g.inclination == pytest.approx(math.radians(-90.0))


def test_gimbal_clamps_unreachable_azimuth():
    # requested azimuth 120 degrees behind the left shoulder clamps to +90
    n = (math.cos(math.radians(120)), math.sin(math.radians(120)), 0.0)
    g = point_gimbal(GimbalState(), state(), n)
    assert g.azimuth == pytest.approx(math.radians(90.0))


def test_gimbal_accounts_for_yaw():
    # looking world +y with yaw 90 degrees means straight ahead in body frame
    g = point_gimbal(GimbalState(), state(yaw=math.pi / 2), (0.0, 1.0, 0.0))
    assert g.azimuth == pytest.approx(0.0, abs=1e-12)
    assert g.inclination == pytest.approx(0.0, abs=1e-12)


def test_gimbal_angles_never_leave_limits():
    rng = np.random.default_rng(37)
    lim = GimbalLimits()
    for _ in range(500):
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        g = point_gimbal(GimbalState(limits=lim), state(yaw=rng.uniform(-4, 4)), n)
        assert lim.inclination_min - 1e-12 <= g.inclination <= lim.inclination_max + 1e-12
        assert lim.azimuth_min - 1e-12 <= g.azimuth <= lim.azimuth_max + 1e-12
