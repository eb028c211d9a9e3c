import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from uavinspect import agents
from uavinspect.agents import (_A_MAX, _ALPHA_MAX, _AZIMUTH_MAX, _AZIMUTH_MIN, _INCLINATION_MAX,
                               _INCLINATION_MIN, _KP, _YAW_KD, _YAW_KP, point_gimbal,
                               step_dynamics, track_segment, wrap_angle)


# --- one agent at a time: the oracles for the fleet kernels -----------------------

@dataclass
class AgentState:
    """One agent's kinematic state, as the reference kernels take it."""

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
class GimbalState:
    """Camera mount angles, body-relative: inclination up/down, azimuth left/right."""

    inclination: float = 0.0
    azimuth: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "inclination",
                           min(max(self.inclination, _INCLINATION_MIN), _INCLINATION_MAX))
        object.__setattr__(self, "azimuth", min(max(self.azimuth, _AZIMUTH_MIN), _AZIMUTH_MAX))


def reference_step_dynamics(state, acc, yaw_acc, dt):
    """step_dynamics for one agent."""
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


def reference_track_segment(state, target, desired_yaw=None):
    """track_segment for one agent: (acceleration (3,), yaw acceleration).
    The gains are read from the module at each call, so a test that sets one
    sets it for the oracle too."""
    target = np.asarray(target, dtype=float)
    acc = agents._KP * (target - state.position) - agents._KD * state.velocity
    mag = float(np.linalg.norm(acc))
    if mag > agents._A_MAX:
        acc = acc * (agents._A_MAX / mag)

    if desired_yaw is None:
        yaw_acc = -_YAW_KD * state.yaw_rate
    else:
        err = wrap_angle(desired_yaw - state.yaw)
        yaw_acc = _YAW_KP * err - _YAW_KD * state.yaw_rate
    yaw_acc = min(max(yaw_acc, -_ALPHA_MAX), _ALPHA_MAX)
    return acc, float(yaw_acc)


def reference_point_gimbal(gimbal, agent, n_hat):
    """point_gimbal for one agent: a new GimbalState."""
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


# --- the fleet kernels on a fleet of one ------------------------------------------

def fleet(states):
    """The fleet arrays of states: position, velocity, yaw, yaw rate, v_max, omega_max."""
    return (np.array([s.position for s in states], dtype=float).reshape(-1, 3),
            np.array([s.velocity for s in states], dtype=float).reshape(-1, 3),
            np.array([s.yaw for s in states], dtype=float),
            np.array([s.yaw_rate for s in states], dtype=float),
            np.array([s.v_max for s in states], dtype=float),
            np.array([s.omega_max for s in states], dtype=float))


def step(x, acc, yaw_acc, dt):
    """step_dynamics on a fleet of one."""
    p, v, yaw, rate, v_max, omega_max = fleet([x])
    p, v, yaw, rate = step_dynamics(p, v, yaw, rate, np.asarray(acc, dtype=float).reshape(1, 3),
                                    np.array([yaw_acc], dtype=float), v_max, omega_max, dt)
    return AgentState(x.id, p[0], float(yaw[0]), v[0], float(rate[0]), x.v_max, x.omega_max)


def track(x, target, desired_yaw=None):
    """track_segment on a fleet of one."""
    p, v, yaw, rate, _, _ = fleet([x])
    acc, yaw_acc = track_segment(p, v, yaw, rate, np.asarray(target, dtype=float).reshape(1, 3),
                                 [desired_yaw])
    return acc[0], float(yaw_acc[0])


def aim(gimbal, x, n_hat):
    """point_gimbal on a fleet of one."""
    inc, az = point_gimbal(np.array([x.yaw], dtype=float), np.array([gimbal.inclination]),
                           np.array([gimbal.azimuth]), np.asarray(n_hat, dtype=float).reshape(1, 3))
    return GimbalState(float(inc[0]), float(az[0]))


def state(pos=(0, 0, 0), vel=(0, 0, 0), yaw=0.0, yaw_rate=0.0,
          v_max=math.inf, omega_max=math.inf):
    return AgentState(0, np.array(pos, dtype=float), yaw,
                      np.array(vel, dtype=float), yaw_rate, v_max, omega_max)


def add_states(a, b):
    return state(a.position + b.position, a.velocity + b.velocity,
                 a.yaw + b.yaw, a.yaw_rate + b.yaw_rate)


# --- dynamics ---------------------------------------------------------------

def test_zero_state_zero_input_is_fixed_point():
    x = step(state(), (0, 0, 0), 0.0, 0.1)
    assert np.allclose(x.position, 0) and np.allclose(x.velocity, 0)
    assert x.yaw == 0 and x.yaw_rate == 0


def test_position_advances_with_previous_velocity():
    x = step(state(vel=(1, 0, 0)), (0, 0, 0), 0.0, 0.1)
    assert np.allclose(x.position, (0.1, 0, 0))


def test_constant_acceleration_matches_discrete_closed_form():
    # under explicit Euler from rest, p_n = n(n-1)/2 * a * dt^2
    a = np.array([0.3, -0.2, 0.5])
    dt = 0.05
    x = state()
    for n in range(1, 101):
        x = step(x, a, 0.0, dt)
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
        lhs = step(add_states(x1, x2), acc1 + acc2, yaw_acc1 + yaw_acc2, 0.1)
        r1 = step(x1, acc1, yaw_acc1, 0.1)
        r2 = step(x2, acc2, yaw_acc2, 0.1)
        zero = step(state(), (0, 0, 0), 0.0, 0.1)
        assert np.allclose(lhs.position, r1.position + r2.position - zero.position, atol=1e-12)
        assert np.allclose(lhs.velocity, r1.velocity + r2.velocity - zero.velocity, atol=1e-12)
        assert lhs.yaw == pytest.approx(r1.yaw + r2.yaw - zero.yaw, abs=1e-12)
        assert lhs.yaw_rate == pytest.approx(r1.yaw_rate + r2.yaw_rate - zero.yaw_rate, abs=1e-12)


def test_speed_and_yaw_rate_clamped():
    x = state(vel=(3.9, 0, 0), v_max=4.0, omega_max=1.0)
    x = step(x, (10.0, 0, 0), 5.0, 0.5)
    assert np.linalg.norm(x.velocity) == pytest.approx(4.0)
    assert abs(x.yaw_rate) == pytest.approx(1.0)


def test_dt_must_be_positive():
    with pytest.raises(ValueError):
        step(state(), (0, 0, 0), 0.0, 0.0)


# --- tracking -----------------------------------------------------------------

def test_tracking_at_target_commands_nothing():
    acc, _ = track(state(pos=(5, 5, 5)), (5, 5, 5))
    assert np.allclose(acc, 0, atol=1e-12)


def test_tracking_saturates_toward_distant_target():
    acc, _ = track(state(), (10, 0, 0))
    assert np.linalg.norm(acc) == pytest.approx(_A_MAX)
    assert acc[0] == pytest.approx(_A_MAX)


def test_tracking_converges_from_any_start_within_50m():
    rng = np.random.default_rng(31)
    target = np.zeros(3)
    for _ in range(10):
        start = rng.uniform(-50, 50, 3)
        x = state(pos=start, v_max=5.0)
        for _ in range(2000):
            x = step(x, *track(x, target), 0.1)
            if np.linalg.norm(x.position - target) < 0.1:
                break
        assert np.linalg.norm(x.position - target) < 0.1


def test_tracking_distance_eventually_decreasing():
    x = state(pos=(30, -14, 8), v_max=5.0)
    target = np.zeros(3)
    dists = []
    for _ in range(600):
        x = step(x, *track(x, target), 0.1)
        dists.append(float(np.linalg.norm(x.position)))
    # after the initial acceleration the range must shrink monotonically
    tail = dists[50:]
    assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))


def test_tracking_never_overshoots_by_a_voxel():
    x = state(pos=(-6.0, 0, 0), v_max=5.0)
    worst = -math.inf
    for _ in range(400):
        x = step(x, *track(x, (0.0, 0.0, 0.0)), 0.1)
        worst = max(worst, float(x.position[0]))
    assert worst < 6.0
    assert abs(x.position[0]) < 0.05


def test_tracking_yaw_toward_heading():
    x = state()
    for _ in range(300):
        x = step(x, *track(x, (0, 0, 0), desired_yaw=math.pi / 2), 0.1)
    assert wrap_angle(x.yaw - math.pi / 2) == pytest.approx(0.0, abs=1e-2)


# --- gimbal ---------------------------------------------------------------------

def test_gimbal_forward_is_neutral():
    g = aim(GimbalState(), state(), (1.0, 0.0, 0.0))
    assert g.inclination == pytest.approx(0.0, abs=1e-12)
    assert g.azimuth == pytest.approx(0.0, abs=1e-12)


def test_gimbal_straight_down_reaches_limit():
    g = aim(GimbalState(), state(), (0.0, 0.0, -1.0))
    assert g.inclination == pytest.approx(math.radians(-90.0))


def test_gimbal_clamps_unreachable_azimuth():
    # requested azimuth 120 degrees behind the left shoulder clamps to +90
    n = (math.cos(math.radians(120)), math.sin(math.radians(120)), 0.0)
    g = aim(GimbalState(), state(), n)
    assert g.azimuth == pytest.approx(math.radians(90.0))


def test_gimbal_accounts_for_yaw():
    # looking world +y with yaw 90 degrees means straight ahead in body frame
    g = aim(GimbalState(), state(yaw=math.pi / 2), (0.0, 1.0, 0.0))
    assert g.azimuth == pytest.approx(0.0, abs=1e-12)
    assert g.inclination == pytest.approx(0.0, abs=1e-12)


def test_gimbal_angles_never_leave_limits():
    rng = np.random.default_rng(37)
    for _ in range(500):
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        g = aim(GimbalState(), state(yaw=rng.uniform(-4, 4)), n)
        assert _INCLINATION_MIN - 1e-12 <= g.inclination <= _INCLINATION_MAX + 1e-12
        assert _AZIMUTH_MIN - 1e-12 <= g.azimuth <= _AZIMUTH_MAX + 1e-12


# --- the fleet kernels against the per-agent oracles ------------------------------

def scaled(rng, size):
    """Normal draws at scales from 1e-3 to 1e3, with zeros and -0.0 mixed in."""
    v = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size=size)
    v[rng.random(size) < 0.1] = 0.0
    v[rng.random(size) < 0.1] = -0.0
    return v


def random_fleets(rng, edges):
    """The edge rows as one fleet, then fleets of 1-9 rows, each None (for a
    random row) or an edge row drawn at random."""
    yield list(edges)
    for n in range(1, 10):
        for _ in range(12):
            rows = [None] * n
            for i in rng.choice(n, size=rng.integers(0, n + 1), replace=False):
                rows[i] = edges[rng.integers(len(edges))]
            yield rows


def same_bytes(got, expected):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


def test_step_dynamics_equals_the_per_agent_reference():
    rng = np.random.default_rng(101)
    v, om = 4.0, 1.5
    edges = [
        # speed exactly at v_max, and beyond it along one axis
        (state(vel=(v, 0.0, 0.0), v_max=v), (0.0, 0.0, 0.0), 0.0),
        (state(vel=(0.0, -v, -0.0), v_max=v), (0.0, -0.0, 0.0), 0.0),
        (state(vel=(0.0, 0.0, -v), v_max=v), (0.0, 0.0, -3.0), 0.0),
        # yaw rate exactly at +-omega_max, and pushed past it either way
        (state(yaw_rate=om, omega_max=om), (0.0, 0.0, 0.0), 0.0),
        (state(yaw_rate=-om, omega_max=om), (0.0, 0.0, 0.0), -0.0),
        (state(yaw_rate=om, omega_max=om), (0.0, 0.0, 0.0), 2.0),
        (state(yaw_rate=-om, omega_max=om), (0.0, 0.0, 0.0), -2.0),
        # zeros of both signs everywhere
        (state(pos=(-0.0, 0.0, -0.0), vel=(0.0, -0.0, 0.0), yaw=-0.0, yaw_rate=-0.0),
         (-0.0, 0.0, -0.0), -0.0),
        (state(v_max=v, omega_max=om), (0.0, 0.0, 0.0), 0.0),
        (state(v_max=0.0, omega_max=0.0), (1.0, -1.0, 0.0), 1.0),
    ]
    for trial, rows in enumerate(random_fleets(rng, edges)):
        states, accs, yaw_accs = [], [], []
        for r in rows:
            if r is None:
                r = (state(scaled(rng, 3), scaled(rng, 3), float(scaled(rng, 1)[0]),
                           float(scaled(rng, 1)[0]),
                           float(rng.choice([rng.uniform(0.5, 8.0), math.inf])),
                           float(rng.choice([rng.uniform(0.2, 3.0), math.inf]))),
                     scaled(rng, 3), float(scaled(rng, 1)[0]))
            states.append(r[0])
            accs.append(r[1])
            yaw_accs.append(r[2])
        dt = float(rng.choice([0.1, 0.05, 0.5]))
        p, vel, yaw, rate, v_max, omega_max = fleet(states)
        got = step_dynamics(p, vel, yaw, rate, np.array(accs, dtype=float), np.array(yaw_accs),
                            v_max, omega_max, dt)
        expected = [reference_step_dynamics(s, a, y, dt)
                    for s, a, y in zip(states, accs, yaw_accs)]
        assert same_bytes(got[0], [e.position for e in expected]), trial
        assert same_bytes(got[1], [e.velocity for e in expected]), trial
        assert same_bytes(got[2], [e.yaw for e in expected]), trial
        assert same_bytes(got[3], [e.yaw_rate for e in expected]), trial


def test_track_segment_equals_the_per_agent_reference():
    rng = np.random.default_rng(102)
    edges = [
        # the command exactly at a_max, and beyond it
        (state(), (_A_MAX / _KP, 0.0, 0.0), None),
        (state(), (0.0, 0.0, -2.0 * _A_MAX), 0.0),
        # at the target: a zero command, with zeros of both signs
        (state(pos=(1.0, -0.0, 0.0), vel=(-0.0, 0.0, -0.0)), (1.0, 0.0, -0.0), None),
        (state(yaw=-0.0, yaw_rate=-0.0), (-0.0, -0.0, -0.0), -0.0),
        # heading errors across the wrap, and yaw accelerations past the limit
        (state(yaw=math.pi), (0.0, 0.0, 0.0), -math.pi),
        (state(yaw=-3.0, yaw_rate=3.0), (5.0, 5.0, 0.0), 3.0),
        (state(yaw_rate=-5.0), (5.0, 5.0, 0.0), None),
    ]
    for trial, rows in enumerate(random_fleets(rng, edges)):
        states, targets, desired = [], [], []
        for r in rows:
            if r is None:
                r = (state(scaled(rng, 3), scaled(rng, 3), float(rng.uniform(-7, 7)),
                           float(scaled(rng, 1)[0])),
                     scaled(rng, 3), None if rng.random() < 0.3 else float(rng.uniform(-7, 7)))
            states.append(r[0])
            targets.append(r[1])
            desired.append(r[2])
        p, vel, yaw, rate, _, _ = fleet(states)
        acc, yaw_acc = track_segment(p, vel, yaw, rate, np.array(targets, dtype=float), desired)
        expected = [reference_track_segment(s, t, d)
                    for s, t, d in zip(states, targets, desired)]
        assert same_bytes(acc, [a for a, _ in expected]), trial
        assert same_bytes(yaw_acc, [y for _, y in expected]), trial


def test_point_gimbal_equals_the_per_agent_reference():
    rng = np.random.default_rng(103)
    edges = [
        (state(), GimbalState(), (0.0, 0.0, -1.0)),                         # straight down
        (state(yaw=1.0), GimbalState(0.3, -0.2), (-0.0, 0.0, -2.5)),
        (state(), GimbalState(), (0.0, 0.0, 1.0)),                          # past the upper stop
        (state(yaw=0.4), GimbalState(), (-1.0, 0.0, 0.0)),                  # behind: azimuth limit
        (state(yaw=-0.4), GimbalState(), (-1.0, -0.0, 0.0)),
        # angles at their limits, kept by a direction without length
        (state(), GimbalState(_INCLINATION_MIN, _AZIMUTH_MAX), (0.0, 0.0, 0.0)),
        (state(), GimbalState(_INCLINATION_MAX, _AZIMUTH_MIN), (1e-13, 0.0, -0.0)),
        (state(yaw=-0.0), GimbalState(-0.0, -0.0), (1.0, -0.0, 0.0)),      # forward
    ]
    for trial, rows in enumerate(random_fleets(rng, edges)):
        states, gimbals, looks = [], [], []
        for r in rows:
            if r is None:
                r = (state(yaw=float(rng.uniform(-7, 7))),
                     GimbalState(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))),
                     scaled(rng, 3))
            states.append(r[0])
            gimbals.append(r[1])
            looks.append(r[2])
        inc, az = point_gimbal(np.array([s.yaw for s in states]),
                               np.array([g.inclination for g in gimbals]),
                               np.array([g.azimuth for g in gimbals]),
                               np.array(looks, dtype=float))
        expected = [reference_point_gimbal(g, s, n) for s, g, n in zip(states, gimbals, looks)]
        assert same_bytes(inc, [g.inclination for g in expected]), trial
        assert same_bytes(az, [g.azimuth for g in expected]), trial

