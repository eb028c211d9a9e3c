import dataclasses
import hashlib
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from test_agents import (AgentState, GimbalState, reference_point_gimbal,
                         reference_step_dynamics, reference_track_segment)
from test_mesh import prism_mission
from uavinspect import cli, engine, sensors
from uavinspect.agents import TrackingConfig
from uavinspect.engine import (AgentSpec, MissionConfig, ScoreLedger, _Mission,
                               inspection_score, intensity_heatmap, run_mission,
                               update_ledger, write_outputs)
from uavinspect.errors import ConfigurationError, OutOfBoundsError
from uavinspect.planning import generate_waypoints
from uavinspect.scene import InterestPoint, Scene, scatter_box_face_points
from uavinspect.sensors import CameraConfig, LidarConfig, Observations
from uavinspect.world import (FREE, OCCUPIED, BoundingBox, OccupancyMap, load_map,
                              voxel_to_world, world_to_voxel)


def obs(row, q, qb=None, qr=None):
    """One observation as (point row, q_blur, q_res, q)."""
    qb = q if qb is None else qb
    qr = 1.0 if qr is None else qr
    return (row, qb, qr, q)


def frame(*observations):
    """A batch of observations, all by agent 0, in the given order."""
    rows = np.array([o[1:] for o in observations], dtype=float).reshape(-1, 3)
    return Observations(np.zeros(len(rows), dtype=int),
                        np.array([o[0] for o in observations], dtype=int),
                        rows[:, 0], rows[:, 1], rows[:, 2])


def reference_update_ledger(ledger, observations):
    """The ledger fold one observation at a time: the oracle for update_ledger."""
    for i, qb, qr, q in observations:
        if q > ledger.floor:
            ledger.counts[i] += 1
            if q > ledger.best_q[i]:
                ledger.best_q[i] = q
    return ledger


def small_scene(num_points=12, seed=5):
    box = BoundingBox((18.0, 18.0, 18.0), (24.0, 24.0, 24.0))
    points = scatter_box_face_points(box, num_points, seed=seed)
    return Scene(solid_boxes=[box], interest_points=points,
                 inspection_boxes=[BoundingBox((6.0, 6.0, 6.0), (36.0, 36.0, 36.0))])


def small_config(duration=60.0, **kw):
    defaults = dict(
        duration=duration,
        agents=(AgentSpec("explorer", (9.0, 21.0, 21.0)),
                AgentSpec("photographer", (9.0, 9.0, 9.0))),
        waypoint_standoff=12.0,
        camera=CameraConfig(exposure=0.01, range=40.0),
        lidar=LidarConfig(beams=8, azimuth_steps=90),
    )
    defaults.update(kw)
    return MissionConfig(**defaults)


# --- ledger -------------------------------------------------------------------

def test_ledger_keeps_the_best_quality():
    led = ScoreLedger([0, 1], quality_floor=0.1)
    update_ledger(led, frame(obs(0, 0.5)))
    update_ledger(led, frame(obs(0, 0.3)))
    assert led.best_q[0] == 0.5
    assert led.counts[0] == 2


def test_ledger_takes_max_over_agents_within_a_tick():
    led = ScoreLedger([0], quality_floor=0.1)
    update_ledger(led, frame(obs(0, 0.5), obs(0, 0.8)))
    assert led.best_q[0] == 0.8


def test_ledger_floor_is_strict():
    led = ScoreLedger([0], quality_floor=0.3)
    update_ledger(led, frame(obs(0, 0.3)))
    assert led.best_q[0] == 0.0
    assert led.counts[0] == 0
    update_ledger(led, frame(obs(0, 0.300001)))
    assert led.counts[0] == 1


def test_ledger_tracks_component_scores_of_best_frame():
    led = ScoreLedger([0], quality_floor=0.0)
    update_ledger(led, frame(obs(0, 0.4, qb=0.8, qr=0.5)))
    update_ledger(led, frame(obs(0, 0.6, qb=0.6, qr=1.0)))
    update_ledger(led, frame(obs(0, 0.5, qb=0.5, qr=1.0)))
    assert led.best_q[0] == 0.6


def test_ledger_rejects_unknown_point():
    # a row outside the scene's points
    led = ScoreLedger([0, 1], quality_floor=0.1)
    for row in (2, 7, -1):
        with pytest.raises(ValueError):
            update_ledger(led, frame(obs(row, 0.5)))
    assert led.counts.tolist() == [0, 0] and led.best_q.tolist() == [0.0, 0.0]


def test_inspection_score_sums_best():
    led = ScoreLedger([0, 1, 2], quality_floor=0.0)
    update_ledger(led, frame(obs(0, 1.0), obs(1, 0.5)))
    assert inspection_score(led) == pytest.approx(1.5)
    assert inspection_score(ScoreLedger([], 0.1)) == 0.0


def test_score_matches_log_replay_on_random_streams():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        floor = float(rng.uniform(0, 0.4))
        led = ScoreLedger(range(n), quality_floor=floor)
        log = []
        for _ in range(40):
            batch = []
            for row in rng.integers(0, n, size=rng.integers(0, 6)):
                q = float(rng.uniform(0, 1))
                batch.append(obs(int(row), q))
                log.append((int(row), q))
            update_ledger(led, frame(*batch))
        best = [max([q for p, q in log if p == pid and q > floor], default=0.0)
                for pid in range(n)]
        assert inspection_score(led) == math.fsum(best)


def test_logs_name_points_by_id_when_ids_are_not_rows():
    # the shipped missions number their points 0..n-1, where a row logged in
    # place of its id goes unseen
    scene = small_scene(num_points=10, seed=1)
    relabelled = [InterestPoint(1000 - 7 * i, p, n) for i, (p, n) in
                  enumerate(zip(scene.point_positions.tolist(), scene.point_normals.tolist()))]
    scene = Scene(solid_boxes=scene.solid_boxes, interest_points=relabelled,
                  inspection_boxes=scene.inspection_boxes)
    res = run_mission(small_config(duration=10.0,
                                   lidar=LidarConfig(beams=8, azimuth_steps=60)), scene)
    ids = scene.point_ids.tolist()
    assert ids == [1000 - 7 * i for i in range(10)]
    assert res.observations and {pid for _, _, pid, *_ in res.observations} <= set(ids)
    best = dict.fromkeys(ids, 0.0)
    for _k, _aid, pid, _qb, _qr, q in res.observations:
        if q > res.ledger.floor:
            best[pid] = max(best[pid], q)
    assert res.q_total > 0.0
    assert math.fsum(best[p] for p in ids) == res.q_total
    assert [row[0] for row in res.heatmap] == ids


def test_ledger_tie_goes_to_the_first_observation():
    led = ScoreLedger([0], quality_floor=0.1)
    update_ledger(led, frame(obs(0, 0.5, qb=0.5, qr=1.0), obs(0, 0.5, qb=1.0, qr=0.5)))
    assert (led.best_q[0], led.counts[0]) == (0.5, 2)
    # an equal quality in a later batch leaves the best as it is
    update_ledger(led, frame(obs(0, 0.5, qb=1.0, qr=0.5)))
    assert (led.best_q[0], led.counts[0]) == (0.5, 3)


def test_ledger_fold_equals_sequential_reference():
    rng = np.random.default_rng(89)
    levels = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])     # few values: many ties
    for trial in range(60):
        n = int(rng.integers(1, 12))
        ids = rng.permutation(np.arange(0, 5 * n, 5))       # labels only: batches hold rows
        floor = float(rng.choice(levels[:4]))
        led = ScoreLedger(ids, quality_floor=floor)
        ref = ScoreLedger(ids, quality_floor=floor)
        for _ in range(20):
            size = int(rng.integers(0, 3 * n))
            q = rng.choice(levels, size) if trial % 2 else rng.uniform(0, 1, size)
            q[rng.random(size) < 0.2] = floor                 # exactly at the floor
            batch = [(int(p), float(b), float(r), float(x))
                     for p, b, r, x in zip(rng.integers(0, n, size), rng.random(size),
                                           rng.random(size), q)]
            update_ledger(led, frame(*batch))
            reference_update_ledger(ref, batch)
            for field in ("best_q", "counts"):
                assert np.array_equal(getattr(led, field), getattr(ref, field)), field


def test_heatmap_counts_and_unobserved_points():
    scene = Scene(interest_points=[InterestPoint(0, (0, 0, 0), (1, 0, 0)),
                                   InterestPoint(1, (1, 0, 0), (1, 0, 0))])
    led = ScoreLedger([0, 1], quality_floor=0.1)
    update_ledger(led, frame(obs(0, 0.5), obs(0, 0.7), obs(0, 0.05)))
    rows = intensity_heatmap(led, scene)
    assert rows[0][:1] == (0,) and rows[0][4] == 2 and rows[0][5] == 0.7
    assert rows[1][4] == 0 and rows[1][5] == 0.0


# --- config validation -----------------------------------------------------------

def test_config_rejects_bad_explorer_counts():
    photographers = tuple(AgentSpec("photographer", (float(i), 0.0, 0.0))
                          for i in range(3))
    with pytest.raises(ConfigurationError):
        MissionConfig(duration=10.0, agents=photographers)
    explorers = tuple(AgentSpec("explorer", (float(i) * 10, 0.0, 0.0))
                      for i in range(3))
    with pytest.raises(ConfigurationError):
        MissionConfig(duration=10.0, agents=explorers)


def test_config_rejects_bad_scalars():
    agents = (AgentSpec("explorer", (0.0, 0.0, 0.0)),)
    with pytest.raises(ConfigurationError):
        MissionConfig(duration=0.0, agents=agents)
    with pytest.raises(ConfigurationError):
        MissionConfig(duration=10.0, agents=agents, tick=-0.1)
    with pytest.raises(ConfigurationError):
        MissionConfig(duration=10.0, agents=agents, horizon=0)
    for standoff in (0.0, -3.0):
        with pytest.raises(ConfigurationError, match="standoff"):
            MissionConfig(duration=10.0, agents=agents, waypoint_standoff=standoff)
    with pytest.raises(ConfigurationError):
        AgentSpec("diver", (0.0, 0.0, 0.0))


@pytest.mark.parametrize("field", ["duration", "tick", "voxel_size", "waypoint_standoff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_scalars(field, value):
    agents = (AgentSpec("explorer", (0.0, 0.0, 0.0)),)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        MissionConfig(**{"duration": 10.0, "agents": agents, field: value})


def test_agents_sharing_a_start_voxel_rejected():
    cfg = MissionConfig(duration=5.0, agents=(
        AgentSpec("explorer", (9.0, 9.0, 9.0)),
        AgentSpec("photographer", (10.0, 10.0, 10.0)),   # same voxel at V=6
    ))
    with pytest.raises(ConfigurationError):
        run_mission(cfg, small_scene())


# --- missions ----------------------------------------------------------------------

def test_zero_interest_points_scores_zero():
    scene = Scene(inspection_boxes=[BoundingBox((6, 6, 6), (36, 36, 36))])
    res = run_mission(small_config(duration=10.0), scene)
    assert res.q_total == 0.0
    assert res.score_trace == [0.0] * res.num_ticks
    assert res.violations == 0


def test_small_mission_observes_everything_and_respects_bound():
    scene = small_scene(num_points=12)
    res = run_mission(small_config(duration=60.0), scene)
    assert res.q_total <= res.ledger.num_points + 1e-9
    assert int((res.ledger.best_q > 0).sum()) == 12
    assert res.violations == 0
    trace = res.score_trace
    first_scored = min((k for k, _aid, _pid, _qb, _qr, q in res.observations
                        if q > res.ledger.floor), default=res.num_ticks)
    assert all(t == 0.0 for t in trace[:first_scored])
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(res.q_total / 12.0)


def test_same_seed_runs_are_bit_identical():
    scene = small_scene()
    r1 = run_mission(small_config(duration=15.0), scene)
    r2 = run_mission(small_config(duration=15.0), scene)
    assert r1.digest() == r2.digest()
    assert r1.q_total == r2.q_total
    assert r1.score_trace == r2.score_trace
    assert list(r1.observations) == list(r2.observations)


def test_photographers_hold_until_an_explorer_finishes():
    scene = small_scene()
    res = run_mission(small_config(duration=40.0), scene)
    explorer_done = res.phase_change_ticks[0]
    photographer_done = res.phase_change_ticks[1]
    assert photographer_done > explorer_done
    # the photographer's voxel is constant until its stage change
    start_voxels = {row[1][1] for tick, row in res.voxel_trace if tick < photographer_done}
    assert len(start_voxels) == 1


def test_epoch_counter_monotone_in_plan_events():
    scene = small_scene()
    res = run_mission(small_config(duration=60.0), scene)
    per_agent = {}
    for e in res.plan_events:
        parts = e.split()
        if "epoch" in parts and "waypoints" in parts:
            agent = int(parts[3])
            epoch = int(parts[5])
            assert epoch >= per_agent.get(agent, 0)
            per_agent[agent] = epoch
    assert per_agent, "no epochs were planned"


# Mission digest and SHA-256 of the joined plan events of each shipped scenario.
GOLDEN = {
    "desk_box": ("bdfa5f71d745a0cd5622ca606ccdac482288c5cbf269d29bd55d2821a021f67c",
                 "2f5964601135af3007d5bceddda7fcd56fd55080621b126c702b64c424b125af"),
    "twin_pillars": ("5646a53120da5b05415d006929a40eca64c8fb931888a9689598a1bc904ff5d4",
                     "5f95cb033ea72277214eda4c5fa7f7bb5da19d27c576fa69f588a1bce14b6a8a"),
    "open_field": ("796fdd88ad0f3dde1b6f7feffadf7ade33be4cfc934c1e471466eafdaf731288",
                   "4cb37aa2bc5c3d75ac3ebc6889e6ff6fb9759f3ab1fe4fd3c8f1ed80cd37eb7a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenarios_match_golden_behaviour(shipped_runs, name):
    _cfg, _scene, result, _wall = shipped_runs[name]
    digest, plans = GOLDEN[name]
    assert result.digest() == digest
    assert hashlib.sha256("\n".join(result.plan_events).encode()).hexdigest() == plans
    assert result.suppressed_returns == 0       # the hit rule never acts here


# The same for the bench workloads at seed 1; unlike the shipped scenarios,
# they repeat camera poses (fleet_fine: 2,196 of 3,300 captures).
WORKLOAD_GOLDEN = {
    "fleet_fine": ("c630bd2a589e120cfa7d5e35d22a55555d89386889d1f09b33a46d295e678ba4",
                   "6d8743ec0e1cbfde1afc8f65b4f87d04c035cf894e102edd5d2ebdcb4e44e582"),
    "mesh_tower": ("e8f13c9c75e372897589a173a05353309c2e96a4cd3ccfcdf6a08cca529dec57",
                   "bc35a43eab540e827cdd7e54885969f5b510fa39c5a17bdb50ad0176578e4a0f"),
}


def bench_workload(name, seed):
    """A bench workload's config and scene, built as bench/run.py builds it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return cli.scenario_from_dict(cli.normalize_scenario(module.WORKLOADS[name](seed)))


@pytest.mark.parametrize("name", sorted(WORKLOAD_GOLDEN))
def test_bench_workloads_match_golden_behaviour(name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")          # mesh_tower maps hold structure free
        result = run_mission(*bench_workload(name, 1))
    # the hit rule never acts on a pinned run
    assert not [w for w in caught if "LiDAR hits" in str(w.message)]
    assert result.suppressed_returns == 0
    digest, plans = WORKLOAD_GOLDEN[name]
    assert result.digest() == digest
    assert hashlib.sha256("\n".join(result.plan_events).encode()).hexdigest() == plans


def facing_mission():
    """A 10 s survey whose photographer holds still facing the box's x- face."""
    cfg = small_config(duration=10.0, lidar=LidarConfig(beams=8, azimuth_steps=60),
                       agents=(AgentSpec("explorer", (9.0, 21.0, 21.0)),
                               AgentSpec("photographer", (9.0, 15.0, 21.0))))
    return cfg, small_scene(num_points=10, seed=3)


def fleet_poses(mission):
    """The fleet's camera poses, one row of 9 doubles per agent."""
    return np.frombuffer(sensors.camera_pose(mission.position, mission.velocity, mission.yaw,
                                             mission.inclination, mission.azimuth)).reshape(-1, 9)


def fleet_rows(mission, k):
    """The log rows of tick k from one observe call on the whole fleet."""
    full = sensors.observe(fleet_poses(mission), mission.scene, mission.cfg.camera)
    return list(zip([k] * len(full), full.agent.tolist(),
                    mission.scene.point_ids[full.point].tolist(),
                    full.q_blur.tolist(), full.q_res.tolist(), full.q.tolist()))


def captured_poses(table, n):
    """A pose table as bytes: per capture, each of the n agents' poses in fleet order."""
    rows = [table[i:i + 72] for i in range(0, len(table), 72)]
    return [rows[i:i + n] for i in range(0, len(rows), n)]


def recorded_agents(table, n):
    """The ids of the agents each capture took a changed pose for."""
    captures = captured_poses(table, n)
    return [[aid for aid, pose in enumerate(fleet) if c == 0 or pose != captures[c - 1][aid]]
            for c, fleet in enumerate(captures)]


def scored_pose_tables(monkeypatch):
    """The pose table, as bytes, of each mission scored from now on; the
    scoring takes it from the mission."""
    tables = []
    score = _Mission._score

    def kept(self, n_ticks):
        tables.append(bytes(self.poses))
        score(self, n_ticks)

    monkeypatch.setattr(_Mission, "_score", kept)
    return tables


def observed_calls(monkeypatch):
    """The poses, as bytes, of each observe call the engine makes from now on."""
    calls = []

    def counted(*args):
        calls.append([row.tobytes() for row in args[0]])
        return sensors.observe(*args)

    monkeypatch.setattr(engine, "observe", counted)
    return calls


@pytest.mark.parametrize("mission", [facing_mission, prism_mission])
def test_reused_rows_equal_a_full_fleet_observe(monkeypatch, mission):
    # photographers hold still in the survey, so many captures repeat a pose
    expected = []
    capture = _Mission._capture

    def checked(self, k):
        capture(self, k)
        if k % self.cfg.capture_stride == 0:
            expected.extend(fleet_rows(self, k))

    monkeypatch.setattr(_Mission, "_capture", checked)
    calls = observed_calls(monkeypatch)
    tables = scored_pose_tables(monkeypatch)
    cfg, scene = mission()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = _Mission(cfg, scene).run()
    assert list(res.observations) == expected
    [table] = tables
    recorded = recorded_agents(table, len(cfg.agents))
    assert len(recorded) == res.num_ticks
    assert min(map(len, recorded)) < len(cfg.agents)
    # observe saw each distinct pose once, in a few calls
    seen = [pose for call in calls for pose in call]
    assert sorted(seen) == sorted({pose for fleet in captured_poses(table, len(cfg.agents))
                                   for pose in fleet})
    assert len(seen) <= sum(map(len, recorded)) and len(calls) < res.num_ticks / 10
    reused = [row for row in res.observations if row[1] not in recorded[row[0]]]
    assert reused, "no tick reused an agent's rows"
    counts = dict.fromkeys(res.ledger.point_ids.tolist(), 0)
    for _k, _aid, pid, _qb, _qr, q in res.observations:
        counts[pid] += q > res.ledger.floor
    assert res.ledger.counts.tolist() == list(counts.values())


@pytest.mark.parametrize("change", ["position", "velocity", "yaw", "inclination", "azimuth"])
def test_each_camera_input_renews_the_rows(change):
    mission = _Mission(*facing_mission())
    a = mission.agents[1]
    mission._capture(0)
    first = fleet_rows(mission, 0)
    # each edit is in place
    if change in ("inclination", "azimuth", "yaw"):
        getattr(mission, change)[a.id] += 0.3
    elif change == "position":
        mission.position[a.id, 0] -= 25.0       # far enough to lose resolution
    else:
        mission.velocity[a.id, 1] += 20.0       # fast enough to smear
    mission._capture(1)
    assert recorded_agents(bytes(mission.poses), 2) == [[0, 1], [1]]
    second = fleet_rows(mission, 1)
    mission._score(2)
    # an in-place edit after a capture leaves that capture's rows as they were
    assert [row for row in mission.observations if row[0] == 0] == first
    before = [row[1:] for row in first if row[1] == a.id]
    after = [row for row in mission.observations if row[0] == 1]
    assert before and after == second
    assert [row[1:] for row in after if row[1] == a.id] != before


def scored_by_hand(monkeypatch, gimbals):
    """The facing mission captured once per photographer gimbal in gimbals,
    scored after the captures and per tick: (poses observe saw, the
    mission scored after the captures, the per-tick mission)."""
    calls = observed_calls(monkeypatch)
    missions = _Mission(*facing_mission()), PerTickScoring(*facing_mission())
    for mission in missions:
        for k, gimbal in enumerate(gimbals):
            mission.inclination[1], mission.azimuth[1] = gimbal.inclination, gimbal.azimuth
            mission._capture(k)
        mission._score(len(gimbals))
    return [pose for call in calls for pose in call], *missions


def assert_logged_alike(got, expected):
    assert list(got.observations) == list(expected.observations)
    assert got.score_trace == expected.score_trace
    assert got.ledger.best_q.tolist() == expected.ledger.best_q.tolist()
    assert got.ledger.counts.tolist() == expected.ledger.counts.tolist()


def test_a_pose_taken_again_is_observed_once(monkeypatch):
    a, b = GimbalState(azimuth=0.0), GimbalState(azimuth=0.3)
    seen, got, expected = scored_by_hand(monkeypatch, [a, b, a])
    # the explorer holds one pose; the photographer goes A -> B -> A
    assert len(seen) == len(set(seen)) == 3
    assert_logged_alike(got, expected)
    rows = [[row[1:] for row in got.observations if row[0] == k and row[1] == 1]
            for k in range(3)]
    assert rows[0] and rows[0] == rows[2] != rows[1]


def test_poses_are_told_apart_by_their_bytes(monkeypatch):
    # 0.0 == -0.0, but their bytes differ: both are observed, as a byte
    # comparison with the last capture would observe both
    seen, got, expected = scored_by_hand(
        monkeypatch, [GimbalState(azimuth=0.0), GimbalState(azimuth=-0.0)])
    assert len(seen) == len(set(seen)) == 3
    assert_logged_alike(got, expected)
    assert got.observations


# --- whole-mission scoring oracle ------------------------------------------------

class PerTickScoring(_Mission):
    """The per-tick scorer, the oracle for scoring the captures after the
    tick loop: each capture tick observes the agents whose pose changed
    since their last capture, in one call, and folds and logs the fleet's
    rows at once."""

    def __init__(self, cfg, scene):
        super().__init__(cfg, scene)
        self.kept = [(b"", None)] * len(self.agents)    # each agent's last pose and rows
        self.logged = []                                # each capture's log columns

    def _capture(self, k):
        if k % self.cfg.capture_stride == 0:
            pose = [row.tobytes() for row in fleet_poses(self)]
            fresh = [a for a in self.agents if pose[a.id] != self.kept[a.id][0]]
            obs = sensors.observe(np.frombuffer(b"".join(pose[a.id] for a in fresh)).reshape(-1, 9),
                                  self.scene, self.cfg.camera)
            for row, a in enumerate(fresh):
                mine = obs.agent == row
                self.kept[a.id] = (pose[a.id],
                                   [np.full(np.count_nonzero(mine), a.id), obs.point[mine],
                                    obs.q_blur[mine], obs.q_res[mine], obs.q[mine]])
            obs = Observations(*map(np.concatenate, zip(*(rows for _, rows in self.kept))))
            self.logged.append((np.full(len(obs), k), obs.agent,
                                self.scene.point_ids[obs.point], obs.q_blur, obs.q_res, obs.q))
            update_ledger(self.ledger, obs)
        self.score_trace.append(self.ledger.mean_best())

    def _score(self, n_ticks):
        self.observations = engine.ObservationLog(*map(np.concatenate, zip(*self.logged)))


def jostled(mission_class):
    """mission_class with every agent's position edited in place after each
    capture: a capture must keep the pose it saw, not the fleet's arrays."""

    class Jostled(mission_class):
        def _capture(self, k):
            super()._capture(k)
            self.position += 1e-3 if k % 2 else -1e-3

    return Jostled


def shortened(mission, seconds):
    cfg, scene = mission
    return dataclasses.replace(cfg, duration=seconds), scene


def shipped(name):
    return cli.parse_scenario(str(Path(__file__).resolve().parent.parent
                                  / "scenarios" / f"{name}.yaml"))


ORACLE_MISSIONS = {
    "facing": facing_mission,
    "prism": prism_mission,
    **{name: (lambda name=name: shortened(bench_workload(name, 1), 15.0))
       for name in ("desk_box", "mesh_tower", "fleet_fine")},
    **{name: (lambda name=name: shortened(shipped(name), 20.0))
       for name in ("desk_box", "twin_pillars", "open_field")},
    "stride_2": lambda: (small_config(duration=20.0, capture_stride=2), small_scene()),
    "stride_3": lambda: (small_config(duration=20.0, capture_stride=3), small_scene()),
    "no_points": lambda: (small_config(duration=10.0),
                          Scene(inspection_boxes=[BoundingBox((6, 6, 6), (36, 36, 36))])),
    # undamped tracking overshoots into voxels no one claimed: moves are held
    "undamped": lambda: (small_config(
        duration=30.0, tracking=TrackingConfig(kp=1.0, kd=0.0),
        agents=(AgentSpec("explorer", (9.0, 21.0, 21.0)), AgentSpec("photographer", (9.0, 9.0, 9.0)),
                AgentSpec("photographer", (33.0, 9.0, 9.0)),
                AgentSpec("explorer", (33.0, 33.0, 33.0)))), small_scene()),
}


def score_both(cfg, scene, variant=lambda mission_class: mission_class):
    """The mission run with its captures scored after the loop and per tick:
    (scored mission, its result, the per-tick result)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mission = variant(_Mission)(cfg, scene)
        return mission, mission.run(), variant(PerTickScoring)(cfg, scene).run()


def assert_scored_alike(got, expected):
    assert list(got.observations) == list(expected.observations)
    assert got.score_trace == expected.score_trace
    assert got.ledger.best_q.tolist() == expected.ledger.best_q.tolist()
    assert got.ledger.counts.tolist() == expected.ledger.counts.tolist()
    assert got.q_total == expected.q_total


@pytest.mark.parametrize("name", sorted(ORACLE_MISSIONS))
def test_scoring_after_the_loop_equals_per_tick_scoring(name):
    cfg, scene = ORACLE_MISSIONS[name]()
    _, got, expected = score_both(cfg, scene)
    assert_scored_alike(got, expected)
    assert len(got.score_trace) == got.num_ticks
    assert scene.num_points == 0 or got.observations


def test_scoring_keeps_each_capture_by_value():
    cfg, scene = facing_mission()
    _, got, expected = score_both(cfg, scene, jostled)
    assert_scored_alike(got, expected)
    _, plain, _ = score_both(cfg, scene)
    assert list(got.observations) != list(plain.observations)   # the jostle reaches the scores


@pytest.mark.parametrize("poses_per_call", [1, 2])
def test_scoring_equals_per_tick_scoring_at_any_batch_size(monkeypatch, poses_per_call):
    cfg, scene = prism_mission()
    monkeypatch.setattr(engine, "_OBSERVE_PAIRS", poses_per_call * scene.num_points)
    calls = observed_calls(monkeypatch)
    tables = scored_pose_tables(monkeypatch)
    _, got, expected = score_both(cfg, scene)
    assert_scored_alike(got, expected)
    assert set(map(len, calls[:-1])) == {poses_per_call}
    # some capture's rows come from two observe calls
    call_of = {pose: i for i, call in enumerate(calls) for pose in call}
    [table] = tables
    assert any(len({call_of[pose] for pose in fleet}) > 1
               for fleet in captured_poses(table, len(cfg.agents)))


def solid_cube_scene():
    """A 3 x 3 x 3-voxel solid cube: its middle cell is out of every sensor's sight."""
    return Scene(solid_boxes=[BoundingBox((12.0, 12.0, 12.0), (30.0, 30.0, 30.0))],
                 inspection_boxes=[BoundingBox((6.0, 6.0, 6.0), (36.0, 36.0, 36.0))])


def test_audit_counts_structure_cells_a_map_holds_free():
    mission = _Mission(small_config(), solid_cube_scene())
    structure = np.argwhere(mission.truth)
    assert len(structure) == 27
    explorer, photographer = mission.agents
    explorer.occ.cells[tuple(structure[:3].T)] = FREE
    explorer.occ.cells[tuple(structure[3])] = OCCUPIED
    photographer.occ.cells[~mission.truth] = FREE       # free space held free is sound
    photographer.occ.cells[tuple(structure[0])] = FREE
    mission._audit(0)
    assert mission.free_structure_cells == 4
    mission._audit(1)
    assert mission.free_structure_cells == 8


def test_free_structure_cells_warn_and_reach_the_summary(tmp_path):
    mission = _Mission(small_config(duration=0.1), solid_cube_scene())
    mission.agents[1].occ.cells[mission.truth] = FREE
    with pytest.warns(UserWarning, match="structure cells free"):
        res = mission.run()
    expected = sum(int(np.count_nonzero(m.cells[mission.truth] == FREE))
                   for m in res.final_maps.values())
    assert res.free_structure_cells == expected > 0
    write_outputs(res, str(tmp_path))
    lines = (tmp_path / "mission_result.txt").read_text().splitlines()
    assert f"free_structure_cells: {expected}" in lines


def _events_of(res, agent):
    return [e.split(" ", 4)[4] for e in res.plan_events
            if e.split()[2:4] == ["agent", str(agent)]]


def _survey_events(res, agent):
    """Agent's plan events up to and including its stage change."""
    events = _events_of(res, agent)
    return events[:events.index("enters inspection stage") + 1]


def test_survey_skips_a_sweep_end_inside_structure():
    # the sweep line runs along x at y = z = 21; its far end, half a voxel in
    # from the x = 42 face, lies inside the second box
    box = BoundingBox((18.0, 18.0, 18.0), (24.0, 24.0, 24.0))
    scene = Scene(solid_boxes=[box, BoundingBox((36.0, 18.0, 18.0), (42.0, 24.0, 24.0))],
                  interest_points=scatter_box_face_points(box, 12, seed=5),
                  inspection_boxes=[BoundingBox((6.0, 6.0, 6.0), (36.0, 36.0, 36.0))])
    res = run_mission(small_config(duration=13.0), scene)
    survey = _survey_events(res, 0)
    assert survey == ["skips unreachable survey point (6, 3, 3)",
                      "enters inspection stage"]
    assert 0 in res.phase_change_ticks
    # the survey never counts as an inspection epoch
    assert _events_of(res, 0)[len(survey)].startswith("epoch 0 waypoints")
    assert res.violations == 0


def test_survey_abandons_points_it_cannot_see_a_way_to():
    # a 1 m LiDAR never confirms a neighbouring voxel free, so every step of
    # the sweep is blocked until the replan budget runs out
    res = run_mission(small_config(duration=11.0,
                                   lidar=LidarConfig(range=1.0, beams=8, azimuth_steps=90)),
                      small_scene())
    assert _survey_events(res, 0) == [
        "abandons stalled survey point (0, 3, 3)",
        "abandons stalled survey point (6, 3, 3)",
        "abandons stalled survey point (0, 3, 3)",
        "enters inspection stage",
    ]
    assert not any("completes epoch" in e for e in res.plan_events)
    assert res.phase_change_ticks[0] < res.phase_change_ticks[1]


def test_survey_goal_underfoot_keeps_the_blocked_replan_count():
    # pins today's rule: reaching a survey goal by standing on it advances the
    # route but, unlike entering a new voxel, does not reset blocked_replans
    mission = _Mission(small_config(), small_scene())
    a = mission.agents[0]
    a.voxel = a.sigma[0].voxel
    a.blocked_replans = 2
    mission._follow(a, [[], []], 0)
    assert a.cursor == 1 and a.segment
    assert a.blocked_replans == 2


def agent_state(mission, i):
    """Agent i's row of the fleet arrays, as the reference kernels take it."""
    return AgentState(i, mission.position[i], float(mission.yaw[i]), mission.velocity[i],
                      float(mission.yaw_rate[i]), float(mission.v_max[i]),
                      float(mission.omega_max[i]))


def reference_desired_yaw(a, state, target_pos):
    """_Mission._desired_yaw for one agent, from its state and aim point."""
    if a.phase == 2 and a.look_dir is not None:
        lx, ly = float(a.look_dir[0]), float(a.look_dir[1])
        if math.hypot(lx, ly) > 1e-9:
            return math.atan2(ly, lx)
        return None
    rel = target_pos - state.position
    if math.hypot(rel[0], rel[1]) > 0.5:
        return math.atan2(rel[1], rel[0])
    return None


def test_a_step_into_an_unclaimed_voxel_is_held():
    # the held photographer is pushed a whole voxel along x in one tick, and
    # drifts back along y: the move is refused, but the yaw update of the
    # same step goes through
    mission = _Mission(small_config(), small_scene())
    a = mission.agents[1]
    mission.velocity[a.id] = (mission.grid.voxel_size / 0.1, -0.5, 0.0)
    mission.yaw_rate[a.id] = 0.5
    before, voxel = agent_state(mission, a.id), a.voxel
    target = voxel_to_world(mission.grid, voxel)
    acc, yaw_acc = reference_track_segment(before, target, mission.cfg.tracking,
                                           reference_desired_yaw(a, before, target))
    stepped = reference_step_dynamics(before, acc, yaw_acc, mission.cfg.tick)
    assert world_to_voxel(mission.grid, stepped.position) != voxel
    assert stepped.velocity[1] < 0.0
    mission._act(0)
    after = agent_state(mission, a.id)
    assert a.voxel == voxel and mission.clamp_events == 1
    assert after.position.tolist() == before.position.tolist()
    assert after.velocity.tolist() == [0.0, 0.0, 0.0]
    assert (after.yaw, after.yaw_rate) == (stepped.yaw, stepped.yaw_rate)
    assert after.yaw != before.yaw
    # the held velocity is +0.0, so equal poses stay one pose byte for byte
    pose = fleet_poses(mission)[a.id]
    assert pose[3:6].tobytes() == np.zeros(3).tobytes()
    assert pose[:3].tobytes() == before.position.tobytes()


# --- the per-agent act stage: the oracle for the batched one ------------------------

class PerAgentAct(_Mission):
    """The act stage one agent at a time on the reference kernels, claim,
    step and accept in turn, reading and writing each agent's row of the
    fleet arrays."""

    def _act(self, k):
        claims = {a.voxel: a.id for a in self.agents}
        for a in self.agents:
            i = a.id
            state = agent_state(self, i)
            gimbal = GimbalState(float(self.inclination[i]), float(self.azimuth[i]),
                                 self.cfg.gimbal)
            target_voxel = a.voxel
            if a.seg_i < len(a.segment):
                want = a.segment[a.seg_i]
                if want == a.voxel:
                    a.seg_i += 1
                    if a.seg_i < len(a.segment):
                        want = a.segment[a.seg_i]
                if want != a.voxel:
                    if want not in claims and a.occ.cells[want] == FREE:
                        claims[want] = a.id
                        target_voxel = want
                        a.blocked = 0
                    else:
                        a.blocked += 1
                        if a.blocked >= engine._BLOCKED_REPLAN_TICKS:
                            a.segment = []
                            a.blocked = 0
                            a.blocked_replans += 1

            aim = target_voxel
            if target_voxel != a.voxel and a.seg_i < len(a.segment):
                j = a.seg_i
                step = tuple(target_voxel[i] - a.voxel[i] for i in range(3))
                while j + 1 < len(a.segment):
                    nxt, cur = a.segment[j + 1], a.segment[j]
                    if tuple(nxt[i] - cur[i] for i in range(3)) == step:
                        aim = nxt
                        j += 1
                    else:
                        break

            target_pos = voxel_to_world(self.grid, aim)
            yaw_des = reference_desired_yaw(a, state, target_pos)
            acc, yaw_acc = reference_track_segment(state, target_pos, self.cfg.tracking, yaw_des)
            new_state = reference_step_dynamics(state, acc, yaw_acc, self.cfg.tick)

            accepted = True
            try:
                nv = world_to_voxel(self.grid, new_state.position)
            except OutOfBoundsError:
                accepted = False
            if accepted and not (nv == a.voxel or claims.get(nv) == a.id):
                accepted = False
            if accepted:
                state = new_state
                if nv != a.voxel:
                    a.voxel = nv
                    a.blocked_replans = 0
                    if a.seg_i < len(a.segment) and nv == a.segment[a.seg_i]:
                        a.seg_i += 1
            else:
                state = dataclasses.replace(new_state, position=state.position,
                                            velocity=np.zeros(3))
                self.clamp_events += 1

            if a.look_dir is not None and a.phase == 2:
                gimbal = reference_point_gimbal(gimbal, state, a.look_dir)
            else:
                forward = np.array([math.cos(state.yaw), math.sin(state.yaw), 0.0])
                gimbal = reference_point_gimbal(gimbal, state, forward)
            self.position[i], self.velocity[i] = state.position, state.velocity
            self.yaw[i], self.yaw_rate[i] = state.yaw, state.yaw_rate
            self.inclination[i], self.azimuth[i] = gimbal.inclination, gimbal.azimuth


@pytest.mark.parametrize("name", sorted(ORACLE_MISSIONS))
def test_batched_act_equals_the_per_agent_act(name):
    cfg, scene = ORACLE_MISSIONS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, expected = _Mission(cfg, scene).run(), PerAgentAct(cfg, scene).run()
    assert got.digest() == expected.digest()
    assert got.plan_events == expected.plan_events
    assert got.clamp_events == expected.clamp_events
    assert name != "undamped" or got.clamp_events > 0


def test_no_agent_regenerates_on_a_map_that_gave_no_waypoints(monkeypatch):
    # at a 30 m standoff every waypoint falls off the grid; before the check,
    # each agent asked again on the same cells at every tick
    asked, current = [], []
    regenerate = _Mission._regenerate

    def tagged(self, a, peers, k):
        current[:] = [a.id]
        regenerate(self, a, peers, k)

    def recording(occ_map, boxes, standoff):
        waypoints = generate_waypoints(occ_map, boxes, standoff)
        asked.append((current[0], occ_map.cells.tobytes(), len(waypoints)))
        return waypoints

    monkeypatch.setattr(_Mission, "_regenerate", tagged)
    monkeypatch.setattr(engine, "generate_waypoints", recording)
    run_mission(small_config(duration=60.0, waypoint_standoff=30.0), small_scene())
    barren = set()
    for agent, cells, count in asked:
        assert (agent, cells) not in barren
        if count == 0:
            barren.add((agent, cells))
    assert {agent for agent, _ in barren} == {0, 1}


def test_regeneration_asks_again_once_the_map_changes(monkeypatch):
    mission = _Mission(small_config(), small_scene())
    asked = []

    def counting(occ_map, boxes, standoff):
        asked.append(occ_map.cells.copy())
        return generate_waypoints(occ_map, boxes, standoff)

    monkeypatch.setattr(engine, "generate_waypoints", counting)
    a = mission.agents[1]
    a.phase = 2
    for k in range(3):                   # an all-unknown map gives none
        mission._regenerate(a, [[], []], k)
    assert len(asked) == 1 and a.sigma is None
    a.occ.cells[a.voxel] = FREE
    mission._regenerate(a, [[], []], 3)
    assert len(asked) == 2 and a.sigma is None
    a.occ = OccupancyMap(mission.grid, np.where(mission.truth, OCCUPIED, FREE))
    mission._regenerate(a, [[], []], 4)
    assert len(asked) == 3 and a.sigma is not None


def test_capture_stride_thins_observations():
    scene = small_scene()
    res = run_mission(small_config(duration=20.0, capture_stride=4), scene)
    ticks = {row[0] for row in res.observations}
    assert ticks, "expected some observations"
    assert all(k % 4 == 0 for k in ticks)
    assert len(res.score_trace) == res.num_ticks


def test_connectivity_log_matches_visibility():
    # two agents in an empty volume see each other at every tick
    scene = Scene(inspection_boxes=[BoundingBox((6, 6, 6), (36, 36, 36))])
    res = run_mission(small_config(duration=5.0), scene)
    assert len(res.connectivity) == res.num_ticks
    for _tick, edges in res.connectivity:
        assert edges == ((0, 1),)


def test_outputs_written_and_reloadable(tmp_path):
    scene = small_scene()
    res = run_mission(small_config(duration=20.0), scene)
    out = tmp_path / "run"
    write_outputs(res, str(out))
    for name in ("mission_result.txt", "score_trace.csv", "observations.csv",
                 "heatmap.csv", "connectivity.csv", "plans.log"):
        assert (out / name).exists()
    text = (out / "mission_result.txt").read_text()
    assert f"inspection_score: {res.q_total!r}" in text
    assert "collisions_same_voxel: 0" in text
    rows = (out / "heatmap.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + res.ledger.num_points
    for aid in res.final_maps:
        loaded = load_map(out / "maps" / f"agent{aid}_final.vox")
        assert np.array_equal(loaded.cells, res.final_maps[aid].cells)
    trace_rows = (out / "score_trace.csv").read_text().strip().splitlines()
    assert len(trace_rows) == 1 + res.num_ticks


# --- the mission record as columns ---------------------------------------------------

CHUNK_SIZES = [0, 1, engine._ROW_CHUNK - 1, engine._ROW_CHUNK, engine._ROW_CHUNK + 1]
# floats whose repr is easy to get wrong: signed zero, the least subnormal,
# a large integral value and a sum that is not its decimal
AWKWARD = [-0.0, 5e-324, 1e22, 0.1 + 0.2, 1.0, 0.0]


def assert_reads_and_hashes_as(log, rows):
    """log iterates as the list rows and feeds a hash the bytes of
    repr(rows), the form the logs took as lists of tuples."""
    assert len(log) == len(rows)
    assert list(log) == rows
    assert "".join(log.reprs()) == repr(rows)
    h = hashlib.sha256()
    for text in log.reprs():
        h.update(text.encode())
    assert h.hexdigest() == hashlib.sha256(repr(rows).encode()).hexdigest()


def observation_log(rows):
    columns = list(zip(*rows)) or [()] * 6
    return engine.ObservationLog(*(np.array(c, dtype=np.int64) for c in columns[:3]),
                                 *(np.array(c, dtype=np.float64) for c in columns[3:]))


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_observation_log_reads_and_hashes_as_a_row_list(n):
    rows = [(i // 5, i % 3, 2**31 + 7 * i, AWKWARD[i % 6], AWKWARD[(i + 1) % 6],
             AWKWARD[(i + 2) % 6]) for i in range(n)]
    assert_reads_and_hashes_as(observation_log(rows), rows)


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_connectivity_log_reads_and_hashes_as_a_row_list(n):
    # 0, 1 and 2 edges a tick; a one-edge tick prints ((i, j),), an empty one ()
    patterns = [(), ((0, 1),), ((0, 2), (1, 2))]
    rows = [(k, patterns[k % 3]) for k in range(n)]
    edges = np.array([pair for _k, pairs in rows for pair in pairs], dtype=np.int64)
    offsets = np.cumsum([0] + [len(pairs) for _k, pairs in rows])
    log = engine.ConnectivityLog(edges.reshape(-1, 2), offsets)
    assert_reads_and_hashes_as(log, rows)


@pytest.mark.parametrize("agents", [1, 3])
@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_voxel_trace_reads_and_hashes_as_a_row_list(n, agents):
    voxels = np.arange(n * agents * 3).reshape(n, agents, 3) % 11
    rows = [(k, tuple((aid, tuple(int(c) for c in voxels[k, aid])) for aid in range(agents)))
            for k in range(n)]
    assert_reads_and_hashes_as(engine.VoxelTrace(voxels), rows)


def test_digest_hashes_the_logs_as_row_lists(monkeypatch):
    # small chunks split every log of a short mission many times over
    monkeypatch.setattr(engine, "_ROW_CHUNK", 7)
    res = run_mission(small_config(duration=10.0, capture_stride=2), small_scene())
    h = hashlib.sha256()
    for value in (res.q_total, res.score_trace, list(res.observations),
                  list(res.voxel_trace), list(res.connectivity)):
        h.update(repr(value).encode())
    for i in sorted(res.final_maps):
        h.update(res.final_maps[i].cells.tobytes())
    assert len(res.observations) > 7 and len(res.voxel_trace) > 7
    assert res.digest() == h.hexdigest()


def test_mission_record_holds_typed_columns():
    cfg, scene = shortened(bench_workload("fleet_fine", 1), 5.0)
    res = run_mission(cfg, scene)
    log = res.observations
    assert len(log) > 0
    assert [c.dtype for c in log.columns] == [np.int64] * 3 + [np.float64] * 3
    assert sum(c.nbytes for c in log.columns) == 48 * len(log)
    assert res.voxel_trace.voxels.shape == (res.num_ticks, len(cfg.agents), 3)
    assert len(res.connectivity) == res.num_ticks
    # the heatmap keeps its rows: one per interest point, however long the mission
    for f in dataclasses.fields(res):
        value = getattr(res, f.name)
        if f.name != "heatmap":
            assert not (isinstance(value, list) and any(isinstance(v, tuple) for v in value)), \
                f.name
