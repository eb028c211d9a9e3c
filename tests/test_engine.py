import dataclasses
import functools
import hashlib
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from test_agents import (AgentState, GimbalState, reference_point_gimbal,
                         reference_step_dynamics, reference_track_segment)
from test_mesh import prism_mission
from test_world import point_arrays
from uavinspect import agents, cli, engine, sensors
from uavinspect.comms import agent_pairs
from uavinspect.engine import (AgentSpec, MissionConfig, ScoreLedger, _Mission, run_mission,
                               update_ledger, write_outputs)
from uavinspect.errors import ConfigurationError, OutOfBoundsError
from uavinspect.planning import generate_waypoints
from uavinspect.scene import (Scene, line_of_sight, scatter_box_face_points,
                              scene_occupancy)
from uavinspect.sensors import CameraConfig, LidarConfig
from uavinspect.world import (FREE, OCCUPIED, UNKNOWN, BoundingBox, OccupancyMap, VoxelGrid,
                              load_map)


def obs(row, q, qb=None, qr=None):
    """One observation as (point row, q_blur, q_res, q)."""
    qb = q if qb is None else qb
    qr = 1.0 if qr is None else qr
    return (row, qb, qr, q)


def frame(*observations):
    """A batch of observations in the given order, as update_ledger takes
    it: the point rows and the qualities."""
    return (np.array([o[0] for o in observations], dtype=int),
            np.array([o[3] for o in observations], dtype=float))


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
    led = ScoreLedger([0, 1])
    update_ledger(led, *frame(obs(0, 0.5)))
    update_ledger(led, *frame(obs(0, 0.3)))
    assert led.best_q[0] == 0.5
    assert led.counts[0] == 2


def test_ledger_takes_max_over_agents_within_a_tick():
    led = ScoreLedger([0])
    update_ledger(led, *frame(obs(0, 0.5), obs(0, 0.8)))
    assert led.best_q[0] == 0.8


def test_ledger_floor_is_strict():
    led = ScoreLedger([0])
    led.floor = 0.3
    update_ledger(led, *frame(obs(0, 0.3)))
    assert led.best_q[0] == 0.0
    assert led.counts[0] == 0
    update_ledger(led, *frame(obs(0, 0.300001)))
    assert led.counts[0] == 1


def test_ledger_tracks_component_scores_of_best_frame():
    led = ScoreLedger([0])
    led.floor = 0.0
    update_ledger(led, *frame(obs(0, 0.4, qb=0.8, qr=0.5)))
    update_ledger(led, *frame(obs(0, 0.6, qb=0.6, qr=1.0)))
    update_ledger(led, *frame(obs(0, 0.5, qb=0.5, qr=1.0)))
    assert led.best_q[0] == 0.6


def test_ledger_rejects_unknown_point():
    # a row outside the scene's points
    led = ScoreLedger([0, 1])
    for row in (2, 7, -1):
        with pytest.raises(ValueError):
            update_ledger(led, *frame(obs(row, 0.5)))
    assert led.counts.tolist() == [0, 0] and led.best_q.tolist() == [0.0, 0.0]


@functools.cache
def one_tick_record():
    """The record of a one-tick mission on a scene with no interest points,
    which warns of nothing."""
    return run_mission(small_config(duration=0.1), small_scene(num_points=0))


def record(ledger, scene=None):
    """A mission record that holds ledger and scene in place of its own."""
    return dataclasses.replace(one_tick_record(), ledger=ledger, scene=scene or Scene())


def test_inspection_score_sums_best():
    led = ScoreLedger([0, 1, 2])
    led.floor = 0.0
    update_ledger(led, *frame(obs(0, 1.0), obs(1, 0.5)))
    assert record(led).q_total == pytest.approx(1.5)
    assert record(ScoreLedger([])).q_total == 0.0


def test_score_matches_log_replay_on_random_streams():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        floor = float(rng.uniform(0, 0.4))
        led = ScoreLedger(range(n))
        led.floor = floor
        log = []
        for _ in range(40):
            batch = []
            for row in rng.integers(0, n, size=rng.integers(0, 6)):
                q = float(rng.uniform(0, 1))
                batch.append(obs(int(row), q))
                log.append((int(row), q))
            update_ledger(led, *frame(*batch))
        best = [max([q for p, q in log if p == pid and q > floor], default=0.0)
                for pid in range(n)]
        assert record(led).q_total == math.fsum(best)


def test_logs_name_points_by_id_when_ids_are_not_rows():
    # the shipped missions number their points 0..n-1, where a row logged in
    # place of its id goes unseen
    scene = small_scene(num_points=10, seed=1)
    relabelled = (1000 - 7 * np.arange(scene.num_points), scene.point_positions,
                  scene.point_normals)
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
    assert res.ledger.point_ids.tolist() == ids


def test_ledger_tie_goes_to_the_first_observation():
    led = ScoreLedger([0])
    update_ledger(led, *frame(obs(0, 0.5, qb=0.5, qr=1.0), obs(0, 0.5, qb=1.0, qr=0.5)))
    assert (led.best_q[0], led.counts[0]) == (0.5, 2)
    # an equal quality in a later batch leaves the best as it is
    update_ledger(led, *frame(obs(0, 0.5, qb=1.0, qr=0.5)))
    assert (led.best_q[0], led.counts[0]) == (0.5, 3)


def test_ledger_fold_equals_sequential_reference():
    rng = np.random.default_rng(89)
    levels = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])     # few values: many ties
    for trial in range(60):
        n = int(rng.integers(1, 12))
        ids = rng.permutation(np.arange(0, 5 * n, 5))       # labels only: batches hold rows
        floor = float(rng.choice(levels[:4]))
        led, ref = ScoreLedger(ids), ScoreLedger(ids)
        led.floor = ref.floor = floor
        for _ in range(20):
            size = int(rng.integers(0, 3 * n))
            q = rng.choice(levels, size) if trial % 2 else rng.uniform(0, 1, size)
            q[rng.random(size) < 0.2] = floor                 # exactly at the floor
            batch = [(int(p), float(b), float(r), float(x))
                     for p, b, r, x in zip(rng.integers(0, n, size), rng.random(size),
                                           rng.random(size), q)]
            update_ledger(led, *frame(*batch))
            reference_update_ledger(ref, batch)
            for field in ("best_q", "counts"):
                assert np.array_equal(getattr(led, field), getattr(ref, field)), field


def test_heatmap_counts_and_unobserved_points(tmp_path):
    scene = Scene(interest_points=point_arrays([(0, (0, 0, 0), (1, 0, 0)),
                                                (1, (1, 0, 0), (1, 0, 0))]))
    led = ScoreLedger([0, 1])
    update_ledger(led, *frame(obs(0, 0.5), obs(0, 0.7), obs(0, 0.05)))
    write_outputs(record(led, scene), str(tmp_path))
    assert (tmp_path / "heatmap.csv").read_text().splitlines() == [
        "point_id,x,y,z,count,best_q", "0,0.0,0.0,0.0,2,0.7", "1,1.0,0.0,0.0,0,0.0"]


def test_a_reused_out_dir_holds_only_this_runs_map_files(tmp_path):
    # maps/ kept an earlier three-agent run's agent2_final.vox, on another grid
    second = one_tick_record()
    wide = OccupancyMap(VoxelGrid((0.0, 0.0, 0.0), (9, 9, 9), 1.0))
    first = dataclasses.replace(second, final_maps=dict.fromkeys(range(3), wide),
                                phase_maps={1: wide, 2: wide})
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    write_outputs(first, str(reused))
    foreign = ["agent02_final.vox", "agent2_final.vox.bak", "notes.txt"]
    for name in foreign:
        (reused / "maps" / name).write_text(name)
    write_outputs(second, str(reused))
    write_outputs(second, str(fresh))
    written = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    assert [p.name for p in written if p.parent.name == "maps"] == [
        "agent0_final.vox", "agent1_final.vox"]
    assert sorted(p.relative_to(reused) for p in reused.rglob("*") if p.is_file()) == sorted(
        written + [Path("maps", name) for name in foreign])
    for rel in written:
        assert (reused / rel).read_bytes() == (fresh / rel).read_bytes(), rel
    for name in foreign:
        assert (reused / "maps" / name).read_text() == name


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


@pytest.mark.parametrize("field, value", [("lidar.beams", 2.0), ("horizon", 2.5),
                                          ("horizon", True), ("lidar.beams", True)])
def test_config_rejects_non_integer_counts(field, value):
    # horizon=2.5 raised TypeError mid-mission and horizon=True ran as 1
    section, name = field.split(".") if "." in field else ("mission", field)
    with pytest.raises(ConfigurationError, match=f"^{section} {name} must be an integer"):
        build_config(section, **{name: value})


@pytest.mark.parametrize("build, name", [
    (lambda: CameraConfig(exposure=True), "camera exposure"),
    (lambda: AgentSpec("explorer", (True, 0.0, 0.0)), r"agent start\[0\]"),
    (lambda: dataclasses.replace(small_config(), duration=True), "mission duration"),
    (lambda: dataclasses.replace(small_config(), voxel_size=True), "mission voxel_size"),
])
def test_config_rejects_a_bool_for_a_real_field(build, name):
    # True > 0 and math.isfinite(True) hold, so these used to construct, and
    # a duration of True ran a 10-tick mission
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        build()


def test_config_takes_numpy_floats():
    cfg = small_config(duration=2.0)
    as_numpy = dataclasses.replace(
        cfg, duration=np.float64(2.0), voxel_size=np.float64(6.0),
        camera=dataclasses.replace(cfg.camera, exposure=np.float64(0.01),
                                   range=np.float64(40.0)))
    scene = small_scene()
    assert run_mission(as_numpy, scene).digest() == run_mission(cfg, scene).digest()


def test_config_takes_numpy_integer_counts():
    cfg = small_config(duration=2.0)
    as_numpy = dataclasses.replace(cfg, horizon=np.int64(3),
                                   lidar=LidarConfig(beams=np.int16(8),
                                                     azimuth_steps=np.int32(90)))
    scene = small_scene()
    assert run_mission(as_numpy, scene).digest() == run_mission(cfg, scene).digest()


@pytest.mark.parametrize("field", ["duration", "tick", "voxel_size", "waypoint_standoff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_scalars(field, value):
    agents = (AgentSpec("explorer", (0.0, 0.0, 0.0)),)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        MissionConfig(**{"duration": 10.0, "agents": agents, field: value})


@pytest.mark.parametrize("start", [(0.0, math.nan, 0.0), (math.inf, 0.0, 0.0), (0.0, 0.0)])
def test_agent_spec_rejects_a_bad_start(start):
    with pytest.raises(ConfigurationError, match="agent start"):
        AgentSpec("explorer", start)


@pytest.mark.parametrize("build, name", [
    # math.isfinite raised OverflowError on an int no float can hold
    (lambda: CameraConfig(range=10 ** 400), "camera range"),
    (lambda: AgentSpec("explorer", (10 ** 400, 0.0, 0.0)), r"agent start\[0\]"),
    # len() raised TypeError on a start that is not a sequence
    (lambda: AgentSpec("explorer", 5.0), "agent start"),
])
def test_config_rejects_by_name_what_used_to_slip_through(build, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        build()


CONFIG_CLASSES = {"agent": AgentSpec, "mission": MissionConfig, "camera": CameraConfig,
                  "lidar": LidarConfig}
# the annotations, strings in the config modules, of the fields that hold a number
NUMERIC = ("float", "int", "float | None")
# the rules a config field may carry, and the integer rules among them
RULES = {"finite", "positive", "non-negative", "positive integer"}
INTEGER = {"positive integer"}
# each probe value and the rules it breaks; None breaks every rule of a field
# whose default is not None, and none of a field whose default is None
PROBES = [
    (True, RULES), (math.nan, RULES), (math.inf, RULES), (-math.inf, RULES),
    (10 ** 400, RULES),                 # an int no float and no int64 can hold
    (2 ** 63, {"positive integer"}), (2 ** 63 - 1, set()),    # int64's edge
    (0, {"positive", "positive integer"}), (1, set()),
    (-1.0, RULES - {"finite"}), (0.5, INTEGER),
    # numpy scalars: not exact ints or floats, so check_value tests them
    # against the numbers abcs, with the verdicts of their Python values
    (np.bool_(True), RULES), (np.float64(math.nan), RULES), (np.float64(math.inf), RULES),
    (np.float64(-math.inf), RULES), (np.uint64(2 ** 63), {"positive integer"}),
    (np.int64(2 ** 63 - 1), set()), (np.int64(0), {"positive", "positive integer"}),
    (np.int32(1), set()), (np.float64(-1.0), RULES - {"finite"}), (np.float64(0.5), INTEGER),
    # every float width: each keeps a rule as its float64 value does, where a
    # float16 or float32 compared with the float64 maximum would cast it to inf
    *[(width(value), RULES) for width in (np.float16, np.float32, np.float64)
      for value in (math.inf, -math.inf, math.nan)],
    *[(np.finfo(width).max, INTEGER) for width in (np.float16, np.float32, np.float64)],
    (sys.float_info.max, INTEGER),
    (-10 ** 400, RULES),                # past every float's range, on both sides
    (np.uint64(2 ** 64 - 1), {"positive integer"}), (np.int32(70000), set()),
]


def numeric_fields():
    return [(section, f) for section, cls in CONFIG_CLASSES.items()
            for f in dataclasses.fields(cls) if f.type in NUMERIC]


def build_config(section, **fields):
    """The section's config class with fields set over a valid base."""
    # the mission's tick is the largest float, so that no probe of its
    # duration asks for tick tables past engine._MAX_TICK_BYTES
    base = {"mission": {"duration": 10.0, "tick": sys.float_info.max,
                        "agents": (AgentSpec("explorer", (0.0, 0.0, 0.0)),)}}
    return CONFIG_CLASSES[section](**{**base.get(section, {}), **fields})


def test_every_numeric_config_field_carries_a_rule():
    # a field added without a rule would go unchecked, and the CLI would not list it
    for section, cls in CONFIG_CLASSES.items():
        for f in dataclasses.fields(cls):
            assert ("rule" in f.metadata) == (f.type in NUMERIC), f"{section} {f.name}"
            assert f.metadata.get("rule", "finite") in RULES, f"{section} {f.name}"


@pytest.mark.parametrize("section, f", numeric_fields(),
                         ids=[f"{s}.{f.name}" for s, f in numeric_fields()])
def test_every_numeric_config_field_keeps_its_rule(monkeypatch, section, f):
    # the rays-per-firing cap weighs two fields together, so it is lifted
    # here and has its own test
    monkeypatch.setattr(sensors, "_MAX_RAYS", math.inf)
    rule = f.metadata["rule"]
    probes = PROBES + [(None, set() if f.default is None else RULES)]
    for value, breaks in probes:
        if rule in breaks:
            with pytest.raises(ConfigurationError, match=f"^{section} {f.name} must be "):
                build_config(section, **{f.name: value})
        else:
            assert getattr(build_config(section, **{f.name: value}), f.name) is value


@pytest.mark.parametrize("kinds, tick, speed", [(("explorer",), 1.5, 4),
                                                (("explorer", "photographer"), 1.2, 5)])
def test_a_tick_that_carries_the_fastest_agent_a_voxel_is_rejected(kinds, tick, speed):
    # the fleet's fastest kind covers a 6 m voxel a tick; a shorter tick passes
    agents = tuple(AgentSpec(kind, (9.0 + 12.0 * i, 9.0, 9.0)) for i, kind in enumerate(kinds))
    cfg = MissionConfig(duration=5.0, tick=tick, agents=agents)
    with pytest.raises(ConfigurationError, match=f"^mission.tick {tick:g} s lets an agent at "
                       f"{speed} m/s cross a 6 m voxel in one tick$"):
        _Mission(cfg, small_scene())
    _Mission(dataclasses.replace(cfg, tick=tick * 0.99), small_scene())


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
    # a scene with points has some scored, so no mission warns it scored none
    assert result.ledger.num_points == 0 or result.ledger.best_q.any()
    # every agent enters the inspection stage, so no photographer is named
    assert len(result.phase_change_ticks) == len(_cfg.agents)


# The same for the bench workloads at seed 1; unlike the shipped scenarios,
# they repeat camera poses (fleet_fine: 2,196 of 3,300 captures).
WORKLOAD_GOLDEN = {
    "fleet_fine": ("c630bd2a589e120cfa7d5e35d22a55555d89386889d1f09b33a46d295e678ba4",
                   "91939b7d7a154a82e2c9b61391528ed9a4af5529a042d3586f42a4e952e1d03f"),
    "mesh_tower": ("e8f13c9c75e372897589a173a05353309c2e96a4cd3ccfcdf6a08cca529dec57",
                   "bc35a43eab540e827cdd7e54885969f5b510fa39c5a17bdb50ad0176578e4a0f"),
}


@functools.cache
def bench_module(name):
    """bench/<name>.py, loaded by path, as bench/run.py imports it."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_workload(name, seed):
    """A bench workload's config and scene, built as bench/run.py builds it."""
    raw = bench_module("workloads").WORKLOADS[name](seed)
    return cli.scenario_from_dict(cli.normalize_scenario(raw))


def assert_findings(caught, *expected):
    """The warnings a run raised are the known findings, in order, each
    given by the start of its message."""
    messages = [str(w.message) for w in caught]
    assert len(messages) == len(expected), messages
    assert all(map(str.startswith, messages, expected)), messages


def linked_agent_ticks(connectivity):
    """The agent-ticks at which an agent has a peer in the connectivity log.
    Only an agent with a peer merges, so the gossip merges at most this often."""
    return sum(len({agent for edge in edges for agent in edge}) for _, edges in connectivity)


# The whole mission's work that the LiDAR culls and the gossip fix, per
# bench workload: (sweeps at most, cast rays at most, useful merges at
# least), measured at seed 1 under bench/tracing.py's Tracer, as
# `bench/run.py --trace 1` reports them.  A change that lowers a count
# tightens its number here in the same change; none is ever loosened.
WORK_BOUNDS = {
    "desk_box": (440, 293_125, 193),
    "fleet_fine": (357, 61_337, 1),
    "mesh_tower": (226, 17_731, 98),
}

# The findings each run raises: fleet_fine's idle fleet (ROADMAP item 4)
# and mesh_tower's maps that hold structure free (item 6).
WORKLOAD_FINDINGS = {
    "desk_box": (),
    "fleet_fine": ("the fleet entered the inspection stage but planned no epoch",),
    "mesh_tower": ("agent maps held structure cells free",),
}


@pytest.mark.parametrize("name", sorted(WORK_BOUNDS))
def test_bench_workloads_match_golden_behaviour(name):
    """Each bench workload at seed 1, traced after set-up: its pinned digest
    and plan hash, its findings, and WORK_BOUNDS.  The other bounds are read
    from the run itself: only an agent with a peer merges; the sight lines
    ride in the sweep, so line_of_sight runs only on the ticks without one
    and for the camera; and each sweep makes at most one map update."""
    mission = _Mission(*bench_workload(name, 1))
    tracer = bench_module("tracing").Tracer().install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = mission.run()
    finally:
        tracer.restore()
    assert_findings(caught, *WORKLOAD_FINDINGS[name])
    assert result.suppressed_returns == 0       # the hit rule never acts on a pinned run
    # desk_box at seed 1 is the shipped scenario, whose digest bench/run.py checks too
    assert bench_module("workloads").DESK_BOX_DIGEST == GOLDEN["desk_box"][0]
    digest, plans = {**WORKLOAD_GOLDEN, "desk_box": GOLDEN["desk_box"]}[name]
    assert result.digest() == digest
    assert hashlib.sha256("\n".join(result.plan_events).encode()).hexdigest() == plans

    calls, counts = tracer.calls, tracer.counts
    sweeps = calls["sensors.lidar_sweep"]
    most_sweeps, most_rays, least_useful = WORK_BOUNDS[name]
    assert 0 < sweeps <= most_sweeps
    assert counts["scene.ray_cast_batch.rays"] <= most_rays
    assert counts["comms.merges_useful"] >= least_useful
    assert calls["world.merge_maps"] <= linked_agent_ticks(result.connectivity)
    assert calls["scene.line_of_sight"] <= (result.num_ticks - sweeps
                                            + calls["scene.visible_point_indices"])
    assert 0 < calls["world.integrate_points"] <= sweeps
    assert counts["world.cells_learned"] > 0


def facing_mission(duration=10.0):
    """A survey, 10 s by default, whose photographer holds still facing the
    box's x- face."""
    cfg = small_config(duration=duration, lidar=LidarConfig(beams=8, azimuth_steps=60),
                       agents=(AgentSpec("explorer", (9.0, 21.0, 21.0)),
                               AgentSpec("photographer", (9.0, 15.0, 21.0))))
    return cfg, small_scene(num_points=10, seed=3)


def fleet_poses(mission):
    """The fleet's camera poses, one row of 9 doubles per agent."""
    return sensors.camera_pose(mission.position, mission.velocity, mission.yaw,
                               mission.inclination, mission.azimuth)


def fleet_rows(mission, k):
    """The log rows of tick k from one observe call on the whole fleet."""
    full = sensors.observe(fleet_poses(mission), mission.scene, mission.cfg.camera)
    return list(zip([k] * len(full), full.pose.tolist(),
                    mission.scene.point_ids[full.point].tolist(),
                    full.q_blur.tolist(), full.q_res.tolist(), full.q.tolist()))


def captured_poses(table):
    """A pose table's poses as bytes: per capture, each agent's pose in fleet order."""
    return [[pose.tobytes() for pose in fleet] for fleet in table]


def recorded_agents(table):
    """The ids of the agents each capture took a changed pose for."""
    captures = captured_poses(table)
    return [[aid for aid, pose in enumerate(fleet) if c == 0 or pose != captures[c - 1][aid]]
            for c, fleet in enumerate(captures)]


def scored_pose_tables(monkeypatch):
    """A copy of the pose table of each mission scored from now on."""
    tables = []
    score = _Mission._score

    def kept(self):
        tables.append(self.poses.copy())
        score(self)

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
    recorded = recorded_agents(table)
    assert len(recorded) == res.num_ticks
    assert min(map(len, recorded)) < len(cfg.agents)
    # observe saw each distinct pose once, in a few calls
    seen = [pose for call in calls for pose in call]
    assert sorted(seen) == sorted({pose for fleet in captured_poses(table) for pose in fleet})
    assert len(seen) <= sum(map(len, recorded)) and len(calls) < res.num_ticks / 10
    reused = [row for row in res.observations if row[1] not in recorded[row[0]]]
    assert reused, "no tick reused an agent's rows"
    counts = dict.fromkeys(res.ledger.point_ids.tolist(), 0)
    for _k, _aid, pid, _qb, _qr, q in res.observations:
        counts[pid] += q > res.ledger.floor
    assert res.ledger.counts.tolist() == list(counts.values())


@pytest.mark.parametrize("change", ["position", "velocity", "yaw", "inclination", "azimuth"])
def test_each_camera_input_renews_the_rows(change):
    mission = _Mission(*facing_mission(0.2))       # a tick for each capture
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
    assert recorded_agents(mission.poses) == [[0, 1], [1]]
    second = fleet_rows(mission, 1)
    mission._score()
    # an in-place edit after a capture leaves that capture's rows as they were
    assert [row for row in mission.observations if row[0] == 0] == first
    before = [row[1:] for row in first if row[1] == a.id]
    after = [row for row in mission.observations if row[0] == 1]
    assert before and after == second
    assert [row[1:] for row in after if row[1] == a.id] != before


def scored_by_hand(monkeypatch, gimbals):
    """The facing mission, a tick long per photographer gimbal in gimbals,
    captured once per gimbal and scored after the captures and per tick:
    (poses observe saw, the mission scored after the captures, the per-tick
    mission)."""
    calls = observed_calls(monkeypatch)
    duration = len(gimbals) / 10
    missions = _Mission(*facing_mission(duration)), PerTickScoring(*facing_mission(duration))
    for mission in missions:
        for k, gimbal in enumerate(gimbals):
            mission.inclination[1], mission.azimuth[1] = gimbal.inclination, gimbal.azimuth
            mission._capture(k)
        mission._score()
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
    tick loop: each tick observes the agents whose pose changed
    since their last capture, in one call, and folds and logs the fleet's
    rows at once."""

    def __init__(self, cfg, scene):
        super().__init__(cfg, scene)
        self.kept = [(b"", None)] * len(self.agents)    # each agent's last pose and rows
        self.logged = []                                # each capture's log columns

    def _capture(self, k):
        poses = fleet_poses(self)
        fresh = [a.id for a in self.agents if poses[a.id].tobytes() != self.kept[a.id][0]]
        obs = sensors.observe(poses[fresh], self.scene, self.cfg.camera)
        for row, aid in enumerate(fresh):
            mine = obs.pose == row
            self.kept[aid] = (poses[aid].tobytes(),
                              [np.full(np.count_nonzero(mine), aid), obs.point[mine],
                               obs.q_blur[mine], obs.q_res[mine], obs.q[mine]])
        agent, point, q_blur, q_res, q = map(np.concatenate,
                                             zip(*(rows for _, rows in self.kept)))
        self.logged.append((np.full(len(q), k), agent, self.scene.point_ids[point],
                            q_blur, q_res, q))
        update_ledger(self.ledger, point, q)
        self.score_trace.append(self.ledger.mean_best())

    def _score(self):
        self.observations = engine.ObservationLog(*map(np.concatenate, zip(*self.logged)))


def jostled(mission_class):
    """mission_class with every agent's position edited in place after each
    capture: a capture must keep the pose it saw, not the fleet's arrays."""

    class Jostled(mission_class):
        def _capture(self, k):
            super()._capture(k)
            self.position += 1e-3 if k % 2 else -1e-3

    return Jostled


def shortened(mission, seconds, **changes):
    cfg, scene = mission
    return dataclasses.replace(cfg, duration=seconds, **changes), scene


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
    "no_points": lambda: (small_config(duration=10.0),
                          Scene(inspection_boxes=[BoundingBox((6, 6, 6), (36, 36, 36))])),
    # undamped tracking, which oracle_mission sets, overshoots into voxels
    # no one claimed: moves are held
    "undamped": lambda: (small_config(
        duration=30.0,
        agents=(AgentSpec("explorer", (9.0, 21.0, 21.0)), AgentSpec("photographer", (9.0, 9.0, 9.0)),
                AgentSpec("photographer", (33.0, 9.0, 9.0)),
                AgentSpec("explorer", (33.0, 33.0, 33.0)))), small_scene()),
}


def oracle_mission(name, monkeypatch):
    """ORACLE_MISSIONS[name], its tracking undamped for "undamped"."""
    if name == "undamped":
        monkeypatch.setattr(agents, "_KD", 0.0)
    return ORACLE_MISSIONS[name]()


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
def test_scoring_after_the_loop_equals_per_tick_scoring(monkeypatch, name):
    cfg, scene = oracle_mission(name, monkeypatch)
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
               for fleet in captured_poses(table))


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


def test_agent_maps_are_rows_of_the_fleet_maps():
    # each agent's map is a view of its row, bound once: the tick loop writes
    # through it, and so does anyone else, and the audit reads the array
    mission = _Mission(small_config(duration=0.5), solid_cube_scene())

    def views():
        return [np.shares_memory(a.occ.cells, mission.maps.cells) for a in mission.agents]

    assert views() == [True, True]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mission.run()
    assert views() == [True, True]
    center = tuple(np.argwhere(mission.truth)[13])      # out of every sensor's sight
    photographer = mission.agents[1]
    assert photographer.occ.cells[center] == mission.maps.cells[1][center] == UNKNOWN
    count = mission.free_structure_cells
    mission._audit(0)
    per_audit = mission.free_structure_cells - count
    photographer.occ.cells[center] = FREE
    count = mission.free_structure_cells
    mission._audit(0)
    assert mission.free_structure_cells - count == per_audit + 1


@pytest.mark.parametrize("mission", [
    lambda: (small_config(), small_scene()),
    lambda: bench_workload("fleet_fine", 1),
], ids=["small", "fleet_fine"])
def test_a_built_mission_knows_each_start_voxel_free(mission):
    # the one write an agent's own voxel needs is made when its row is bound
    mission = _Mission(*mission())
    for a, row in zip(mission.agents, mission.maps.cells):
        assert np.argwhere(row != UNKNOWN).tolist() == [list(a.voxel)]
        assert row[a.voxel] == FREE


def test_every_agent_stands_in_a_voxel_its_map_knows_free(monkeypatch):
    # the sense stage writes no own voxel: an agent enters only voxels its
    # map holds FREE, and a map's cells only rise, so the build's write holds
    audit = _Mission._audit
    stood = []

    def checked(self, k):
        for a, row in zip(self.agents, self.maps.cells):
            assert row[a.voxel] >= FREE, (k, a.id)
            stood.append((a.id, a.voxel))
        audit(self, k)

    monkeypatch.setattr(_Mission, "_audit", checked)
    result = run_mission(small_config(duration=40.0), small_scene())
    assert len(stood) == 2 * result.num_ticks
    # the photographer moves too, after the explorer's survey
    assert len({voxel for aid, voxel in stood if aid == 1}) > 1


def test_a_segment_holds_only_the_voxels_still_ahead(monkeypatch):
    # a plan step is route[1:1 + horizon] of a path from the agent's voxel,
    # and an accepted move deletes the voxel it enters, so the next voxel
    # to claim is always the segment's first, a face neighbour
    act = _Mission._act
    ahead = []

    def checked(self, k):
        for a in self.agents:
            assert a.voxel not in a.segment, (k, a.id)
            if a.segment:
                assert sum(abs(p - q) for p, q in zip(a.segment[0], a.voxel)) == 1, (k, a.id)
                ahead.append(a.id)
        act(self, k)

    monkeypatch.setattr(_Mission, "_act", checked)
    # the photographers set out at 42 s
    run_mission(*shortened(shipped("desk_box"), 60.0))
    assert set(ahead) == {0, 1, 2}


def test_exchange_merges_snapshots_of_the_fleet_maps():
    # A-B-C in line of sight pairs (A,B) and (B,C): after one exchange the
    # middle row holds all three marks, the end rows their pair only
    from test_comms import CHAIN_POSITIONS, chain_scene     # a cycle at module level
    scene = Scene(solid_boxes=chain_scene().solid_boxes,
                  inspection_boxes=[BoundingBox((1.0, -5.0, -1.0), (5.2, 5.0, 2.0))])
    # a 0.05 s tick keeps a photographer's step under the 0.5 m voxel
    cfg = MissionConfig(duration=1.0, tick=0.05, voxel_size=0.5, agents=(
        AgentSpec("explorer", CHAIN_POSITIONS[0]),
        *(AgentSpec("photographer", p) for p in CHAIN_POSITIONS[1:3])))
    mission = _Mission(cfg, scene)
    marks = [a.voxel for a in mission.agents]
    for a, cell in zip(mission.agents, marks):
        a.occ.cells[cell] = OCCUPIED
    clear = line_of_sight(scene, mission.position[mission.first],
                          mission.position[mission.second])
    assert mission._exchange(0, clear) == [[1], [0, 2], [1]]
    held = [{m for m in marks if row[m] == OCCUPIED} for row in mission.maps.cells]
    assert held == [set(marks[:2]), set(marks), set(marks[1:])]


def random_fleet(rng, scene):
    """A fleet of 2-6 agents, one or two of them explorers, in distinct
    voxels off the structure, inside the scene's inspection box [6, 36]^3
    (so on the 6 m grid from the origin); some coordinates lie on the planes
    of box faces and triangle vertices, or level with another agent."""
    truth = scene_occupancy(scene, VoxelGrid((0.0, 0.0, 0.0), (7, 7, 7), 6.0))
    planes = np.concatenate([scene._box_lo.ravel(), scene._box_hi.ravel(),
                             scene.triangles.ravel()])
    positions, taken = [], set()
    size = int(rng.integers(2, 7))
    while len(positions) < size:
        p = rng.uniform(7.0, 35.0, 3)
        snap = rng.random(3) < 0.3
        p[snap] = rng.choice(planes, np.count_nonzero(snap))
        if positions and len(positions) % 3 == 1:
            p[2] = positions[0][2]
        voxel = tuple((p // 6.0).astype(int).tolist())
        if voxel not in taken and not truth[voxel]:
            taken.add(voxel)
            positions.append(tuple(p.tolist()))
    explorers = int(rng.integers(1, 3))
    return tuple(AgentSpec("explorer" if i < explorers else "photographer", p)
                 for i, p in enumerate(positions))


@pytest.mark.parametrize("geometry", ["boxes", "triangles"])
def test_each_ticks_peers_equal_the_pairs_cast_apart(geometry, monkeypatch):
    # the sight lines ride in the tick's LiDAR sweep when an explorer fires,
    # and are cast alone when none does; either way the peers are those of
    # each pair cast on its own
    from test_comms import reference_neighbors              # a cycle at module level
    rng = np.random.default_rng(71)
    if geometry == "boxes":
        shapes = dict(solid_boxes=[BoundingBox((12.0, 12.0, 6.0), (18.0, 30.0, 30.0)),
                                   BoundingBox((24.0, 6.0, 12.0), (30.0, 18.0, 24.0))])
    else:
        # a triangle across half the plane x = 21, and small ones anywhere
        wall = [[(21.0, 8.0, 8.0), (21.0, 34.0, 8.0), (21.0, 8.0, 34.0)]]
        shapes = dict(triangles=np.concatenate([wall, rng.uniform(10.0, 32.0, (12, 1, 3))
                                                + rng.uniform(-5.0, 5.0, (12, 3, 3))]))
    scene = Scene(**shapes, inspection_boxes=[BoundingBox((6.0, 6.0, 6.0), (36.0, 36.0, 36.0))])
    sweeps = []
    sweep = engine.lidar_sweep
    monkeypatch.setattr(engine, "lidar_sweep", lambda *a: sweeps.append(a) or sweep(*a))
    blocked = 0
    for _ in range(20):
        cfg = MissionConfig(duration=1.0, agents=random_fleet(rng, scene),
                            lidar=LidarConfig(beams=4, azimuth_steps=24))
        mission = _Mission(cfg, scene)
        expected = reference_neighbors(mission.position, scene)
        n = len(mission.agents)
        blocked += n * (n - 1) // 2 - sum(map(len, expected)) // 2
        for k, fires in enumerate((True, False)):
            if not fires:
                # every map known: no explorer fires
                mission.maps.cells[...] = np.where(mission.truth, OCCUPIED, FREE)
            before = len(sweeps)
            assert mission._exchange(k, mission._sense(k, k * cfg.tick)) == expected, (n, k)
            assert (len(sweeps) > before) == fires
    assert blocked >= 10


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


def test_a_mission_that_scores_no_point_warns():
    # a camera that reaches no point scores none of them; a scene with no
    # point has nothing to score, and says nothing
    cfg = small_config(duration=2.0, camera=CameraConfig(exposure=0.01, range=1.0))
    with pytest.warns(UserWarning, match="^the mission scored none of its 12 interest points: "
                      r"the nearest capture was 9\.11 m from one, against camera\.range 1 m$"):
        res = run_mission(cfg, small_scene())
    assert res.q_total == 0.0 and not res.ledger.best_q.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_mission(cfg, Scene(inspection_boxes=small_scene().inspection_boxes))


def test_a_camera_short_of_every_point_names_the_nearest_capture():
    # desk_box with a 1 m camera: the fleet flies its whole mission, and no
    # capture comes within 2.43 m of a point
    cfg, scene = shipped("desk_box")
    cfg = dataclasses.replace(cfg, camera=dataclasses.replace(cfg.camera, range=1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_mission(cfg, scene)
    assert res.ledger.scored == 0 and res.violations == 0
    assert [str(w.message) for w in caught] == [
        "the mission scored none of its 200 interest points: the nearest capture was "
        "2.43 m from one, against camera.range 1 m"]


def test_a_tick_under_a_voxel_a_step_refuses_no_move():
    # desk_box's photographers fly at up to 5 m/s on 6 m voxels: a 1 s tick
    # carries one 5 m a step, under a voxel, and it enters each voxel it claims
    cfg, scene = shipped("desk_box")
    res = run_mission(dataclasses.replace(cfg, tick=1.0), scene)
    assert res.num_ticks == 120 and res.clamp_events == 0 and res.violations == 0


def test_a_photographer_that_never_hears_a_finished_explorer_is_named():
    # desk_box with a third photographer inside the hollow cube, whose walls
    # hide it from every peer: the explorer finishes its survey at tick 419,
    # the two outside photographers hear it, and the walled-in one held still
    # for the whole mission, unnamed
    cfg, scene = shipped("desk_box")
    cfg = dataclasses.replace(cfg, duration=50.0, agents=(
        *cfg.agents, AgentSpec("photographer", (24.0, 24.0, 24.0))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_mission(cfg, scene)
    assert res.phase_change_ticks == {0: 419, 1: 420, 2: 420}
    assert [str(w.message) for w in caught if "never entered" in str(w.message)] == [
        "photographer 3 never entered the inspection stage: it heard no explorer that "
        "finished its survey"]
    assert res.plan_events[-1] == ("tick 500 agent 3 never entered inspection stage: "
                                   "heard no finished explorer")
    # before the explorer finishes, no photographer could have heard it, and
    # the mission names only the explorer that did not finish
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_mission(*shortened((cfg, scene), 40.0))
    assert res.phase_change_ticks == {}
    assert [str(w.message) for w in caught] == [
        "no explorer finished its survey, so no agent reached the inspection stage"]
    assert res.plan_events[-1] == "tick 400 no explorer finished its survey"


@pytest.mark.parametrize("mission, stage_two", [
    (lambda: bench_workload("fleet_fine", 1), 473),
    (lambda: shortened(shipped("desk_box"), 65.0, voxel_size=4.0), 615),
], ids=["fleet_fine", "desk_box_4m"])
def test_a_fleet_that_plans_no_epoch_says_so(mission, stage_two):
    # the whole fleet enters the inspection stage, but each standoff cell of
    # the boxes' faces lies off the grid, so no map gives a waypoint and the
    # fleet held still, unnamed
    cfg, scene = mission()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_mission(cfg, scene)
    assert min(res.phase_change_ticks.values()) == stage_two
    assert len(res.phase_change_ticks) == len(cfg.agents)
    assert not [e for e in res.plan_events if " waypoints " in e]
    assert [str(w.message) for w in caught if "epoch" in str(w.message)] == [
        "the fleet entered the inspection stage but planned no epoch: no agent's map gave "
        "a waypoint"]
    assert res.plan_events[-1] == (f"tick {res.num_ticks} no inspection epoch planned: "
                                   "no agent's map gave a waypoint")


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


def test_survey_abandons_points_it_cannot_see_a_way_to(monkeypatch):
    # a 1 m LiDAR never confirms a neighbouring voxel free, so every step of
    # the sweep is blocked until the replan budget runs out; no map then
    # gives a waypoint
    monkeypatch.setattr(sensors, "_LIDAR_RANGE", 1.0)
    with pytest.warns(UserWarning, match="planned no epoch"):
        res = run_mission(small_config(duration=11.0), small_scene())
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
    target = mission.grid.centers(voxel)
    acc, yaw_acc = reference_track_segment(before, target,
                                           reference_desired_yaw(a, before, target))
    stepped = reference_step_dynamics(before, acc, yaw_acc, mission.cfg.tick)
    assert tuple(mission.grid.voxels(stepped.position).tolist()) != voxel
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
    fleet arrays.  An agent's turn walks its segment with its own index,
    stepping over a voxel equal to the agent's, and deletes the voxels it
    entered at the end of the turn."""

    def _act(self, k):
        claims = {a.voxel: a.id for a in self.agents}
        for a in self.agents:
            i = a.id
            state = agent_state(self, i)
            gimbal = GimbalState(float(self.inclination[i]), float(self.azimuth[i]))
            target_voxel = a.voxel
            seg_i = 0
            if seg_i < len(a.segment):
                want = a.segment[seg_i]
                if want == a.voxel:
                    seg_i += 1
                    if seg_i < len(a.segment):
                        want = a.segment[seg_i]
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
            if target_voxel != a.voxel and seg_i < len(a.segment):
                j = seg_i
                step = tuple(target_voxel[i] - a.voxel[i] for i in range(3))
                while j + 1 < len(a.segment):
                    nxt, cur = a.segment[j + 1], a.segment[j]
                    if tuple(nxt[i] - cur[i] for i in range(3)) == step:
                        aim = nxt
                        j += 1
                    else:
                        break

            target_pos = self.grid.centers(aim)
            yaw_des = reference_desired_yaw(a, state, target_pos)
            acc, yaw_acc = reference_track_segment(state, target_pos, yaw_des)
            new_state = reference_step_dynamics(state, acc, yaw_acc, self.cfg.tick)

            accepted = True
            try:
                nv = tuple(self.grid.voxels(new_state.position).tolist())
            except OutOfBoundsError:
                accepted = False
            if accepted and not (nv == a.voxel or claims.get(nv) == a.id):
                accepted = False
            if accepted:
                state = new_state
                if nv != a.voxel:
                    a.voxel = nv
                    a.blocked_replans = 0
                    if seg_i < len(a.segment) and nv == a.segment[seg_i]:
                        seg_i += 1
            else:
                state = dataclasses.replace(new_state, position=state.position,
                                            velocity=np.zeros(3))
                self.clamp_events += 1
            del a.segment[:seg_i]

            if a.look_dir is not None and a.phase == 2:
                gimbal = reference_point_gimbal(gimbal, state, a.look_dir)
            else:
                forward = np.array([math.cos(state.yaw), math.sin(state.yaw), 0.0])
                gimbal = reference_point_gimbal(gimbal, state, forward)
            self.position[i], self.velocity[i] = state.position, state.velocity
            self.yaw[i], self.yaw_rate[i] = state.yaw, state.yaw_rate
            self.inclination[i], self.azimuth[i] = gimbal.inclination, gimbal.azimuth


@pytest.mark.parametrize("name", sorted(ORACLE_MISSIONS))
def test_batched_act_equals_the_per_agent_act(monkeypatch, name):
    cfg, scene = oracle_mission(name, monkeypatch)
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
    with pytest.warns(UserWarning, match="planned no epoch"):
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
    for k in range(3):                   # a map that knows only its start voxel gives none
        mission._regenerate(a, [[], []], k)
    assert len(asked) == 1 and a.sigma is None
    beside = (a.voxel[0] - 1, *a.voxel[1:])
    assert a.occ.cells[beside] == UNKNOWN
    a.occ.cells[beside] = FREE
    mission._regenerate(a, [[], []], 3)
    assert len(asked) == 2 and a.sigma is None
    a.occ.cells[...] = np.where(mission.truth, OCCUPIED, FREE)
    mission._regenerate(a, [[], []], 4)
    assert len(asked) == 3 and a.sigma is not None


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


def connectivity_log(agents, rows):
    """The log of rows from a fleet of agents, each tick's pairs a clear mask
    over agent_pairs(agents)."""
    first, second = agent_pairs(agents)
    pairs = list(zip(first.tolist(), second.tolist()))
    clear = np.array([[pair in edges for pair in pairs] for _k, edges in rows], dtype=bool)
    return engine.ConnectivityLog(first, second, clear.reshape(len(rows), len(pairs)))


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_connectivity_log_reads_and_hashes_as_a_row_list(n):
    # 0, 1 and 2 edges a tick; a one-edge tick prints ((i, j),), an empty one ()
    patterns = [(), ((0, 1),), ((0, 2), (1, 2))]
    rows = [(k, patterns[k % 3]) for k in range(n)]
    assert_reads_and_hashes_as(connectivity_log(3, rows), rows)


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_connectivity_log_of_one_agent_or_of_every_pair_clear(n):
    # a fleet of one has no pairs; four agents with every pair clear have six
    assert_reads_and_hashes_as(connectivity_log(1, [(k, ()) for k in range(n)]),
                               [(k, ()) for k in range(n)])
    patterns = [((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), (), ((1, 3),)]
    rows = [(k, patterns[k % 3]) for k in range(n)]
    assert_reads_and_hashes_as(connectivity_log(4, rows), rows)


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
    res = run_mission(small_config(duration=10.0), small_scene())
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
    pairs = len(cfg.agents) * (len(cfg.agents) - 1) // 2
    assert res.connectivity.clear.dtype == bool
    assert res.connectivity.clear.shape == (res.num_ticks, pairs)
    for f in dataclasses.fields(res):
        value = getattr(res, f.name)
        assert not (isinstance(value, list) and any(isinstance(v, tuple) for v in value)), f.name
