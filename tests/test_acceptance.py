"""Acceptance suite: one test per release criterion, each printing a verdict
line (run with -s to see them).  Tolerances are fixed here, not tuned at
runtime.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from test_planning import bfs_hops
from uavinspect import sensors
from uavinspect.cli import parse_scenario
from uavinspect.engine import AgentSpec, MissionConfig, run_mission, write_outputs
from uavinspect.planning import dijkstra_path, mtsp_assign, Waypoint
from uavinspect.scene import Scene, scatter_box_face_points, scene_occupancy
from uavinspect.sensors import CameraConfig, LidarConfig, _blur_batch, _resolution_batch
from uavinspect.world import (FREE, OCCUPIED, UNKNOWN, BoundingBox,
                              OccupancyMap, VoxelGrid, merge_maps)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def verdict(ok: bool, name: str, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


# --- criterion: sensor formula suite -----------------------------------------

def hand_blur(p, v, tau, f, c):
    x0, y0, z0 = p
    x1, y1, z1 = (p[i] + v[i] * tau for i in range(3))
    u0, u1 = f * x0 / z0, f * x1 / z1
    v0, v1 = f * y0 / z0, f * y1 / z1
    disp = max(abs(u1 - u0), abs(v1 - v0))
    if disp == 0.0:
        return 1.0
    return min(c / disp, 1.0)


def hand_resolution(p, f, c, r_des):
    x, y, z = p
    du = abs(f * (x + 1.0) / z - f * x / z)
    dv = abs(f * (y + 1.0) / z - f * y / z)
    return min(r_des / max(c / du, c / dv), 1.0)


def test_sensor_formula_suite(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = 0
    # fixed worked examples first
    fixed = [
        ((0.0, 0.0, 10.0), (1.0, 0.0, 0.0), 0.1, 1000.0),
        ((0.0, 0.0, 10.0), (0.05, 0.0, 0.0), 0.1, 1000.0),
        ((0.0, 0.0, 10.0), (0.0, 0.0, 0.0), 0.1, 1000.0),
        ((2.0, -1.0, 25.0), (0.4, -0.8, 1.5), 0.05, 800.0),
    ]
    random_cases = []
    for _ in range(24):
        z = float(rng.uniform(3.0, 60.0))
        p = (float(rng.uniform(-0.3, 0.3)) * z, float(rng.uniform(-0.2, 0.2)) * z, z)
        v = tuple(float(c) for c in rng.uniform(-3, 3, 3))
        random_cases.append((p, v, float(rng.uniform(0.01, 0.1)),
                             float(rng.uniform(400, 2000))))
    # a 170 degree view and a 1e6 m range hold every case's advanced point in view
    monkeypatch.setattr(sensors, "_FOV_H", math.radians(170))
    monkeypatch.setattr(sensors, "_FOV_V", math.radians(170))
    for p, v, tau, f in fixed + random_cases:
        monkeypatch.setattr(sensors, "_FOCAL", f)
        got = _blur_batch(np.array([p]), np.array([v]), CameraConfig(exposure=tau, range=1e6))[0]
        want = hand_blur(p, v, tau, f, 1.0)
        assert got == pytest.approx(want, abs=1e-9), (p, v, tau, f)
        r_des = float(rng.uniform(0.005, 0.1))
        monkeypatch.setattr(sensors, "_DESIRED_RESOLUTION", r_des)
        got_r = _resolution_batch(np.array([p]))[0]
        want_r = hand_resolution(p, f, 1.0, r_des)
        assert got_r == pytest.approx(want_r, abs=1e-9)
        cases += 1
    assert cases >= 20

    monkeypatch.undo()              # the sweeps below take the camera as it is
    cfg = CameraConfig()
    speeds = np.linspace(0.0, 15.0, 1000)
    blur = _blur_batch(np.tile([0.4, -0.3, 14.0], (len(speeds), 1)),
                       np.outer(speeds, [1.0, 0.5, 0.0]), cfg).tolist()
    assert all(b <= a + 1e-12 for a, b in zip(blur, blur[1:]))
    depths = np.linspace(0.2, 150.0, 1000)
    res = _resolution_batch(np.column_stack([np.full_like(depths, 0.2),
                                             np.full_like(depths, 0.1), depths])).tolist()
    assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
    elapsed = time.perf_counter() - start
    verdict(elapsed < 1.0, "sensor formula suite",
            f"{cases} cases + 2x1000 sweeps in {elapsed:.2f}s")


# --- criterion: shortest-path oracle -------------------------------------------

def test_dijkstra_against_bfs_oracle():
    start_t = time.perf_counter()
    rng = np.random.default_rng(103)
    voxel = 6.0
    grid = VoxelGrid((0, 0, 0), (8, 8, 8), voxel)
    reachable = unreachable = 0
    for _ in range(200):
        m = OccupancyMap(grid)
        m.cells[:] = FREE
        m.cells[rng.random((8, 8, 8)) < 0.2] = OCCUPIED
        free_cells = [tuple(v) for v in np.argwhere(m.cells == FREE)]
        idx = rng.choice(len(free_cells), size=2, replace=False)
        start, goal = free_cells[idx[0]], free_cells[idx[1]]
        path = dijkstra_path(m, set(), start, goal)
        hops = bfs_hops(m, set(), start, goal)
        if hops is None:
            assert path == [], "planner found a path where BFS sees none"
            unreachable += 1
        else:
            assert path, "planner missed a path BFS can find"
            cost = (len(path) - 1) * voxel
            assert cost == hops * voxel
            reachable += 1
    elapsed = time.perf_counter() - start_t
    verdict(elapsed < 10.0, "shortest-path oracle",
            f"200 grids ({reachable} reachable, {unreachable} not) in {elapsed:.2f}s")


# --- criterion: waypoint assignment partition -------------------------------------

def test_mtsp_partition_and_worked_example():
    start_t = time.perf_counter()

    def wp(pos):
        return Waypoint(tuple(float(c) for c in pos), (1.0, 0.0, 0.0), (0, 0, 0))

    out = mtsp_assign([wp((1, 0, 0)), wp((9, 0, 0)), wp((2, 0, 0))],
                      {1: np.zeros(3), 2: np.array([10.0, 0.0, 0.0])})
    assert [w.position for w in out[1]] == [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
    assert [w.position for w in out[2]] == [(9.0, 0.0, 0.0)]

    rng = np.random.default_rng(107)
    for _ in range(500):
        n_agents = int(rng.integers(1, 6))
        n_wp = int(rng.integers(0, 101))
        wps = [wp(p) for p in rng.uniform(-100, 100, (n_wp, 3))]
        ids = rng.choice(1000, size=n_agents, replace=False)
        positions = {int(i): rng.uniform(-100, 100, 3) for i in ids}
        out = mtsp_assign(wps, positions)
        assert set(out) == set(positions)
        assigned = [w for p in out.values() for w in p]
        assert len(assigned) == n_wp
        assert len({id(w) for w in assigned}) == n_wp
    elapsed = time.perf_counter() - start_t
    verdict(elapsed < 5.0, "waypoint assignment partition",
            f"500 instances in {elapsed:.2f}s")


# --- criterion: score oracle over mini-missions --------------------------------------

def mini_mission(seed):
    box = BoundingBox((18.0, 18.0, 18.0), (24.0, 24.0, 24.0))
    points = scatter_box_face_points(box, 10, seed=seed)
    scene = Scene(solid_boxes=[box], interest_points=points,
                  inspection_boxes=[BoundingBox((6.0, 6.0, 6.0), (36.0, 36.0, 36.0))])
    cfg = MissionConfig(
        duration=10.0,
        agents=(AgentSpec("explorer", (9.0, 21.0, 21.0)),
                AgentSpec("photographer", (9.0, 9.0, 9.0))),
        waypoint_standoff=12.0,
        camera=CameraConfig(exposure=0.01, range=40.0),
        lidar=LidarConfig(beams=8, azimuth_steps=60),
    )
    return run_mission(cfg, scene)


def test_score_equals_log_replay():
    scored_runs = 0
    for seed in range(20):
        res = mini_mission(seed)
        floor = res.ledger.floor
        best = {int(p): 0.0 for p in res.ledger.point_ids}
        counts = {int(p): 0 for p in res.ledger.point_ids}
        for _tick, _agent, pid, _qb, _qr, q in res.observations:
            if q > floor:
                counts[pid] += 1
                best[pid] = max(best[pid], q)
        replay_q = math.fsum(best[int(p)] for p in res.ledger.point_ids)
        assert res.q_total == replay_q, f"seed {seed}"
        for i, p in enumerate(res.ledger.point_ids):
            assert res.ledger.counts[i] == counts[int(p)]
        if replay_q > 0:
            scored_runs += 1
    verdict(True, "score oracle", f"20 mini-missions, {scored_runs} with Q > 0")


# --- criterion: safety audit ------------------------------------------------------------

def recount_violations(result, scene):
    """The same-voxel collisions and occupied entries of a run, recounted
    from its voxel trace and the scene's truth on its grid."""
    truth = scene_occupancy(scene, result.final_maps[0].grid)
    same_voxel = 0
    occupied_entries = 0
    for _tick, row in result.voxel_trace:
        voxels = [v for _aid, v in row]
        same_voxel += len(voxels) - len(set(voxels))
        occupied_entries += sum(1 for v in voxels if truth[v])
    return same_voxel, occupied_entries


def test_safety_over_shipped_scenarios(shipped_runs):
    details = []
    for name, (cfg, scene, result, _wall) in shipped_runs.items():
        assert recount_violations(result, scene) == (0, 0), name
        assert result.collisions_same_voxel == 0
        assert result.occupied_entries == 0
        details.append(f"{name}: {len(result.voxel_trace)} ticks clean")
    verdict(True, "safety audit", "; ".join(details))


# --- criterion: desk-scale mission ---------------------------------------------------------

def test_desk_scale_mission(desk_run):
    cfg, scene, result, wall = desk_run
    trace = result.score_trace
    monotone = all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    assert monotone, "average quality trace decreased"

    floor = result.ledger.floor
    covered = float((result.ledger.best_q > floor).mean())
    assert covered >= 0.85, f"coverage {covered:.3f} below 0.85 floor"
    assert wall < 120.0, f"wall clock {wall:.1f}s over budget"
    assert result.violations == 0
    verdict(True, "desk-scale mission",
            f"coverage {covered:.1%}, Q={result.q_total:.1f}, wall {wall:.1f}s")


# --- criterion: determinism ------------------------------------------------------------------

def test_identical_seeds_identical_artifacts(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg, scene = parse_scenario(str(SCENARIOS / "twin_pillars.yaml"))
        result = run_mission(cfg, scene)
        out = tmp_path / tag
        write_outputs(result, str(out))
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
    verdict(True, "determinism", f"{len(files)} artifact files byte-identical")


# --- criterion: map-merge and gossip properties -----------------------------------------------

def test_merge_and_gossip_properties():
    grid = VoxelGrid((0, 0, 0), (1, 1, 1), 1.0)

    def join(*states):
        maps = [OccupancyMap(grid, np.full((1, 1, 1), s)) for s in states]
        return int(merge_maps(*maps).cells[0, 0, 0])

    for x, y in itertools.product((UNKNOWN, FREE, OCCUPIED), repeat=2):
        assert join(x, y) == join(y, x)
        assert join(x, x) == x
    for x, y, z in itertools.product((UNKNOWN, FREE, OCCUPIED), repeat=3):
        assert join(join(x, y), z) == join(x, join(y, z))

    # chain gossip: diameter-d line topology converges in exactly d rounds
    n = 5
    line = VoxelGrid((0, 0, 0), (n, 1, 1), 1.0)
    maps = {}
    for i in range(n):
        maps[i] = OccupancyMap(line)
        maps[i].cells[i, 0, 0] = OCCUPIED
    neighbors = {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}

    def gossip_round(current):
        snap = {i: current[i] for i in current}
        out = {}
        for i in current:
            out[i] = merge_maps(snap[i], *(snap[j] for j in sorted(neighbors[i])))
        return out

    diameter = n - 1
    for r in range(diameter):
        not_done = any(np.count_nonzero(maps[i].cells == OCCUPIED) < n for i in range(n))
        assert not_done, f"converged too early at round {r}"
        maps = gossip_round(maps)
    for i in range(n):
        assert np.count_nonzero(maps[i].cells == OCCUPIED) == n
    verdict(True, "map-merge and gossip properties",
            f"3-state table exhaustive; {n}-agent chain consistent in {diameter} rounds")
