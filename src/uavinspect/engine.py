"""Mission orchestration.

Each tick runs six serialized stages: sense (LiDAR into per-agent maps),
exchange (LoS-gated map gossip), plan (waypoint generation, assignment, and
receding-horizon path steps), act (claim-arbitrated motion plus gimbal
pointing), capture (every agent's camera pose appended, by value, to the
pose table), and audit (voxel trace plus collision and occupied-entry
counts).  Nothing the fleet decides reads the score, so the captures are
scored after the last tick: each distinct pose of the table goes through
the camera model once, many poses at a time; the observation log gathers
every capture's rows from them in one pass, and each capture is then folded,
in tick order, into the ledger and the score trace.

The three per-tick logs (observations, voxel trace, connectivity) are held
as typed arrays; a reader gets them as row tuples, _ROW_CHUNK rows at a
time, and the digest hashes the text of the row list a chunk at a time.

Stage one of a mission is the survey: explorers fly their sweep routes while
mapping; photographers hold until they hear from an explorer that has finished
its route.  Stage two is cooperative inspection, which runs until the mission
clock expires.  Both stages move agents with the same waypoint follower; a
sweep route is a waypoint path whose goals carry no camera directive.
Everything is deterministic for a fixed config and scene.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from .agents import (EXPLORER, KINDS, PHOTOGRAPHER, GimbalLimits, TrackingConfig,
                     point_gimbal, step_dynamics, track_segment)
from .comms import discover_neighbors, exchange_and_merge
from .errors import ConfigurationError, PlanningError
from .planning import Waypoint, drhlp_step, generate_waypoints, mapping_paths, mtsp_assign
from .scene import Scene, scene_occupancy
from .sensors import (CameraConfig, LidarConfig, Observations, camera_pose, lidar_directions,
                      lidar_sweep, observe)
from .world import (FREE, UNKNOWN, FiringGuard, OccupancyMap, build_grid,
                    compute_operational_volume, integrate_points, save_map, world_to_voxel)

_BLOCKED_REPLAN_TICKS = 12      # an agent blocked from its next voxel this long replans
# (pose, point) pairs per observe call when the captures are scored; bounds
# the call's temporaries, as scene._RAY_CHUNK bounds a cast's
_OBSERVE_PAIRS = 8192
# log rows made into tuples at a time wherever a log is read by row; bounds
# what a reader holds beside the log's arrays
_ROW_CHUNK = 4096


@dataclass(frozen=True)
class AgentSpec:
    kind: str
    start: tuple[float, float, float]
    v_max: float | None = None          # defaults by kind when None
    omega_max: float = 1.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown agent kind {self.kind!r}")

    @property
    def speed_limit(self) -> float:
        if self.v_max is not None:
            return self.v_max
        return 4.0 if self.kind == EXPLORER else 5.0


@dataclass(frozen=True)
class MissionConfig:
    duration: float
    agents: tuple[AgentSpec, ...]
    tick: float = 0.1
    voxel_size: float = 6.0
    horizon: int = 3
    waypoint_standoff: float | None = None     # defaults to one voxel
    capture_stride: int = 1
    camera: CameraConfig = CameraConfig()
    lidar: LidarConfig = LidarConfig()
    gimbal: GimbalLimits = GimbalLimits()
    tracking: TrackingConfig = TrackingConfig()

    def __post_init__(self):
        for value, what in ((self.duration, "mission duration"), (self.tick, "tick"),
                            (self.voxel_size, "voxel size"),
                            (self.waypoint_standoff, "waypoint standoff")):
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{what} must be positive and finite, got {value}")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be at least 1")
        if self.capture_stride < 1:
            raise ConfigurationError("capture stride must be at least 1")
        n_e = sum(1 for a in self.agents if a.kind == EXPLORER)
        if n_e not in (1, 2):
            raise ConfigurationError(f"explorer count must be 1 or 2, got {n_e}")

    @property
    def standoff(self) -> float:
        if self.waypoint_standoff is None:
            return self.voxel_size
        return self.waypoint_standoff


class ScoreLedger:
    """Best observation quality per interest point over all agents and time,
    one row per point in the scene's order."""

    def __init__(self, point_ids, quality_floor: float):
        self.point_ids = np.asarray(point_ids, dtype=int)
        self.floor = float(quality_floor)
        n = len(self.point_ids)
        self.best_q = np.zeros(n)
        self.counts = np.zeros(n, dtype=int)

    @property
    def num_points(self) -> int:
        return len(self.point_ids)

    def mean_best(self) -> float:
        if self.num_points == 0:
            return 0.0
        return float(self.best_q.mean())


def update_ledger(ledger: ScoreLedger, observations: Observations) -> ScoreLedger:
    """Fold a batch of observations into the ledger row by row: only
    qualities strictly above the floor count, and a point's best is the
    highest of them."""
    counted = observations.q > ledger.floor
    rows = observations.point[counted]
    ledger.counts += np.bincount(rows, minlength=ledger.num_points)
    np.maximum.at(ledger.best_q, rows, observations.q[counted])
    return ledger


def inspection_score(ledger: ScoreLedger) -> float:
    """Sum over interest points of the best quality any agent ever achieved.

    Uses exact summation so the result is independent of accumulation order
    and reproducible from the raw observation log.
    """
    return math.fsum(ledger.best_q.tolist())


def intensity_heatmap(ledger: ScoreLedger, scene: Scene) -> list[tuple]:
    """Per-point inspection intensity: (id, x, y, z, count, best_q) records."""
    out = []
    for i, pid in enumerate(ledger.point_ids):
        x, y, z = scene.point_positions[i]
        out.append((int(pid), float(x), float(y), float(z),
                    int(ledger.counts[i]), float(ledger.best_q[i])))
    return out


class _Log:
    """A per-tick log held as arrays and read as row tuples, _ROW_CHUNK rows
    at a time; a subclass gives len() and the rows of a slice."""

    def __len__(self) -> int:
        raise NotImplementedError

    def _rows(self, lo: int, hi: int) -> list[tuple]:
        raise NotImplementedError

    def chunks(self):
        for lo in range(0, len(self), _ROW_CHUNK):
            yield self._rows(lo, min(lo + _ROW_CHUNK, len(self)))

    def __iter__(self):
        for chunk in self.chunks():
            yield from chunk

    def reprs(self):
        """The text of repr() of the list of all rows, a chunk at a time."""
        yield "["
        for n, chunk in enumerate(self.chunks()):
            yield (", " if n else "") + repr(chunk)[1:-1]
        yield "]"


@dataclass(frozen=True, eq=False)
class ObservationLog(_Log):
    """(tick, agent, point_id, q_blur, q_res, q) rows as six columns, the
    ids int64 and the scores float64."""

    tick: np.ndarray
    agent: np.ndarray
    point_id: np.ndarray
    q_blur: np.ndarray
    q_res: np.ndarray
    q: np.ndarray

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.tick, self.agent, self.point_id, self.q_blur, self.q_res, self.q

    def __len__(self) -> int:
        return len(self.tick)

    def _rows(self, lo, hi):
        # tolist() gives Python ints and floats, whose repr the digest pins
        return list(zip(*(c[lo:hi].tolist() for c in self.columns)))


@dataclass(frozen=True, eq=False)
class VoxelTrace(_Log):
    """(tick, ((agent, voxel), ...)) rows from every agent's voxel at every
    tick, an (n_ticks, agents, 3) int array."""

    voxels: np.ndarray

    def __len__(self) -> int:
        return len(self.voxels)

    def _rows(self, lo, hi):
        return [(k, tuple((aid, tuple(v)) for aid, v in enumerate(fleet)))
                for k, fleet in enumerate(self.voxels[lo:hi].tolist(), lo)]


@dataclass(frozen=True, eq=False)
class ConnectivityLog(_Log):
    """(tick, ((i, j), ...)) rows: every tick's peer pairs, i < j in
    ascending order, one run of an (n_edges, 2) int array per tick; tick k
    holds edges[offsets[k]:offsets[k + 1]]."""

    edges: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def _rows(self, lo, hi):
        cuts = self.offsets[lo:hi + 1]
        pairs = list(map(tuple, self.edges[cuts[0]:cuts[-1]].tolist()))
        cuts = (cuts - cuts[0]).tolist()
        return [(k, tuple(pairs[a:b])) for k, a, b in zip(range(lo, hi), cuts, cuts[1:])]


@dataclass
class MissionResult:
    q_total: float
    ledger: ScoreLedger
    score_trace: list[float]
    observations: ObservationLog         # rows (tick, agent, point_id, q_blur, q_res, q)
    connectivity: ConnectivityLog        # rows (tick, ((i, j), ...))
    plan_events: list[str]
    voxel_trace: VoxelTrace              # rows (tick, ((agent, voxel), ...))
    collisions_same_voxel: int
    occupied_entries: int
    free_structure_cells: int            # per tick and agent map; not in the digest
    suppressed_returns: int              # LiDAR hits off the structure cells; not in the digest
    clamp_events: int
    phase_change_ticks: dict[int, int]
    final_maps: dict[int, OccupancyMap]
    phase_maps: dict[int, OccupancyMap]
    heatmap: list[tuple]
    num_ticks: int

    @property
    def violations(self) -> int:
        return self.collisions_same_voxel + self.occupied_entries

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.q_total).encode())
        h.update(repr(self.score_trace).encode())
        # each log as the bytes of repr() of its list of rows, the form the
        # pinned digests cover
        for log in (self.observations, self.voxel_trace, self.connectivity):
            for text in log.reprs():
                h.update(text.encode())
        for i in sorted(self.final_maps):
            h.update(self.final_maps[i].cells.tobytes())
        return h.hexdigest()


@dataclass
class _Runtime:
    """Mutable per-agent bookkeeping owned by the tick loop; the agent's
    kinematic state is its row of the mission's fleet arrays."""

    id: int
    spec: AgentSpec
    occ: OccupancyMap
    voxel: tuple
    phase: int = 1
    sigma: list[Waypoint] | None = None     # survey route in phase 1
    cursor: int = 0
    kappa: int = 0
    segment: list = field(default_factory=list)
    seg_i: int = 0
    look_dir: np.ndarray | None = None
    blocked: int = 0
    blocked_replans: int = 0
    barren: np.ndarray | None = None        # cells of the last map that gave no waypoints
    guard: FiringGuard | None = None        # what an explorer's LiDAR can still change


def _fire(occ: OccupancyMap, guard: FiringGuard, position: np.ndarray, yaw: float,
          scene: Scene, lidar: LidarConfig, t: float) -> int:
    """One LiDAR firing into occ from a sensor at position (3,) and yaw,
    casting only the rays that can change it.

    A firing on a map that holds no cell it can change is skipped whole;
    otherwise only the rays whose box holds such a cell are cast (see
    FiringGuard).  The map ends as if every ray had been cast.  Returns the
    number of hits of the cast rays that the hit rule suppressed.
    """
    if not guard.at(occ, position).live:
        return 0
    dirs = lidar_directions(yaw, lidar, t)
    dirs = dirs[guard.can_change(position, dirs, lidar.range)]
    if not len(dirs):
        return 0
    hits, misses = lidar_sweep(position, scene, lidar, dirs)
    return integrate_points(occ, position, hits[:, 0], hits[:, 1], misses, guard.truth,
                            guard.unknown)


class _Mission:
    def __init__(self, cfg: MissionConfig, scene: Scene):
        self.cfg = cfg
        self.scene = scene
        starts = [np.asarray(a.start, dtype=float) for a in cfg.agents]
        if not scene.inspection_boxes:
            raise ConfigurationError("scene has no inspection boxes")
        self.volume = compute_operational_volume(scene.inspection_boxes, starts,
                                                 cfg.voxel_size)
        self.grid = build_grid(self.volume, cfg.voxel_size)
        self.truth = scene_occupancy(scene, self.grid)
        self.structure = np.flatnonzero(self.truth)

        explorer_starts = [np.asarray(a.start, dtype=float)
                           for a in cfg.agents if a.kind == EXPLORER]
        routes = mapping_paths(self.volume, explorer_starts, margin=cfg.voxel_size / 2.0)

        # the fleet's kinematic state, one row per agent, in fleet order
        n = len(cfg.agents)
        self.position = np.array([a.start for a in cfg.agents], dtype=float).reshape(n, 3)
        self.velocity = np.zeros((n, 3))
        self.yaw = np.zeros(n)
        self.yaw_rate = np.zeros(n)
        self.v_max = np.array([a.speed_limit for a in cfg.agents], dtype=float)
        self.omega_max = np.array([a.omega_max for a in cfg.agents], dtype=float)
        # the neutral mount, clamped to the limits as every aimed angle is
        lim = cfg.gimbal
        self.inclination = np.full(n, min(max(0.0, lim.inclination_min), lim.inclination_max))
        self.azimuth = np.full(n, min(max(0.0, lim.azimuth_min), lim.azimuth_max))

        self.agents: list[_Runtime] = []      # agent ids are indices into it and the rows
        used_voxels = set()
        e_idx = 0
        for aid, spec in enumerate(cfg.agents):
            vox = world_to_voxel(self.grid, self.position[aid])
            if vox in used_voxels:
                raise ConfigurationError(f"agents share start voxel {vox}")
            used_voxels.add(vox)
            if self.truth[vox]:
                raise ConfigurationError(f"agent {aid} starts inside structure voxel {vox}")
            rt = _Runtime(aid, spec, OccupancyMap(self.grid), vox)
            if spec.kind == EXPLORER:
                rt.guard = FiringGuard(self.grid, self.truth)
                rt.sigma = [Waypoint(tuple(p.tolist()), None, world_to_voxel(self.grid, p))
                            for p in routes[e_idx]]
                e_idx += 1
            self.agents.append(rt)

        # the pose table: every agent's camera pose at every capture tick, packed
        # as camera_pose packs it, in fleet order, until _score takes it
        self.poses = bytearray()
        self.ledger = ScoreLedger(scene.point_ids, cfg.camera.quality_floor)
        self.score_trace: list[float] = []
        self.observations: ObservationLog | None = None     # made by _score
        # every tick's peer pairs, flat, and the number logged after each tick
        self.edges = array("q")
        self.edge_offsets = array("q", [0])
        self.plan_events: list[str] = []
        self.n_ticks = max(1, int(round(cfg.duration / cfg.tick)))
        self.voxels = np.zeros((self.n_ticks, len(self.agents), 3), dtype=int)  # by _audit
        self.collisions = 0
        self.occupied_entries = 0
        self.free_structure_cells = 0
        self.suppressed_returns = 0
        self.clamp_events = 0
        self.phase_change_ticks: dict[int, int] = {}
        self.phase_maps: dict[int, OccupancyMap] = {}

    # --- stage helpers -------------------------------------------------

    def _sense(self, k: int, t: float) -> None:
        for a in self.agents:
            if a.spec.kind == EXPLORER:
                self.suppressed_returns += _fire(a.occ, a.guard, self.position[a.id],
                                                 self.yaw[a.id], self.scene, self.cfg.lidar, t)
            # an agent's own voxel is evidently traversable
            if a.occ.cells[a.voxel] == UNKNOWN:
                a.occ.cells[a.voxel] = FREE

    def _exchange(self, k: int) -> list[list[int]]:
        peers = discover_neighbors(self.position, self.scene)
        merged = exchange_and_merge(peers, [a.occ for a in self.agents])
        for a, occ in zip(self.agents, merged):
            a.occ = occ
        self.edges.extend(v for i, ps in enumerate(peers) for j in ps if i < j for v in (i, j))
        self.edge_offsets.append(len(self.edges) // 2)

        for a in self.agents:
            if a.spec.kind == PHOTOGRAPHER and a.phase == 1:
                heard = any(self.agents[j].spec.kind == EXPLORER
                            and self.agents[j].phase == 2 for j in peers[a.id])
                if heard:
                    self._enter_phase2(a, k)
        return peers

    def _enter_phase2(self, a: _Runtime, k: int) -> None:
        a.phase = 2
        self.phase_change_ticks[a.id] = k
        self.phase_maps[a.id] = a.occ.copy()
        self.plan_events.append(f"tick {k} agent {a.id} enters inspection stage")

    def _reserved(self, a: _Runtime) -> set:
        return {b.voxel for b in self.agents if b.id != a.id}

    def _regenerate(self, a: _Runtime, peers: list[list[int]], k: int) -> None:
        # the waypoints depend on the map's cells alone: the grid, the boxes
        # and the standoff are fixed for the mission
        if a.barren is not None and np.array_equal(a.occ.cells, a.barren):
            a.sigma = None
            return
        waypoints = generate_waypoints(a.occ, self.scene.inspection_boxes,
                                       self.cfg.standoff)
        if not waypoints:
            a.barren = a.occ.cells.copy()
            a.sigma = None
            return
        positions = {a.id: self.position[a.id]}
        for j in peers[a.id]:
            if self.agents[j].phase == 2:
                positions[j] = self.position[j]
        assignment = mtsp_assign(waypoints, positions)
        a.sigma = assignment[a.id]
        a.cursor = 0
        a.segment = []
        sizes = ",".join(f"{i}:{len(p)}" for i, p in sorted(assignment.items()))
        self.plan_events.append(
            f"tick {k} agent {a.id} epoch {a.kappa} waypoints {len(waypoints)} split {sizes}")

    def _follow(self, a: _Runtime, peers: list[list[int]], k: int) -> None:
        """Advance along a.sigma by receding-horizon steps.

        The agent replans when its segment is used up, when it stands on its
        goal, or when it has been blocked from its next voxel for 12 ticks:
        a blocked replan, an abandoned goal and a new assignment each clear
        the segment.  A goal is skipped when unreachable and abandoned after
        three blocked replans.  Finishing the survey route enters the
        inspection stage in the same tick; finishing an inspection path
        closes the epoch.  Either way the waypoints are regenerated, at most
        once per call.
        """
        reserved = self._reserved(a)
        regenerated = False
        while True:
            if a.sigma is None:
                if regenerated:
                    a.look_dir = None
                    break
                self._regenerate(a, peers, k)
                regenerated = True
                continue
            goal = "survey point" if a.phase == 1 else "waypoint"
            wps = a.sigma
            if a.blocked_replans >= 3 and a.cursor < len(wps):
                self.plan_events.append(
                    f"tick {k} agent {a.id} abandons stalled {goal} {wps[a.cursor].voxel}")
                a.cursor += 1
                a.blocked_replans = 0
                a.segment = []
            at_waypoint = a.cursor < len(wps) and a.voxel == wps[a.cursor].voxel
            if not (a.seg_i >= len(a.segment) or at_waypoint):
                return
            try:
                step = drhlp_step(a.voxel, a.sigma, a.cursor, a.occ, reserved,
                                  self.cfg.horizon)
            except PlanningError:
                break
            for s in step.skipped:
                self.plan_events.append(
                    f"tick {k} agent {a.id} skips unreachable {goal} {wps[s].voxel}")
            a.cursor = step.next_index
            if step.segment:
                a.segment = step.segment
                a.seg_i = 0
                a.look_dir = step.direction
                return
            a.sigma = None
            if a.phase == 1:
                self._enter_phase2(a, k)
            elif wps:
                self.plan_events.append(f"tick {k} agent {a.id} completes epoch {a.kappa}")
                a.kappa += 1
        a.segment = []
        a.seg_i = 0

    def _plan(self, peers: list[list[int]], k: int) -> None:
        # photographers hold still until they enter the inspection stage
        for a in self.agents:
            if a.phase == 2 or a.spec.kind == EXPLORER:
                self._follow(a, peers, k)

    def _claim(self, a: _Runtime, claims: dict) -> tuple[tuple, tuple]:
        """The voxel a claims this tick, its own when it claims none, and the
        voxel it aims at; claims maps each claimed voxel to its agent."""
        target_voxel = a.voxel
        if a.seg_i < len(a.segment):
            want = a.segment[a.seg_i]
            if want == a.voxel:
                a.seg_i += 1
                if a.seg_i < len(a.segment):
                    want = a.segment[a.seg_i]
            if want != a.voxel:
                # enter only voxels no one holds and the local map has
                # confirmed free; plans may run through unknown space but
                # execution waits at the sensing frontier
                if want not in claims and a.occ.cells[want] == FREE:
                    claims[want] = a.id
                    target_voxel = want
                    a.blocked = 0
                else:
                    a.blocked += 1
                    if a.blocked >= _BLOCKED_REPLAN_TICKS:
                        a.segment = []
                        a.blocked = 0
                        a.blocked_replans += 1

        # aim down the straight run of the plan so cruise speed builds up;
        # only the immediate next voxel is ever claimed
        aim = target_voxel
        if target_voxel != a.voxel and a.seg_i < len(a.segment):
            (x, y, z), (x0, y0, z0) = target_voxel, a.voxel
            step = (x - x0, y - y0, z - z0)
            run = a.segment[a.seg_i:]
            for cur, nxt in zip(run, run[1:]):
                if (nxt[0] - cur[0], nxt[1] - cur[1], nxt[2] - cur[2]) != step:
                    break
                aim = nxt
        return target_voxel, aim

    def _act(self, k: int) -> None:
        """Claim-arbitrated motion plus gimbal pointing for the whole fleet.

        The claim pass runs agent by agent in fleet order, since a claim
        depends on the claims before it.  An agent's move is then accepted
        only into its own voxel or the one it claimed, and no later agent can
        take a voxel already claimed, so the claims can all be made before
        anyone moves: the whole fleet then tracks its aims, steps and is
        voxelized at once, and the accept compares voxel tuples.  A refused
        move keeps the old position with +0.0 velocity; the yaw update goes
        through.
        """
        claims = {a.voxel: a.id for a in self.agents}
        claimed, aims = zip(*(self._claim(a, claims) for a in self.agents))
        grid = self.grid
        # voxel_to_world of every aim, in the same float operations
        (ox, oy, oz), v = grid.origin, grid.voxel_size
        target = [(ox + (i + 0.5) * v, oy + (j + 0.5) * v, oz + (k + 0.5) * v)
                  for i, j, k in aims]
        desired = [self._desired_yaw(a, (x - px, y - py))
                   for a, (x, y, _), (px, py, _) in zip(self.agents, target,
                                                        self.position.tolist())]
        acc, yaw_acc = track_segment(self.position, self.velocity, self.yaw, self.yaw_rate,
                                     np.array(target), self.cfg.tracking, desired)
        position, velocity, self.yaw, self.yaw_rate = step_dynamics(
            self.position, self.velocity, self.yaw, self.yaw_rate, acc, yaw_acc,
            self.v_max, self.omega_max, self.cfg.tick)

        # world_to_voxel of every new position; the two voxels an agent may
        # enter are grid voxels, so a position off the grid is refused too
        cells = np.floor((position - grid.origin_arr) / grid.voxel_size).astype(int).tolist()
        for i, (a, cell, want) in enumerate(zip(self.agents, map(tuple, cells), claimed)):
            if cell == a.voxel:
                continue
            if cell != want:
                # refused: the old position, at rest (+0.0, so that equal
                # poses stay equal byte for byte)
                position[i] = self.position[i]
                velocity[i] = 0.0
                self.clamp_events += 1
                continue
            a.voxel = cell
            a.blocked_replans = 0
            if a.seg_i < len(a.segment) and cell == a.segment[a.seg_i]:
                a.seg_i += 1
        self.position, self.velocity = position, velocity

        looks = [a.look_dir if a.look_dir is not None and a.phase == 2
                 else (math.cos(psi), math.sin(psi), 0.0)
                 for a, psi in zip(self.agents, self.yaw.tolist())]
        self.inclination, self.azimuth = point_gimbal(
            self.yaw, self.inclination, self.azimuth, np.array(looks, dtype=float),
            self.cfg.gimbal)

    def _desired_yaw(self, a: _Runtime, rel: tuple[float, float]) -> float | None:
        """a's heading command; rel is its aim point less its position, in x
        and y."""
        if a.phase == 2 and a.look_dir is not None:
            lx, ly = float(a.look_dir[0]), float(a.look_dir[1])
            if math.hypot(lx, ly) > 1e-9:
                return math.atan2(ly, lx)
            return None
        if math.hypot(rel[0], rel[1]) > 0.5:
            return math.atan2(rel[1], rel[0])
        return None

    def _capture(self, k: int) -> None:
        if k % self.cfg.capture_stride == 0:
            self.poses += camera_pose(self.position, self.velocity, self.yaw,
                                      self.inclination, self.azimuth)

    def _observe_distinct(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Observe each distinct pose of the pose table once and take the
        table from the mission.  Returns each captured pose's index among
        the distinct poses, and the columns count (rows per distinct pose),
        point, q_blur, q_res and q of the distinct poses' rows.

        A pose's rows depend on its bytes and the fixed scene alone, not on
        which poses share an observe call, so poses equal byte for byte
        share their rows wherever they fall in the table."""
        # 9 doubles a pose; the table leaves the mission once it is read, so it
        # and the log do not peak together
        distinct, which = np.unique(np.frombuffer(self.poses, dtype="V72"),
                                    return_inverse=True)
        self.poses = bytearray()
        step = max(1, _OBSERVE_PAIRS // max(1, self.scene.num_points))
        # the rows per distinct pose, then the rows' point and scores, packed
        # column by column as each call returns them, so no call's arrays
        # outlive it
        columns = [bytearray() for _ in range(5)]
        for lo in range(0, len(distinct), step):
            batch = distinct[lo:lo + step].view(float).reshape(-1, 9)
            obs = observe(batch, self.scene, self.cfg.camera)
            for column, values in zip(columns, (np.bincount(obs.agent, minlength=len(batch)),
                                                obs.point, obs.q_blur, obs.q_res, obs.q)):
                column += values.data
        return which, [np.frombuffer(c, dtype=np.intp) for c in columns[:2]] + [
            np.frombuffer(c) for c in columns[2:]]

    def _score(self, n_ticks: int) -> None:
        """Gather the observation log from the rows of the distinct poses,
        then fold each capture's run of it into the ledger and the score
        trace in tick order; a tick between captures repeats the last mean.
        A capture logs its agents' rows in fleet order, then point order."""
        which, (counts, *columns) = self._observe_distinct()
        fleet = len(self.agents)
        sizes = counts[which]                   # rows per agent capture, capture by capture
        ends = sizes.cumsum()
        # each agent capture's run of its pose's rows, one run after another
        starts = (counts.cumsum() - counts)[which]
        rows = np.repeat(starts - (ends - sizes), sizes) + np.arange(ends[-1])
        point, q_blur, q_res, q = (c[rows] for c in columns)
        del rows, columns, counts               # the distinct poses' rows go before the fold
        agent = np.repeat(np.tile(np.arange(fleet, dtype=np.int64), len(which) // fleet), sizes)
        bounds = np.concatenate(([0], ends[fleet - 1::fleet])).tolist()    # per capture
        captures = iter(zip(bounds, bounds[1:]))
        mean = 0.0
        for k in range(n_ticks):
            if k % self.cfg.capture_stride == 0:
                lo, hi = next(captures)
                update_ledger(self.ledger, Observations(agent[lo:hi], point[lo:hi],
                                                        q_blur[lo:hi], q_res[lo:hi], q[lo:hi]))
                mean = self.ledger.mean_best()
            self.score_trace.append(mean)
        tick = np.repeat(np.arange(len(bounds) - 1, dtype=np.int64) * self.cfg.capture_stride,
                         np.diff(bounds))
        point_id = self.scene.point_ids[point].astype(np.int64, copy=False)
        self.observations = ObservationLog(tick, agent, point_id, q_blur, q_res, q)

    def _audit(self, k: int) -> None:
        voxels = [a.voxel for a in self.agents]
        self.voxels[k] = voxels
        self.collisions += len(voxels) - len(set(voxels))
        self.occupied_entries += sum(1 for vox in voxels if self.truth[vox])
        # a map that holds a structure cell free lets its agent plan and fly into it
        for a in self.agents:
            self.free_structure_cells += int(np.count_nonzero(
                a.occ.cells.ravel()[self.structure] == FREE))

    def run(self) -> MissionResult:
        for k in range(self.n_ticks):
            t = k * self.cfg.tick
            self._sense(k, t)
            peers = self._exchange(k)
            self._plan(peers, k)
            self._act(k)
            self._capture(k)
            self._audit(k)
        self._score(self.n_ticks)
        if self.free_structure_cells:
            warnings.warn(f"agent maps held structure cells free "
                          f"{self.free_structure_cells} times (cells x ticks)")
        if self.suppressed_returns:
            warnings.warn(f"{self.suppressed_returns} LiDAR hits fell outside the "
                          f"structure cells and marked nothing")
        return MissionResult(
            q_total=inspection_score(self.ledger),
            ledger=self.ledger,
            score_trace=self.score_trace,
            observations=self.observations,
            connectivity=ConnectivityLog(
                np.frombuffer(self.edges, dtype=np.int64).reshape(-1, 2),
                np.frombuffer(self.edge_offsets, dtype=np.int64)),
            plan_events=self.plan_events,
            voxel_trace=VoxelTrace(self.voxels),
            collisions_same_voxel=self.collisions,
            occupied_entries=self.occupied_entries,
            free_structure_cells=self.free_structure_cells,
            suppressed_returns=self.suppressed_returns,
            clamp_events=self.clamp_events,
            phase_change_ticks=self.phase_change_ticks,
            final_maps={a.id: a.occ for a in self.agents},
            phase_maps=self.phase_maps,
            heatmap=intensity_heatmap(self.ledger, self.scene),
            num_ticks=self.n_ticks,
        )


def run_mission(cfg: MissionConfig, scene: Scene) -> MissionResult:
    """Execute a full two-stage mission; deterministic for fixed inputs."""
    return _Mission(cfg, scene).run()


def write_outputs(result: MissionResult, out_dir: str) -> None:
    """Write the run artifacts: summary, traces, logs, and map dumps."""
    os.makedirs(out_dir, exist_ok=True)
    maps_dir = os.path.join(out_dir, "maps")
    os.makedirs(maps_dir, exist_ok=True)

    coverage = 0.0
    if result.ledger.num_points:
        coverage = float(np.count_nonzero(result.ledger.best_q > 0.0)
                         / result.ledger.num_points)
    lines = [
        f"inspection_score: {result.q_total!r}",
        f"interest_points: {result.ledger.num_points}",
        f"points_scored: {int(np.count_nonzero(result.ledger.best_q > 0.0))}",
        f"coverage_fraction: {coverage!r}",
        f"mean_final_quality: {result.ledger.mean_best()!r}",
        f"ticks: {result.num_ticks}",
        f"collisions_same_voxel: {result.collisions_same_voxel}",
        f"occupied_entries: {result.occupied_entries}",
        f"free_structure_cells: {result.free_structure_cells}",
        f"clamp_events: {result.clamp_events}",
        f"phase_changes: {sorted(result.phase_change_ticks.items())}",
        f"digest: {result.digest()}",
    ]
    with open(os.path.join(out_dir, "mission_result.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    with open(os.path.join(out_dir, "score_trace.csv"), "w") as fh:
        fh.write("tick,mean_quality\n")
        for k, q in enumerate(result.score_trace):
            fh.write(f"{k},{q!r}\n")

    with open(os.path.join(out_dir, "observations.csv"), "w") as fh:
        fh.write("tick,agent,point_id,q_blur,q_res,q\n")
        for k, aid, pid, qb, qr, q in result.observations:
            fh.write(f"{k},{aid},{pid},{qb!r},{qr!r},{q!r}\n")

    with open(os.path.join(out_dir, "heatmap.csv"), "w") as fh:
        fh.write("point_id,x,y,z,count,best_q\n")
        for pid, x, y, z, count, best in result.heatmap:
            fh.write(f"{pid},{x!r},{y!r},{z!r},{count},{best!r}\n")

    with open(os.path.join(out_dir, "connectivity.csv"), "w") as fh:
        fh.write("tick,edges\n")
        for k, edges in result.connectivity:
            fh.write(f"{k},{';'.join(f'{i}-{j}' for i, j in edges)}\n")

    with open(os.path.join(out_dir, "plans.log"), "w") as fh:
        fh.write("\n".join(result.plan_events) + ("\n" if result.plan_events else ""))

    for aid, occ in sorted(result.phase_maps.items()):
        save_map(occ, os.path.join(maps_dir, f"agent{aid}_stage2.vox"))
    for aid, occ in sorted(result.final_maps.items()):
        save_map(occ, os.path.join(maps_dir, f"agent{aid}_final.vox"))
