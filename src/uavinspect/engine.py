"""Mission orchestration.

Each tick runs six serialized stages: sense (LiDAR into per-agent maps,
with the fleet's sight lines cast in the same sweep as the LiDAR rays),
exchange (map gossip between the agents those sight lines join), plan
(waypoint generation, assignment, and receding-horizon path steps), act
(claim-arbitrated motion plus gimbal pointing), capture (every agent's
camera pose copied into the tick's row of the pose table), and audit (voxel
trace plus collision and occupied-entry counts).  Nothing the fleet decides
reads the score, so the captures are scored after the last tick: each
distinct pose of the table goes through the camera model once, many poses at
a time; the observation log gathers every capture's rows from them in one
pass, and each capture is then folded, in tick order, into the ledger and the
score trace.

The fleet's maps are one (n, nx, ny, nz) uint8 array, row i agent i's map;
each agent's map is a view of its row, bound once, so every write shows in it.

The three per-tick logs (observations, voxel trace, and connectivity, which
is the sight lines' clear mask) are held as typed arrays; a reader gets them
as row tuples, _ROW_CHUNK rows at a time, and the digest hashes the text of
the row list a chunk at a time.

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
import re
import warnings
from dataclasses import dataclass, field
from itertools import compress, islice

import numpy as np

from . import sensors
from .agents import (_OMEGA_MAX, _SPEED_LIMIT, EXPLORER, KINDS, PHOTOGRAPHER, point_gimbal,
                     step_dynamics, track_segment)
from .comms import agent_pairs, discover_neighbors, exchange_and_merge
from .errors import ConfigurationError, PlanningError, check_fields, check_value, ruled
from .planning import Waypoint, drhlp_step, generate_waypoints, mapping_paths, mtsp_assign
from .scene import Scene, line_of_sight, scene_occupancy
from .sensors import CameraConfig, LidarConfig, camera_pose, lidar_directions, lidar_sweep, observe
from .world import (_MAX_AGENTS, FREE, UNKNOWN, FiringGuard, OccupancyMap, _kept, _rows,
                    build_grid, compute_operational_volume, integrate_points, reach_mask,
                    save_map)

_BLOCKED_REPLAN_TICKS = 12      # an agent blocked from its next voxel this long replans
_BLOCKED_REPLANS = 3            # an agent that replans blocked this often abandons its goal
# (pose, point) pairs per observe call when the captures are scored; bounds
# the call's temporaries, as scene._RAY_CHUNK bounds a cast's
_OBSERVE_PAIRS = 8192
# log rows made into tuples at a time wherever a log is read by row; bounds
# what a reader holds beside the log's arrays
_ROW_CHUNK = 4096
# the most bytes a mission's per-tick tables may take, about 1,000 times the
# 1.1 MB of a 12-agent, 900-tick mission: a duration or tick past it is a slip
# of the pen, which would otherwise fail in numpy's allocator or exhaust memory
_MAX_TICK_BYTES = 2 ** 30


@dataclass(frozen=True)
class AgentSpec:
    kind: str
    start: tuple[float, float, float]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown agent kind {self.kind!r}")
        if not hasattr(self.start, "__len__") or len(self.start) != 3:
            raise ConfigurationError(f"agent start must be 3 finite coordinates, got {self.start}")
        for axis, c in enumerate(self.start):
            check_value(f"agent start[{axis}]", c, "finite")


@dataclass(frozen=True)
class MissionConfig:
    duration: float = ruled("positive")
    agents: tuple[AgentSpec, ...]
    tick: float = ruled("positive", 0.1)
    voxel_size: float = ruled("positive", 6.0)
    horizon: int = ruled("positive integer", 3)
    waypoint_standoff: float | None = ruled("positive", None)     # defaults to one voxel
    camera: CameraConfig = CameraConfig()
    lidar: LidarConfig = LidarConfig()

    def __post_init__(self):
        check_fields(self, "mission")
        if len(self.agents) > _MAX_AGENTS:
            raise ConfigurationError(f"agents: {len(self.agents)} agents, past the "
                                     f"{_MAX_AGENTS} a fleet may hold")
        n_e = sum(1 for a in self.agents if a.kind == EXPLORER)
        if n_e not in (1, 2):
            raise ConfigurationError(f"explorer count must be 1 or 2, got {n_e}")
        # the voxel trace's 3 int64 and the pose table's 9 float64 entries per
        # agent, and the sight-line mask's one bool per agent pair; the float64
        # quotient, not n_ticks, so that an infinite one is caught too
        n = len(self.agents)
        ticks = float(self.duration) / float(self.tick)
        if ticks * (96 * n + n * (n - 1) // 2) > _MAX_TICK_BYTES:
            raise ConfigurationError(
                f"mission duration {self.duration:g} s at tick {self.tick:g} s is {ticks:.3g} "
                f"ticks, whose tables would pass {_MAX_TICK_BYTES:,} bytes")

    @property
    def standoff(self) -> float:
        if self.waypoint_standoff is None:
            return self.voxel_size
        return self.waypoint_standoff

    @property
    def n_ticks(self) -> int:
        """The number of ticks the mission runs: duration / tick, rounded, at least one."""
        return max(1, int(round(self.duration / self.tick)))


# a capture scoring at or below it is too blurred or coarse to count as observed
_QUALITY_FLOOR = 0.1


class ScoreLedger:
    """Best observation quality per interest point over all agents and time,
    one row per point in the scene's order."""
    floor = _QUALITY_FLOOR

    def __init__(self, point_ids):
        self.point_ids = np.asarray(point_ids, dtype=int)
        n = len(self.point_ids)
        self.best_q = np.zeros(n)
        self.counts = np.zeros(n, dtype=int)

    @property
    def num_points(self) -> int:
        return len(self.point_ids)

    @property
    def scored(self) -> int:
        """The number of points whose best quality is above 0."""
        return int(np.count_nonzero(self.best_q > 0.0))

    def mean_best(self) -> float:
        if self.num_points == 0:
            return 0.0
        return float(self.best_q.mean())


def update_ledger(ledger: ScoreLedger, point: np.ndarray, q: np.ndarray) -> None:
    """Fold a batch of observations, given as their point rows and qualities,
    into the ledger: only qualities strictly above the floor count, and a
    point's best is the highest of them."""
    counted = q > ledger.floor
    rows = point[counted]
    ledger.counts += np.bincount(rows, minlength=ledger.num_points)
    np.maximum.at(ledger.best_q, rows, q[counted])


class _Log:
    """A per-tick log held as arrays and read as row tuples, _ROW_CHUNK rows
    at a time; a subclass gives len() and the rows of a slice."""

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
    ascending order, from an (n_ticks, pairs) bool array; row k says which
    pairs (first[p], second[p]) of agent_pairs saw each other at tick k."""

    first: np.ndarray
    second: np.ndarray
    clear: np.ndarray

    def __len__(self) -> int:
        return len(self.clear)

    def _rows(self, lo, hi):
        pairs = list(zip(self.first.tolist(), self.second.tolist()))
        return [(k, tuple(compress(pairs, row)))
                for k, row in enumerate(self.clear[lo:hi].tolist(), lo)]


@dataclass
class MissionResult:
    ledger: ScoreLedger
    scene: Scene                         # the scene the mission ran on
    score_trace: list[float]             # one entry per tick
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

    @property
    def q_total(self) -> float:
        """Sum over interest points of the best quality any agent ever
        achieved; exact summation, so the result is independent of
        accumulation order and reproducible from the raw observation log."""
        return math.fsum(self.ledger.best_q.tolist())

    @property
    def num_ticks(self) -> int:
        return len(self.score_trace)

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
    kinematic state is its row of the mission's fleet arrays, and occ a view
    of its row of the mission's maps."""

    id: int
    spec: AgentSpec
    occ: OccupancyMap
    voxel: tuple
    phase: int = 1
    sigma: list[Waypoint] | None = None     # survey route in phase 1
    cursor: int = 0
    kappa: int = 0
    segment: list = field(default_factory=list)     # the voxels of the step not yet entered
    look_dir: np.ndarray | None = None
    blocked: int = 0
    blocked_replans: int = 0
    barren: np.ndarray | None = None        # cells of the last map that gave no waypoints


def _fire(maps: OccupancyMap, explorer_rows: list[int], guards: list[FiringGuard], positions,
          yaws, scene: Scene, lidar: LidarConfig, t: float,
          segments) -> tuple[int, np.ndarray]:
    """The LiDAR firings of a tick: the explorer of fleet row i, guarded by
    the guard at its place in guards, fires into row i of the fleet's maps
    from a sensor at positions[i] (3,) with yaws[i], casting only the rays
    that can change its map.  The tick's sight lines, segments as (starts,
    ends), ride in the same cast.

    A firing on a map that holds no cell it can change is skipped whole, and
    so is one whose cells an occluder's shadow holds (FiringGuard.hides);
    otherwise only the rays that can reach such a cell are cast (see
    FiringGuard.can_change).  The rays of every firing go through one sweep,
    which takes each ray's origin, a mask for its hits, and the tick's sight
    lines, zero or more, with a mask for which nothing blocks; its hits and
    misses go through one map update of the firing rows, gathered and
    written back, that takes each firing's guard field.  A firing changes
    only its own map, so each map ends as if its firing alone had cast every
    ray.  On a tick with no firing the sight lines are cast alone, by
    line_of_sight.
    Returns the number of hits of the cast rays that the hit rule
    suppressed, and which sight lines nothing blocks.
    """
    firing, bundles, fields = [], [], []
    for i, guard in zip(explorer_rows, guards):
        guard.at(OccupancyMap(maps.grid, maps.cells[i]), positions[i])
        if guard.field is None or guard.hides(positions[i]):
            continue
        dirs = lidar_directions(yaws[i], lidar, t)
        dirs = _kept(guard.can_change(positions[i], dirs, sensors._LIDAR_RANGE), dirs)
        if len(dirs):
            firing.append(i)
            bundles.append(dirs)
            fields.append(guard.field)
    if not firing:
        return 0, line_of_sight(scene, *segments)
    clear = np.empty(len(segments[0]), dtype=bool)
    dirs = np.concatenate(bundles)
    origins = _rows(positions, firing)
    rows = np.repeat(np.arange(len(firing)), [len(b) for b in bundles])
    hit = np.empty(len(dirs), dtype=bool)
    hits, misses = lidar_sweep(_rows(origins, rows), scene, dirs, hit, segments, clear)
    gathered = OccupancyMap(maps.grid, maps.cells[firing])
    suppressed = integrate_points(gathered, origins, hits[:, 0], hits[:, 1], misses,
                                  guards[0].truth, np.array(fields), rows[hit], rows[~hit])
    maps.cells[firing] = gathered.cells
    return suppressed, clear


class _Mission:
    def __init__(self, cfg: MissionConfig, scene: Scene):
        self.cfg = cfg
        self.scene = scene
        if not scene.inspection_boxes:
            raise ConfigurationError("scene has no inspection boxes")
        # the fleet's kinematic state, one row per agent, in fleet order; its
        # positions are the starts that the set-up below reads
        n = len(cfg.agents)
        self.position = np.array([a.start for a in cfg.agents], dtype=float).reshape(n, 3)
        self.volume = compute_operational_volume(scene.inspection_boxes, self.position,
                                                 cfg.voxel_size)
        self.grid = build_grid(self.volume, cfg.voxel_size)
        # a move is accepted only into the agent's own voxel or the one it
        # claimed, so a tick that carries the fastest agent a voxel or more
        # refuses its moves
        speed = max(_SPEED_LIMIT[a.kind] for a in cfg.agents)
        if not float(cfg.tick) * speed < cfg.voxel_size:
            raise ConfigurationError(
                f"mission.tick {cfg.tick:g} s lets an agent at {speed:g} m/s cross a "
                f"{cfg.voxel_size:g} m voxel in one tick")
        self.truth = scene_occupancy(scene, self.grid)
        self.structure = np.flatnonzero(self.truth)
        # the cells a LiDAR ray can change, flooded from the agents' starts
        self.reach = reach_mask(self.grid, scene.solid_boxes, self.position)
        explorers = [a.kind == EXPLORER for a in cfg.agents]
        routes = mapping_paths(self.volume, self.position[explorers],
                               margin=cfg.voxel_size / 2.0)
        survey = np.concatenate(routes)
        goals = iter([Waypoint(tuple(p), None, tuple(c))
                      for p, c in zip(survey.tolist(), self.grid.voxels(survey).tolist())])

        self.velocity = np.zeros((n, 3))
        self.yaw = np.zeros(n)
        self.yaw_rate = np.zeros(n)
        self.v_max = np.array([_SPEED_LIMIT[a.kind] for a in cfg.agents], dtype=float)
        self.omega_max = np.full(n, _OMEGA_MAX)
        # the neutral mount, which lies within the gimbal's stops
        self.inclination = np.zeros(n)
        self.azimuth = np.zeros(n)
        # the agent pairs whose sight lines the sense stage casts each tick
        self.first, self.second = agent_pairs(n)

        # the fleet's maps, row i agent i's; an agent's occ is a view of its row
        self.maps = OccupancyMap(self.grid, np.full((n, *self.grid.dims), UNKNOWN, np.uint8))
        self.agents: list[_Runtime] = []      # agent ids are indices into it and the rows
        # the explorers' rows and the guards of their firings, in fleet order
        self.explorer_rows: list[int] = []
        self.guards: list[FiringGuard] = []
        used_voxels = set()
        e_idx = 0
        starts = map(tuple, self.grid.voxels(self.position).tolist())
        for aid, (spec, vox) in enumerate(zip(cfg.agents, starts)):
            if vox in used_voxels:
                raise ConfigurationError(f"agents share start voxel {vox}")
            used_voxels.add(vox)
            if self.truth[vox]:
                raise ConfigurationError(f"agent {aid} starts inside structure voxel {vox}")
            rt = _Runtime(aid, spec, OccupancyMap(self.grid, self.maps.cells[aid]), vox)
            # its own voxel is evidently traversable; it enters only voxels
            # its map holds FREE, so no later write is needed
            rt.occ.cells[vox] = FREE
            if spec.kind == EXPLORER:
                self.explorer_rows.append(aid)
                self.guards.append(FiringGuard(self.grid, self.truth, self.reach))
                rt.sigma = list(islice(goals, len(routes[e_idx])))
                e_idx += 1
            self.agents.append(rt)

        self.ledger = ScoreLedger(scene.point_ids)
        self.score_trace: list[float] = []
        self.observations: ObservationLog | None = None     # made by _score
        self.plan_events: list[str] = []
        self.planned = False        # whether any regeneration gave waypoints
        self.n_ticks = cfg.n_ticks
        self.voxels = np.zeros((self.n_ticks, len(self.agents), 3), dtype=int)  # by _audit
        self.sight = np.zeros((self.n_ticks, len(self.first)), dtype=bool)     # by _exchange
        # the fleet's camera pose rows, tick by tick: _capture fills row k before _score reads
        self.poses = np.empty((self.n_ticks, len(self.agents), 9))
        self.collisions = 0
        self.occupied_entries = 0
        self.free_structure_cells = 0
        self.suppressed_returns = 0
        self.clamp_events = 0
        self.phase_change_ticks: dict[int, int] = {}
        self.phase_maps: dict[int, OccupancyMap] = {}

    # --- stage helpers -------------------------------------------------

    def _sense(self, k: int, t: float) -> np.ndarray:
        """Fire the explorers' LiDAR and cast the fleet's sight lines with
        it; returns which pairs of (first, second) see each other."""
        suppressed, clear = _fire(self.maps, self.explorer_rows, self.guards, self.position,
                                  self.yaw, self.scene, self.cfg.lidar, t,
                                  (self.position[self.first], self.position[self.second]))
        self.suppressed_returns += suppressed
        return clear

    def _exchange(self, k: int, clear: np.ndarray) -> list[list[int]]:
        self.sight[k] = clear
        peers = discover_neighbors(len(self.agents), self.first, self.second, clear)
        exchange_and_merge(peers, self.maps)

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
        self.planned = True
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
            if a.blocked_replans >= _BLOCKED_REPLANS and a.cursor < len(wps):
                self.plan_events.append(
                    f"tick {k} agent {a.id} abandons stalled {goal} {wps[a.cursor].voxel}")
                a.cursor += 1
                a.blocked_replans = 0
                a.segment = []
            at_waypoint = a.cursor < len(wps) and a.voxel == wps[a.cursor].voxel
            if a.segment and not at_waypoint:
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
                a.look_dir = step.direction
                return
            a.sigma = None
            if a.phase == 1:
                self._enter_phase2(a, k)
            elif wps:
                self.plan_events.append(f"tick {k} agent {a.id} completes epoch {a.kappa}")
                a.kappa += 1
        a.segment = []

    def _plan(self, peers: list[list[int]], k: int) -> None:
        # photographers hold still until they enter the inspection stage
        for a in self.agents:
            if a.phase == 2 or a.spec.kind == EXPLORER:
                self._follow(a, peers, k)

    def _claim(self, a: _Runtime, claims: dict) -> tuple[tuple, tuple]:
        """The voxel a claims this tick, the first of its segment, or its own
        when it claims none, and the voxel it aims at; claims maps each
        claimed voxel to its agent."""
        if not a.segment:
            return a.voxel, a.voxel
        want = a.segment[0]
        # enter only voxels no one holds and the local map has confirmed
        # free; plans may run through unknown space but execution waits at
        # the sensing frontier
        if want in claims or a.occ.cells[want] != FREE:
            a.blocked += 1
            if a.blocked >= _BLOCKED_REPLAN_TICKS:
                a.segment = []
                a.blocked = 0
                a.blocked_replans += 1
            return a.voxel, a.voxel
        claims[want] = a.id
        a.blocked = 0

        # aim down the straight run of the plan so cruise speed builds up;
        # only the immediate next voxel is ever claimed
        aim = want
        (x, y, z), (x0, y0, z0) = want, a.voxel
        step = (x - x0, y - y0, z - z0)
        for cur, nxt in zip(a.segment, a.segment[1:]):
            if (nxt[0] - cur[0], nxt[1] - cur[1], nxt[2] - cur[2]) != step:
                break
            aim = nxt
        return want, aim

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
        target = self.grid.centers(aims)
        desired = [self._desired_yaw(a, (x - px, y - py))
                   for a, (x, y, _), (px, py, _) in zip(self.agents, target.tolist(),
                                                        self.position.tolist())]
        acc, yaw_acc = track_segment(self.position, self.velocity, self.yaw, self.yaw_rate,
                                     target, desired)
        position, velocity, self.yaw, self.yaw_rate = step_dynamics(
            self.position, self.velocity, self.yaw, self.yaw_rate, acc, yaw_acc,
            self.v_max, self.omega_max, self.cfg.tick)

        # the cells of the new positions, on the grid or off it; the two
        # voxels an agent may enter are grid voxels, so a position off the
        # grid is refused too
        cells = self.grid.cells(position).tolist()
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
            del a.segment[0]
        self.position, self.velocity = position, velocity

        looks = [a.look_dir if a.look_dir is not None
                 else (math.cos(psi), math.sin(psi), 0.0)
                 for a, psi in zip(self.agents, self.yaw.tolist())]
        self.inclination, self.azimuth = point_gimbal(
            self.yaw, self.inclination, self.azimuth, np.array(looks, dtype=float))

    def _desired_yaw(self, a: _Runtime, rel: tuple[float, float]) -> float | None:
        """a's heading command; rel is its aim point less its position, in x
        and y."""
        if a.look_dir is not None:
            lx, ly = float(a.look_dir[0]), float(a.look_dir[1])
            if math.hypot(lx, ly) > 1e-9:
                return math.atan2(ly, lx)
            return None
        if math.hypot(rel[0], rel[1]) > 0.5:
            return math.atan2(rel[1], rel[0])
        return None

    def _capture(self, k: int) -> None:
        self.poses[k] = camera_pose(self.position, self.velocity, self.yaw,
                                    self.inclination, self.azimuth)

    def _observe_distinct(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Observe each distinct pose of the pose table once.  Returns each
        captured pose's index among the distinct poses, and the columns
        count (rows per distinct pose), point, q_blur, q_res and q of the
        distinct poses' rows.

        A pose's rows depend on its bytes and the fixed scene alone, not on
        which poses share an observe call, so poses equal byte for byte
        share their rows wherever they fall in the table."""
        # each pose's bytes as one void value: poses equal byte for byte, and
        # only they (not 0.0 and -0.0), are one distinct pose
        pose = np.dtype((np.void, self.poses[0, 0].nbytes))
        distinct, which = np.unique(self.poses.view(pose).ravel(), return_inverse=True)
        step = max(1, _OBSERVE_PAIRS // max(1, self.scene.num_points))
        # the rows per distinct pose, then the rows' point and scores, packed
        # column by column as each call returns them, so no call's arrays
        # outlive it
        columns = [bytearray() for _ in range(5)]
        for lo in range(0, len(distinct), step):
            batch = distinct[lo:lo + step, None].view(float)       # the poses' rows
            obs = observe(batch, self.scene, self.cfg.camera)
            for column, values in zip(columns, (np.bincount(obs.pose, minlength=len(batch)),
                                                obs.point, obs.q_blur, obs.q_res, obs.q)):
                column += values.data
        return which, [np.frombuffer(c, dtype=np.intp) for c in columns[:2]] + [
            np.frombuffer(c) for c in columns[2:]]

    def _score(self) -> None:
        """Gather the observation log from the rows of the distinct poses,
        then fold each tick's capture into the ledger and the score trace in
        tick order.  A capture logs its agents' rows in fleet order, then point
        order."""
        which, (counts, *columns) = self._observe_distinct()
        fleet = len(self.agents)
        sizes = counts[which]                   # rows per agent capture, capture by capture
        ends = sizes.cumsum()
        # each agent capture's run of its pose's rows, one run after another
        starts = (counts.cumsum() - counts)[which]
        rows = np.repeat(starts - (ends - sizes), sizes) + np.arange(ends[-1])
        point, q_blur, q_res, q = (c[rows] for c in columns)
        del rows, columns, counts               # the distinct poses' rows go before the fold
        # the table holds the fleet's poses tick by tick, in fleet order
        tick, agent = np.divmod(np.repeat(np.arange(len(which), dtype=np.int64), sizes), fleet)
        bounds = np.concatenate(([0], ends[fleet - 1::fleet])).tolist()    # per tick
        for lo, hi in zip(bounds, bounds[1:]):
            update_ledger(self.ledger, point[lo:hi], q[lo:hi])
            self.score_trace.append(self.ledger.mean_best())
        point_id = self.scene.point_ids[point].astype(np.int64, copy=False)
        self.observations = ObservationLog(tick, agent, point_id, q_blur, q_res, q)

    def _nearest(self) -> float:
        """The least distance from any capture's position to any interest
        point, over the pose table a chunk of captures at a time."""
        captures = self.poses[..., :3].reshape(-1, 3)
        points = self.scene.point_positions
        step = max(1, _OBSERVE_PAIRS // len(points))
        with np.errstate(over="ignore"):        # a point at the largest float is inf away
            least = min(float(((captures[lo:lo + step, None] - points) ** 2).sum(-1).min())
                        for lo in range(0, len(captures), step))
        return math.sqrt(least)

    def _audit(self, k: int) -> None:
        voxels = [a.voxel for a in self.agents]
        self.voxels[k] = voxels
        self.collisions += len(voxels) - len(set(voxels))
        self.occupied_entries += sum(1 for vox in voxels if self.truth[vox])
        # a map that holds a structure cell free lets its agent plan and fly into it
        cells = self.maps.cells.reshape(len(self.agents), -1)
        self.free_structure_cells += int(np.count_nonzero(cells[:, self.structure] == FREE))

    def run(self) -> MissionResult:
        for k in range(self.n_ticks):
            t = k * self.cfg.tick
            clear = self._sense(k, t)
            peers = self._exchange(k, clear)
            self._plan(peers, k)
            self._act(k)
            self._capture(k)
            self._audit(k)
        self._score()
        if self.free_structure_cells:
            warnings.warn(f"agent maps held structure cells free "
                          f"{self.free_structure_cells} times (cells x ticks)")
        if self.suppressed_returns:
            warnings.warn(f"{self.suppressed_returns} LiDAR hits fell outside the "
                          f"structure cells and marked nothing")
        if self.ledger.num_points and not self.ledger.scored:
            warnings.warn(f"the mission scored none of its {self.ledger.num_points} "
                          f"interest points: the nearest capture was {self._nearest():.3g} m "
                          f"from one, against camera.range {self.cfg.camera.range:g} m")
        # a photographer enters the inspection stage on hearing a finished
        # explorer; one that never did, when some explorer finished, heard
        # none, and when none finished, no agent entered it
        if any(a.spec.kind == EXPLORER and a.phase == 2 for a in self.agents):
            for a in self.agents:
                if a.spec.kind == PHOTOGRAPHER and a.phase == 1:
                    self.plan_events.append(f"tick {self.n_ticks} agent {a.id} never entered "
                                            "inspection stage: heard no finished explorer")
                    warnings.warn(f"photographer {a.id} never entered the inspection stage: "
                                  "it heard no explorer that finished its survey")
        elif self.scene.num_points:
            self.plan_events.append(f"tick {self.n_ticks} no explorer finished its survey")
            warnings.warn("no explorer finished its survey, so no agent reached the "
                          "inspection stage")
        # the fleet reached the inspection stage, but no agent's map ever gave
        # a waypoint, so no epoch was planned
        if self.scene.num_points and self.phase_change_ticks and not self.planned:
            self.plan_events.append(f"tick {self.n_ticks} no inspection epoch planned: "
                                    "no agent's map gave a waypoint")
            warnings.warn("the fleet entered the inspection stage but planned no epoch: "
                          "no agent's map gave a waypoint")
        return MissionResult(
            ledger=self.ledger,
            scene=self.scene,
            score_trace=self.score_trace,
            observations=self.observations,
            connectivity=ConnectivityLog(self.first, self.second, self.sight),
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
        )


def run_mission(cfg: MissionConfig, scene: Scene) -> MissionResult:
    """Execute a full two-stage mission; deterministic for fixed inputs."""
    return _Mission(cfg, scene).run()


def write_outputs(result: MissionResult, out_dir: str) -> None:
    """Write the run artifacts: summary, traces, logs, and map dumps."""
    os.makedirs(out_dir, exist_ok=True)
    maps_dir = os.path.join(out_dir, "maps")
    os.makedirs(maps_dir, exist_ok=True)
    dumps = {f"agent{aid}_{stage}.vox": occ
             for stage, maps in (("stage2", result.phase_maps), ("final", result.final_maps))
             for aid, occ in sorted(maps.items())}
    for entry in os.scandir(maps_dir):      # the map dumps of an earlier run into out_dir
        if (entry.name not in dumps and entry.is_file()
                and re.fullmatch(r"agent(0|[1-9][0-9]*)_(stage2|final)\.vox", entry.name)):
            os.remove(entry.path)

    ledger = result.ledger
    coverage = ledger.scored / ledger.num_points if ledger.num_points else 0.0
    lines = [
        f"inspection_score: {result.q_total!r}",
        f"interest_points: {ledger.num_points}",
        f"points_scored: {ledger.scored}",
        f"coverage_fraction: {coverage!r}",
        f"mean_final_quality: {ledger.mean_best()!r}",
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
        for pid, (x, y, z), count, best in zip(ledger.point_ids.tolist(),
                                               result.scene.point_positions.tolist(),
                                               ledger.counts.tolist(), ledger.best_q.tolist()):
            fh.write(f"{pid},{x!r},{y!r},{z!r},{count},{best!r}\n")

    with open(os.path.join(out_dir, "connectivity.csv"), "w") as fh:
        fh.write("tick,edges\n")
        for k, edges in result.connectivity:
            fh.write(f"{k},{';'.join(f'{i}-{j}' for i, j in edges)}\n")

    with open(os.path.join(out_dir, "plans.log"), "w") as fh:
        fh.write("\n".join(result.plan_events) + ("\n" if result.plan_events else ""))

    for name, occ in dumps.items():
        save_map(occ, os.path.join(maps_dir, name))
