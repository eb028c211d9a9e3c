"""Inspection planning: sweep routes, waypoint generation, greedy multi-agent
waypoint assignment, and breadth-first receding-horizon path steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PlanningError
from .world import FACE_STEPS, FREE, OCCUPIED, BoundingBox, OccupancyMap, Voxel

_FACE_STEPS = np.array(FACE_STEPS)


@dataclass(frozen=True)
class Waypoint:
    """Goal of the waypoint follower.  An inspection pose is a free-voxel
    center plus the unit direction toward the occupied voxel that triggered
    it; a survey goal is a sweep-route point with neither."""

    position: tuple[float, float, float]
    direction: tuple[float, float, float] | None
    voxel: Voxel


def mapping_paths(volume: BoundingBox, starts,
                  margin: float = 0.0) -> list[list[np.ndarray]]:
    """Straight out-and-back survey passes along the volume's longest axis.

    There is one explorer per start.  The cross-section perpendicular to the
    longest axis is split into one band per explorer along the next-longest
    axis; each pass runs through its band center at the middle of the
    remaining axis.  Passes are returned as waypoint lists ordered so each
    explorer starts from its nearer end, pulled inward from the volume faces
    by margin.
    """
    bands = len(starts)
    if bands < 1:
        raise ConfigurationError("need at least one explorer for mapping paths")
    lo, hi = volume.lo, volume.hi
    ext = hi - lo
    order = sorted(range(3), key=lambda a: (-ext[a], a))
    long_axis, band_axis, mid_axis = order

    paths = []
    band_width = ext[band_axis] / bands
    for i in range(bands):
        a = np.zeros(3)
        b = np.zeros(3)
        a[long_axis] = lo[long_axis] + margin
        b[long_axis] = hi[long_axis] - margin
        for p in (a, b):
            p[band_axis] = lo[band_axis] + (i + 0.5) * band_width
            p[mid_axis] = lo[mid_axis] + ext[mid_axis] / 2.0
        start = np.asarray(starts[i], dtype=float)
        if np.linalg.norm(start - a) <= np.linalg.norm(start - b):
            near, far = a, b
        else:
            near, far = b, a
        paths.append([near, far, near.copy()])
    return paths


def generate_waypoints(occ_map: OccupancyMap, boxes, standoff: float) -> list[Waypoint]:
    """Waypoints around occupied voxels that lie inside the inspection boxes.

    For every such voxel with at least one free face neighbor, each free face
    direction yields a candidate at standoff along that face normal from the
    occupied center, snapped to the containing voxel center.  Candidates whose
    voxel is not free (or is off-grid) are dropped.  Duplicates by (voxel,
    direction) are removed, keeping the first; the order is occupied-voxel
    row order, then FACE_STEPS order.  All candidates are filtered in one
    array pass, with the arithmetic of world_to_voxel and voxel_to_world.
    """
    grid = occ_map.grid
    if standoff <= 0:
        raise ConfigurationError("waypoint standoff must be positive")
    occupied = occ_map.occupied_voxels()
    if len(occupied) == 0 or not boxes:
        return []
    origin, size = grid.origin_arr, grid.voxel_size
    centers = origin + (occupied + 0.5) * size
    in_box = np.zeros(len(occupied), dtype=bool)
    for b in boxes:
        in_box |= np.all((centers >= b.lo) & (centers <= b.hi), axis=1)

    n_faces = len(FACE_STEPS)
    n = int(in_box.sum())
    src = np.repeat(occupied[in_box], n_faces, axis=0)
    center = np.repeat(centers[in_box], n_faces, axis=0)
    face = np.tile(np.arange(n_faces), n)
    step = _FACE_STEPS[face]

    dims = np.asarray(grid.dims)
    cells = occ_map.cells
    nb = src + step
    keep = np.flatnonzero(np.all((nb >= 0) & (nb < dims), axis=1))
    keep = keep[cells[tuple(nb[keep].T)] == FREE]
    wp_voxel = np.floor((center[keep] + step[keep] * standoff - origin) / size).astype(int)
    on_grid = np.all((wp_voxel >= 0) & (wp_voxel < dims), axis=1)
    keep, wp_voxel = keep[on_grid], wp_voxel[on_grid]
    free = cells[tuple(wp_voxel.T)] == FREE
    keep, wp_voxel = keep[free], wp_voxel[free]
    wp_pos = origin + (wp_voxel + 0.5) * size
    n_hat = center[keep] - wp_pos
    norm = np.linalg.norm(n_hat, axis=1)
    apart = norm >= 1e-12
    keep, wp_voxel, wp_pos = keep[apart], wp_voxel[apart], wp_pos[apart]
    n_hat = n_hat[apart] / norm[apart, None]

    # One integer per (voxel, direction); return_index gives each key's first row.
    key = np.ravel_multi_index(tuple(wp_voxel.T), grid.dims) * n_faces + face[keep]
    first = np.sort(np.unique(key, return_index=True)[1])
    return [Waypoint(tuple(p), tuple(d), tuple(v))
            for p, d, v in zip(wp_pos[first].tolist(), n_hat[first].tolist(),
                               wp_voxel[first].tolist())]


def mtsp_assign(waypoints: list[Waypoint],
                positions: dict[int, np.ndarray]) -> dict[int, list[Waypoint]]:
    """Greedy round-robin nearest-neighbor split of the waypoints over agents.

    Every path starts at its agent's position.  Agents take turns in ascending
    id; on each turn an agent appends the unvisited waypoint closest to the
    last element of its path and marks it visited, until none remain.  Distance
    ties go to the lowest waypoint index.  The returned paths are an exact
    partition of the input waypoints.
    """
    if not positions:
        raise ConfigurationError("mtsp needs at least one agent position")
    ids = sorted(positions)
    tails = {i: np.asarray(positions[i], dtype=float) for i in ids}
    routes: dict[int, list[Waypoint]] = {i: [] for i in ids}
    coords = np.array([w.position for w in waypoints], dtype=float).reshape(-1, 3)
    unvisited = list(range(len(waypoints)))

    while unvisited:
        for i in ids:
            if not unvisited:
                break
            rel = coords[unvisited] - tails[i]
            d2 = np.einsum("nk,nk->n", rel, rel)
            pick = int(np.argmin(d2))          # argmin takes the first of equals
            w_idx = unvisited.pop(pick)
            routes[i].append(waypoints[w_idx])
            tails[i] = coords[w_idx]
    return routes


def dijkstra_path(occ_map: OccupancyMap, reserved: set,
                  start: Voxel, goal: Voxel) -> list[Voxel]:
    """Shortest collision-free voxel path from start to goal.

    Traversable voxels are the non-occupied cells of the map minus reserved
    voxels (other agents' current cells); face neighbors are one hop apart.
    The search is breadth-first: each layer is expanded in lexicographic
    voxel order, and a voxel's predecessor is the first voxel that reaches
    it, so replanning is reproducible.  Returns [] when the goal is
    unreachable; the path includes both endpoints.
    """
    start = tuple(start)
    goal = tuple(goal)
    cells = occ_map.cells
    if cells[start] == OCCUPIED:
        raise PlanningError(f"start voxel {start} is occupied")
    if start in reserved:
        raise PlanningError(f"start voxel {start} is reserved")
    dims = occ_map.grid.dims
    if not occ_map.grid.in_bounds(goal):
        return []
    if cells[goal] == OCCUPIED or goal in reserved:
        return []
    if start == goal:
        return [start]

    prev: dict[Voxel, Voxel] = {start: start}
    layer = [start]
    while layer and goal not in prev:
        reached = []
        for v in sorted(layer):
            x, y, z = v
            for dx, dy, dz in FACE_STEPS:
                n = (x + dx, y + dy, z + dz)
                if not (0 <= n[0] < dims[0] and 0 <= n[1] < dims[1] and 0 <= n[2] < dims[2]):
                    continue
                if n in prev or cells[n] == OCCUPIED or n in reserved:
                    continue
                prev[n] = v
                reached.append(n)
        layer = reached
    if goal not in prev:
        return []
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()
    return path


@dataclass
class PlanStep:
    """Result of one receding-horizon planning step."""

    segment: list[Voxel]                 # next voxels to execute; [] ends the path
    direction: np.ndarray | None         # camera directive, None for survey goals
    next_index: int                      # cursor into the inspection path
    skipped: list[int] = field(default_factory=list)


def drhlp_step(agent_voxel: Voxel, path: list[Waypoint], cursor: int,
               occ_map: OccupancyMap, reserved: set, horizon: int) -> PlanStep:
    """Advance the receding-horizon plan toward the next unvisited waypoint.

    Waypoints are marked visited when the agent's voxel matches theirs, and
    skipped when unreachable under the current map and reservations.  A
    route to a goal has at least two voxels, so the segment holds 1 to
    horizon voxels while a goal remains, and is empty once the cursor runs
    off the end of the path: the epoch is complete.
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be at least 1")
    idx = cursor
    skipped: list[int] = []
    while idx < len(path):
        wp = path[idx]
        if tuple(agent_voxel) == wp.voxel:
            idx += 1
            continue
        route = dijkstra_path(occ_map, reserved, tuple(agent_voxel), wp.voxel)
        if not route:
            skipped.append(idx)
            idx += 1
            continue
        direction = None if wp.direction is None else np.asarray(wp.direction, dtype=float)
        return PlanStep(route[1:1 + horizon], direction, idx, skipped)
    return PlanStep([], None, idx, skipped)
