"""Voxel world model: bounding boxes, voxel grid, and occupancy maps.

Occupancy is tri-state (unknown / free / occupied) and only ever moves toward
more knowledge: unknown -> free, unknown -> occupied, free -> occupied.  Maps
are value-like; merging maps takes the per-cell join with occupied winning
over free winning over unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError, OutOfBoundsError

UNKNOWN = 0
FREE = 1
OCCUPIED = 2

# Face-neighbor steps in a fixed order: -x, +x, -y, +y, -z, +z.
FACE_STEPS = (
    (-1, 0, 0), (1, 0, 0),
    (0, -1, 0), (0, 1, 0),
    (0, 0, -1), (0, 0, 1),
)

Voxel = tuple[int, int, int]

_NUDGE = 1e-6           # a hit moves this share of a voxel along its ray before voxelization


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box, corners in meters."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not np.all(lo < hi):
            raise ConfigurationError(
                f"degenerate bounding box {self.min_corner}..{self.max_corner}"
            )

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self.min_corner, dtype=float)

    @property
    def hi(self) -> np.ndarray:
        return np.asarray(self.max_corner, dtype=float)

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))


@dataclass(frozen=True)
class VoxelGrid:
    """Uniform cubic-voxel discretization of an operational volume."""

    origin: tuple[float, float, float]
    dims: tuple[int, int, int]
    voxel_size: float

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise ConfigurationError("voxel size must be positive")
        if any(d < 1 for d in self.dims):
            raise ConfigurationError(f"grid dims must be positive, got {self.dims}")

    @property
    def origin_arr(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=float)

    @property
    def cell_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def in_bounds(self, voxel) -> bool:
        return all(0 <= voxel[a] < self.dims[a] for a in range(3))


def compute_operational_volume(boxes, positions, voxel_size: float) -> BoundingBox:
    """Smallest cuboid containing every box and position, padded by one voxel per face.

    The padding keeps start voxels and boundary-adjacent structure faces from
    landing on the grid border, where planners would see degenerate vertices.
    """
    if not boxes:
        raise ConfigurationError("operational volume needs at least one bounding box")
    if positions is None or len(positions) == 0:
        raise ConfigurationError("operational volume needs at least one agent position")
    if voxel_size <= 0:
        raise ConfigurationError("voxel size must be positive")
    pts = [b.lo for b in boxes] + [b.hi for b in boxes]
    pts += [np.asarray(p, dtype=float) for p in positions]
    pts = np.vstack(pts)
    lo = pts.min(axis=0) - voxel_size
    hi = pts.max(axis=0) + voxel_size
    return BoundingBox(tuple(lo.tolist()), tuple(hi.tolist()))


def build_grid(volume: BoundingBox, voxel_size: float) -> VoxelGrid:
    """Divide the volume into cubic voxels; dims round up so the volume is covered."""
    if voxel_size <= 0:
        raise ConfigurationError("voxel size must be positive")
    dims = np.ceil((volume.hi - volume.lo - 1e-9) / voxel_size).astype(int)
    dims = np.maximum(dims, 1)
    return VoxelGrid(tuple(volume.lo.tolist()), tuple(int(d) for d in dims), float(voxel_size))


def world_to_voxel(grid: VoxelGrid, p) -> Voxel:
    """Voxel index containing point p.  Boundary planes belong to the upper voxel."""
    p = np.asarray(p, dtype=float)
    idx = np.floor((p - grid.origin_arr) / grid.voxel_size).astype(int)
    if np.any(idx < 0) or np.any(idx >= np.asarray(grid.dims)):
        raise OutOfBoundsError(f"point {p.tolist()} outside grid")
    return (int(idx[0]), int(idx[1]), int(idx[2]))


def voxel_to_world(grid: VoxelGrid, voxel) -> np.ndarray:
    """Center of the given voxel, in meters."""
    if not grid.in_bounds(voxel):
        raise OutOfBoundsError(f"voxel {tuple(voxel)} outside grid dims {grid.dims}")
    return grid.origin_arr + (np.asarray(voxel, dtype=float) + 0.5) * grid.voxel_size


class OccupancyMap:
    """Dense tri-state voxel belief over a grid.

    cells is an (nx, ny, nz) uint8 array of UNKNOWN / FREE / OCCUPIED.
    """

    def __init__(self, grid: VoxelGrid, cells: np.ndarray | None = None):
        self.grid = grid
        if cells is None:
            self.cells = np.full(grid.dims, UNKNOWN, dtype=np.uint8)
        else:
            cells = np.asarray(cells, dtype=np.uint8)
            if cells.shape != tuple(grid.dims):
                raise GridMismatchError(
                    f"cell array shape {cells.shape} does not match grid dims {grid.dims}"
                )
            self.cells = cells

    def copy(self) -> "OccupancyMap":
        return OccupancyMap(self.grid, self.cells.copy())

    def occupied_voxels(self) -> np.ndarray:
        """(n, 3) int array of occupied voxel indices in lexicographic order."""
        return np.argwhere(self.cells == OCCUPIED)


def _segment_cells(grid: VoxelGrid, origin: np.ndarray, ends: np.ndarray,
                   end_cells: np.ndarray) -> np.ndarray:
    """All voxels each segment crosses from the origin up to, but not
    including, its end cell (Amanatides & Woo, 1987), for every segment at once.

    Each axis steps only toward its end coordinate, |end cell - origin cell|
    times, so a segment visits exactly L1(end cell - origin cell) cells, all
    inside the box spanned by its origin cell and its end cell.  The times an
    axis crosses voxel planes are its first crossing plus |1/d| again and
    again, summed in sequence as a stepping loop sums them; the segment takes
    the crossings of all three axes in time order, ties to the lower axis and
    a NaN time first, as an argmin over the axes picks them.  Returns an (m, 3)
    int array of cells (duplicates across segments included), m the sum of
    those L1 distances; a single segment's cells come in path order.
    """
    v = grid.voxel_size
    g0 = (origin - grid.origin_arr) / v                      # continuous grid coords
    start = np.floor(g0).astype(np.int64)
    delta = end_cells - start
    lengths = np.abs(delta).sum(axis=1)
    moving = lengths > 0
    delta, lengths = delta[moving], lengths[moving]
    if len(delta) == 0:
        return np.zeros((0, 3), dtype=np.int64)
    n, counts, step = len(delta), np.abs(delta), np.sign(delta)
    m = int(counts.max())
    d = (ends[moving] - origin) / v                          # grid-space displacement

    # times[i, a, j]: when segment i crosses its (j+1)-th plane along axis a
    times = np.empty((n, 3, m))
    with np.errstate(divide="ignore", invalid="ignore"):     # an unused axis: x/0, inf - inf
        times[:, :, 0] = (start + (step > 0) - g0) / d
        times[:, :, 1:] = np.abs(1.0 / d)[:, :, None]
        np.add.accumulate(times, axis=2, out=times)
    times[np.isnan(times)] = -np.inf
    times[np.arange(m) >= counts[:, :, None]] = np.inf       # padding sorts last
    order = np.argsort(times.reshape(n, 3 * m), axis=1, kind="stable")
    axis = (order // m)[np.arange(3 * m) < lengths[:, None]]
    rows = np.repeat(np.arange(n), lengths)
    moves = np.zeros((len(axis), 3), dtype=np.int64)
    moves[np.arange(len(axis)), axis] = step[rows, axis]
    walked = moves.cumsum(axis=0)                # over all segments, one after another
    before = walked - moves
    last = np.cumsum(lengths) - 1
    base = before[last + 1 - lengths]            # per segment, at its first step
    assert np.array_equal(walked[last] - base, delta), \
        "grid traversal stopped short of its end cell"
    return start + before - base[rows]


def _box_field(mask: np.ndarray, cell) -> np.ndarray:
    """Per cell e of the grid, whether the box between cell and e holds a
    cell of mask: an OR swept outward from cell along each axis in turn.

    A segment's cells all lie in the box between its origin cell and its
    end cell, so one lookup at the end cell of a field from the origin cell
    tells whether the segment can meet a mask cell.  cell is clipped to the
    grid, which clips every box whose end cell lies on it.
    """
    field = mask.copy()
    for axis, c in enumerate(np.clip(cell, 0, np.subtract(mask.shape, 1))):
        outward = [slice(None)] * 3
        for part in (slice(c, None), slice(c, None, -1)):
            outward[axis] = part
            view = field[tuple(outward)]
            np.logical_or.accumulate(view, axis=axis, out=view)
    return field


class FiringGuard:
    """The cells a LiDAR firing can still change on one map, as box fields
    (see _box_field) from the sensor's cell.

    Under the hit rule of integrate_points a firing changes only UNKNOWN
    cells, which its rays free and its hits mark, and FREE structure cells
    (truth), which its hits mark.  unknown is the field of the UNKNOWN
    cells, and guard that of both kinds; while no structure cell is FREE
    they are one field.  at() rebuilds them only when the map's cells or
    the sensor's cell differ from those they were built for, so every
    writer of the map is seen.
    """

    def __init__(self, grid: VoxelGrid, truth: np.ndarray):
        self.grid = grid
        self.truth = truth
        self.cells: np.ndarray | None = None
        self.cell: np.ndarray | None = None

    def at(self, occ_map: OccupancyMap, origin) -> "FiringGuard":
        grid, cells = self.grid, occ_map.cells
        cell = np.floor((origin - grid.origin_arr) / grid.voxel_size).astype(np.int64)
        if (self.cells is not None and np.array_equal(cell, self.cell)
                and np.array_equal(cells, self.cells)):
            return self
        self.cells, self.cell = cells.copy(), cell
        unknown = cells == UNKNOWN
        free_structure = (cells == FREE) & self.truth
        self.live = bool(unknown.any()) or bool(free_structure.any())
        if self.live:
            self.unknown = _box_field(unknown, cell)
            self.guard = (_box_field(unknown | free_structure, cell) if free_structure.any()
                          else self.unknown)
        return self

    def can_change(self, origin, dirs: np.ndarray, reach: float) -> np.ndarray:
        """Per ray from origin along the unit directions dirs, out to reach,
        whether its box holds a cell the firing can change.

        The box runs from the sensor's cell to the grid-clamped cell at
        reach, each moving axis lengthened by twice the hit nudge, so it
        holds every cell the ray can free and the cell its hit can mark.  A
        ray whose box holds none leaves the map as it is, whatever the other
        rays of its firing hit.
        """
        grid = self.grid
        v, lo, dims = grid.voxel_size, grid.origin_arr, np.asarray(grid.dims)
        ends = origin + dirs * reach + np.sign(dirs) * (2 * _NUDGE * v)
        end_cells = np.clip(np.floor((ends - lo) / v).astype(np.int64), 0, dims - 1)
        return self.guard[tuple(end_cells.T)]


def integrate_points(occ_map: OccupancyMap, sensor_origin, hits, hit_dirs, misses=(),
                     truth: np.ndarray | None = None,
                     unknown: np.ndarray | None = None) -> int:
    """Fold one range firing into the map: hit voxels become occupied, and
    the unknown voxels the rays crossed on the way become free, for a miss
    (a return that saw nothing) its end voxel too.

    hit_dirs holds the unit direction of each hit's ray.  Hit points are
    nudged a hair along it before voxelization so that hits landing exactly
    on a voxel boundary register on the surface's side; a hit within 1e-12
    of the sensor along its ray stays where it is.  Hits outside the grid
    are dropped.  Given truth, the boolean grid of the structure cells, a
    hit marks its cell only if it is one: a hit that grazes a face's edge or
    meets a mesh in a voxel plane from behind can land in the cell beyond,
    and is suppressed, while its ray still frees the cells before it.
    Misses beyond the grid are clipped at its boundary, and a miss whose ray
    never enters the grid is dropped.
    Occupied cells never revert.  The map is updated in place; returns the
    number of suppressed hits.

    The hit cells are marked first: freeing only ever turns UNKNOWN cells
    FREE, so they stay occupied.  A segment's cells all lie in the box
    between its origin cell and its end cell, so a segment whose box holds
    no UNKNOWN cell cannot change the map and is not traversed; one box
    field of the UNKNOWN cells from the sensor's cell answers that per
    segment with one lookup.  unknown may pass that field for the cells
    before the call (FiringGuard.unknown): the hits only shrink the UNKNOWN
    cells, so it still holds every box that can change the map.  A miss is
    first tested against its box out to its unclipped end cell, which holds
    the box of its clipped segment, so only the misses that pass are
    clipped.
    """
    origin = np.asarray(sensor_origin, dtype=float)
    grid = occ_map.grid
    cells = occ_map.cells
    v = grid.voxel_size
    lo = grid.origin_arr
    dims = np.asarray(grid.dims)

    hits = np.asarray(hits, dtype=float).reshape(-1, 3)
    hit_dirs = np.asarray(hit_dirs, dtype=float).reshape(-1, 3)
    reach = np.einsum("nk,nk->n", hits - origin, hit_dirs)
    nudged = hits + hit_dirs * np.where(reach > 1e-12, _NUDGE * v, 0.0)[:, None]
    hit_cells = np.floor((nudged - lo) / v).astype(np.int64)
    inside = np.all((hit_cells >= 0) & (hit_cells < dims), axis=1)
    nudged, hit_cells = nudged[inside], hit_cells[inside]
    kept = tuple(hit_cells.T)
    suppressed = 0
    if truth is not None:
        structure = truth[kept]
        suppressed = len(structure) - int(np.count_nonzero(structure))
        kept = tuple(c[structure] for c in kept)
    cells[kept] = OCCUPIED

    rel = np.asarray(misses, dtype=float).reshape(-1, 3) - origin
    # the clipped end origin + rel * t, 0 <= t <= 1, lies between the origin
    # and origin + rel on every axis, in floating point too
    far_cells = np.clip(np.floor((origin + rel - lo) / v).astype(np.int64), 0, dims - 1)
    if unknown is None:
        unknown = _box_field(cells == UNKNOWN, np.floor((origin - lo) / v).astype(np.int64))
    live = unknown[tuple(np.vstack([hit_cells, far_cells]).T)]
    if not live.any():
        return suppressed
    live_hits, rel = live[:len(hit_cells)], rel[live[len(hit_cells):]]

    # clip the surviving misses to the grid; an axis with no motion along it
    # holds the whole ray if lo <= origin < hi, since boundary planes belong
    # to the upper voxel, and none of it otherwise
    hi = lo + dims * v
    still = rel == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(still, np.where((lo <= origin) & (origin < hi), -np.inf, np.inf),
                      (lo - origin) / rel)
        t2 = np.where(still, np.inf, (hi - origin) / rel)
    t_enter = np.minimum(t1, t2).max(axis=1)
    t_exit = np.maximum(t1, t2).min(axis=1)
    enters = (t_enter <= t_exit) & (t_exit >= 0.0) & (t_enter <= 1.0)
    rel, t_exit = rel[enters], t_exit[enters]
    t = np.clip(np.minimum(1.0, t_exit * (1.0 - 1e-9)), 0.0, 1.0)
    ends = origin + rel * t[:, None]
    end_cells = np.clip(np.floor((ends - lo) / v).astype(np.int64), 0, dims - 1)
    live_misses = unknown[tuple(end_cells.T)]
    ends, end_cells = ends[live_misses], end_cells[live_misses]

    crossed = _segment_cells(grid, origin, np.vstack([nudged[live_hits], ends]),
                             np.vstack([hit_cells[live_hits], end_cells]))
    marked = np.vstack([crossed, end_cells])
    marked = marked[np.all((marked >= 0) & (marked < dims), axis=1)]
    cx, cy, cz = marked[:, 0], marked[:, 1], marked[:, 2]
    cells[cx, cy, cz] = np.maximum(cells[cx, cy, cz], FREE)
    return suppressed


def carve_free(occ_map: OccupancyMap, sensor_origin, endpoints) -> OccupancyMap:
    """Mark the voxels crossed by rays that saw nothing free: a firing of
    misses only, see integrate_points."""
    integrate_points(occ_map, sensor_origin, (), (), endpoints)
    return occ_map


def merge_maps(first: OccupancyMap, *others: OccupancyMap) -> OccupancyMap:
    """Per-cell join of maps into a new map: occupied > free > unknown.

    The others fold in place into one copy of first's cells.
    """
    cells = first.cells.copy()
    for other in others:
        if other.grid != first.grid:
            raise GridMismatchError("cannot merge maps defined on different grids")
        np.maximum(cells, other.cells, out=cells)
    return OccupancyMap(first.grid, cells)


def save_map(occ_map: OccupancyMap, path) -> None:
    """Dump a map to disk: one ASCII header line, then one state byte per cell.

    Payload ordering is x-fastest (x varies quickest, then y, then z).
    """
    grid = occ_map.grid
    header = "VOXMAP 1 origin {} {} {} dims {} {} {} voxel {}\n".format(
        *(repr(float(c)) for c in grid.origin),
        *grid.dims,
        repr(float(grid.voxel_size)),
    )
    payload = occ_map.cells.ravel(order="F").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def load_map(path) -> OccupancyMap:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        payload = fh.read()
    if header[:2] != ["VOXMAP", "1"]:
        raise ConfigurationError(f"not a VOXMAP file: {path}")
    origin = tuple(float(x) for x in header[3:6])
    dims = tuple(int(x) for x in header[7:10])
    voxel = float(header[11])
    grid = VoxelGrid(origin, dims, voxel)
    cells = np.frombuffer(payload, dtype=np.uint8)
    if cells.size != grid.cell_count:
        raise ConfigurationError(f"payload size {cells.size} != cell count {grid.cell_count}")
    return OccupancyMap(grid, cells.reshape(dims, order="F").copy())
