"""Voxel world model: operational volume, voxel grid, and occupancy maps.

Occupancy is tri-state (unknown / free / occupied) and only ever moves toward
more knowledge: unknown -> free, unknown -> occupied, free -> occupied.  Maps
are value-like; merging two maps takes the per-cell join with occupied winning
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
class OperationalVolume:
    """Cuboid flight volume enclosing the inspection boxes and all start positions."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if not np.all(self.lo_arr <= self.hi_arr):
            raise ConfigurationError(f"invalid volume {self.lo}..{self.hi}")

    @property
    def lo_arr(self) -> np.ndarray:
        return np.asarray(self.lo, dtype=float)

    @property
    def hi_arr(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=float)

    @property
    def extent(self) -> np.ndarray:
        return self.hi_arr - self.lo_arr


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


def compute_operational_volume(boxes, positions, voxel_size: float) -> OperationalVolume:
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
    return OperationalVolume(tuple(lo.tolist()), tuple(hi.tolist()))


def build_grid(volume: OperationalVolume, voxel_size: float) -> VoxelGrid:
    """Divide the volume into cubic voxels; dims round up so the volume is covered."""
    if voxel_size <= 0:
        raise ConfigurationError("voxel size must be positive")
    dims = np.ceil((volume.extent - 1e-9) / voxel_size).astype(int)
    dims = np.maximum(dims, 1)
    return VoxelGrid(tuple(volume.lo_arr.tolist()), tuple(int(d) for d in dims), float(voxel_size))


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

    def state(self, voxel) -> int:
        if not self.grid.in_bounds(voxel):
            raise OutOfBoundsError(f"voxel {tuple(voxel)} outside grid")
        return int(self.cells[tuple(voxel)])

    def occupied_voxels(self) -> np.ndarray:
        """(n, 3) int array of occupied voxel indices in lexicographic order."""
        return np.argwhere(self.cells == OCCUPIED)

    def count(self, state: int) -> int:
        return int(np.count_nonzero(self.cells == state))


def _segment_cells(grid: VoxelGrid, origin: np.ndarray, ends: np.ndarray,
                   end_cells: np.ndarray) -> np.ndarray:
    """All voxels each segment crosses from the shared origin up to, but not
    including, its end cell.  Vectorized grid-stepping over every segment at once.

    Returns an (m, 3) int array of cells (duplicates across segments included).
    """
    n = len(ends)
    if n == 0:
        return np.zeros((0, 3), dtype=np.int64)
    v = grid.voxel_size
    g0 = (origin - grid.origin_arr) / v                      # continuous grid coords
    d = (ends - origin) / v                                  # grid-space displacement
    cur = np.tile(np.floor(g0).astype(np.int64), (n, 1))
    last = end_cells.astype(np.int64)
    step = np.sign(d).astype(np.int64)

    with np.errstate(divide="ignore", invalid="ignore"):
        next_boundary = cur + (step > 0)
        t_max = np.where(step != 0, (next_boundary - g0) / d, np.inf)
        t_delta = np.where(step != 0, np.abs(1.0 / d), np.inf)

    active = np.any(cur != last, axis=1)
    collected = [cur[active].copy()]     # origin cell, for segments that leave it
    max_iter = int(np.abs(last - cur).sum(axis=1).max(initial=0)) + 4
    for _ in range(max_iter):
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        ax = np.argmin(t_max[rows], axis=1)
        cur[rows, ax] += step[rows, ax]
        t_max[rows, ax] += t_delta[rows, ax]
        arrived = np.all(cur[rows] == last[rows], axis=1)
        collected.append(cur[rows[~arrived]].copy())
        active[rows[arrived]] = False
    if not collected:
        return np.zeros((0, 3), dtype=np.int64)
    return np.vstack(collected)


def integrate_points(occ_map: OccupancyMap, sensor_origin, hits) -> OccupancyMap:
    """Fold range hits into the map: hit voxels become occupied, voxels the rays
    crossed on the way become free unless already occupied.

    Hit points are nudged a hair along the ray before voxelization so that hits
    landing exactly on a voxel boundary register on the surface's side.  Hits
    outside the grid are dropped. The map is updated in place and returned.
    """
    hits = np.asarray(hits, dtype=float).reshape(-1, 3)
    if len(hits) == 0:
        return occ_map
    origin = np.asarray(sensor_origin, dtype=float)
    grid = occ_map.grid
    v = grid.voxel_size

    rel = hits - origin
    lengths = np.linalg.norm(rel, axis=1)
    dirs = np.zeros_like(rel)
    moving = lengths > 1e-12
    dirs[moving] = rel[moving] / lengths[moving, None]
    nudged = hits + dirs * (1e-6 * v)

    cells_f = np.floor((nudged - grid.origin_arr) / v).astype(np.int64)
    dims = np.asarray(grid.dims)
    inside = np.all((cells_f >= 0) & (cells_f < dims), axis=1)
    if not inside.any():
        return occ_map
    hit_cells = cells_f[inside]
    crossed = _segment_cells(grid, origin, nudged[inside], hit_cells)
    if len(crossed):
        ok = np.all((crossed >= 0) & (crossed < dims), axis=1)
        crossed = crossed[ok]
    if len(crossed):
        cx, cy, cz = crossed[:, 0], crossed[:, 1], crossed[:, 2]
        unknown = occ_map.cells[cx, cy, cz] == UNKNOWN
        occ_map.cells[cx[unknown], cy[unknown], cz[unknown]] = FREE
    occ_map.cells[hit_cells[:, 0], hit_cells[:, 1], hit_cells[:, 2]] = OCCUPIED
    return occ_map


def carve_free(occ_map: OccupancyMap, sensor_origin, endpoints) -> OccupancyMap:
    """Mark voxels crossed by obstruction-free rays as free.

    Used for range returns that saw nothing: the whole corridor out to the
    endpoint is evidence of free space, terminal voxel included.  Endpoints
    beyond the grid are clipped at the boundary.  Occupied cells never revert.
    """
    endpoints = np.asarray(endpoints, dtype=float).reshape(-1, 3)
    if len(endpoints) == 0:
        return occ_map
    origin = np.asarray(sensor_origin, dtype=float)
    grid = occ_map.grid
    v = grid.voxel_size
    dims = np.asarray(grid.dims)
    lo = grid.origin_arr
    hi = lo + dims * v

    rel = endpoints - origin
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origin) / rel
        t2 = (hi - origin) / rel
        t_exit = np.nanmin(np.fmax(t1, t2), axis=1)
    t = np.clip(np.minimum(1.0, t_exit * (1.0 - 1e-9)), 0.0, 1.0)
    ends = origin + rel * t[:, None]

    end_cells = np.floor((ends - lo) / v).astype(np.int64)
    end_cells = np.clip(end_cells, 0, dims - 1)
    crossed = _segment_cells(grid, origin, ends, end_cells)
    cells = np.vstack([crossed, end_cells]) if len(crossed) else end_cells
    ok = np.all((cells >= 0) & (cells < dims), axis=1)
    cells = cells[ok]
    if len(cells):
        cx, cy, cz = cells[:, 0], cells[:, 1], cells[:, 2]
        unknown = occ_map.cells[cx, cy, cz] == UNKNOWN
        occ_map.cells[cx[unknown], cy[unknown], cz[unknown]] = FREE
    return occ_map


def merge_maps(a: OccupancyMap, b: OccupancyMap) -> OccupancyMap:
    """Per-cell join of two maps: occupied > free > unknown."""
    if a.grid != b.grid:
        raise GridMismatchError("cannot merge maps defined on different grids")
    return OccupancyMap(a.grid, np.maximum(a.cells, b.cells))


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
