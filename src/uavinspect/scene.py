"""Ground-truth world geometry: solid boxes, triangle meshes, interest points.

The scene is immutable after construction and safe for concurrent reads.  All
raycasting goes through one vectorized core so LiDAR bundles and occlusion
checks share identical intersection semantics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, check_value
from .world import BoundingBox, VoxelGrid, _kept, _length, _max3, _min3, _rows, box_cells

_EPS_T = 1e-9           # minimum hit distance, rejects self-intersection at the origin
_EPS_BARY = 1e-12       # barycentric slack, keeps triangle edges closed
# how far from the origin a triangle's vertices may lie, in metres.
# Moller-Trumbore's distance is a triple product of vertex differences over a
# determinant as small as _EPS_BARY, about 1e13 * C**3 at coordinates of size
# C, so C must stay below about 1e98 for it to be finite; a vertex at the
# largest float overflowed the broad phase's bins and the voxelization's axis
# tests
_MAX_TRIANGLE_COORD = 1e90
_EPS_LOS = 1e-6         # slack when comparing a hit distance against segment length
_EPS_BACKOFF = 1e-3     # interest points are lifted off their surface by this much
_BINS = 4               # triangle bins per axis of the mesh's bounding box
_BIN_PAD = 1e-4         # bin boxes grow by this share of the mesh's largest extent
_RAY_CHUNK = 512        # rays per narrow-phase round; bounds the pair temporaries
_EXPOSED_CHUNK = 1 << 16  # (point, vertex) pairs per round of Scene.exposed
_CORNERS = np.indices((2, 2, 2)).reshape(3, -1).T == 1    # a box's 8 corners: hi where True


class Scene:
    """Static inspection world.

    triangles: (t, 3, 3) float array, one row of three vertices per triangle.
    solid_boxes: list of BoundingBox obstacles (the structure geometry).
    interest_points: (ids, positions, normals) arrays of shapes (n,), (n, 3)
    and (n, 3), kept as point_ids, point_positions and point_normals, the
    normals scaled to unit length.  The three are index-aligned, and the
    package addresses a point by its row; the ids, unique but in any order,
    label points in the artifacts.
    """

    def __init__(self, solid_boxes=None, triangles=None, interest_points=None,
                 inspection_boxes=None):
        self.solid_boxes: list[BoundingBox] = list(solid_boxes or [])
        tris = np.asarray(triangles, dtype=float) if triangles is not None else np.zeros((0, 3, 3))
        if tris.size and tris.shape[1:] != (3, 3):
            raise ConfigurationError(f"triangles must be (n, 3, 3), got {tris.shape}")
        if tris.size and not np.all(np.isfinite(tris)):
            raise ConfigurationError("triangle geometry contains non-finite vertices")
        self.triangles = tris.reshape(-1, 3, 3)
        far = np.flatnonzero((np.abs(self.triangles) > _MAX_TRIANGLE_COORD).any(axis=(1, 2)))
        if len(far):
            raise ConfigurationError(f"triangle {far[0]} has a vertex past "
                                     f"{_MAX_TRIANGLE_COORD:g} m from the origin")
        self.inspection_boxes: list[BoundingBox] = list(inspection_boxes or [])

        ids, positions, normals = interest_points if interest_points is not None else ((),) * 3
        self.point_ids = _point_ids(ids)
        n = len(self.point_ids)
        self.point_positions = _point_rows(positions, n, "position")
        normals = _point_rows(normals, n, "normal")
        _, first = np.unique(self.point_ids, return_index=True)
        if len(first) < n:
            repeat = np.setdiff1d(np.arange(n), first)[0]
            raise ConfigurationError(
                f"interest point ids are not unique: id {self.point_ids[repeat]} repeats")
        for name, values in (("position", self.point_positions), ("normal", normals)):
            bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
            if len(bad):
                raise ConfigurationError(
                    f"interest point {self.point_ids[bad[0]]} has a non-finite {name}")
        if len(normals):
            with np.errstate(over="ignore"):   # a length past the float range is inf
                norms = _length(normals)
            if np.any(norms < 1e-12):
                raise ConfigurationError("interest point with zero-length normal")
            long = np.flatnonzero(norms == math.inf)
            if len(long):
                raise ConfigurationError(f"interest point {self.point_ids[long[0]]} has a "
                                         "normal too long to normalize")
            normals = normals / norms[:, None]
        self.point_normals = normals

        if n and self.inspection_boxes:
            # closed on both faces: a point on a box's face is inside it
            lo = np.array([b.min_corner for b in self.inspection_boxes], dtype=float)
            hi = np.array([b.max_corner for b in self.inspection_boxes], dtype=float)
            pos = self.point_positions[:, None, :]
            inside = ((lo <= pos) & (pos <= hi)).all(axis=2).any(axis=1)
            outside = n - np.count_nonzero(inside)
            if outside:
                warnings.warn(
                    f"{outside} interest point(s) lie outside every inspection box",
                    stacklevel=2,
                )

        # cached box corner arrays for the vectorized raycaster
        if self.solid_boxes:
            self._box_lo = np.array([b.min_corner for b in self.solid_boxes], dtype=float)
            self._box_hi = np.array([b.max_corner for b in self.solid_boxes], dtype=float)
        else:
            self._box_lo = np.zeros((0, 3))
            self._box_hi = np.zeros((0, 3))

        # triangle edges and centroid bins for the two-phase raycaster
        self._tri_v0 = self.triangles[:, 0]
        # edge 2, then edge 1, the right operands of Moller-Trumbore's crosses
        self._tri_edges = np.stack((self.triangles[:, 2] - self._tri_v0,
                                    self.triangles[:, 1] - self._tri_v0))
        (self._bin_lo, self._bin_hi, self._bin_offsets,
         self._bin_tris) = _bin_triangles(self.triangles)
        self._bin_counts = np.diff(self._bin_offsets)

    @property
    def num_points(self) -> int:
        return len(self.point_ids)

    @cached_property
    def exposed(self) -> np.ndarray:
        """Per interest point: no primitive rises more than _EPS_BACKOFF / 2
        above the point's tangent plane, so nothing can block a sight line
        from at least _EPS_BACKOFF above that plane (visible_point_indices).

        A triangle or a box rises as far as its highest vertex, the largest
        n . (v - p); computed on first use, by columns, a bounded number of
        (point, vertex) pairs at a time.
        """
        boxes = np.where(_CORNERS[:, None, :], self._box_hi, self._box_lo)
        verts = np.vstack([self.triangles.reshape(-1, 3), boxes.reshape(-1, 3)]).T
        n, p = self.point_normals, self.point_positions
        base = n[:, 0] * p[:, 0] + n[:, 1] * p[:, 1] + n[:, 2] * p[:, 2]
        top = np.full(len(p), -np.inf)
        step = max(1, _EXPOSED_CHUNK // max(1, verts.shape[1]))
        for c in range(0, len(p) if verts.size else 0, step):
            m = n[c:c + step, :, None]
            np.max(m[:, 0] * verts[0] + m[:, 1] * verts[1] + m[:, 2] * verts[2],
                   axis=1, out=top[c:c + step])
        return top - base <= _EPS_BACKOFF / 2


def _point_ids(ids) -> np.ndarray:
    """ids as an int64 array, each held to the "integer" rule: an int64 array
    passes whole; any other ids are checked one by one, which names the first
    that breaks the rule."""
    if isinstance(ids, np.ndarray) and ids.dtype == np.int64:
        return ids.reshape(-1)
    for pid in ids:
        check_value("interest point id", pid, "integer")
    return np.array(ids, dtype=np.int64)


def _point_rows(values, n: int, name: str) -> np.ndarray:
    """values as an (n, 3) float array, one row per interest point."""
    rows = np.array(values, dtype=float)
    if rows.size == 0 == n:
        return rows.reshape(0, 3)
    if rows.shape != (n, 3):
        raise ConfigurationError(
            f"interest point {name}s must be of shape ({n}, 3) for {n} ids, got {rows.shape}")
    return rows


def _bin_triangles(tris: np.ndarray):
    """Bin triangles by centroid on a fixed grid over their bounding box.

    Returns, per non-empty bin, the padded box around its triangles, and the
    bins' members as offsets into one array of triangle indices.  The padding
    keeps the broad phase conservative for rays that graze a bin face.
    """
    if not len(tris):
        return np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(1, dtype=int), np.zeros(0, dtype=int)
    lo = tris.min(axis=(0, 1))
    span = tris.max(axis=(0, 1)) - lo
    cell = np.where(span > 0.0, span / _BINS, 1.0)
    idx = np.minimum(((tris.mean(axis=1) - lo) / cell).astype(int), _BINS - 1)
    key = np.ravel_multi_index(idx.T, (_BINS,) * 3)
    order = np.argsort(key, kind="stable")
    firsts = np.flatnonzero(np.diff(key[order], prepend=-1))
    pad = _BIN_PAD * (1.0 + span.max())
    bin_lo = np.minimum.reduceat(tris.min(axis=1)[order], firsts) - pad
    bin_hi = np.maximum.reduceat(tris.max(axis=1)[order], firsts) + pad
    return bin_lo, bin_hi, np.append(firsts, len(tris)), order


def ray_cast_batch(scene: Scene, origins, dirs: np.ndarray,
                   max_range) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-hit distances for a bundle of rays, each with its own origin
    and range.

    origins and dirs: (n, 3), the dirs unit directions; max_range: (n,).
    Returns (hit mask, distances); distance is inf where nothing was hit
    within the ray's range.  It takes any finite origins and indexes no
    grid.
    """
    origins = np.asarray(origins, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    max_range = np.asarray(max_range, dtype=float)
    if dirs.shape[1:] != (3,) or origins.shape != dirs.shape or max_range.shape != dirs.shape[:1]:
        raise ConfigurationError(
            f"ray origins {origins.shape}, directions {dirs.shape} and ranges "
            f"{max_range.shape}; give (n, 3), (n, 3) and (n,), one row per ray")
    best = np.full(len(dirs), np.inf)
    # signed inf where a component is 0, or so small that its reciprocal overflows
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_t = 1.0 / np.ascontiguousarray(dirs.T)

    if len(scene._box_lo):
        # a NaN slab fails every test: a ray along a box face misses the box
        tn, tf = _slabs(scene._box_lo, scene._box_hi, origins, inv_t)
        ok = (tf >= tn) & (tf > _EPS_T) & (tn <= max_range)
        np.copyto(tn, 0.0, where=tn <= _EPS_T)
        np.copyto(tn, np.inf, where=~ok)
        best = tn.min(axis=0)

    if len(scene.triangles):
        for c in range(0, len(dirs), _RAY_CHUNK):
            rows = slice(c, c + _RAY_CHUNK)
            ray, tri = _candidate_pairs(scene, origins[rows], inv_t[:, rows], max_range[rows])
            ray, t = _moller_trumbore(scene, origins[rows], dirs[rows], ray, tri, max_range[rows])
            np.minimum.at(best[rows], ray, t)                   # a view: writes into best

    hit = best <= max_range
    return hit, best


def _slabs(lo, hi, origins, inv_t):
    """Entry and exit distances, (boxes, rays), of rays through boxes.

    lo, hi: (boxes, 3) corners; origins: (rays, 3); inv_t: (3, rays), the
    reciprocal ray directions by axis.
    A ray parallel to an axis whose origin lies in a box face gives
    0 * inf = NaN on that axis, and both distances come out NaN.  A
    direction component so small that a distance overflows gives the same
    signed inf as a component of 0.
    """
    tn = tf = None
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(3):
            o = origins[:, k]
            t1 = (lo[:, k, None] - o) * inv_t[k]
            t2 = (hi[:, k, None] - o) * inv_t[k]
            if tn is None:
                tn, tf = np.minimum(t1, t2), np.maximum(t1, t2)
            else:
                np.maximum(tn, np.minimum(t1, t2), out=tn)
                np.minimum(tf, np.maximum(t1, t2, out=t1), out=tf)
    return tn, tf


def _candidate_pairs(scene: Scene, origins, inv_t, max_range):
    """(ray, triangle) index pairs whose ray meets the triangle's bin.

    A NaN slab fails every comparison, so it counts as an overlap: the test
    culls only the bins it can show the ray misses.
    """
    tn, tf = _slabs(scene._bin_lo, scene._bin_hi, origins, inv_t)
    b, ray = np.nonzero(~((tf < tn) | (tf < 0.0) | (tn > max_range)))
    counts = scene._bin_counts[b]
    firsts = np.cumsum(counts) - counts
    pos = np.arange(counts.sum()) + np.repeat(scene._bin_offsets[b] - firsts, counts)
    return np.repeat(ray, counts), scene._bin_tris[pos]


def _moller_trumbore(scene: Scene, origins, dirs, ray, tri, max_range):
    """Hits (ray index, distance) among candidate pairs, Moller-Trumbore.

    origins: (rays, 3).  A pair whose ray is parallel to the triangle's
    plane divides by 1 instead of by its near-zero determinant, and is
    dropped.  max_range: (rays,).
    """
    # both crosses in one call: d x e2, then s x e1
    left = np.empty((2, len(ray), 3))
    d, s = left
    dirs.take(ray, axis=0, out=d)
    np.subtract(_rows(origins, ray), _rows(scene._tri_v0, tri), out=s)
    right = scene._tri_edges.take(tri, axis=1)
    e2, e1 = right
    h, q = _cross(left, right)
    a = np.einsum("pk,pk->p", e1, h)
    keep = np.abs(a) > _EPS_BARY
    f = 1.0 / np.where(keep, a, 1.0)
    u = f * np.einsum("pk,pk->p", s, h)
    v = f * np.einsum("pk,pk->p", d, q)
    t = f * np.einsum("pk,pk->p", e2, q)
    ok = (keep & (u >= -_EPS_BARY) & (v >= -_EPS_BARY) & (u + v <= 1.0 + _EPS_BARY)
          & (t > _EPS_T) & (t <= max_range[ray]))
    return ray[ok], t[ok]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of (..., 3) arrays, same operations, without its axis handling."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _norm(v: np.ndarray) -> np.ndarray:
    """Lengths of vectors (..., 3) by the BLAS dot that np.linalg.norm takes
    for one vector, so a stack of vectors gets the lengths it would get one
    by one; the axis=-1 norm sums differently."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


@dataclass(frozen=True, eq=False)
class SightLines:
    """Segments from starts to ends as rays, and the one rule that reads
    their cast: each segment is cast from its start along its unit direction
    as far as its length plus 1.  Geometry within _EPS_LOS of a segment's far
    end does not block it, and a segment of zero length is clear."""

    starts: np.ndarray          # (n, 3)
    dirs: np.ndarray            # (n, 3) unit directions; 0 for a zero-length segment
    lengths: np.ndarray         # (n,)

    @classmethod
    def between(cls, starts, ends) -> "SightLines":
        """starts and ends: (n, 3) arrays, one row per segment; any finite
        points, as no grid is indexed."""
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        if starts.shape[1:] != (3,) or ends.shape != starts.shape:
            raise ConfigurationError(f"sight lines from starts {starts.shape} to ends "
                                     f"{ends.shape}; give (n, 3) each, one row per segment")
        rel = ends - starts
        lengths = _length(rel)
        safe = np.where(lengths > 1e-12, lengths, 1.0)
        return cls(starts, rel / safe[:, None], lengths)

    @property
    def ranges(self) -> np.ndarray:
        """The cast range of each segment."""
        return self.lengths + 1.0

    def clear(self, hit: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Which segments nothing blocks, from the cast's hit mask and
        distances of their rays."""
        return ~(hit & (dist < self.lengths - _EPS_LOS))


def line_of_sight(scene: Scene, starts, ends) -> np.ndarray:
    """Mask of the segments from starts to ends that nothing blocks, under
    the rule of SightLines.

    starts and ends: (n, 3) arrays, one row per segment; it takes any
    finite points and indexes no grid.  All segments go through one cast.
    """
    sight = SightLines.between(starts, ends)
    return sight.clear(*ray_cast_batch(scene, sight.starts, sight.dirs, sight.ranges))


def visible_point_indices(scene: Scene, apexes, candidate_mask) -> tuple[np.ndarray, np.ndarray]:
    """(viewer, point) index pairs of interest points that are front-facing
    and unoccluded, in viewer order, then point order.

    apexes: (m, 3) viewpoints, any finite points, as no grid is indexed;
    candidate_mask: (m, points) preselects points per viewer (normally the
    camera frustum test).  Each survivor is checked front-facing (its normal
    toward the apex) and for a clear segment from the apex to the point
    backed off along its normal.  A segment to an
    exposed point (Scene.exposed) from at least _EPS_BACKOFF above its
    tangent plane stays that high, so no primitive meets it short of its
    end plus _EPS_BACKOFF / 2, and it is clear without a cast; the segments
    of all other pairs go through one line_of_sight call.
    """
    viewer, idx = np.nonzero(np.atleast_2d(candidate_mask))
    apex = _rows(np.asarray(apexes, dtype=float).reshape(-1, 3), viewer)
    point, normal = _rows(scene.point_positions, idx), _rows(scene.point_normals, idx)
    height = np.einsum("nk,nk->n", normal, apex - point)
    facing = height > 0.0
    cast = facing & ~(_rows(scene.exposed, idx) & (height >= _EPS_BACKOFF))
    clear = facing & ~cast
    clear[cast] = line_of_sight(scene, _kept(cast, apex),
                                _kept(cast, point) + _kept(cast, normal) * _EPS_BACKOFF)
    return viewer[clear], idx[clear]


# --- ground-truth voxelization (used by the mission safety audit) ---

def _tri_box_overlap(v: np.ndarray, half: float) -> np.ndarray:
    """Separating-axis test of triangles against cubes of half-extent half.

    v: (n, 3, 3) triangle vertices relative to each cube's center.  Returns a
    bool per pair, True where the triangle meets the cube's interior: an axis
    along which the two only touch separates them.  A triangle lying in a
    face of the cube with its normal pointing out of the cube counts as
    inside, so a mesh in a voxel plane occupies the cells behind it, as a
    box face does.
    """
    e = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 1], v[:, 0] - v[:, 2]], axis=1)
    n = _cross(e[:, 0], e[:, 1])
    # (pairs, axis): the triangle lies in the cube's face on that axis, facing out
    on_face = np.all(v == half * np.sign(n)[:, None, :], axis=1) & (n != 0.0)
    lies = on_face.any(axis=1)
    overlap = np.ones(len(v), dtype=bool)
    # cross-product axes between box axes and triangle edges; for a triangle
    # in a face, those off the face's own axis are parallel to its normal
    for i in range(3):
        for j in range(3):
            a1, a2 = (j + 1) % 3, (j + 2) % 3
            ax1, ax2 = -e[:, i, a2], e[:, i, a1]
            p = v[:, :, a1] * ax1[:, None] + v[:, :, a2] * ax2[:, None]
            r = half * (np.abs(ax1) + np.abs(ax2))
            apart = (_min3(p) >= r) | (_max3(p) <= -r)
            overlap &= ~(apart & (r > 0.0) & (on_face[:, j] | ~lies))
    # box face normals; the three vertices of each pair as the last axis
    by_axis = v.transpose(0, 2, 1)
    apart = (_min3(by_axis) >= half) | (_max3(by_axis) <= -half)
    overlap &= ~np.any(apart & ~on_face, axis=1)
    # triangle plane; a degenerate triangle has none
    d = np.einsum("nk,nk->n", n, v[:, 0])
    r = half * np.abs(n).sum(axis=1)
    return overlap & ((np.abs(d) < r) | (r == 0.0) | lies)


def scene_occupancy(scene: Scene, grid: VoxelGrid) -> np.ndarray:
    """Boolean grid of voxels whose interior scene geometry meets.

    Touching contact does not count as overlap, so a box flush against a
    voxel boundary occupies only its own side, and a triangle with an edge
    or a vertex on a voxel face leaves the cell beyond it free.  A triangle
    lying in a voxel face occupies the cell behind it, opposite its normal.
    """
    occ = np.zeros(grid.dims, dtype=bool)
    dims = np.asarray(grid.dims)

    i_lo, i_hi = box_cells(grid, scene._box_lo, scene._box_hi, slack=1e-9)[:2]
    for (a, b, c), (d, e, f) in zip(np.clip(i_lo, 0, dims).tolist(),
                                    np.clip(i_hi, 0, dims).tolist()):
        occ[a:d, b:e, c:f] = True

    tris = scene.triangles
    if not len(tris):
        return occ
    # every triangle against each cell of its bounding range
    t_lo = np.maximum(np.floor(grid.near_coords(tris.min(axis=1)) - 1e-9).astype(int), 0)
    t_hi = np.minimum(np.floor(grid.near_coords(tris.max(axis=1)) + 1e-9).astype(int) + 1, dims)
    ext = np.maximum(t_hi - t_lo, 0)
    counts = ext.prod(axis=1)
    tri = np.repeat(np.arange(len(tris)), counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    ext = ext[tri]
    cells = t_lo[tri] + np.stack([k // (ext[:, 1] * ext[:, 2]),
                                  k // ext[:, 2] % ext[:, 1],
                                  k % ext[:, 2]], axis=1)
    center = grid.centers(cells)
    hit = cells[_tri_box_overlap(tris[tri] - center[:, None, :], grid.voxel_size / 2.0)]
    occ[hit[:, 0], hit[:, 1], hit[:, 2]] = True
    return occ


FACES = ("x-", "x+", "y-", "y+", "z-", "z+")


def scatter_box_face_points(box: BoundingBox, count: int, seed: int, faces=FACES,
                            id_offset: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniformly scatter interest points over selected outer faces of a box.

    Sampling is area-weighted across the selected faces, which must be
    distinct and at least one, and fully determined by the seed.  The box
    may have any finite corners, as no grid is indexed, while the faces'
    total area is positive and finite.  count and seed are
    non-negative integers.  Returns the (ids, positions, normals) arrays that
    Scene takes: the points take the ids id_offset, id_offset + 1, ... in
    order, and their normals point outward.
    """
    check_value("scatter count", count, "non-negative integer")
    check_value("scatter seed", seed, "non-negative integer")
    if not len(faces):
        raise ConfigurationError("scatter faces must name at least one face")
    lo, hi = box.lo, box.hi
    # in Python floats, which overflow to inf without numpy's warning
    ext = [float(h) - float(l) for l, h in zip(box.min_corner, box.max_corner)]
    face_defs = {
        "x-": (0, lo[0], (-1.0, 0.0, 0.0), ext[1] * ext[2]),
        "x+": (0, hi[0], (1.0, 0.0, 0.0), ext[1] * ext[2]),
        "y-": (1, lo[1], (0.0, -1.0, 0.0), ext[0] * ext[2]),
        "y+": (1, hi[1], (0.0, 1.0, 0.0), ext[0] * ext[2]),
        "z-": (2, lo[2], (0.0, 0.0, -1.0), ext[0] * ext[1]),
        "z+": (2, hi[2], (0.0, 0.0, 1.0), ext[0] * ext[1]),
    }
    for k, f in enumerate(faces):
        if f not in face_defs:
            raise ConfigurationError(f"unknown face name {f!r}")
        if f in faces[:k]:
            raise ConfigurationError(f"face {f!r} is repeated in a scatter rule")
    chosen = [face_defs[f] for f in faces]
    total = sum(c[3] for c in chosen)
    if not 0.0 < total < math.inf:
        raise ConfigurationError(f"scatter faces {list(faces)} of box {box.min_corner}.."
                                 f"{box.max_corner} have area {total!r}, which must be "
                                 "positive and finite")
    areas = np.array([c[3] for c in chosen], dtype=float)
    ext = np.array(ext)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(chosen), size=count, p=areas / areas.sum())
    uv = rng.random((count, 2))
    axis = np.array([c[0] for c in chosen], dtype=int)[picks]
    rows = np.arange(count)
    p = np.empty((count, 3))
    p[rows, axis] = np.array([c[1] for c in chosen], dtype=float)[picks]
    # the two free axes, in ascending order, take the two uniform draws
    for j, other in enumerate(((axis == 0).astype(int), 2 - (axis == 2))):
        p[rows, other] = lo[other] + uv[:, j] * ext[other]
    normals = np.array([c[2] for c in chosen], dtype=float)[picks]
    return np.arange(id_offset, id_offset + count), p, normals
