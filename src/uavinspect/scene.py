"""Ground-truth world geometry: solid boxes, triangle meshes, interest points.

The scene is immutable after construction and safe for concurrent reads.  All
raycasting goes through one vectorized core so LiDAR bundles and occlusion
checks share identical intersection semantics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .world import BoundingBox, VoxelGrid

_EPS_T = 1e-9           # minimum hit distance, rejects self-intersection at the origin
_EPS_BARY = 1e-12       # barycentric slack, keeps triangle edges closed
_EPS_LOS = 1e-6         # slack when comparing a hit distance against segment length
_EPS_BACKOFF = 1e-3     # interest points are lifted off their surface by this much
_BINS = 4               # triangle bins per axis of the mesh's bounding box
_BIN_PAD = 1e-4         # bin boxes grow by this share of the mesh's largest extent
_RAY_CHUNK = 512        # rays per narrow-phase round; bounds the pair temporaries


@dataclass(frozen=True)
class InterestPoint:
    """Scored surface point with its outward normal."""

    id: int
    position: tuple[float, float, float]
    normal: tuple[float, float, float]


class Scene:
    """Static inspection world.

    triangles: (t, 3, 3) float array, one row of three vertices per triangle.
    solid_boxes: list of BoundingBox obstacles (the structure geometry).
    interest point arrays are index-aligned, and the package addresses a point
    by its row; the ids, unique but in any order, label points in the artifacts.
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
        self.inspection_boxes: list[BoundingBox] = list(inspection_boxes or [])

        points = list(interest_points or [])
        self.point_ids = np.array([p.id for p in points], dtype=int)
        ids = np.sort(self.point_ids)
        if np.any(ids[1:] == ids[:-1]):
            raise ConfigurationError("interest point ids are not unique")
        self.point_positions = np.array([p.position for p in points], dtype=float).reshape(-1, 3)
        normals = np.array([p.normal for p in points], dtype=float).reshape(-1, 3)
        if len(normals):
            norms = np.linalg.norm(normals, axis=1)
            if np.any(norms < 1e-12):
                raise ConfigurationError("interest point with zero-length normal")
            normals = normals / norms[:, None]
        self.point_normals = normals

        if len(points) and self.inspection_boxes:
            outside = [
                p.id for p in points
                if not any(b.contains(p.position) for b in self.inspection_boxes)
            ]
            if outside:
                warnings.warn(
                    f"{len(outside)} interest point(s) lie outside every inspection box",
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
        self._tri_e1 = self.triangles[:, 1] - self._tri_v0
        self._tri_e2 = self.triangles[:, 2] - self._tri_v0
        (self._bin_lo, self._bin_hi, self._bin_offsets,
         self._bin_tris) = _bin_triangles(self.triangles)

    @property
    def num_points(self) -> int:
        return len(self.point_ids)


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


def ray_cast_batch(scene: Scene, origin, dirs: np.ndarray,
                   max_range) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-hit distances for a bundle of rays.

    origin: (3,), shared by every ray, or (n, 3), one per ray; dirs: (n, 3)
    with unit directions; max_range: one range for every ray, or (n,), one
    per ray.  Returns (hit mask, distances); distance is inf where nothing
    was hit within the ray's range.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    origins = np.asarray(origin, dtype=float).reshape(-1, 3)
    if len(origins) not in (1, len(dirs)):
        raise ConfigurationError(
            f"{len(origins)} ray origins for {len(dirs)} rays; give one or one per ray")
    max_range = np.asarray(max_range, dtype=float)
    if max_range.shape not in ((), (len(dirs),)):
        raise ConfigurationError(
            f"max_range of shape {max_range.shape} for {len(dirs)} rays; give one or one per ray")
    max_range = np.broadcast_to(max_range, len(dirs))
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
            o = origins if len(origins) == 1 else origins[rows]
            ray, tri = _candidate_pairs(scene, o, inv_t[:, rows], max_range[rows])
            ray, t = _moller_trumbore(scene, o, dirs[rows], ray, tri, max_range[rows])
            np.minimum.at(best[rows], ray, t)                   # a view: writes into best

    hit = best <= max_range
    return hit, best


def _slabs(lo, hi, origins, inv_t):
    """Entry and exit distances, (boxes, rays), of rays through boxes.

    lo, hi: (boxes, 3) corners; origins: (1, 3), shared by every ray, or
    (rays, 3); inv_t: (3, rays), the reciprocal ray directions by axis.
    A ray parallel to an axis whose origin lies in a box face gives
    0 * inf = NaN on that axis, and both distances come out NaN.
    """
    tn = tf = None
    with np.errstate(invalid="ignore"):
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
    counts = np.diff(scene._bin_offsets)[b]
    firsts = np.cumsum(counts) - counts
    pos = np.arange(counts.sum()) + np.repeat(scene._bin_offsets[b] - firsts, counts)
    return np.repeat(ray, counts), scene._bin_tris[pos]


def _moller_trumbore(scene: Scene, origins, dirs, ray, tri, max_range):
    """Hits (ray index, distance) among candidate pairs, Moller-Trumbore.

    origins: (1, 3), shared by every ray, or (rays, 3).  A pair whose ray is
    parallel to the triangle's plane divides by 1 instead of by its
    near-zero determinant, and is dropped.  max_range: (rays,).
    """
    d = dirs[ray]
    e1, e2 = scene._tri_e1[tri], scene._tri_e2[tri]
    h = _cross(d, e2)
    a = np.einsum("pk,pk->p", e1, h)
    keep = np.abs(a) > _EPS_BARY
    f = 1.0 / np.where(keep, a, 1.0)
    s = (origins if len(origins) == 1 else origins[ray]) - scene._tri_v0[tri]
    q = _cross(s, e1)
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


def line_of_sight(scene: Scene, starts, ends) -> np.ndarray:
    """Mask of the segments from starts to ends that nothing blocks.

    starts and ends: (n, 3) arrays, or a (3,) point shared by every segment.
    Geometry within _EPS_LOS of a segment's far end does not block it, and a
    segment of zero length is clear.  All segments go through one cast.
    """
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    rel = np.asarray(ends, dtype=float).reshape(-1, 3) - starts
    lengths = np.linalg.norm(rel, axis=1)
    safe = np.where(lengths > 1e-12, lengths, 1.0)
    dirs = rel / safe[:, None]
    hit, dist = ray_cast_batch(scene, starts, dirs, lengths + 1.0)
    blocked = hit & (dist < lengths - _EPS_LOS)
    return ~blocked


def visible_point_indices(scene: Scene, apexes, candidate_mask) -> tuple[np.ndarray, np.ndarray]:
    """(viewer, point) index pairs of interest points that are front-facing
    and unoccluded, in viewer order, then point order.

    apexes: (m, 3) viewpoints; candidate_mask: (m, points) preselects points
    per viewer (normally the camera frustum test).  Each survivor is checked
    front-facing (its normal toward the apex) and for a clear segment from
    the apex to the point backed off along its normal; the segments of all
    viewers go through one line_of_sight call.
    """
    viewer, idx = np.nonzero(np.atleast_2d(candidate_mask))
    apex = np.asarray(apexes, dtype=float).reshape(-1, 3)[viewer]
    facing = np.einsum("nk,nk->n", scene.point_normals[idx],
                       apex - scene.point_positions[idx]) > 0.0
    viewer, idx, apex = viewer[facing], idx[facing], apex[facing]
    if len(idx) == 0:
        return viewer, idx
    targets = scene.point_positions[idx] + scene.point_normals[idx] * _EPS_BACKOFF
    clear = line_of_sight(scene, apex, targets)
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
            apart = (p.min(axis=1) >= r) | (p.max(axis=1) <= -r)
            overlap &= ~(apart & (r > 0.0) & (on_face[:, j] | ~lies))
    # box face normals
    apart = (v.min(axis=1) >= half) | (v.max(axis=1) <= -half)
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
    origin = grid.origin_arr
    v = grid.voxel_size
    dims = np.asarray(grid.dims)

    for box in scene.solid_boxes:
        i_lo = np.maximum(np.floor((box.lo - origin) / v + 1e-9).astype(int), 0)
        i_hi = np.minimum(np.ceil((box.hi - origin) / v - 1e-9).astype(int), dims)
        if np.any(i_hi <= i_lo):
            continue
        occ[i_lo[0]:i_hi[0], i_lo[1]:i_hi[1], i_lo[2]:i_hi[2]] = True

    tris = scene.triangles
    if not len(tris):
        return occ
    # every triangle against each cell of its bounding range
    t_lo = np.maximum(np.floor((tris.min(axis=1) - origin) / v - 1e-9).astype(int), 0)
    t_hi = np.minimum(np.floor((tris.max(axis=1) - origin) / v + 1e-9).astype(int) + 1, dims)
    ext = np.maximum(t_hi - t_lo, 0)
    counts = ext.prod(axis=1)
    tri = np.repeat(np.arange(len(tris)), counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    ext = ext[tri]
    cells = t_lo[tri] + np.stack([k // (ext[:, 1] * ext[:, 2]),
                                  k // ext[:, 2] % ext[:, 1],
                                  k % ext[:, 2]], axis=1)
    center = origin + (cells + 0.5) * v
    hit = cells[_tri_box_overlap(tris[tri] - center[:, None, :], v / 2.0)]
    occ[hit[:, 0], hit[:, 1], hit[:, 2]] = True
    return occ


FACES = ("x-", "x+", "y-", "y+", "z-", "z+")


def scatter_box_face_points(box: BoundingBox, count: int, seed: int, faces=FACES,
                            id_offset: int = 0) -> list[InterestPoint]:
    """Uniformly scatter interest points over selected outer faces of a box.

    Sampling is area-weighted across the selected faces and fully determined by
    the seed.  Normals point outward.
    """
    if count < 0:
        raise ConfigurationError("scatter count must be non-negative")
    lo, hi = box.lo, box.hi
    ext = hi - lo
    face_defs = {
        "x-": (0, lo[0], (-1.0, 0.0, 0.0), ext[1] * ext[2]),
        "x+": (0, hi[0], (1.0, 0.0, 0.0), ext[1] * ext[2]),
        "y-": (1, lo[1], (0.0, -1.0, 0.0), ext[0] * ext[2]),
        "y+": (1, hi[1], (0.0, 1.0, 0.0), ext[0] * ext[2]),
        "z-": (2, lo[2], (0.0, 0.0, -1.0), ext[0] * ext[1]),
        "z+": (2, hi[2], (0.0, 0.0, 1.0), ext[0] * ext[1]),
    }
    for f in faces:
        if f not in face_defs:
            raise ConfigurationError(f"unknown face name {f!r}")
    chosen = [face_defs[f] for f in faces]
    areas = np.array([c[3] for c in chosen], dtype=float)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(chosen), size=count, p=areas / areas.sum())
    uv = rng.random((count, 2))
    points = []
    for i in range(count):
        axis, coord, normal, _ = chosen[picks[i]]
        other = [a for a in range(3) if a != axis]
        p = np.zeros(3)
        p[axis] = coord
        p[other[0]] = lo[other[0]] + uv[i, 0] * ext[other[0]]
        p[other[1]] = lo[other[1]] + uv[i, 1] * ext[other[1]]
        points.append(InterestPoint(id_offset + i, tuple(p.tolist()), normal))
    return points
