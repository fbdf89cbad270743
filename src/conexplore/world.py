"""Static 3D world: obstacle point cloud, sensing model, occupancy grid."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

INF = float("inf")


@dataclass(frozen=True)
class SensingParams:
    """Radii of the sensing / clearance model.

    R_s        max robot-sensing range
    R_s_inner  full-weight sensing plateau (< R_s)
    R_o        min obstacle clearance
    R_o_outer  full-weight obstacle plateau (> R_o)
    R_c        min inter-robot distance
    R_c_outer  full-weight inter-robot plateau (> R_c)
    R_m        obstacle-sensor range (> R_o)
    """

    R_s: float
    R_s_inner: float
    R_o: float
    R_o_outer: float
    R_c: float
    R_c_outer: float
    R_m: float

    def __post_init__(self):
        if not (0.0 < self.R_s_inner < self.R_s):
            raise ValueError("need 0 < R_s_inner < R_s")
        if not (0.0 < self.R_o < self.R_o_outer):
            raise ValueError("need 0 < R_o < R_o_outer")
        if not (0.0 < self.R_c < self.R_c_outer):
            raise ValueError("need 0 < R_c < R_c_outer")
        if not (self.R_o < self.R_m):
            raise ValueError("need R_o < R_m")


def sample_box(box_min, box_max, spacing: float) -> np.ndarray:
    """Fill an axis-aligned box with a regular point lattice (spacing <= given)."""
    lo = np.asarray(box_min, dtype=float)
    hi = np.asarray(box_max, dtype=float)
    axes = []
    for a in range(3):
        n = max(2, int(np.ceil((hi[a] - lo[a]) / spacing)) + 1)
        axes.append(np.linspace(lo[a], hi[a], n))
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([c.ravel() for c in g], axis=1)


class ObstacleSet:
    """Finite (possibly empty) obstacle point cloud."""

    def __init__(self, points=None):
        if points is None:
            pts = np.zeros((0, 3))
        else:
            pts = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("obstacle points must be finite")
        self.points = pts
        self._tree = cKDTree(pts) if len(pts) else None

    @classmethod
    def from_primitives(cls, points=None, boxes=(), spacing=0.25) -> "ObstacleSet":
        parts = []
        if points is not None and len(points):
            parts.append(np.asarray(points, dtype=float).reshape(-1, 3))
        for box in boxes:
            sp = box.get("spacing", spacing)
            parts.append(sample_box(box["min"], box["max"], sp))
        if parts:
            return cls(np.concatenate(parts, axis=0))
        return cls()

    def __len__(self):
        return len(self.points)

    @property
    def empty(self) -> bool:
        return len(self.points) == 0

    def clearance(self, q) -> float:
        """Distance from a point to the nearest obstacle (+inf if none)."""
        if self._tree is None:
            return INF
        d, _ = self._tree.query(np.asarray(q, dtype=float))
        return float(d)

    def clearances(self, points) -> np.ndarray:
        """Clearance of each row of points (+inf everywhere if no obstacles)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        if self._tree is None:
            return np.full(len(pts), INF)
        d, _ = self._tree.query(pts)
        return np.asarray(d, dtype=float)


def segment_gaps(a, u, uu, p):
    """Closest approach of a segment to an obstacle point, row by row.

    Component form: a, u and p are (3, C) arrays whose column c holds the
    segment start a, its direction u (the segment runs from a to a + u) and
    one point p; uu (C,) holds max(u . u, 1e-300).  Returns (t, gap, d): the
    clamped segment parameter (C,), the vector from the point to its closest
    segment point (3, C) and that vector's length (C,).  Each dot product
    adds its x, y and z terms to 0 in that order, as numpy sums a length-3
    row; the 0 decides the sign of a zero sum.
    """
    w = p - a
    # maximum(0, t) keeps t on a tie, so -0.0 stays -0.0 as under np.clip
    t = np.minimum(np.maximum(0.0, np.add.reduce(w * u, axis=0, initial=0.0) / uu), 1.0)
    gap = t * u - w
    return t, gap, np.sqrt(np.add.reduce(gap * gap, axis=0, initial=0.0))


def segment_candidates(obstacles: ObstacleSet, qa, qb, length, radius):
    """Every obstacle point that may lie within radius of a segment qa[s]-qb[s].

    A point that close to segment s lies within length[s]/2 + radius of its
    midpoint, so the KD-tree ball there holds all of them.  Returns (seg, pt,
    count): the segment and the point index of each candidate row, with the
    point indices ascending within a segment, and the rows per segment.
    """
    balls = obstacles._tree.query_ball_point(0.5 * (qa + qb), 0.5 * length + radius, return_sorted=True)
    count = np.fromiter(map(len, balls), np.intp, len(balls))
    pt = np.fromiter(itertools.chain.from_iterable(balls), np.intp, int(count.sum()))
    return np.repeat(np.arange(len(balls)), count), pt, count


def segment_rows(qa, qb, points, seg, pt):
    """The arguments (a, u, uu, p) of segment_gaps for the candidate rows (seg, pt)
    of the segments qa[s]-qb[s]."""
    u = (qb - qa).T
    uu = np.maximum(np.add.reduce(u * u, axis=0, initial=0.0), 1e-300)
    return (
        np.take(qa.T, seg, axis=1),
        np.take(u, seg, axis=1),
        np.take(uu, seg),
        np.take(points.T, pt, axis=1),
    )


def near_pairs(ii, jj, clear, dist, radius):
    """The pairs (ii, jj) whose segment may pass within radius of an obstacle.

    Every point of segment i-j lies within t*d_ij of q_i and (1-t)*d_ij of
    q_j, so its clearance is at least (c_i + c_j - d_ij)/2; pairs whose bound
    reaches radius cannot come closer and are dropped.
    """
    near = (clear[ii] + clear[jj] - dist[ii, jj]) / 2.0 < radius
    return ii[near], jj[near]


def adjacency(positions, obstacles: ObstacleSet, p: SensingParams) -> np.ndarray:
    """Boolean N x N neighbor matrix: range strictly < R_s and clearance >= R_o."""
    q = np.asarray(positions, dtype=float)
    dist = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=2)
    adj = dist < p.R_s
    np.fill_diagonal(adj, False)
    if not obstacles.empty:
        ii, jj = np.nonzero(np.triu(adj, 1))
        # the 1e-9 margin keeps a pair whose bound rounds onto R_o
        ii, jj = near_pairs(ii, jj, obstacles.clearances(q), dist, p.R_o + 1e-9)
        if len(ii):
            qa, qb = q[ii], q[jj]
            seg, pt, _ = segment_candidates(obstacles, qa, qb, dist[ii, jj], p.R_o + 1e-9)
            d = segment_gaps(*segment_rows(qa, qb, obstacles.points, seg, pt))[2]
            blocked = seg[d < p.R_o]
            adj[ii[blocked], jj[blocked]] = False
            adj[jj[blocked], ii[blocked]] = False
    return adj


@dataclass
class OccupancyGrid:
    """Regular 3D grid; a cell is occupied iff an obstacle lies within R_grid
    (closed ball) of its center."""

    origin: np.ndarray
    cell_size: float
    dims: tuple
    occupied: np.ndarray = field(repr=False)

    def cell_of(self, point) -> tuple:
        idx = np.floor((np.asarray(point, dtype=float) - self.origin) / self.cell_size)
        return tuple(int(v) for v in idx)

    def in_bounds(self, cell) -> bool:
        return all(0 <= c < d for c, d in zip(cell, self.dims))

    def center(self, cell) -> np.ndarray:
        return self.origin + (np.asarray(cell, dtype=float) + 0.5) * self.cell_size

    def is_free(self, cell) -> bool:
        return self.in_bounds(cell) and not self.occupied[cell]

    def nearest_free_cell(self, point, max_radius_cells: int = 3):
        """Free cell closest to point, searching a small neighborhood."""
        c0 = self.cell_of(point)
        if self.is_free(c0):
            return c0
        best = None
        best_d = INF
        r = max_radius_cells
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                for dz in range(-r, r + 1):
                    c = (c0[0] + dx, c0[1] + dy, c0[2] + dz)
                    if self.is_free(c):
                        d = float(np.linalg.norm(self.center(c) - point))
                        if d < best_d:
                            best, best_d = c, d
        return best


def rasterize(obstacles: ObstacleSet, bounds, R_grid: float) -> OccupancyGrid:
    """Discretize the bounding box into cells of size R_grid and mark occupancy."""
    if R_grid <= 0:
        raise ValueError("R_grid must be positive")
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("degenerate bounds")
    dims = tuple(int(np.ceil((hi[a] - lo[a]) / R_grid)) for a in range(3))
    occ = np.zeros(dims, dtype=bool)
    if not obstacles.empty:
        axes = [lo[a] + (np.arange(dims[a]) + 0.5) * R_grid for a in range(3)]
        g = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([c.ravel() for c in g], axis=1)
        occ = (obstacles.clearances(centers) <= R_grid).reshape(dims)
    return OccupancyGrid(origin=lo, cell_size=R_grid, dims=dims, occupied=occ)
