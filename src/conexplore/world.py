"""Static 3D world: obstacle point cloud, sensing model, occupancy grid."""

from __future__ import annotations

import math
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


def segment_gap(a, b, p):
    """segment_gaps on Python floats for the segment a-b (u = b - a) and the
    point p, 3-sequences: (t, gap, d) with segment_gaps' bits, gap a list."""
    u = [b[0] - a[0], b[1] - a[1], b[2] - a[2]]
    uu = max(0.0 + u[0] * u[0] + u[1] * u[1] + u[2] * u[2], 1e-300)
    wx, wy, wz = p[0] - a[0], p[1] - a[1], p[2] - a[2]
    t = (0.0 + wx * u[0] + wy * u[1] + wz * u[2]) / uu
    t = 0.0 if t < 0.0 else t  # np.maximum(0, t) keeps t on a tie, so -0.0 stays
    t = 1.0 if t > 1.0 else t
    gap = [t * u[0] - wx, t * u[1] - wy, t * u[2] - wz]
    return t, gap, math.sqrt(0.0 + gap[0] * gap[0] + gap[1] * gap[1] + gap[2] * gap[2])


class ObstacleView:
    """Per-pair obstacle lists on a Verlet skin, shared by the whole team.

    At a renewal, every pair within R_s + 2 SKIN keeps the obstacle points
    within R_o_outer + SKIN of its segment, ascending in that reference
    distance d0 and then in point index.  A robot i that has moved delta_i
    from its reference position moves every point of a segment i-j by at
    most max(delta_i, delta_j), so while no robot has moved more than SKIN
    (the lists renew together once one has), a list holds every point that
    can come within R_o_outer of its segment, and a point's distance is at
    least d0 - max(delta_i, delta_j) (Verlet, Phys. Rev. 159, 98, 1967).
    MARGIN covers the rounding of the distances and of delta.
    """

    SKIN = 0.3  # m a robot may move from its reference position before the lists renew
    MARGIN = 1e-9  # m

    def __init__(self, obstacles: ObstacleSet, p: SensingParams):
        self.obstacles = obstacles
        self.p = p
        self._ref = None  # each robot's position at the last renewal, as a float row
        self._lists = []  # (i, j, [(d0, point index, point), ...]) of each pair i < j with a point

    def _renew(self, q):
        pts = self.obstacles.points
        w = q[:, None, :] - pts[None, :, :]
        reach = np.sqrt(np.add.reduce(w * w, axis=2))  # (N, M) robot-point distances
        i, j = np.triu_indices(len(q), 1)
        u = q[j] - q[i]
        uu = np.maximum(np.add.reduce(u * u, axis=1, initial=0.0), 1e-300)
        length = np.sqrt(uu)
        near = length <= self.p.R_s + 2.0 * self.SKIN + self.MARGIN
        i, j, u, uu, length = i[near], j[near], u[near], uu[near], length[near]
        r = self.p.R_o_outer + self.SKIN + self.MARGIN
        # a point within r of segment i-j lies within d_ij + 2r summed over both ends
        pair, k = np.nonzero(reach[i] + reach[j] <= (length + 2.0 * r)[:, None])
        d0 = segment_gaps(q[i[pair]].T, u[pair].T, uu[pair], pts[k].T)[2]
        keep = d0 <= r
        pair, k, d0 = pair[keep], k[keep], d0[keep]
        order = np.lexsort((d0, pair))  # stable: the point index ascends on a tie
        pair, k, d0 = pair[order], k[order], d0[order]
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        rows = list(zip(d0.tolist(), k.tolist(), pts[k].tolist()))
        ends = zip(i[pair[first]].tolist(), j[pair[first]].tolist(), first.tolist(), first[1:].tolist() + [len(rows)])
        self._lists = [(a, b, rows[m:e]) for a, b, m, e in ends]
        self._ref = q.tolist()

    def nearest(self, q, linked, limit, reach):
        """For each pair i < j with linked[i, j], the listed point nearest the
        segment q[i]-q[j] among those within reach of an end, where it is
        nearer than limit (at most R_o_outer): [(i, j, d, t, gap)] as
        segment_gap gives them.  On a tie the lower point index wins, as
        argmin over all points picks."""
        rows = q.tolist()
        delta = [math.dist(a, b) for a, b in zip(rows, self._ref)] if self._ref else None
        if delta is None or max(delta) > self.SKIN:
            self._renew(q)
            delta = [0.0] * len(rows)
        reach2 = reach**2
        out = []
        for i, j, listed in self._lists:
            slack = max(delta[i], delta[j]) + self.MARGIN
            if listed[0][0] - slack >= limit or not linked[i, j]:
                continue
            a, b = rows[i], rows[j]
            best, hit = limit, None
            for d0, k, pt in listed:
                if d0 - slack > best:
                    break  # nor can any later point, which starts farther away
                x, y, z = pt[0] - a[0], pt[1] - a[1], pt[2] - a[2]
                if 0.0 + x * x + y * y + z * z > reach2:
                    x, y, z = pt[0] - b[0], pt[1] - b[1], pt[2] - b[2]
                    if 0.0 + x * x + y * y + z * z > reach2:
                        continue
                t, gap, d = segment_gap(a, b, pt)
                if d < best or (d == best and hit is not None and k < hit[0]):
                    best, hit = d, (k, t, gap)
            if hit is not None:
                out.append((i, j, best, hit[1], hit[2]))
        return out


def adjacency(positions, obstacles: ObstacleSet, p: SensingParams, view: ObstacleView | None = None) -> np.ndarray:
    """Boolean N x N neighbor matrix: range strictly < R_s and clearance >= R_o,
    from view's obstacle lists (a fresh view at the positions without one)."""
    q = np.asarray(positions, dtype=float)
    dist = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=2)
    adj = dist < p.R_s
    np.fill_diagonal(adj, False)
    if not obstacles.empty:
        view = ObstacleView(obstacles, p) if view is None else view
        for i, j, *_ in view.nearest(q, adj, p.R_o, INF):
            adj[i, j] = adj[j, i] = False
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
