"""Grid A* planning and smooth arc-length-parameterized paths."""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math

import numpy as np
from scipy.interpolate import CubicSpline

from .world import OccupancyGrid


class NoPath(Exception):
    """Goal unreachable on the occupancy grid."""


class OccupiedEndpoint(Exception):
    """Start or goal maps to an occupied cell."""


_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]
_OFFSET_COSTS = {o: float(np.linalg.norm(o)) for o in _OFFSETS}


class GridPath:
    """Ordered cell-center waypoints along a 26-connected grid path."""

    def __init__(self, waypoints):
        self.waypoints = np.asarray(waypoints, dtype=float).reshape(-1, 3)

    def __len__(self):
        return len(self.waypoints)


def astar(grid: OccupancyGrid, start, goal) -> GridPath:
    """Shortest cell path under Euclidean step costs with Euclidean heuristic."""
    sc = grid.cell_of(start)
    gc = grid.cell_of(goal)
    for c, name in ((sc, "start"), (gc, "goal")):
        if not grid.in_bounds(c) or not grid.is_free(c):
            raise OccupiedEndpoint(f"{name} cell {c} is occupied or out of bounds")
    if sc == gc:
        return GridPath([grid.center(sc)])

    cell = grid.cell_size
    goal_arr = np.asarray(gc, dtype=float)

    def h(c):
        return float(np.linalg.norm((np.asarray(c, dtype=float) - goal_arr))) * cell

    counter = itertools.count()
    open_heap = [(h(sc), 0.0, next(counter), sc)]
    gscore = {sc: 0.0}
    came = {}
    closed = set()
    while open_heap:
        _, g, _, c = heapq.heappop(open_heap)
        if c in closed:
            continue
        if c == gc:
            cells = [c]
            while c in came:
                c = came[c]
                cells.append(c)
            cells.reverse()
            return GridPath([grid.center(x) for x in cells])
        closed.add(c)
        for off in _OFFSETS:
            nb = (c[0] + off[0], c[1] + off[1], c[2] + off[2])
            if nb in closed or not grid.is_free(nb):
                continue
            ng = g + _OFFSET_COSTS[off] * cell
            if ng < gscore.get(nb, np.inf):
                gscore[nb] = ng
                came[nb] = c
                heapq.heappush(open_heap, (ng + h(nb), ng, next(counter), nb))
    raise NoPath(f"no path from cell {sc} to cell {gc}")


def _collinear(waypoints, tol=1e-12) -> bool:
    w = waypoints
    if len(w) <= 2:
        return True
    d = w[-1] - w[0]
    n = np.linalg.norm(d)
    if n == 0:
        return False
    d = d / n
    rel = w[1:-1] - w[0]
    cross = np.cross(rel, d)
    return bool(np.all(np.linalg.norm(cross, axis=1) < tol * max(1.0, n)))


class SmoothPath:
    """C2 arc-length-parameterized curve from start to target.

    Built by interpolating grid waypoints with a natural cubic spline
    (straight segment and single-point cases handled exactly).  Dense sample
    tables back the closest-point, length, and kinematics queries.
    """

    def __init__(self, waypoints, sample_step=0.02):
        wp = np.asarray(waypoints, dtype=float).reshape(-1, 3)
        if len(wp) == 0:
            raise ValueError("need at least one waypoint")
        # drop consecutive duplicates
        if len(wp) > 1:
            keep = np.ones(len(wp), dtype=bool)
            keep[1:] = np.linalg.norm(np.diff(wp, axis=0), axis=1) > 1e-12
            wp = wp[keep]
        self.waypoints = wp
        self.start = wp[0].copy()
        self.target = wp[-1].copy()
        self._straight = False

        if len(wp) == 1:
            self._samples = wp.copy()
            self._s = np.zeros(1)
            self._tan = np.zeros((1, 3))
            self._curv = np.zeros((1, 3))
            self.total_length = 0.0
            return

        if len(wp) == 2 or _collinear(wp):
            chord = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1))]
            total = chord[-1]
            m = max(2, int(np.ceil(total / sample_step)) + 1)
            u = np.linspace(0.0, total, m)
            direction = (wp[-1] - wp[0]) / total
            pts = wp[0] + u[:, None] * direction
            self._samples = pts
            self._s = u.copy()
            self._tan = np.tile(direction, (m, 1))
            self._curv = np.zeros((m, 3))
            self.total_length = float(total)
            self._straight = True
            return

        chord = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1))]
        spline = CubicSpline(chord, wp, axis=0, bc_type="natural")
        m = max(16, int(np.ceil(chord[-1] / sample_step)) + 1)
        u = np.linspace(0.0, chord[-1], m)
        pts = spline(u)
        d1 = spline(u, 1)
        d2 = spline(u, 2)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        s = np.r_[0.0, np.cumsum(seg)]
        speed = np.linalg.norm(d1, axis=1)
        speed = np.where(speed == 0, 1.0, speed)
        tan = d1 / speed[:, None]
        # curvature vector: dT/ds
        proj = (d1 * d2).sum(axis=1) / speed**2
        curv = (d2 - d1 * proj[:, None]) / speed[:, None] ** 2
        self._samples = pts
        self._s = s
        self._tan = tan
        self._curv = curv
        self.total_length = float(s[-1])

    # -- queries ---------------------------------------------------------

    @property
    def degenerate(self) -> bool:
        return self.total_length == 0.0

    def _nearest(self, q, lo: int, hi: int):
        """Closest point to q among table rows lo..hi; returns (point as a 3-list, s).

        Straight paths project exactly.  Otherwise the nearest row k is
        refined by the parabola through the squared distances of rows k - 1,
        k and k + 1, so accuracy is bounded by the table spacing.  Rows within
        1e-9 m of the nearest break the tie to the largest s.
        """
        if self.degenerate:
            return self.start.tolist(), 0.0
        if self._straight:
            q = np.asarray(q, dtype=float)
            direction = self._tan[0]
            s = float(np.clip((q - self.start) @ direction, 0.0, self.total_length))
            return (self.start + s * direction).tolist(), s
        s_rows, _, _, rows = self._table
        if hi - lo < 24:
            # a tracking window: float sums of squares beat numpy's fixed cost,
            # and add x, y, z from the left as numpy's row sums do
            x, y, z = q
            d2 = [(a - x) * (a - x) + (b - y) * (b - y) + (c - z) * (c - z) for a, b, c in rows[lo : hi + 1]]
        else:
            d = self._samples[lo : hi + 1] - q
            d2 = np.add.reduce(d * d, axis=1).tolist()
        dmin2 = min(d2)
        tie = max(dmin2, (math.sqrt(dmin2) + 1e-9) ** 2)
        k_rel = len(d2) - 1
        while d2[k_rel] > tie:
            k_rel -= 1
        k = lo + k_rel
        if 0 < k < len(s_rows) - 1:
            if 0 < k_rel < hi - lo:
                a, b, c = d2[k_rel - 1 : k_rel + 2]
            else:
                a = float(((self._samples[k - 1] - q) ** 2).sum())
                b = float(((self._samples[k] - q) ** 2).sum())
                c = float(((self._samples[k + 1] - q) ** 2).sum())
            denom = a - 2.0 * b + c
            # min(1.0, max(-1.0, off)), with its verdict on ties and NaN
            off = 0.0 if denom <= 1e-18 else 0.5 * (a - c) / denom
            off = off if off > -1.0 else -1.0
            off = off if off < 1.0 else 1.0
            if off >= 0.0:
                i0, w = k, off
            else:
                i0, w = k - 1, 1.0 + off
            u, a, b = 1.0 - w, rows[i0], rows[i0 + 1]
            p = [u * a[0] + w * b[0], u * a[1] + w * b[1], u * a[2] + w * b[2]]
            return p, u * s_rows[i0] + w * s_rows[i0 + 1]
        return rows[k][:], s_rows[k]

    def closest_point(self, q):
        """Closest point to q on the whole path; returns (point, s)."""
        p, s = self._nearest(q, 0, len(self._s) - 1)
        return np.array(p), s

    def track_frame(self, q, s_hint: float, window: float, v_cruise: float, taper_len: float):
        """Fused high-rate query: closest point within window of s_hint plus
        virtual-point kinematics at that point.  Returns (q_gamma, s, v_gamma,
        a_gamma), the vectors as 3-lists."""
        s_rows = self._table[0]
        lo = max(0, bisect.bisect_left(s_rows, s_hint - window) - 1)
        hi = min(len(s_rows) - 1, bisect.bisect_left(s_rows, s_hint + window) + 1)
        p, s = self._nearest(q, lo, hi)
        v, a = path_kinematics(self, s, v_cruise, taper_len)
        return p, s, v, a

    def remaining_length(self, s: float) -> float:
        if s < -1e-9 or s > self.total_length + 1e-9:
            raise ValueError(f"arc length {s} outside [0, {self.total_length}]")
        return max(0.0, self.total_length - s)

    @functools.cached_property
    def _table(self):
        """The s, tangent, curvature and sample columns as Python lists, for
        the per-tick scalar queries."""
        return self._s.tolist(), self._tan.tolist(), self._curv.tolist(), self._samples.tolist()

    def _tangent_curvature(self, s: float):
        """(unit tangent, curvature vector) at s in [0, total_length], weighted
        between the table rows i - 1 and i around s, as 3-lists; the norm sums
        x, y, z from the left, as numpy sums a row."""
        s_rows, tan, curv, _ = self._table
        i = min(max(bisect.bisect_left(s_rows, s), 1), len(s_rows) - 1)
        s0, s1 = s_rows[i - 1], s_rows[i]
        w = 0.0 if s1 == s0 else (s - s0) / (s1 - s0)
        u = 1.0 - w
        a, b = tan[i - 1], tan[i]
        t = [u * a[0] + w * b[0], u * a[1] + w * b[1], u * a[2] + w * b[2]]
        nt = math.sqrt(t[0] * t[0] + t[1] * t[1] + t[2] * t[2])
        if nt > 0:
            t = [t[0] / nt, t[1] / nt, t[2] / nt]
        a, b = curv[i - 1], curv[i]
        return t, [u * a[0] + w * b[0], u * a[1] + w * b[1], u * a[2] + w * b[2]]


def taper_factor(remaining: float, taper_len: float):
    """Speed scale in [0, 1]: 1 until the last taper_len of path, 0 at the end.

    Returns (factor, d factor / d s).
    """
    if taper_len <= 0 or remaining >= taper_len:
        return 1.0, 0.0
    if remaining <= 0:
        return 0.0, 0.0
    f = 0.5 - 0.5 * np.cos(np.pi * remaining / taper_len)
    # d remaining / d s = -1
    dfds = -0.5 * np.pi / taper_len * np.sin(np.pi * remaining / taper_len)
    return float(f), float(dfds)


def path_kinematics(path: SmoothPath, s: float, v_cruise: float, taper_len: float = 0.0):
    """Velocity and acceleration of a virtual point at arc length s, as 3-lists.

    Tangential speed is v_cruise, tapered to zero over the final taper_len of
    arc length; acceleration combines the centripetal term with the taper's
    tangential deceleration.
    """
    if v_cruise <= 0:
        raise ValueError("v_cruise must be positive")
    if path.degenerate:
        return [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
    s = min(max(s, 0.0), path.total_length)
    tan, curv = path._tangent_curvature(s)
    remaining = path.total_length - s
    f, dfds = taper_factor(remaining, taper_len)
    speed = v_cruise * f
    c = speed * speed  # the centripetal and the tangential scale
    t = v_cruise * dfds * speed
    return [speed * tan[0], speed * tan[1], speed * tan[2]], [
        c * curv[0] + t * tan[0], c * curv[1] + t * tan[1], c * curv[2] + t * tan[2]
    ]
