"""Reference computations that the tests check the program against.

The spline a `SmoothPath` table samples, queried by a bounded scalar search
instead of the table; the clearance of one segment through the
segment-obstacle kernel; the length of a grid path, summed step by step.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from conexplore.world import INF, segment_gaps


def grid_path_cost(gp) -> float:
    """Length of the polyline through a GridPath's waypoints."""
    if len(gp.waypoints) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(gp.waypoints, axis=0), axis=1).sum())


def line_of_sight_clearance(qi, qj, obstacles) -> float:
    """Min distance from the segment qi-qj to any obstacle point (+inf if none)."""
    if obstacles.empty:
        return INF
    qa, qb = np.asarray([qi, qj], dtype=float)[:, None, :]
    return float(segment_gaps(qa, qb, obstacles.points)[2].min())


class SplineQuery:
    """The curve a SmoothPath's table samples, queried off the table.

    The natural cubic spline is rebuilt from the path's waypoints as
    `SmoothPath` builds it, and the table is checked to be its samples at
    uniform spline parameter u; arc length s maps to u through the table.
    Straight and single-point paths are exact lines and points.
    """

    def __init__(self, path):
        self.path = path
        self.spline = None
        if path.degenerate or path._straight:
            return
        wp = path.waypoints
        chord = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1))]
        self.spline = CubicSpline(chord, wp, axis=0, bc_type="natural")
        self.u = np.linspace(0.0, chord[-1], len(path._s))
        assert np.array_equal(self.spline(self.u), path._samples)

    def point_at(self, s: float) -> np.ndarray:
        path = self.path
        if path.degenerate:
            return path.start.copy()
        if self.spline is None:
            return path.start + np.clip(s, 0.0, path.total_length) * path._tan[0]
        return np.asarray(self.spline(np.interp(s, path._s, self.u)))

    def closest_point(self, q):
        """(point, s): the nearest table row, ties to the largest s, then a
        bounded scalar search for the squared distance over the spline
        between its two neighbour rows."""
        path = self.path
        q = np.asarray(q, dtype=float)
        if path.degenerate:
            return path.start.copy(), 0.0
        if self.spline is None:
            direction = path._tan[0]
            s = float(np.clip((q - path.start) @ direction, 0.0, path.total_length))
            return path.start + s * direction, s
        d = np.linalg.norm(path._samples - q, axis=1)
        k = int(np.nonzero(d <= d.min() + 1e-9)[0][-1])
        lo = self.u[max(0, k - 1)]
        hi = self.u[min(len(self.u) - 1, k + 1)]

        def dist2(u):
            return float(((self.spline(u) - q) ** 2).sum())

        u_best = minimize_scalar(dist2, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}).x
        # the bounded search can stall a hair inside its bracket
        u_best = min((float(u_best), lo, hi), key=dist2)
        return np.asarray(self.spline(u_best)), float(np.interp(u_best, self.u, path._s))
