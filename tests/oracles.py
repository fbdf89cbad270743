"""Reference computations that the tests check the program against.

The spline a `SmoothPath` table samples, queried by a bounded scalar search
instead of the table; the segment-obstacle kernel over every (segment,
point) pair in (P, M, 3) arrays, and the clearance of one segment through
it; the length of a grid path, summed step by step; the control laws,
the path kinematics and the integration step on numpy arrays, as the
simulator ran them before its float port; the target sampler that tested
every block of candidates as arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from conexplore.behavior import AnchorViolation, ramp
from conexplore.dynamics import SimulationFault
from conexplore.harness import ScenarioError
from conexplore.planner import taper_factor
from conexplore.world import INF


def grid_path_cost(gp) -> float:
    """Length of the polyline through a GridPath's waypoints."""
    if len(gp.waypoints) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(gp.waypoints, axis=0), axis=1).sum())


def segment_gaps(qa, qb, points):
    """Closest approach of each segment qa[p]-qb[p] to each obstacle point.

    For P segments and M points returns (t, gap, d): the clamped segment
    parameter (P, M), the vector from the point to its closest segment point
    (P, M, 3) and that vector's length (P, M).
    """
    u = qb - qa
    uu = np.maximum((u * u).sum(axis=1), 1e-300)
    w = points[None, :, :] - qa[:, None, :]
    t = np.clip((w * u[:, None, :]).sum(axis=2) / uu[:, None], 0.0, 1.0)
    gap = t[:, :, None] * u[:, None, :] - w
    return t, gap, np.sqrt((gap * gap).sum(axis=2))


def line_of_sight_clearance(qi, qj, obstacles) -> float:
    """Min distance from the segment qi-qj to any obstacle point (+inf if none)."""
    if obstacles.empty:
        return INF
    qa, qb = np.asarray([qi, qj], dtype=float)[:, None, :]
    return float(segment_gaps(qa, qb, obstacles.points)[2].min())


# -- the control laws on numpy vectors ------------------------------------------


def saturate(f, f_max: float):
    """Norm-saturate a force vector."""
    f = np.asarray(f, dtype=float)
    n = math.sqrt(f.dot(f))
    return f if n <= f_max else f * (f_max / n)


def travel_force(q, v, frame, bp, f_max=np.inf):
    """PD + feedforward tracking force toward the path frame, norm-saturated."""
    q_gamma, v_gamma, a_gamma = (np.asarray(x, dtype=float) for x in frame)
    return saturate(a_gamma + bp.k_v * (v_gamma - v) + bp.k_p * (q_gamma - q), f_max)


def traveling_efficiency(q, v, frame, bp) -> float:
    """Tracking quality in [0, 1] from blended position/velocity error."""
    q_gamma, v_gamma, _ = (np.asarray(x, dtype=float) for x in frame)
    dv = v_gamma - v
    dq = q_gamma - q
    e = (1.0 - bp.alpha) * math.sqrt(dv.dot(dv)) + bp.alpha * math.sqrt(dq.dot(dq))
    return ramp(e, bp.x_c, bp.x_M)


def direction_alignment(x, y) -> float:
    """(1 + cos angle)/2 between two vectors; 1 if either is zero."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = math.sqrt(x.dot(x))
    ny = math.sqrt(y.dot(y))
    if nx == 0.0 or ny == 0.0:
        return 1.0
    c = x.dot(y) / (nx * ny)
    return 0.5 * (1.0 + max(-1.0, min(1.0, c)))


def anchor_force(q, z, R_z: float, k_z: float):
    """Barrier force confining q inside the R_z ball around z."""
    d = np.asarray(q, dtype=float) - np.asarray(z, dtype=float)
    ell = math.sqrt(d.dot(d))
    if ell >= R_z:
        raise AnchorViolation(f"distance {ell:.6g} >= R_z {R_z:.6g}")
    if ell == 0.0:
        return np.zeros(3)
    return -k_z * np.tan(ell * np.pi / (2.0 * R_z)) * d / ell


def integrate_step(q, v, f, bp, dt: float):
    """Semi-implicit Euler step of the (N, 3) arrays q and v under the total
    force f; returns (q, v, step), step being each robot's step length."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    f = np.asarray(f, dtype=float)
    if not math.isfinite(np.add.reduce(f, axis=None)):
        raise SimulationFault("non-finite force input")
    v_new = (v + (dt / bp.mass) * f) / (1.0 + dt * bp.damping / bp.mass)
    dq = dt * v_new
    return q + dq, v_new, np.sqrt(np.add.reduce(dq * dq, axis=1))


def path_kinematics(path, s: float, v_cruise: float, taper_len: float = 0.0):
    """Velocity and acceleration of a virtual point at arc length s, from the
    path's table arrays."""
    if path.degenerate:
        return np.zeros(3), np.zeros(3)
    s = min(max(s, 0.0), path.total_length)
    i = int(path._s.searchsorted(s))
    i = min(max(i, 1), len(path._s) - 1)
    s0, s1 = path._s[i - 1], path._s[i]
    w = 0.0 if s1 == s0 else (s - s0) / (s1 - s0)
    tan = (1.0 - w) * path._tan[i - 1] + w * path._tan[i]
    nt = np.sqrt((tan * tan).sum())
    if nt > 0:
        tan = tan / nt
    curv = (1.0 - w) * path._curv[i - 1] + w * path._curv[i]
    f, dfds = taper_factor(path.total_length - s, taper_len)
    speed = v_cruise * f
    return speed * tan, speed * speed * curv + (v_cruise * dfds) * speed * tan


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


# -- the target sampler on arrays ----------------------------------------------


def block_sample_targets(cfg, obstacles, grid, bounds, sensing, rng):
    """harness._sample_targets as it tested every block of candidates as
    arrays, before one-row blocks on an empty world were tested on floats.

    Rejection-sample one target list per explorer.

    A sample is accepted when it lies in the target region, its grid cell is
    free, it keeps R_o_outer clearance from obstacles, and it stays at least
    target_min_separation (default R_c_outer) away from every previously
    accepted target.

    Candidates are drawn and tested in blocks, yet the result is that of
    testing one `rng.random(3)` draw at a time: `Generator.random` fills a
    (k, 3) block row by row, so row r is the r-th single draw, and once a row
    is accepted the stream is rewound and advanced past that row only.  The
    block size starts at 1 for every target and grows 4x after each block
    without an accepted row, so it follows the rejection rate.
    """
    counts = cfg["explorer_target_counts"]
    min_sep = float(cfg.get("target_min_separation", sensing.R_c_outer))
    min_sep = max(min_sep, sensing.R_c_outer)
    region = cfg.get("target_region")
    if region is None:
        lo = np.asarray(bounds[0], dtype=float) + 1.0
        hi = np.asarray(bounds[1], dtype=float) - 1.0
    else:
        lo = np.asarray(region["min"], dtype=float)
        hi = np.asarray(region["max"], dtype=float)
    span = hi - lo
    # every candidate lies in [lo, lo + span], and cell_of is monotone, so an
    # unoccupied grid whose cells cover both corners can reject none of them
    check_cells = bool(grid.occupied.any()) or not (
        grid.is_free(grid.cell_of(lo)) and grid.is_free(grid.cell_of(lo + span))
    )
    accepted = np.empty((sum(counts), 3))

    def passing(z, n_acc):
        """Indices of the candidate rows of z that pass every test, ascending."""
        rows = np.arange(len(z))
        if check_cells:
            cells = np.floor((z - grid.origin) / grid.cell_size).astype(np.intp)
            rows = rows[((cells >= 0) & (cells < grid.dims)).all(axis=1)]
            rows = rows[~grid.occupied[tuple(cells[rows].T)]]
        if not obstacles.empty:
            rows = rows[obstacles.clearances(z[rows]) >= sensing.R_o_outer]
        if n_acc and len(rows):
            zr = z[rows] if len(rows) < len(z) else z
            gap = zr[:, None, :] - accepted[None, :n_acc, :]
            d = np.sqrt((gap * gap).sum(axis=2).min(axis=1))
            ok = d >= min_sep
            # rows within rounding of min_sep take the scalar test's verdict
            near = np.abs(d - min_sep) <= 1e-9 * min_sep
            if near.any():
                for j in np.flatnonzero(near):
                    ok[j] = min(np.linalg.norm(zr[j] - a) for a in accepted[:n_acc]) >= min_sep
            rows = rows[ok]
        return rows

    def draw_target(n_acc):
        """The next accepted candidate, or None after 2000 rejected ones."""
        left, k = 2000, 1
        while left:
            m = min(k, left)
            saved = rng.bit_generator.state if m > 1 else None
            z = lo + rng.random((m, 3)) * span
            hits = passing(z, n_acc)
            if len(hits):
                hit = hits[0]
                if hit + 1 < m:
                    rng.bit_generator.state = saved
                    rng.random((hit + 1, 3))
                return z[hit].copy()
            left -= m
            k *= 4
        return None

    # sequential rejection can corner itself near the packing limit, so a
    # failed set is discarded and resampled from the same stream
    for _restart in range(50):
        n_acc = 0
        per_robot = []
        for c in counts:
            lst = []
            for _ in range(c):
                z = draw_target(n_acc)
                if z is None:
                    break
                accepted[n_acc] = z
                n_acc += 1
                lst.append(z)
            if len(lst) < c:
                break
            per_robot.append(lst)
        else:
            return per_robot
    raise ScenarioError("target sampling failed: region too constrained")
