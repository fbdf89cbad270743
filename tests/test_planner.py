import heapq

import numpy as np
import pytest

from conexplore.planner import (
    GridPath,
    NoPath,
    OccupiedEndpoint,
    SmoothPath,
    astar,
    path_kinematics,
    taper_factor,
)
from conexplore.world import ObstacleSet, rasterize
from oracles import SplineQuery, grid_path_cost

_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def dijkstra_cost(grid, start_cell, goal_cell):
    """Reference shortest-path cost on the same 26-connected grid."""
    dist = {start_cell: 0.0}
    heap = [(0.0, start_cell)]
    while heap:
        d, c = heapq.heappop(heap)
        if c == goal_cell:
            return d
        if d > dist.get(c, np.inf):
            continue
        for off in _OFFSETS:
            nb = (c[0] + off[0], c[1] + off[1], c[2] + off[2])
            if not grid.is_free(nb):
                continue
            nd = d + np.linalg.norm(off) * grid.cell_size
            if nd < dist.get(nb, np.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return None


def random_grid(rng, dims, fill):
    """Occupancy grid with random obstacles, unit cells at the origin."""
    pts = []
    for _ in range(fill):
        pts.append(rng.integers(0, dims, size=3) + 0.5)
    obs = ObstacleSet(np.asarray(pts, dtype=float) if pts else None)
    return rasterize(obs, ([0, 0, 0], list(dims)), 1.0)


class TestAstar:
    def test_same_cell(self):
        g = rasterize(ObstacleSet(), ([0, 0, 0], [5, 5, 5]), 1.0)
        gp = astar(g, [1.2, 1.2, 1.2], [1.4, 1.4, 1.4])
        assert len(gp) == 1
        assert grid_path_cost(gp) == 0.0

    def test_empty_grid_matches_dijkstra(self):
        g = rasterize(ObstacleSet(), ([0, 0, 0], [10, 10, 1]), 1.0)
        gp = astar(g, [0.5, 0.5, 0.5], [9.5, 9.5, 0.5])
        ref = dijkstra_cost(g, (0, 0, 0), (9, 9, 0))
        assert grid_path_cost(gp) == pytest.approx(ref, abs=1e-9)

    def test_enclosed_goal_raises(self):
        # hollow box shell two cells from the goal: goal cell stays free,
        # every surrounding cell is inflated into occupancy
        lo, hi, step = 2.5, 6.5, 0.5
        pts = []
        for axis in range(3):
            for plane in (lo, hi):
                uu, vv = np.meshgrid(
                    np.arange(lo, hi + step / 2, step),
                    np.arange(lo, hi + step / 2, step),
                )
                face = np.full((uu.size, 3), plane)
                face[:, (axis + 1) % 3] = uu.ravel()
                face[:, (axis + 2) % 3] = vv.ravel()
                pts.append(face)
        g = rasterize(ObstacleSet(np.vstack(pts)), ([0, 0, 0], [9, 9, 9]), 1.0)
        assert g.is_free(g.cell_of([4.5, 4.5, 4.5]))
        with pytest.raises(NoPath):
            astar(g, [0.5, 0.5, 0.5], [4.5, 4.5, 4.5])

    def test_occupied_endpoint_raises(self):
        g = rasterize(ObstacleSet([[0.5, 0.5, 0.5]]), ([0, 0, 0], [5, 5, 5]), 1.0)
        with pytest.raises(OccupiedEndpoint):
            astar(g, [0.5, 0.5, 0.5], [4.5, 4.5, 4.5])

    def test_waypoints_adjacent_and_free(self):
        rng = np.random.default_rng(1)
        g = random_grid(rng, (8, 8, 4), 30)
        start, goal = (0, 0, 0), (7, 7, 3)
        if not (g.is_free(start) and g.is_free(goal)):
            pytest.skip("blocked endpoints for this seed")
        gp = astar(g, g.center(start), g.center(goal))
        cells = [g.cell_of(w) for w in gp.waypoints]
        for a, b in zip(cells, cells[1:]):
            assert max(abs(a[i] - b[i]) for i in range(3)) == 1
        assert all(g.is_free(c) for c in cells)

    def test_random_grids_match_dijkstra(self):
        # optimality sweep, part of the acceptance gate at larger scale
        rng = np.random.default_rng(9)
        done = 0
        while done < 15:
            dims = tuple(int(d) for d in rng.integers(4, 9, size=3))
            g = random_grid(rng, dims, int(rng.integers(0, 25)))
            start = (0, 0, 0)
            goal = (dims[0] - 1, dims[1] - 1, dims[2] - 1)
            if not (g.is_free(start) and g.is_free(goal)):
                continue
            ref = dijkstra_cost(g, start, goal)
            if ref is None:
                with pytest.raises(NoPath):
                    astar(g, g.center(start), g.center(goal))
            else:
                gp = astar(g, g.center(start), g.center(goal))
                assert grid_path_cost(gp) == pytest.approx(ref, abs=1e-9)
            done += 1


class TestSmoothPath:
    def test_single_waypoint_degenerate(self):
        p = SmoothPath([[1.0, 2.0, 3.0]])
        assert p.degenerate
        assert p.total_length == 0.0
        pt, s = p.closest_point([9, 9, 9])
        assert np.array_equal(pt, [1, 2, 3]) and s == 0.0

    def test_collinear_is_straight(self):
        p = SmoothPath([[0, 0, 0], [1, 0, 0], [2, 0, 0], [5, 0, 0]])
        assert p.total_length == pytest.approx(5.0)
        # at unit cruise speed the path velocity is the tangent and the
        # acceleration the curvature vector
        tan, curv = path_kinematics(p, 2.5, v_cruise=1.0)
        assert np.allclose(tan, [1, 0, 0])
        assert np.allclose(curv, 0.0)

    def test_endpoints_interpolated(self):
        wp = [[0, 0, 0], [1, 1, 0], [2, 0, 0], [3, 1, 0]]
        p = SmoothPath(wp)
        assert np.allclose(p.start, wp[0])
        assert np.allclose(p.target, wp[-1])

    def test_l_shape_deviation_bounded(self):
        # corner cutting must stay within one grid cell of the waypoints
        wp = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0], [2, 2, 0]], dtype=float)
        p = SmoothPath(wp)
        R_grid = 1.0
        for w in wp:
            d = np.linalg.norm(p._samples - w, axis=1).min()
            assert d <= R_grid

    def test_closest_point_within_table_bound_of_spline(self):
        # the table samples the spline at uniform spline parameter; the kernel
        # returns a point on a chord between rows.  A chord of length h on a
        # curve of curvature <= kappa lies within kappa h^2 / 8 of it, and the
        # parabola's vertex, exact for equally spaced rows on a line, moves
        # along the chord by the same order, so the distance to q is within
        # kappa h^2 / 4 of the spline's.  When the nearest row is an end row
        # nothing is refined, and that row is within h / 2 of the nearest point.
        rng = np.random.default_rng(4)
        paths = [
            SmoothPath([[0, 0, 0], [1, 0.5, 0], [2, 0, 0]]),
            SmoothPath(np.cumsum(rng.random((6, 3)) + 0.2, axis=0), sample_step=0.02),
            SmoothPath(np.cumsum(rng.normal(size=(5, 3)), axis=0), sample_step=0.05),
            SmoothPath(np.cumsum(rng.normal(size=(7, 3)), axis=0), sample_step=0.05),
        ]
        for p in paths:
            oracle = SplineQuery(p)
            h = np.diff(p._s).max()
            kappa = np.linalg.norm(p._curv, axis=1).max()
            for scale in (0.0, 0.05, 0.5, 2.0):
                for _ in range(50):
                    q = oracle.point_at(rng.random() * p.total_length) + rng.normal(scale=scale, size=3)
                    pt, s = p.closest_point(q)
                    ref, _ = oracle.closest_point(q)
                    bound = kappa * h**2 / 4 + (h / 2 if s in (p._s[0], p._s[-1]) else 0.0)
                    assert abs(np.linalg.norm(pt - q) - np.linalg.norm(ref - q)) <= bound

    def test_closest_point_on_path(self):
        # a probe on the spline is its own nearest point under the spline
        # query the kernel is checked against, and the kernel finds it within
        # the table bound kappa h^2 / 4
        p = SmoothPath([[0, 0, 0], [1, 0.5, 0], [2, 0, 0]])
        oracle = SplineQuery(p)
        probe = oracle.point_at(0.7)
        ref, _ = oracle.closest_point(probe)
        assert np.linalg.norm(ref - probe) < 1e-6
        pt, s = p.closest_point(probe)
        h = np.diff(p._s).max()
        kappa = np.linalg.norm(p._curv, axis=1).max()
        assert np.linalg.norm(pt - probe) <= kappa * h**2 / 4
        assert abs(s - 0.7) <= h

    def test_closest_point_matches_dense_sampling(self):
        # the spline query is never farther than the best table row; the
        # kernel is within the table bound of the spline query, so within
        # that bound of the best row
        rng = np.random.default_rng(4)
        wp = np.cumsum(rng.random((6, 3)) + 0.2, axis=0)
        p = SmoothPath(wp, sample_step=0.02)
        oracle = SplineQuery(p)
        h = np.diff(p._s).max()
        kappa = np.linalg.norm(p._curv, axis=1).max()
        for _ in range(20):
            q = rng.random(3) * 4
            dense = np.linalg.norm(p._samples - q, axis=1).min()
            ref, _ = oracle.closest_point(q)
            assert np.linalg.norm(ref - q) <= dense + 1e-6
            pt, s = p.closest_point(q)
            assert np.linalg.norm(pt - q) <= dense + 1e-6 + kappa * h**2 / 4

    def test_straight_segment_projection(self):
        p = SmoothPath([[0, 0, 0], [10, 0, 0]])
        pt, s = p.closest_point([3, 4, 0])
        assert np.allclose(pt, [3, 0, 0], atol=1e-9)
        assert s == pytest.approx(3.0, abs=1e-9)
        assert p.remaining_length(s) == pytest.approx(7.0, abs=1e-9)

    def test_tie_breaks_to_largest_arc_length(self):
        # U-shaped path; each probe sits equidistant from both legs.  Rounding
        # puts the exact row minimum on the first leg for x = 1.0 and 1.5
        wp = [[0, 0, 0], [4, 0, 0], [4, 2, 0], [0, 2, 0]]
        p = SmoothPath(wp)
        for x in (1.0, 1.5, 2.0):
            pt, s = p.closest_point([x, 1.0, 0.0])
            assert s > p.total_length / 2

    def test_remaining_length_bounds(self):
        p = SmoothPath([[0, 0, 0], [2, 0, 0]])
        assert p.remaining_length(0.0) == pytest.approx(2.0)
        assert p.remaining_length(p.total_length) == 0.0
        with pytest.raises(ValueError):
            p.remaining_length(99.0)

    def test_remaining_monotone_forward(self):
        p = SmoothPath([[0, 0, 0], [1, 1, 0], [2, 0, 1], [3, 2, 0]])
        ss = np.linspace(0, p.total_length, 50)
        rem = [p.remaining_length(s) for s in ss]
        assert all(a >= b - 1e-12 for a, b in zip(rem, rem[1:]))

    def test_track_frame_equals_closest_point(self):
        # one kernel: when the tracking window holds every row within 1e-9 m
        # of the nearest, the windowed query returns the global one bit for bit
        rng = np.random.default_rng(8)
        wp = np.cumsum(rng.random((6, 3)) + 0.3, axis=0)
        p = SmoothPath(wp, sample_step=0.05)
        oracle = SplineQuery(p)
        held = 0
        for s_true in np.linspace(0.1, p.total_length - 0.1, 60):
            q = oracle.point_at(s_true) + rng.normal(scale=0.05, size=3)
            s_hint = s_true + rng.uniform(-0.3, 0.3)
            d = np.linalg.norm(p._samples - q, axis=1)
            near = np.flatnonzero(d <= d.min() + 1e-9)
            lo = max(0, int(p._s.searchsorted(s_hint - 0.25)) - 1)
            hi = min(len(p._s) - 1, int(p._s.searchsorted(s_hint + 0.25)) + 1)
            if not (lo <= near[0] and near[-1] <= hi):
                continue
            held += 1
            pt, s, _, _ = p.track_frame(q, s_hint, 0.25, 1.0, 1.0)
            pt_ref, s_ref = p.closest_point(q)
            assert np.array_equal(pt, pt_ref) and s == s_ref
        assert held >= 40


class TestKinematics:
    def test_straight_segment(self):
        p = SmoothPath([[0, 0, 0], [10, 0, 0]])
        v, a = path_kinematics(p, 4.0, v_cruise=1.5)
        assert np.allclose(v, [1.5, 0, 0])
        assert np.allclose(a, 0.0)

    def test_circle_centripetal(self):
        r = 3.0
        th = np.linspace(0, np.pi, 40)
        wp = np.stack([r * np.cos(th), r * np.sin(th), np.zeros_like(th)], axis=1)
        p = SmoothPath(wp, sample_step=0.01)
        v, a = path_kinematics(p, p.total_length / 2, v_cruise=2.0)
        assert np.linalg.norm(v) == pytest.approx(2.0, rel=1e-6)
        assert np.linalg.norm(a) == pytest.approx(4.0 / r, rel=0.02)
        # acceleration points toward the circle center
        pt = SplineQuery(p).point_at(p.total_length / 2)
        toward = -pt / np.linalg.norm(pt)
        assert a @ toward > 0.9 * np.linalg.norm(a)

    def test_unit_speed_away_from_taper(self):
        rng = np.random.default_rng(2)
        wp = np.cumsum(rng.random((5, 3)) + 0.3, axis=0)
        p = SmoothPath(wp)
        for s in np.linspace(0, p.total_length - 2.0, 10):
            v, _ = path_kinematics(p, s, v_cruise=1.2, taper_len=1.5)
            assert np.linalg.norm(v) == pytest.approx(1.2, abs=1e-9)

    def test_terminal_taper_reaches_zero(self):
        p = SmoothPath([[0, 0, 0], [10, 0, 0]])
        v_end, _ = path_kinematics(p, p.total_length, v_cruise=1.0, taper_len=1.8)
        assert np.linalg.norm(v_end) == 0.0
        v_mid, _ = path_kinematics(p, p.total_length - 0.9, v_cruise=1.0, taper_len=1.8)
        assert np.linalg.norm(v_mid) == pytest.approx(0.5, abs=1e-9)

    def test_taper_factor_profile(self):
        f0, d0 = taper_factor(2.0, 1.0)
        assert (f0, d0) == (1.0, 0.0)
        f1, _ = taper_factor(0.0, 1.0)
        assert f1 == 0.0
        f2, d2 = taper_factor(0.5, 1.0)
        assert f2 == pytest.approx(0.5)
        assert d2 < 0.0

    def test_invalid_cruise_speed(self):
        p = SmoothPath([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            path_kinematics(p, 0.0, v_cruise=0.0)

    def test_gridpath_cost(self):
        gp = GridPath([[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        assert grid_path_cost(gp) == pytest.approx(2.0)
