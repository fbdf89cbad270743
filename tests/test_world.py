import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conexplore.connectivity import WeightFactors
from conexplore.world import (
    ObstacleSet,
    ObstacleView,
    SensingParams,
    adjacency,
    rasterize,
    sample_box,
)
from oracles import line_of_sight_clearance

P = SensingParams(
    R_s=6.0, R_s_inner=2.5, R_o=0.75, R_o_outer=1.75, R_c=1.0, R_c_outer=2.5, R_m=4.0
)
# R_m < R_s/2 + R_o_outer: a point near the middle of a long segment may lie
# beyond R_m of both ends, so the R_m test changes factors
SHORT_SIGHT = dataclasses.replace(P, R_m=1.0)


def positions_strategy(n):
    coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    return st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n).map(np.array)


class TestSensingParams:
    def test_valid(self):
        assert P.R_s == 6.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"R_s_inner": 7.0},
            {"R_o": 2.0},
            {"R_c": 3.0},
            {"R_m": 0.5},
        ],
    )
    def test_invariant_violations_rejected(self, kw):
        base = dict(
            R_s=6.0, R_s_inner=2.5, R_o=0.75, R_o_outer=1.75, R_c=1.0, R_c_outer=2.5, R_m=4.0
        )
        base.update(kw)
        with pytest.raises(ValueError):
            SensingParams(**base)


class TestLineOfSightClearance:
    def test_empty_obstacles_gives_inf(self):
        assert line_of_sight_clearance((0, 0, 0), (2, 0, 0), ObstacleSet()) == np.inf

    def test_single_obstacle_offset_from_segment(self):
        # brute-force fine sampling oracle gives exactly 1.0 here
        obs = ObstacleSet([[1.0, 1.0, 0.0]])
        d = line_of_sight_clearance((0, 0, 0), (2, 0, 0), obs)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_obstacle_at_endpoint(self):
        obs = ObstacleSet([[0.0, 0.0, 0.0]])
        assert line_of_sight_clearance((0, 0, 0), (2, 0, 0), obs) == 0.0

    def test_brute_force_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            qi, qj = rng.random(3), rng.random(3) * 2
            pts = rng.random((7, 3)) * 2
            obs = ObstacleSet(pts)
            d = line_of_sight_clearance(qi, qj, obs)
            ss = np.linspace(0, 1, 20001)
            seg = qi + ss[:, None] * (qj - qi)
            brute = min(np.linalg.norm(seg - o, axis=1).min() for o in pts)
            assert d == pytest.approx(brute, abs=1e-6)

    @given(positions_strategy(2))
    @settings(max_examples=50, deadline=None)
    def test_swap_invariance_and_endpoint_bound(self, q):
        obs = ObstacleSet([[0.3, -0.2, 0.9], [1.5, 2.0, -1.0]])
        d1 = line_of_sight_clearance(q[0], q[1], obs)
        d2 = line_of_sight_clearance(q[1], q[0], obs)
        assert d1 == pytest.approx(d2, abs=1e-12)
        for o in obs.points:
            assert d1 <= np.linalg.norm(q[0] - o) + 1e-12
            assert d1 <= np.linalg.norm(q[1] - o) + 1e-12


class TestNeighbors:
    def test_at_exact_range_not_neighbors(self):
        q = np.array([[0, 0, 0], [P.R_s, 0, 0]], dtype=float)
        assert not adjacency(q, ObstacleSet(), P)[0].any()

    def test_half_range_neighbors(self):
        q = np.array([[0, 0, 0], [0.5 * P.R_s, 0, 0]])
        assert adjacency(q, ObstacleSet(), P)[0].tolist() == [False, True]

    def test_wall_blocks(self):
        # dense wall crossing the segment with clearance below R_o
        wall = sample_box([1.9, -2, -2], [2.1, 2, 2], 0.2)
        q = np.array([[0, 0, 0], [4, 0, 0]], dtype=float)
        assert not adjacency(q, ObstacleSet(wall), P)[0].any()

    @given(positions_strategy(5))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, q):
        obs = ObstacleSet([[0.0, 0.0, 0.0]])
        adj = adjacency(q, obs, P)
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_matches_brute_force_near_wall(self):
        # pairs out of range, visible pairs and blocked pairs all occur; each
        # edge must match the per-pair line-of-sight test
        obs = ObstacleSet(sample_box([1.9, -3, -3], [2.1, 3, 3], 0.3))
        rng = np.random.default_rng(7)
        seen = np.zeros(2, dtype=int)
        for _ in range(200):
            q = rng.uniform([-2.0, -3.0, -3.0], [6.0, 3.0, 3.0], size=(8, 3))
            adj = adjacency(q, obs, P)
            for i in range(8):
                for j in range(8):
                    in_range = i != j and np.linalg.norm(q[i] - q[j]) < P.R_s
                    visible = in_range and line_of_sight_clearance(q[i], q[j], obs) >= P.R_o
                    assert adj[i, j] == visible
                    seen += [in_range and not visible, visible]
        assert seen.min() > 100


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def check_view(q, obstacles, p, view):
    """The view-fed obstacle factors, W and adjacency at q against the brute
    force over every point, bit for bit."""
    wf = WeightFactors(q, obstacles, p, view)
    f, fd, g = oracles.obstacle_factors(q, wf.range_f > 0.0, obstacles, p)
    W = wf.range_f * f * np.outer(wf.P, wf.P)
    W.flat[:: len(q) + 1] = 0.0
    assert same_bits(wf.obst_f, f) and same_bits(wf.obst_d, fd) and same_bits(wf.obst_g, g)
    assert same_bits(wf.weight_matrix(), W)
    assert np.array_equal(adjacency(q, obstacles, p, view), oracles.adjacency(q, obstacles, p))
    return wf


class TestObstacleView:
    def test_segment_through_a_point(self):
        q = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        obs = ObstacleSet([[5.0, 5.0, 0.0], [1.0, 0.0, 0.0]])
        wf = check_view(q, obs, P, ObstacleView(obs, P))
        assert wf.obst_f[0, 1] == 0.0 and wf.weight_matrix()[0, 1] == 0.0
        assert not wf.obst_g.any()

    def test_zero_length_segment(self):
        q = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [4.0, 1.0, 1.0]])
        obs = ObstacleSet([[1.0, 2.5, 1.0], [1.0, 1.5, 1.0], [2.5, 1.0, 1.0]])
        linked = np.array([[False, True, True], [True, False, False], [True, False, False]])
        hits = ObstacleView(obs, P).nearest(q, linked, P.R_o_outer, P.R_m)
        t, gap, d = oracles.segment_gaps(q[[0, 0]], q[[1, 2]], obs.points)
        k = d.argmin(axis=1)
        assert [h[:2] for h in hits] == [(0, 1), (0, 2)]
        for r, (_i, _j, dh, th, gh) in enumerate(hits):
            assert same_bits([dh, th, *gh], [d[r, k[r]], t[r, k[r]], *gap[r, k[r]]])
        assert np.array_equal(adjacency(q, obs, P), oracles.adjacency(q, obs, P))

    def test_tie_goes_to_the_lower_point_index(self):
        # renewed where point 1 is nearer, then queried where both points are
        # at 1.0 from the segment: point 0 must win, as argmin over all points
        obs = ObstacleSet([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
        view = ObstacleView(obs, P)
        q0 = np.array([[0.0, 0.1, 0.0], [2.0, 0.1, 0.0]])
        linked = ~np.eye(2, dtype=bool)
        assert view.nearest(q0, linked, P.R_o_outer, P.R_m)[0][4] == [0.0, -0.9, 0.0]
        q = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        ((_i, _j, d, _t, gap),) = view.nearest(q, linked, P.R_o_outer, P.R_m)
        assert d == 1.0 and gap == [0.0, 1.0, 0.0]
        check_view(q, obs, P, view)

    @pytest.mark.parametrize("p", [P, SHORT_SIGHT], ids=["P", "short_sight"])
    def test_random_walk_between_renewals(self, p):
        # one view over a walk of small steps: pairs enter and leave range and
        # come near and off the wall between renewals, and every call matches
        # the brute force; with the short sight, the R_m test decides pairs
        rng = np.random.default_rng(30)
        obs = ObstacleSet(np.concatenate([sample_box([1.9, -3, -3], [2.1, 3, 3], 0.3), rng.uniform(-3, 7, (40, 3))]))
        view = ObstacleView(obs, p)
        renew = view._renew
        renewals = []
        view._renew = lambda q: renewals.append(1) or renew(q)
        q = rng.uniform([-2.0, -3.0, -3.0], [6.0, 3.0, 3.0], size=(6, 3))
        changed = off = unseen = 0
        in_range = None
        for _ in range(300):
            q = q + rng.normal(size=q.shape) * 0.04
            count = len(renewals)
            wf = check_view(q, obs, p, view)
            now = wf.range_f > 0.0
            changed += in_range is not None and len(renewals) == count and not np.array_equal(now, in_range)
            off += (wf.obst_f < 1.0).sum() // 2
            blind = oracles.obstacle_factors(q, now, obs, dataclasses.replace(p, R_m=np.inf))[0]
            unseen += (blind != wf.obst_f).sum() // 2
            in_range = now
        assert len(renewals) > 5 and changed > 5 and off > 100
        assert unseen > 100 if p is SHORT_SIGHT else unseen == 0


class TestRasterize:
    BOUNDS = ([0.0, 0.0, 0.0], [4.0, 4.0, 4.0])

    def test_empty_world_all_free(self):
        g = rasterize(ObstacleSet(), self.BOUNDS, 1.0)
        assert not g.occupied.any()
        assert g.dims == (4, 4, 4)

    def test_occupancy_ball_around_obstacle(self):
        g = rasterize(ObstacleSet([[1.5, 1.5, 1.5]]), self.BOUNDS, 1.0)
        for cell in np.ndindex(g.dims):
            expect = np.linalg.norm(g.center(cell) - [1.5, 1.5, 1.5]) <= 1.0
            assert g.occupied[cell] == expect

    def test_boundary_closed(self):
        # obstacle exactly R_grid from the center of cell (0,0,0)
        g = rasterize(ObstacleSet([[1.5, 0.5, 0.5]]), self.BOUNDS, 1.0)
        assert g.occupied[0, 0, 0]

    def test_idempotent(self):
        obs = ObstacleSet([[1.0, 2.0, 3.0]])
        a = rasterize(obs, self.BOUNDS, 0.5)
        b = rasterize(obs, self.BOUNDS, 0.5)
        assert np.array_equal(a.occupied, b.occupied)

    def test_monotone_in_obstacles(self):
        small = rasterize(ObstacleSet([[1.0, 1.0, 1.0]]), self.BOUNDS, 0.5)
        big = rasterize(ObstacleSet([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]), self.BOUNDS, 0.5)
        assert (big.occupied | small.occupied).sum() == big.occupied.sum()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            rasterize(ObstacleSet(), self.BOUNDS, 0.0)
        with pytest.raises(ValueError):
            rasterize(ObstacleSet(), ([0, 0, 0], [0, 1, 1]), 0.5)

    def test_nearest_free_cell(self):
        g = rasterize(ObstacleSet([[0.5, 0.5, 0.5]]), self.BOUNDS, 1.0)
        assert not g.is_free((0, 0, 0))
        c = g.nearest_free_cell([0.5, 0.5, 0.5])
        assert g.is_free(c)
