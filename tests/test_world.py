import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conexplore.world import (
    ObstacleSet,
    SensingParams,
    adjacency,
    rasterize,
    sample_box,
)
from oracles import line_of_sight_clearance

P = SensingParams(
    R_s=6.0, R_s_inner=2.5, R_o=0.75, R_o_outer=1.75, R_c=1.0, R_c_outer=2.5, R_m=4.0
)


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
        # pairs the clearance bound prunes, pairs it keeps and blocked pairs
        # all occur; each edge must match the per-pair line-of-sight test
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
