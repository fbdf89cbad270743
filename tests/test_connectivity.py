import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conexplore.connectivity import (
    ConnectivityParams,
    ConnectivityViolation,
    WeightFactors,
    connectivity_potential,
    evaluate_field,
    fiedler,
    lambda2_gradient,
    laplacian,
    ramp_down_pair,
    ramp_up_pair,
)
from conexplore.world import ObstacleSet, SensingParams

P = SensingParams(
    R_s=6.0, R_s_inner=2.5, R_o=0.75, R_o_outer=1.75, R_c=1.0, R_c_outer=2.5, R_m=4.0
)
CP = ConnectivityParams()
EMPTY = ObstacleSet()


def spread_positions(rng, n, scale=4.0):
    """Random positions kept mostly out of the collision floor."""
    while True:
        q = rng.random((n, 3)) * scale
        d = np.linalg.norm(q[:, None] - q[None], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() > P.R_c:
            return q


class TestRamps:
    def test_plateaus(self):
        assert ramp_down_pair(1.0, 2.5, 6.0)[0] == 1.0
        assert ramp_down_pair(6.0, 2.5, 6.0)[0] == 0.0
        assert ramp_up_pair(0.5, 1.0, 2.5)[0] == 0.0
        assert ramp_up_pair(3.0, 1.0, 2.5)[0] == 1.0

    def test_midpoint(self):
        assert ramp_down_pair(4.25, 2.5, 6.0)[0] == pytest.approx(0.5)


class TestEdgeWeight:
    @staticmethod
    def w01(q, obstacles=EMPTY):
        return WeightFactors(np.asarray(q, dtype=float), obstacles, P).weight_matrix()[0, 1]

    def test_zero_at_sensing_range(self):
        assert self.w01([[0, 0, 0], [6.0, 0, 0]]) == 0.0

    def test_zero_at_obstacle_floor(self):
        obs = ObstacleSet([[1.0, 0.75, 0.0]])
        assert self.w01([[0, 0, 0], [2.0, 0, 0]], obs) == pytest.approx(0.0, abs=1e-15)

    def test_plateau_gives_unit_weight_zero_gradient(self):
        # R_c_outer and R_s_inner plateaus touch exactly at 2.5
        f = WeightFactors(np.array([[0, 0, 0], [2.5, 0, 0]], dtype=float), EMPTY, P)
        assert f.weight_matrix()[0, 1] == 1.0
        assert f.range_d[0, 1] == 0.0 and f.coll_d[0, 1] == 0.0


class TestObstacleView:
    """The obstacle factor of a pair sees only points within R_m of either robot."""

    POINT = ObstacleSet([[2.5, 1.0, 0.0]])  # 1.0 from the segment, 2.69 from both ends

    @staticmethod
    def sensing(R_m):
        return SensingParams(
            R_s=6.0, R_s_inner=2.5, R_o=0.75, R_o_outer=1.75, R_c=1.0, R_c_outer=2.5, R_m=R_m
        )

    def test_point_outside_both_views_is_ignored(self):
        q = np.array([[0, 0, 0], [5.0, 0, 0]], dtype=float)
        assert WeightFactors(q, self.POINT, self.sensing(2.0)).obst_f[0, 1] == 1.0
        assert WeightFactors(q, self.POINT, self.sensing(3.0)).obst_f[0, 1] < 1.0

    def test_third_robot_seeing_the_point_does_not_lend_its_view(self):
        # robot 2 sees the point, so it survives the team-wide filter, but the
        # pair 0-1 must still mask it out
        q = np.array([[0, 0, 0], [5.0, 0, 0], [2.5, 2.0, 0]], dtype=float)
        f = WeightFactors(q, self.POINT, self.sensing(2.0))
        assert f.obst_f[0, 1] == f.obst_f[1, 0] == 1.0
        assert f.obst_f[0, 2] < 1.0


class TestLaplacian:
    def test_two_nodes(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(laplacian(W), [[1, -1], [-1, 1]])

    def test_zero_weights(self):
        assert np.array_equal(laplacian(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_k3(self):
        W = np.ones((3, 3)) - np.eye(3)
        L = laplacian(W)
        assert np.array_equal(np.diag(L), [2, 2, 2])
        assert L[0, 1] == -1


class TestFiedler:
    def test_disconnected_zero(self):
        spec = fiedler(laplacian(np.zeros((2, 2))))
        assert spec.lambda2 == pytest.approx(0.0, abs=1e-12)

    def test_k3_is_three(self):
        W = np.ones((3, 3)) - np.eye(3)
        assert fiedler(laplacian(W)).lambda2 == pytest.approx(3.0, abs=1e-9)

    def test_path3_is_one(self):
        W = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert fiedler(laplacian(W)).lambda2 == pytest.approx(1.0, abs=1e-9)

    def test_eigvector_property(self):
        rng = np.random.default_rng(0)
        W = rng.random((5, 5))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0)
        L = laplacian(W)
        spec = fiedler(L)
        assert np.allclose(L @ spec.nu2, spec.lambda2 * spec.nu2, atol=1e-9)
        assert abs(spec.nu2.sum()) < 1e-9
        assert np.linalg.norm(spec.nu2) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_weight_matrix_invariants(seed):
    rng = np.random.default_rng(seed)
    q = rng.random((5, 3)) * 5
    obs = ObstacleSet(rng.random((6, 3)) * 5)
    W = WeightFactors(q, obs, P).weight_matrix()
    assert np.allclose(W, W.T)
    assert not W.diagonal().any()
    assert W.min() >= 0.0 and W.max() <= 1.0
    L = laplacian(W)
    assert np.abs(L.sum(axis=1)).max() < 1e-12
    assert np.linalg.eigvalsh(L).min() > -1e-10


class TestLambda2Gradient:
    def test_plateau_configuration_zero(self):
        # equilateral triangle with side exactly at the shared plateau edge
        q = np.array([[0, 0, 0], [2.5, 0, 0], [1.25, 2.5 * np.sqrt(3) / 2, 0]], dtype=float)
        f = WeightFactors(q, EMPTY, P)
        assert np.allclose(f.weight_matrix()[0, 1], 1.0)
        spec = fiedler(laplacian(f.weight_matrix()))
        assert np.allclose(lambda2_gradient(f, spec), 0.0)

    def test_pair_antisymmetry(self):
        q = np.array([[0, 0, 0], [4.0, 0, 0]], dtype=float)
        f = WeightFactors(q, EMPTY, P)
        spec = fiedler(laplacian(f.weight_matrix()))
        g = lambda2_gradient(f, spec)
        assert np.allclose(g[0], -g[1], atol=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        checked = 0
        while checked < 30:
            q = spread_positions(rng, 5)
            f = WeightFactors(q, EMPTY, P)
            spec = fiedler(laplacian(f.weight_matrix()))
            if spec.eigengap < 1e-3 or spec.lambda2 < 1e-6:
                continue
            checked += 1
            g = lambda2_gradient(f, spec)
            for i in range(5):
                for d in range(3):
                    qp = q.copy()
                    qp[i, d] += h
                    qm = q.copy()
                    qm[i, d] -= h
                    lp = fiedler(laplacian(WeightFactors(qp, EMPTY, P).weight_matrix())).lambda2
                    lm = fiedler(laplacian(WeightFactors(qm, EMPTY, P).weight_matrix())).lambda2
                    fd = (lp - lm) / (2 * h)
                    assert abs(fd - g[i, d]) <= 1e-4 * max(1e-3, abs(fd))

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        q = spread_positions(rng, 5)
        shift = np.array([10.0, -3.0, 2.0])
        f1 = WeightFactors(q, EMPTY, P)
        f2 = WeightFactors(q + shift, EMPTY, P)
        s1 = fiedler(laplacian(f1.weight_matrix()))
        s2 = fiedler(laplacian(f2.weight_matrix()))
        assert s1.lambda2 == pytest.approx(s2.lambda2, abs=1e-9)
        g1 = lambda2_gradient(f1, s1)
        g2 = lambda2_gradient(f2, s2)
        assert np.allclose(g1, g2, atol=1e-9)


class TestPotential:
    def test_saturation_branch(self):
        assert connectivity_potential(1.5, CP) == (0.0, 0.0)
        assert connectivity_potential(1.0, CP) == (0.0, 0.0)

    def test_unbounded_at_floor(self):
        v1, _ = connectivity_potential(1e-3, CP)
        v2, _ = connectivity_potential(1e-6, CP)
        assert v2 > v1 > 1e3

    def test_direct_value(self):
        cp = ConnectivityParams(lambda2_min=0.0, lambda2_null=1.0, k_pot=1.0)
        v, _ = connectivity_potential(0.5, cp)
        assert v == pytest.approx(1.0)

    def test_violation_raises(self):
        with pytest.raises(ConnectivityViolation):
            connectivity_potential(0.0, CP)

    def test_c1_at_null(self):
        eps = 1e-7
        v, dv = connectivity_potential(1.0 - eps, CP)
        assert abs(v) < 1e-10
        assert abs(dv) < 1e-5


class TestField:
    def test_saturated_field_zero_forces(self):
        q = np.array([[0, 0, 0], [2.5, 0, 0], [1.25, 2.5 * np.sqrt(3) / 2, 0]], dtype=float)
        state = evaluate_field(q, EMPTY, P, CP)
        assert state.lambda2 >= CP.lambda2_null
        assert np.allclose(state.forces, 0.0)

    def test_force_sum_zero_in_free_space(self):
        q = np.array([[0, 0, 0], [5.0, 0, 0], [2.5, 4.0, 0]], dtype=float)
        state = evaluate_field(q, EMPTY, P, CP)
        assert state.potential > 0.0
        assert np.allclose(state.forces.sum(axis=0), 0.0, atol=1e-9)

    def test_pair_forces_attract_near_range_limit(self):
        q = np.array([[0, 0, 0], [5.5, 0, 0]], dtype=float)
        state = evaluate_field(q, EMPTY, P, CP)
        # force on robot 0 points toward robot 1
        assert state.forces[0, 0] > 0.0
        assert state.forces[1, 0] < 0.0

    def test_singleton_team(self):
        state = evaluate_field(np.zeros((1, 3)), EMPTY, P, CP)
        assert state.lambda2 == CP.lambda2_null
        assert np.allclose(state.forces, 0.0)

    def test_degenerate_gap_freezes_gradient(self):
        # symmetric square has a repeated Fiedler value
        q = np.array(
            [[0, 0, 0], [4, 0, 0], [4, 4, 0], [0, 4, 0]], dtype=float
        )
        prev = np.full((4, 3), 7.0)
        state = evaluate_field(q, EMPTY, P, CP, prev_grad=prev)
        if state.eigengap < 1e-9:
            assert state.degenerate
            assert np.array_equal(state.grad, prev)
