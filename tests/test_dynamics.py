import numpy as np
import pytest

from conexplore.behavior import row_dots
from conexplore.dynamics import (
    PAPER_FILTER_GAINS,
    BodyParams,
    ReferenceFilter,
    SimulationFault,
    integrate_step,
    saturate,
)

BP = BodyParams(mass=1.0, damping=4.0, f_max=10.0)


class TestBodyParams:
    @pytest.mark.parametrize("kw", [{"mass": 0.0}, {"damping": -1.0}, {"f_max": 0.0}])
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(ValueError):
            BodyParams(**kw)


class TestSaturate:
    def test_below_limit_unchanged(self):
        f = [3.0, 0.0, 0.0]
        assert np.array_equal(saturate(f, row_dots(f, f)[0], 10.0), f)

    def test_above_limit_rescaled(self):
        f = [30.0, 40.0, 0.0]
        out = saturate(f, row_dots(f, f)[0], 10.0)
        assert np.linalg.norm(out) == pytest.approx(10.0)
        assert np.allclose(out, [6.0, 8.0, 0.0])

    def test_zero_vector(self):
        f = [0.0, 0.0, 0.0]
        assert np.array_equal(saturate(f, row_dots(f, f)[0], 10.0), np.zeros(3))


class TestIntegrateStep:
    # integrate_step takes and returns lists of [x, y, z] float rows, one per robot

    def test_free_decay_closed_form(self):
        # with no forces the discrete map is v <- v / (1 + dt b/m)
        dt = 1e-3
        v = [[2.0, 0.0, 0.0]]
        q = [[0.0, 0.0, 0.0]]
        for _ in range(1000):
            q, v, _ = integrate_step(q, v, [[0.0, 0.0, 0.0]], BP, dt)
        expect = 2.0 / (1.0 + dt * BP.damping / BP.mass) ** 1000
        assert v[0][0] == pytest.approx(expect, rel=1e-12)
        # close to the continuous exponential at this step size
        assert v[0][0] == pytest.approx(2.0 * np.exp(-BP.damping * 1.0), rel=1e-2)

    def test_terminal_speed_under_constant_force(self):
        q, v = [[0.0] * 3], [[0.0] * 3]
        f = [[8.0, 0.0, 0.0]]
        for _ in range(5000):
            q, v, _ = integrate_step(q, v, f, BP, 1e-3)
        assert v[0][0] == pytest.approx(8.0 / BP.damping, rel=1e-6)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(6)
        q = rng.random((4, 3))
        v = rng.random((4, 3))
        ft = rng.random((4, 3)) * 20
        fl = rng.random((4, 3))
        f = (ft + fl).tolist()
        qb, vb, sb = integrate_step(q.tolist(), v.tolist(), f, BP, 1e-3)
        for i in range(4):
            qi, vi, si = integrate_step([q[i].tolist()], [v[i].tolist()], [f[i]], BP, 1e-3)
            assert np.allclose(qb[i], qi[0])
            assert np.allclose(vb[i], vi[0])
            assert sb[i] == si[0]

    def test_step_is_the_position_step(self):
        rng = np.random.default_rng(7)
        q, v, f = (rng.normal(size=(4, 3)).tolist() for _ in range(3))
        qn, _, step = integrate_step(q, v, f, BP, 1e-3)
        moved = np.linalg.norm(np.subtract(qn, q), axis=1)
        assert np.allclose(step, moved, rtol=1e-9, atol=0.0)

    def test_nonfinite_force_faults(self):
        with pytest.raises(SimulationFault):
            integrate_step([[0.0] * 3], [[0.0] * 3], [[np.nan, 0.0, 0.0]], BP, 1e-3)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            integrate_step([[0.0] * 3], [[0.0] * 3], [[0.0] * 3], BP, 0.0)

    def test_energy_dissipates_without_input(self):
        rng = np.random.default_rng(1)
        v = [rng.random(3).tolist()]
        q = [[0.0] * 3]
        e_prev = 0.5 * BP.mass * np.dot(v[0], v[0])
        for _ in range(100):
            q, v, _ = integrate_step(q, v, [[0.0] * 3], BP, 1e-3)
            e = 0.5 * BP.mass * np.dot(v[0], v[0])
            assert e < e_prev
            e_prev = e


class TestReferenceFilter:
    def test_default_gains_hurwitz(self):
        rf = ReferenceFilter()
        assert rf.gains == PAPER_FILTER_GAINS

    def test_unstable_gains_rejected(self):
        with pytest.raises(ValueError):
            ReferenceFilter(gains=(-1.0, 1.0, 1.0, 1.0))

    def test_equilibrium_is_fixed_point(self):
        rf = ReferenceFilter(initial_position=[1.0, -2.0, 0.5])
        p, v, a = rf.step([1.0, -2.0, 0.5], 1e-3)
        assert np.allclose(p, [1.0, -2.0, 0.5], atol=1e-12)
        assert np.allclose(v, 0.0, atol=1e-12)
        assert np.allclose(a, 0.0, atol=1e-12)

    def test_converges_to_step_command(self):
        rf = ReferenceFilter()
        for _ in range(3000):
            p, v, a = rf.step([1.0, 0.0, 0.0], 1e-3)
        assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-9)
        assert np.allclose(v, 0.0, atol=1e-7)

    def test_linearity(self):
        cmds = np.random.default_rng(3).random((50, 3))
        rf1 = ReferenceFilter()
        rf2 = ReferenceFilter()
        for c in cmds:
            p1, _, _ = rf1.step(c, 1e-3)
            p2, _, _ = rf2.step(2.0 * c, 1e-3)
        assert np.allclose(2.0 * p1, p2, atol=1e-12)

    def test_zoh_exactness_against_fine_euler(self):
        # one coarse exact step equals many fine Euler steps of the same hold
        rf = ReferenceFilter()
        p_exact, _, _ = rf.step([1.0, 0.0, 0.0], 0.01)
        A, B = rf._A, rf._B
        x = np.zeros((4, 3))
        h = 1e-6
        for _ in range(10000):
            x = x + h * (A @ x + np.outer(B, [1.0, 0.0, 0.0]))
        assert np.allclose(p_exact, x[0], atol=1e-6)

    def test_velocity_consistent_with_position(self):
        rf = ReferenceFilter()
        dt = 1e-3
        ps, vs = [], []
        for k in range(400):
            p, v, _ = rf.step([1.0, 1.0, 1.0], dt)
            ps.append(p.copy())
            vs.append(v.copy())
        for k in range(1, 399):
            fd = (ps[k + 1] - ps[k - 1]) / (2 * dt)
            assert np.allclose(fd, vs[k], atol=2e-3)

    def test_ramp_tracking_steady_lag(self):
        # tracking q_cmd = r t settles to a constant lag of r k3/k4
        rf = ReferenceFilter()
        dt = 1e-3
        r = 0.8
        for k in range(4000):
            t = (k + 1) * dt
            p, v, _ = rf.step([r * t, 0.0, 0.0], dt)
        lag = r * 4000 * dt - p[0]
        assert lag == pytest.approx(r * rf.gains[2] / rf.gains[3], rel=2e-3)
        assert v[0] == pytest.approx(r, rel=1e-3)

    def test_finite_ramp_lag_vanishes_after_hold(self):
        # once the command stops moving, unit DC gain erases the ramp lag
        rf = ReferenceFilter()
        dt = 1e-3
        for k in range(2000):
            rf.step([0.8 * (k + 1) * dt, 0.0, 0.0], dt)
        for _ in range(3000):
            p, v, _ = rf.step([1.6, 0.0, 0.0], dt)
        assert p[0] == pytest.approx(1.6, abs=1e-8)
        assert abs(v[0]) < 1e-7

    def test_settling_time_regression(self):
        # frozen behavior: 5 percent settling on a unit step takes 0.72 s
        rf = ReferenceFilter()
        dt = 1e-3
        history = []
        for k in range(2000):
            p, _, _ = rf.step([1.0, 0.0, 0.0], dt)
            history.append(abs(p[0] - 1.0))
        settled_at = None
        for k in range(1999, -1, -1):
            if history[k] > 0.05:
                settled_at = (k + 2) * dt
                break
        assert settled_at == pytest.approx(0.721, abs=0.005)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            ReferenceFilter().step([0, 0, 0], -1.0)

    def test_dt_cache_recomputes(self):
        rf = ReferenceFilter()
        rf.step([1, 0, 0], 1e-3)
        Ad1 = rf._Ad.copy()
        rf.step([1, 0, 0], 1e-2)
        assert not np.allclose(Ad1, rf._Ad)
