"""The premises under the simulator's exact fast kernels, and the float laws
against the numpy laws they replaced.

The fast tick keeps every trajectory of the golden record bit for bit only
while numpy, BLAS, LAPACK and scipy behave as these tests state.  Each
premise test names the premise in its failure message, so a build that
breaks one fails here, with the reason, before the golden record does.
"""

import math

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conexplore.behavior import (
    AnchorViolation,
    BehaviorParams,
    anchor_force,
    consensus_step,
    direction_alignment,
    row_dots,
    tracking_errors,
    travel_force,
    traveling_efficiency,
)
from conexplore.connectivity import fiedler, laplacian
from conexplore.dynamics import BodyParams, SimulationFault, integrate_step, saturate
from conexplore.planner import SmoothPath, path_kinematics
from conexplore.world import ObstacleSet, sample_box, segment_gaps, segment_rows

# a row is one per-robot vector of a tick: these scales cover zeros, tiny and
# huge values and the subnormals
SCALES = (0.0, 5e-324, 1e-310, 1e-150, 1e-3, 1.0, 1e3, 1e150)


def random_rows(rng, k):
    """k 3-rows mixing every scale, signs, and rows with zero components."""
    rows = rng.normal(size=(k, 3)) * rng.choice(SCALES, size=(k, 1))
    rows[rng.random((k, 3)) < 0.05] = 0.0
    return rows


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# -- premises --------------------------------------------------------------------


def test_premise_vecdot_rows_equal_ndarray_dot():
    rng = np.random.default_rng(15)
    a, b = random_rows(rng, 20000), random_rows(rng, 20000)
    # the rows as the simulator builds them: flat Python float lists
    pair = row_dots(a.ravel().tolist(), b.ravel().tolist())
    flat = a.ravel().tolist()
    self = row_dots(flat, flat)
    bad_pair = [k for k in range(len(a)) if not same_bits(pair[k], a[k].dot(b[k]))]
    bad_self = [k for k in range(len(a)) if not same_bits(self[k], a[k].dot(a[k]))]
    assert not bad_pair and not bad_self, (
        "premise broken: np.vecdot over stacked 3-rows no longer gives each "
        f"row's ndarray.dot bits ({len(bad_pair)} pairs, {len(bad_self)} self-dots differ)"
    )


def test_premise_adjacency_dot_equals_matmul():
    rng = np.random.default_rng(16)
    bad = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        adj = (rng.random((n, n)) < 0.5).astype(float)
        lam = rng.random(n)
        bad += adj.dot(lam).tobytes() != (adj @ lam).tobytes()
    assert not bad, f"premise broken: adj.dot(lam) differs from adj @ lam on {bad} of 500"


def test_premise_dsyevd_equals_eigh():
    rng = np.random.default_rng(17)
    bad = []
    for n in range(2, 13):
        for _ in range(40):
            W = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.7), 1)
            L = laplacian(W + W.T)
            w, v, info = scipy.linalg.lapack.dsyevd(L, compute_v=1, lower=1)
            ew, ev = np.linalg.eigh(L)
            if info or not (same_bits(w, ew) and same_bits(v, ev)):
                bad.append(n)
    assert not bad, f"premise broken: LAPACK dsyevd and np.linalg.eigh differ (N = {sorted(set(bad))})"


def test_premise_kdtree_clearances_equal_brute_force():
    rng = np.random.default_rng(18)
    obstacles = ObstacleSet(
        np.concatenate([sample_box([0, 9.9, 0], [6, 10.1, 3], 0.45), rng.random((200, 3)) * [15, 20, 3]])
    )
    bad = 0
    for _ in range(300):
        q = rng.random((int(rng.integers(1, 11)), 3)) * [15, 20, 3]
        rp2 = ((q[:, None, :] - obstacles.points[None, :, :]) ** 2).sum(axis=2)
        bad += not same_bits(obstacles.clearances(q), np.sqrt(rp2.min(axis=1)))
    assert not bad, f"premise broken: KD-tree clearances differ from sqrt(min rp2) on {bad} of 300"


def test_premise_length3_sum_is_left_to_right():
    # the float kernels sum a 3-row as numpy does: ((0 + x) + y) + z
    rng = np.random.default_rng(19)
    t = random_rows(rng, 20000)
    t[rng.random((20000, 3)) < 0.05] = -0.0
    for rows in (t * t, t * random_rows(rng, 20000)):
        plain = [((0.0 + x) + y) + z for x, y, z in rows.tolist()]
        one_by_one = [r.sum() for r in rows[:2000]]
        assert same_bits(rows.sum(axis=1), plain) and same_bits(one_by_one, plain[:2000]), (
            "premise broken: numpy no longer sums a length-3 row as ((0 + x) + y) + z"
        )


def test_premise_maximum_minimum_clamp_equals_clip():
    # segment_gaps clamps t with maximum(0, t) and minimum:
    # on a tie np.maximum returns its second argument, so -0.0 stays -0.0
    # as under np.clip
    rng = np.random.default_rng(20)
    x = np.concatenate([rng.normal(size=997), [-0.0, 0.0, 1.0, -0.0, 5e-324]])
    for n in (1, 3, 7, 8, 64, len(x)):
        assert same_bits(np.minimum(np.maximum(0.0, x[-n:]), 1.0), np.clip(x[-n:], 0.0, 1.0)), (
            "premise broken: np.minimum(np.maximum(0, x), 1) differs from np.clip(x, 0, 1)"
        )


def test_premise_component_segment_kernel_equals_dense():
    rng = np.random.default_rng(21)
    bad = 0
    for _ in range(100):
        p, m = int(rng.integers(1, 12)), int(rng.integers(1, 60))
        qa, qb = rng.normal(size=(p, 3)) * 3, rng.normal(size=(p, 3)) * 3
        same = rng.random(p) < 0.1
        qb[same] = qa[same]  # zero-length segments
        points = rng.normal(size=(m, 3)) * 3
        points[: min(m, p)] = qa[: min(m, p)]  # points on a segment end
        t, gap, d = oracles.segment_gaps(qa, qb, points)
        seg, pt = np.repeat(np.arange(p), m), np.tile(np.arange(m), p)
        ct, cgap, cd = segment_gaps(*segment_rows(qa, qb, points, seg, pt))
        bad += not (
            same_bits(ct, t.ravel()) and same_bits(cgap.T, gap.reshape(-1, 3)) and same_bits(cd, d.ravel())
        )
    assert not bad, (
        f"premise broken: the component-form segment kernel differs from the (P, M, 3) one on {bad} of 100"
    )


def test_premise_step_length_sums_from_the_left():
    # integrate_step takes a robot's step length as sqrt(x*x + y*y + z*z) of
    # dq = dt * v: numpy's row sum of dq * dq is ((0 + x²) + y²) + z², and a
    # square is never -0.0, so the leading 0 drops out
    rng = np.random.default_rng(27)
    bad = 0
    for n in range(1, 13):
        for _ in range(200):
            dq = 1e-3 * random_rows(rng, n)
            got = [math.sqrt(x * x + y * y + z * z) for x, y, z in dq.tolist()]
            bad += not same_bits(got, np.sqrt(np.add.reduce(dq * dq, axis=1)))
    assert not bad, f"premise broken: a team's step lengths differ from numpy's row sums on {bad} of 2400"


@np.errstate(over="ignore", invalid="ignore")
def test_premise_force_check_gives_numpys_verdict():
    # finite forces whose sum overflows: left to right the sum is finite,
    # numpy's eight-way partial sums overflow (f[0] + f[8]), and the numpy law
    # faulted; so checking each force, or a plain float sum, would not do
    f = np.zeros((6, 3))
    f.flat[0], f.flat[1], f.flat[8] = 1e308, -1e308, 1e308
    plain = 0.0
    for x in f.ravel().tolist():
        plain += x
    assert np.isfinite(f).all() and math.isfinite(plain)
    assert not math.isfinite(np.add.reduce(f, axis=None)), (
        "premise broken: numpy's sum over an (N, 3) force block no longer overflows where this test expects"
    )
    zeros = np.zeros((6, 3))
    with pytest.raises(SimulationFault):
        oracles.integrate_step(zeros, zeros, f, BodyParams(), 1e-3)
    with pytest.raises(SimulationFault):
        integrate_step(zeros.tolist(), zeros.tolist(), f.tolist(), BodyParams(), 1e-3)


# -- the float laws against the numpy laws they replaced --------------------------

BP = BehaviorParams(R_z=1.8, v_cruise=1.5, x_c=0.15, x_M=0.9, alpha=0.5, sigma=3.0)
F_MAX = 10.0
N_ROWS = 10000


def law_cases(rng):
    """Random per-robot inputs: (q, v, frame, f_lambda, z) with the edge cases
    the laws branch on."""
    k = N_ROWS
    q = rng.random((k, 3)) * [15, 20, 3]
    q_gamma = q + rng.normal(size=(k, 3)) * rng.choice([0.0, 0.01, 0.3, 2.0], size=(k, 1))
    v_gamma = rng.normal(size=(k, 3))
    v = v_gamma + rng.normal(size=(k, 3)) * rng.choice([0.0, 0.05, 0.5, 3.0], size=(k, 1))
    a_gamma = rng.normal(size=(k, 3)) * rng.choice([0.0, 1.0, 20.0], size=(k, 1))
    # |f| within an ulp of f_max: no tracking error, so the force is a_gamma
    edge = np.arange(0, k, 10)
    u = rng.normal(size=(len(edge), 3))
    a_edge = u / np.linalg.norm(u, axis=1)[:, None] * F_MAX
    a_edge = np.nextafter(a_edge, a_edge * rng.choice([0.0, 2.0], size=(len(edge), 1)))
    a_gamma[edge], q_gamma[edge], v_gamma[edge] = a_edge, q[edge], v[edge]
    # tracking error blended to exactly x_c and x_M (alpha = 1/2)
    for offset, e in ((3, BP.x_c), (5, BP.x_M)):
        rows = np.arange(offset, k, 20)
        q_gamma[rows] = q[rows]
        v_gamma[rows] = v[rows] + [2.0 * e, 0.0, 0.0]
    f_lambda = rng.normal(size=(k, 3)) * rng.choice([0.0, 1e-3, 1.0, 50.0], size=(k, 1))
    z = q + rng.normal(size=(k, 3)) * 0.5
    z[np.arange(7, k, 25)] = q[np.arange(7, k, 25)]  # anchored exactly at the target
    return q, v, (q_gamma, v_gamma, a_gamma), f_lambda, z


def test_float_laws_equal_numpy_laws():
    rng = np.random.default_rng(22)
    q, v, (q_gamma, v_gamma, a_gamma), f_lambda, z = law_cases(rng)
    q_rows, v_rows, f_rows = q.tolist(), v.tolist(), f_lambda.tolist()
    frames = list(zip(q_gamma.tolist(), v_gamma.tolist(), a_gamma.tolist()))
    # stage 1 as Simulation batches it: raw force, dv, dq and q - z of every case
    raw, offsets, rows = [], [], []
    for k in range(N_ROWS):
        dv, dq = tracking_errors(q_rows[k], v_rows[k], frames[k])
        f = travel_force(dv, dq, frames[k][2], BP)
        d = [a - b for a, b in zip(q_rows[k], z[k].tolist())]
        raw.append(f)
        offsets.append(d)
        rows += f + dv + dq + d
    norms = row_dots(rows, rows)
    forces = [saturate(raw[k], norms[4 * k], F_MAX) for k in range(N_ROWS)]
    xs, ys = [], []
    for k in range(N_ROWS):
        xs += f_rows[k] + forces[k] + f_rows[k]
        ys += f_rows[k] + forces[k] + forces[k]
    dots = row_dots(xs, ys)

    bad = {"travel_force": 0, "traveling_efficiency": 0, "direction_alignment": 0, "anchor_force": 0}
    saturated = at_ramp_ends = zero_alignment = at_target = 0
    for k in range(N_ROWS):
        frame = (q_gamma[k], v_gamma[k], a_gamma[k])
        expect = oracles.travel_force(q[k], v[k], frame, BP, F_MAX)
        bad["travel_force"] += not same_bits(forces[k], expect)
        saturated += forces[k] is not raw[k]
        e = traveling_efficiency(norms[4 * k + 1], norms[4 * k + 2], BP)
        bad["traveling_efficiency"] += e != oracles.traveling_efficiency(q[k], v[k], frame, BP)
        at_ramp_ends += (0.5 * math.sqrt(norms[4 * k + 1])) in (BP.x_c, BP.x_M)
        theta = direction_alignment(*dots[3 * k : 3 * k + 3])
        bad["direction_alignment"] += bool(theta != oracles.direction_alignment(f_lambda[k], expect))
        zero_alignment += dots[3 * k] == 0.0
        try:
            expect_anchor = oracles.anchor_force(q[k], z[k], BP.R_z, BP.k_z)
        except AnchorViolation:
            with pytest.raises(AnchorViolation):
                anchor_force(offsets[k], norms[4 * k + 3], BP.R_z, BP.k_z)
            continue
        at_target += norms[4 * k + 3] == 0.0
        got = anchor_force(offsets[k], norms[4 * k + 3], BP.R_z, BP.k_z)
        bad["anchor_force"] += not same_bits(got, expect_anchor)
    assert bad == dict.fromkeys(bad, 0), bad
    # every edge case was reached
    reached = (saturated, at_ramp_ends, zero_alignment, at_target)
    assert min(reached) > 0, reached


def test_float_saturation_at_the_ulp_of_f_max():
    # a force one ulp over f_max is scaled, one at or under it passes as is,
    # as the numpy law decides
    rng = np.random.default_rng(23)
    for _ in range(2000):
        u = rng.normal(size=3)
        f = u / np.linalg.norm(u) * F_MAX
        for g in (np.nextafter(f, 0.0), f, np.nextafter(f, 2.0 * f)):
            out = saturate(g.tolist(), row_dots(g.tolist(), g.tolist())[0], F_MAX)
            assert same_bits(out, oracles.saturate(g, F_MAX))


def test_float_path_kinematics_equal_numpy():
    rng = np.random.default_rng(24)
    paths = [
        SmoothPath(np.cumsum(rng.normal(size=(int(rng.integers(3, 9)), 3)), axis=0), sample_step=0.05)
        for _ in range(12)
    ]
    paths += [SmoothPath([[0, 0, 0], [4, 1, 0]]), SmoothPath([[1, 1, 1]])]
    bad = 0
    for path in paths:
        ends = [0.0, path.total_length, -1.0, path.total_length + 1.0, *path._s[:5].tolist()]
        for s in ends + (rng.random(300) * path.total_length).tolist():
            for taper in (0.0, 1.8):
                v, a = path_kinematics(path, s, 1.5, taper)
                ev, ea = oracles.path_kinematics(path, s, 1.5, taper)
                bad += not (same_bits(v, ev) and same_bits(a, ea))
    assert not bad, f"{bad} kinematics differ from the numpy table law"


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_float_alignment_equals_numpy(x, y):
    assert direction_alignment(*row_dots(x + y + x, x + y + y)) == oracles.direction_alignment(x, y)


@np.errstate(over="ignore", invalid="ignore")
def test_float_integration_equals_numpy_law():
    # teams of 1 to 12 robots, over 10^4 rows: forces at every scale, exact
    # zeros, +-f_max, subnormals and 1e308, and non-finite ones, which must
    # fault as the numpy law does
    rng = np.random.default_rng(28)
    body = BodyParams(mass=1.3, damping=4.0, f_max=F_MAX)
    edges = np.array([0.0, -0.0, F_MAX, -F_MAX, 5e-324, -5e-324, 1e-310, 1e308, -1e308, np.nan, np.inf, -np.inf])
    rows = bad = faults = moved = 0
    while rows < N_ROWS:
        n = int(rng.integers(1, 13))
        q = rng.random((n, 3)) * [15, 20, 3]
        v = rng.normal(size=(n, 3)) * rng.choice([0.0, 1e-3, 1.0])
        f = random_rows(rng, n) * rng.choice([1.0, 1e-3, 1e155])
        pick = rng.random((n, 3)) < rng.choice([0.0, 0.02, 0.2])
        f[pick] = rng.choice(edges, size=pick.sum())
        rows += n
        args = (q.tolist(), v.tolist(), f.tolist(), body, 1e-3)
        try:
            expect = oracles.integrate_step(q, v, f, body, 1e-3)
        except SimulationFault:
            faults += 1
            with pytest.raises(SimulationFault):
                integrate_step(*args)
            continue
        got = integrate_step(*args)
        bad += not all(same_bits(a, b) for a, b in zip(got, expect))
        moved += bool(np.any(expect[2]))
    assert not bad, f"{bad} integration steps differ from the numpy law"
    assert faults and moved, (faults, moved)


def test_consensus_step_equals_numpy_law():
    # adj.dot, the cached row sums and the float clamp give the bits of the
    # array law with adj @ lam, fresh row sums and np.clip
    rng = np.random.default_rng(25)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        adj = (rng.random((n, n)) < 0.5).astype(float)
        lam = rng.random(n) * rng.choice([1.0, 3.0])
        expect = lam + 1.0 * 1e-3 * (adj @ lam - adj.sum(axis=1) * lam)
        np.clip(expect, 0.0, 1.0, out=expect)
        assert same_bits(consensus_step(lam, adj, adj.sum(axis=1), 1.0, 1e-3), expect)
    # the clamp's edges: 0 and 1 hold, and estimates past either end stop there
    lam = np.array([0.0, 1.0, -1e-3, 1.0 + 1e-3, 0.5, 1.0 - 1e-18])
    adj = np.zeros((len(lam), len(lam)))
    adj[4, 5] = adj[5, 4] = 1.0
    expect = np.clip(lam + 1e-3 * (adj @ lam - adj.sum(axis=1) * lam), 0.0, 1.0)
    assert same_bits(consensus_step(lam.tolist(), adj, adj.sum(axis=1).tolist(), 1.0, 1e-3), expect)


def test_fiedler_on_dsyevd_equals_eigh():
    rng = np.random.default_rng(26)
    for n in range(2, 13):
        W = np.triu(rng.random((n, n)), 1)
        L = laplacian(W + W.T)
        spec = fiedler(L)
        # the projection and renormalisation on np.linalg.eigh's eigenvector
        evals, evecs = np.linalg.eigh(L)
        nu2 = evecs[:, 1].copy()
        ones = np.ones(n) / np.sqrt(n)
        nu2 -= (nu2 @ ones) * ones
        nu2 /= np.linalg.norm(nu2)
        assert spec.lambda2 == evals[1] and same_bits(spec.nu2, nu2)
        assert spec.eigengap == (evals[2] - evals[1] if n > 2 else np.inf)
