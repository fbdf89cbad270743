"""Sensor-based weighted Laplacian, Fiedler pair, and the connectivity force.

Edge weights are products of C1 cosine ramps in inter-robot distance,
segment-to-obstacle clearance, and per-robot collision margins, so a weight
vanishes exactly when the sensing range is reached, the obstacle clearance
floor is hit, or any inter-robot separation drops to the collision floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .world import ObstacleSet, SensingParams, near_pairs, segment_candidates, segment_gaps, segment_rows

_EIGENGAP_TOL = 1e-9


class ConnectivityViolation(Exception):
    """lambda2 fell to or below the configured floor; the run must abort."""


@dataclass(frozen=True)
class ConnectivityParams:
    lambda2_min: float = 0.0
    lambda2_null: float = 1.0
    k_pot: float = 0.25

    def __post_init__(self):
        if not (0.0 <= self.lambda2_min < self.lambda2_null):
            raise ValueError("need 0 <= lambda2_min < lambda2_null")
        if self.k_pot <= 0:
            raise ValueError("k_pot must be positive")


@dataclass
class Spectrum:
    lambda2: float
    nu2: np.ndarray
    eigengap: float


def ramp_down_pair(x, a, b):
    """C1 cosine ramp, 1 up to a and down to 0 at b, and its derivative in x,
    from one clip of x; a and b may be arrays that broadcast against x, one
    ramp per element."""
    x = np.asarray(x, dtype=float)
    arg = (np.minimum(np.maximum(x, a), b) - a) / (b - a) * np.pi
    f = 0.5 + 0.5 * np.cos(arg)
    fd = np.where((x > a) & (x < b), -0.5 * np.pi / (b - a) * np.sin(arg), 0.0)
    return (f, fd) if f.ndim else (float(f), float(fd))


def ramp_up_pair(x, a, b):
    """C1 cosine ramp, 0 up to a and rising to 1 at b, and its derivative in x."""
    f, fd = ramp_down_pair(x, a, b)
    return 1.0 - f, -fd


def _leave_one_out(ru):
    """P_i = prod_{k != i} ru[i, k] and loo[i, k] = P_i with factor k removed."""
    m = ru.copy()
    m.flat[:: len(m) + 1] = 1.0
    zero = m == 0.0
    if not zero.any():
        # no vanished factor: the general branch below reduces to this
        P = m.prod(axis=1)
        loo = P[:, None] / m
        loo.flat[:: len(m) + 1] = 0.0
        return P, loo
    nz = np.where(zero, 1.0, m)
    prod_nz = nz.prod(axis=1)
    zcount = zero.sum(axis=1)
    P = np.where(zcount == 0, prod_nz, 0.0)
    # loo: full product over k' != i, k' != k
    loo = np.zeros_like(m)
    rows_nz = zcount == 0
    loo[rows_nz] = prod_nz[rows_nz, None] / nz[rows_nz]
    rows_one = zcount == 1
    if rows_one.any():
        # nonzero only at the single vanished factor
        loo[rows_one] = np.where(zero[rows_one], prod_nz[rows_one, None], 0.0)
    loo.flat[:: len(m) + 1] = 0.0
    return P, loo


class WeightFactors:
    """All weight factors and their distance derivatives for one configuration,
    with each robot's obstacle clearance."""

    def __init__(self, positions, obstacles: ObstacleSet, p: SensingParams):
        q = np.asarray(positions, dtype=float)
        n = len(q)
        diag = slice(None, None, n + 1)  # the diagonal of a flattened (n, n) array
        diff = q[:, None, :] - q[None, :, :]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=2))  # np.linalg.norm's own sum
        dist.flat[diag] = 1.0  # placeholder, masked everywhere
        self.dist = dist
        self.unit = diff / dist[:, :, None]  # unit[i, j] = (q_i - q_j) / d_ij

        # the range ramp and the collision ramp (as 1 - the down ramp) in one pass
        a, b = np.array([[p.R_s_inner, p.R_c], [p.R_s, p.R_c_outer]])[:, :, None, None]
        f, fd = ramp_down_pair(dist, a, b)
        self.range_f, self.range_d = f[0], fd[0]
        self.range_f.flat[diag] = 0.0
        self.range_d.flat[diag] = 0.0

        ru, self.coll_d = 1.0 - f[1], -fd[1]
        ru.flat[diag] = 1.0
        self.coll_d.flat[diag] = 0.0
        self.P, self.loo = _leave_one_out(ru)

        self.clear = np.full(n, np.inf)
        self.obst_f = np.ones((n, n))
        self.obst_d = np.zeros((n, n))
        self.obst_g = np.zeros((n, n, 3))  # grad of d_ijo wrt q_i (first index)
        if not obstacles.empty:
            self.clear = obstacles.clearances(q)
            ii, jj = np.nonzero(np.triu(self.range_f, 1) > 0.0)
            # pruned pairs keep a unit factor
            ii, jj = near_pairs(ii, jj, self.clear, dist, p.R_o_outer)
            if len(ii):
                self._obstacle_factors(q, ii, jj, obstacles, p)

    def _obstacle_factors(self, q, ii, jj, obstacles: ObstacleSet, p: SensingParams):
        """Obstacle factor of each pair from its nearest visible point.

        Only a point within R_o_outer of a segment can move its factor off 1,
        so each pair looks at the KD-tree candidates of its segment (the 1e-9
        margin keeps a point whose rounded distance lands on R_o_outer), and
        of those at the ones within R_m of either end: the robot-local
        obstacle views.  Candidates come in point order, so the first row at
        a pair's minimum is the point that argmin over all points picks.
        """
        qa, qb = q[ii], q[jj]
        seg, pt, count = segment_candidates(obstacles, qa, qb, self.dist[ii, jj], p.R_o_outer + 1e-9)
        a, u, uu, pts = segment_rows(qa, qb, obstacles.points, seg, pt)
        w = pts - np.stack([a, np.take(qb.T, seg, axis=1)])  # from each end to the point
        within = (np.add.reduce(w * w, axis=1, initial=0.0) <= p.R_m**2).any(axis=0)
        t, gap, d = segment_gaps(a, u, uu, pts)
        d = np.where(within, d, np.inf)
        seen = count > 0
        start = (np.cumsum(count) - count)[seen]
        dmin = np.minimum.reduceat(d, start)
        hit = np.flatnonzero(d == np.repeat(dmin, count[seen]))
        k = hit[np.searchsorted(hit, start)]
        ii, jj = ii[seen], jj[seen]
        have = dmin < np.inf
        f, fd = ramp_up_pair(dmin, p.R_o, p.R_o_outer)
        f = np.where(have, f, 1.0)
        fd = np.where(have, fd, 0.0)
        tk = t[k]
        away = have & (dmin > 0.0)
        u_hat = (gap[:, k] / np.where(away, dmin, 1.0)).T
        u_hat[~away] = 0.0
        self.obst_f[ii, jj] = self.obst_f[jj, ii] = f
        self.obst_d[ii, jj] = self.obst_d[jj, ii] = fd
        self.obst_g[ii, jj] = (1.0 - tk)[:, None] * u_hat
        self.obst_g[jj, ii] = tk[:, None] * u_hat

    def weight_matrix(self) -> np.ndarray:
        W = self.range_f * self.obst_f * np.outer(self.P, self.P)
        W.flat[:: len(W) + 1] = 0.0
        return W


def laplacian(W: np.ndarray) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    return np.diag(W.sum(axis=1)) - W


def fiedler(L: np.ndarray) -> Spectrum:
    """Second-smallest eigenvalue and unit eigenvector of a graph Laplacian.

    LAPACK dsyevd on the lower triangle is the routine np.linalg.eigh calls,
    called without its wrapper: the same eigenpairs, bit for bit.
    """
    evals, evecs, info = lapack.dsyevd(L, compute_v=1, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed (info {info})")
    n = L.shape[0]
    lam2 = float(evals[1])
    nu2 = evecs[:, 1].copy()
    # remove any numerical component along the all-ones direction
    ones = np.full(n, 1.0 / math.sqrt(n))
    nu2 -= (nu2 @ ones) * ones
    nrm = math.sqrt(nu2.dot(nu2))  # np.linalg.norm's own arithmetic
    if nrm > 0:
        nu2 /= nrm
    gap = float(evals[2] - evals[1]) if n > 2 else np.inf
    return Spectrum(lambda2=lam2, nu2=nu2, eigengap=gap)


def lambda2_gradient(factors: WeightFactors, spectrum: Spectrum) -> np.ndarray:
    """d(lambda2)/dq for every robot, (N, 3).

    Uses first-order perturbation of a simple eigenvalue: the sensitivity of
    lambda2 to each weight is (nu2_j - nu2_k)^2, summed over every factor of
    every weight that depends on the robot position, including the cross
    collision terms that couple an edge to third robots.
    """
    nu2 = spectrum.nu2
    S = (nu2[:, None] - nu2[None, :]) ** 2
    PP = np.outer(factors.P, factors.P)
    # range and obstacle factors: purely pairwise
    m_range = S * factors.obst_f * PP * factors.range_d
    grad = np.einsum("ij,ijd->id", m_range, factors.unit)
    m_obst = S * factors.range_f * PP * factors.obst_d
    grad += np.einsum("ij,ijd->id", m_obst, factors.obst_g)
    # collision factors: W_jk depends on every d_jm and d_km
    C = factors.range_f * factors.obst_f
    T = (S * C * factors.P[None, :]).sum(axis=1)  # T_j = sum_k S_jk C_jk P_k
    K = (T[:, None] * factors.loo + T[None, :] * factors.loo.T) * factors.coll_d
    K.flat[:: len(K) + 1] = 0.0
    grad += np.einsum("ij,ijd->id", K, factors.unit)
    return grad


def connectivity_potential(lam2: float, cp: ConnectivityParams):
    """Barrier V(lambda2) and dV/dlambda2; unbounded at the floor, 0 above null."""
    if lam2 <= cp.lambda2_min:
        raise ConnectivityViolation(
            f"lambda2={lam2:.6g} at or below floor {cp.lambda2_min:.6g}"
        )
    if lam2 >= cp.lambda2_null:
        return 0.0, 0.0
    num = cp.lambda2_null - lam2
    den = lam2 - cp.lambda2_min
    V = cp.k_pot * (num / den) ** 2
    dV = -2.0 * cp.k_pot * num * (cp.lambda2_null - cp.lambda2_min) / den**3
    return float(V), float(dV)


@dataclass
class FieldState:
    """Connectivity field snapshot; each robot legally reads only lambda2,
    its own nu2 component, and its own force row."""

    W: np.ndarray
    lambda2: float
    nu2: np.ndarray
    eigengap: float
    grad: np.ndarray
    potential: float
    dV: float
    forces: np.ndarray
    degenerate: bool
    clearances: np.ndarray  # each robot's obstacle clearance


def evaluate_field(
    positions,
    obstacles: ObstacleSet,
    sensing: SensingParams,
    cp: ConnectivityParams,
    prev_grad=None,
) -> FieldState:
    """Full per-tick connectivity evaluation (the global spectral oracle)."""
    q = np.asarray(positions, dtype=float)
    n = len(q)
    if n < 2:
        # a singleton team is trivially "connected"; no force applies
        lam = cp.lambda2_null
        return FieldState(
            W=np.zeros((n, n)),
            lambda2=lam,
            nu2=np.zeros(n),
            eigengap=np.inf,
            grad=np.zeros((n, 3)),
            potential=0.0,
            dV=0.0,
            forces=np.zeros((n, 3)),
            degenerate=False,
            clearances=np.full(n, np.inf) if obstacles.empty else obstacles.clearances(q),
        )
    factors = WeightFactors(q, obstacles, sensing)
    W = factors.weight_matrix()
    spec = fiedler(laplacian(W))
    degenerate = spec.eigengap < _EIGENGAP_TOL and prev_grad is not None
    if degenerate:
        grad = prev_grad
    else:
        grad = lambda2_gradient(factors, spec)
    V, dV = connectivity_potential(spec.lambda2, cp)
    forces = -dV * grad
    return FieldState(
        W=W,
        lambda2=spec.lambda2,
        nu2=spec.nu2,
        eigengap=spec.eigengap,
        grad=grad,
        potential=V,
        dV=dV,
        forces=forces,
        degenerate=degenerate,
        clearances=factors.clear,
    )
