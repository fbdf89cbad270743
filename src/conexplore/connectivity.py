"""Sensor-based weighted Laplacian, Fiedler pair, and the connectivity force.

Edge weights are products of C1 cosine ramps in inter-robot distance,
segment-to-obstacle clearance, and per-robot collision margins, so a weight
vanishes exactly when the sensing range is reached, the obstacle clearance
floor is hit, or any inter-robot separation drops to the collision floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .world import ObstacleSet, SensingParams, near_pairs, segment_gaps

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


def ramp_down(x, a, b):
    """C1 cosine ramp: 1 on [0, a], down to 0 at b, 0 beyond."""
    x = np.asarray(x, dtype=float)
    out = 0.5 + 0.5 * np.cos((np.clip(x, a, b) - a) / (b - a) * np.pi)
    return out if out.ndim else float(out)


def ramp_down_deriv(x, a, b):
    x = np.asarray(x, dtype=float)
    inside = (x > a) & (x < b)
    out = np.where(
        inside, -0.5 * np.pi / (b - a) * np.sin((np.clip(x, a, b) - a) / (b - a) * np.pi), 0.0
    )
    return out if out.ndim else float(out)


def ramp_up(x, a, b):
    """C1 cosine ramp: 0 up to a, rising to 1 at b, 1 beyond."""
    r = ramp_down(x, a, b)
    return 1.0 - r


def ramp_up_deriv(x, a, b):
    return -ramp_down_deriv(x, a, b)


def _leave_one_out(ru):
    """P_i = prod_{k != i} ru[i, k] and loo[i, k] = P_i with factor k removed."""
    n = ru.shape[0]
    m = ru.copy()
    np.fill_diagonal(m, 1.0)
    zero = m == 0.0
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
    np.fill_diagonal(loo, 0.0)
    return P, loo


class WeightFactors:
    """All weight factors and their distance derivatives for one configuration."""

    def __init__(self, positions, obstacles: ObstacleSet, p: SensingParams):
        q = np.asarray(positions, dtype=float)
        n = len(q)
        diff = q[:, None, :] - q[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, 1.0)  # placeholder, masked everywhere
        self.dist = dist
        self.unit = diff / dist[:, :, None]  # unit[i, j] = (q_i - q_j) / d_ij

        self.range_f = ramp_down(dist, p.R_s_inner, p.R_s)
        self.range_d = ramp_down_deriv(dist, p.R_s_inner, p.R_s)
        np.fill_diagonal(self.range_f, 0.0)
        np.fill_diagonal(self.range_d, 0.0)

        ru = ramp_up(dist, p.R_c, p.R_c_outer)
        self.coll_d = ramp_up_deriv(dist, p.R_c, p.R_c_outer)
        np.fill_diagonal(ru, 1.0)
        np.fill_diagonal(self.coll_d, 0.0)
        self.P, self.loo = _leave_one_out(ru)

        self.obst_f = np.ones((n, n))
        self.obst_d = np.zeros((n, n))
        self.obst_g = np.zeros((n, n, 3))  # grad of d_ijo wrt q_i (first index)
        if not obstacles.empty:
            pts = obstacles.points
            rp2 = ((q[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            within = rp2 <= p.R_m**2  # robot-local obstacle views
            clear = np.sqrt(rp2.min(axis=1))
            keep = within.any(axis=0)
            pts = pts[keep]
            within = within[:, keep]
            ii, jj = np.nonzero(np.triu(self.range_f, 1) > 0.0)
            # pruned pairs keep a unit factor
            ii, jj = near_pairs(ii, jj, clear, dist, p.R_o_outer)
            if len(ii) and len(pts):
                t, gap, d = segment_gaps(q[ii], q[jj], pts)
                d = np.where(within[ii] | within[jj], d, np.inf)
                k = d.argmin(axis=1)
                rows = np.arange(len(ii))
                dmin = d[rows, k]
                have = np.isfinite(dmin)
                f = np.where(have, ramp_up(dmin, p.R_o, p.R_o_outer), 1.0)
                fd = np.where(have, ramp_up_deriv(dmin, p.R_o, p.R_o_outer), 0.0)
                tk = t[rows, k]
                safe = np.where(have & (dmin > 0.0), dmin, 1.0)
                u_hat = gap[rows, k] / safe[:, None]
                u_hat[~(have & (dmin > 0.0))] = 0.0
                self.obst_f[ii, jj] = self.obst_f[jj, ii] = f
                self.obst_d[ii, jj] = self.obst_d[jj, ii] = fd
                self.obst_g[ii, jj] = (1.0 - tk)[:, None] * u_hat
                self.obst_g[jj, ii] = tk[:, None] * u_hat

    def weight_matrix(self) -> np.ndarray:
        W = self.range_f * self.obst_f * np.outer(self.P, self.P)
        np.fill_diagonal(W, 0.0)
        return W


def laplacian(W: np.ndarray) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    return np.diag(W.sum(axis=1)) - W


def fiedler(L: np.ndarray) -> Spectrum:
    """Second-smallest eigenvalue and unit eigenvector of a graph Laplacian."""
    evals, evecs = np.linalg.eigh(L)
    n = L.shape[0]
    lam2 = float(evals[1])
    nu2 = evecs[:, 1].copy()
    # remove any numerical component along the all-ones direction
    ones = np.ones(n) / np.sqrt(n)
    nu2 -= (nu2 @ ones) * ones
    nrm = np.linalg.norm(nu2)
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
    np.fill_diagonal(K, 0.0)
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
    )
