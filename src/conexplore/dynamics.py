"""Second-order point-robot integration and the fourth-order reference filter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm


class SimulationFault(Exception):
    """Non-finite force or state encountered during integration."""


@dataclass(frozen=True)
class BodyParams:
    mass: float = 1.0
    damping: float = 4.0
    f_max: float = 10.0

    def __post_init__(self):
        if self.mass <= 0 or self.damping <= 0 or self.f_max <= 0:
            raise ValueError("mass, damping, f_max must be positive")


def saturate(f, ff: float, f_max: float):
    """Norm-saturate the force f, a 3-list, given ff = f.f."""
    n = math.sqrt(ff)
    return f if n <= f_max else [x * (f_max / n) for x in f]


def integrate_step(q, v, f, bp: BodyParams, dt: float):
    """Semi-implicit Euler step of m v' = f - b v over the total force f, on
    [x, y, z] float rows, one per robot; returns (q, v, step lengths |dt v|).

    Damping is implicit for unconditional stability; position advances with
    the updated velocity.  The operations are elementwise and the step length
    sums x, y, z from the left, so the floats give the (N, 3) array law's
    bits.  A sum of |f| under 1e300 cannot overflow in any order, and any
    other is summed by numpy: the verdict of isfinite(np.add.reduce(f)).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    c = dt / bp.mass
    den = 1.0 + dt * bp.damping / bp.mass
    q_new, v_new, step = [], [], []
    size = 0.0  # the sum of |f|
    for (x, y, z), (vx, vy, vz), (fx, fy, fz) in zip(q, v, f):
        size += abs(fx) + abs(fy) + abs(fz)
        vx, vy, vz = (vx + c * fx) / den, (vy + c * fy) / den, (vz + c * fz) / den
        dx, dy, dz = dt * vx, dt * vy, dt * vz
        q_new.append([x + dx, y + dy, z + dz])
        v_new.append([vx, vy, vz])
        step.append(math.sqrt(dx * dx + dy * dy + dz * dz))
    if not size < 1e300 and not math.isfinite(np.add.reduce(np.array(f, dtype=float), axis=None)):
        raise SimulationFault("non-finite force input")
    return q_new, v_new, step


PAPER_FILTER_GAINS = (44.0, 707.0, 5090.0, 13692.0)


class ReferenceFilter:
    """Fourth-order linear tracker producing a C4 reference from q samples.

    State holds position through jerk per axis; each step applies the exact
    zero-order-hold discretization of the linear system for the given dt.
    The initial position fixes the command shape: one (3,) point or an (N, 3)
    block of points filtered independently.
    """

    def __init__(self, gains=PAPER_FILTER_GAINS, initial_position=(0.0, 0.0, 0.0)):
        k1, k2, k3, k4 = gains
        self.gains = (k1, k2, k3, k4)
        A = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-k4, -k3, -k2, -k1],
            ]
        )
        poles = np.linalg.eigvals(A)
        if np.any(poles.real >= 0):
            raise ValueError("filter gains are not Hurwitz")
        self._A = A
        self._B = np.array([0.0, 0.0, 0.0, k4])
        p0 = np.asarray(initial_position, dtype=float)
        self.state = np.zeros((4, *p0.shape))
        self.state[0] = p0
        self._cache_dt = None
        self._Ad = None
        self._Bd = None

    def _discretize(self, dt: float):
        if dt != self._cache_dt:
            self._Ad = expm(self._A * dt)
            self._Bd = np.linalg.solve(self._A, (self._Ad - np.eye(4))) @ self._B
            self._cache_dt = dt
        return self._Ad, self._Bd

    def step(self, q_cmd, dt: float):
        """Advance one step toward q_cmd; returns (q_f, qd_f, qdd_f)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        Ad, Bd = self._discretize(dt)
        cmd = np.asarray(q_cmd, dtype=float)
        x = self.state
        self.state = (Ad @ x.reshape(4, -1)).reshape(x.shape) + np.multiply.outer(Bd, cmd)
        return self.state[0].copy(), self.state[1].copy(), self.state[2].copy()

