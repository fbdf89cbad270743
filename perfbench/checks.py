"""Correctness checks that do not depend on any recorded output.

Every check returns (name, ok, detail).  The trial checks restate the
paper's invariants and a path-length lower bound built from the scenario's
own target lists; the oracles recompute captured layer results by other
means; the trace checks re-derive trial figures from the files a traced
trial wrote.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import scipy.linalg

from conexplore.connectivity import evaluate_field

FD_STEP = 1e-6
FD_REL_TOL = 1e-4  # the acceptance suite's gradient tolerance
EIGENGAP_MIN = 1e-3  # below this the Fiedler value is not smooth enough for FD
EDGE_TOL = 1e-9  # pairs this close to a threshold are left out of the adjacency oracle


def trial_checks(scenario, metrics, result):
    mon = result.monitors
    s = scenario.sensing
    out = [
        ("completed", metrics.completed and result.fault is None, result.fault),
        ("lambda2_floor", metrics.min_lambda2 > scenario.conn.lambda2_min, metrics.min_lambda2),
        ("interrobot", metrics.min_interrobot_dist > s.R_c, metrics.min_interrobot_dist),
        ("clearance", metrics.min_obstacle_clearance > s.R_o, metrics.min_obstacle_clearance),
        ("single_prime", mon.max_prime_count <= 1, mon.max_prime_count),
        ("targets", mon.targets_done == mon.targets_planned, (mon.targets_done, mon.targets_planned)),
    ]
    out.append(("path_lower_bound", *_path_lower_bound(scenario, result)))
    return out


def _path_lower_bound(scenario, result):
    """Each explorer travels at least the gaps between the balls it must enter.

    It arrives within arrival_frac * R_z of a target and leaves it from within
    R_z (the anchor barrier), so leg k+1 is at least |z_{k+1} - z_k| minus
    (1 + arrival_frac) R_z, and the first leg |z_1 - spawn| - arrival_frac R_z.
    """
    bp = scenario.behavior
    short = []
    for i, (spawn, targets) in enumerate(scenario.robots):
        prev, slack, bound = spawn, bp.arrival_frac * bp.R_z, 0.0
        for z, _dwell in targets:
            bound += max(0.0, float(np.linalg.norm(z - prev)) - slack)
            prev, slack = z, (1.0 + bp.arrival_frac) * bp.R_z
        if result.traveled[i] < bound:
            short.append((i, float(result.traveled[i]), bound))
    return not short, short


def fingerprint(metrics, result):
    """Bitwise identity of a trial's outputs (floats compared by their hex form)."""

    def exact(v):
        return v.hex() if isinstance(v, float) else v

    return (
        tuple(exact(v) for v in metrics.row()),
        dataclasses.astuple(result.monitors),
        tuple(tuple(exact(v) for v in e) for e in result.events),
        result.traveled.tobytes(),
    )


# -- oracles on captured layer calls ------------------------------------------


def field_oracles(args, state):
    q, obstacles, sensing, cp = args[:4]
    W = state.W
    L = np.diag(W.sum(axis=1)) - W
    evals = scipy.linalg.eigvalsh(L)
    lam_err = abs(float(evals[1]) - state.lambda2)
    out = [
        ("oracle_lambda2_eigvalsh", lam_err <= 1e-9 * max(1.0, float(np.abs(L).max())), lam_err),
        (
            "oracle_W_structure",
            bool(
                np.allclose(W, W.T, rtol=0.0, atol=1e-14)
                and (W >= 0.0).all()
                and (np.diag(W) == 0.0).all()
            ),
            None,
        ),
    ]
    if state.degenerate or state.eigengap <= EIGENGAP_MIN:
        return out

    def lam2(x):
        return evaluate_field(x, obstacles, sensing, cp).lambda2

    lam0 = lam2(q)
    fwd = np.empty_like(q)
    bwd = np.empty_like(q)
    for i in range(len(q)):
        for k in range(3):
            x = q.copy()
            x[i, k] += FD_STEP
            fwd[i, k] = (lam2(x) - lam0) / FD_STEP
            x[i, k] = q[i, k] - FD_STEP
            bwd[i, k] = (lam0 - lam2(x)) / FD_STEP
    central = 0.5 * (fwd + bwd)
    # the obstacle factor is a minimum over points, so lambda2 has kinks where
    # two points tie; a kink inside the stencil moves the central difference by
    # at most half the gap between the one-sided ones, which is excused
    excess = np.maximum(np.abs(central - state.grad) - 0.5 * np.abs(fwd - bwd), 0.0)
    scale = float(np.linalg.norm(central))
    err = float(np.linalg.norm(excess))
    out.append(("oracle_gradient_fd", err <= FD_REL_TOL * scale + 1e-8, err / max(scale, 1e-300)))
    return out


def adjacency_oracle(args, adj):
    """Brute force over every pair: range d < R_s, then the segment's
    distance to every obstacle point against R_o."""
    q, obstacles, p = args[:3]
    pts = obstacles.points
    n = len(q)
    bad = []
    for i in range(n):
        if adj[i, i]:
            bad.append((i, i))
        for j in range(i + 1, n):
            d = float(np.linalg.norm(q[j] - q[i]))
            if abs(d - p.R_s) < EDGE_TOL:
                continue
            expect = d < p.R_s
            if expect and len(pts):
                u = q[j] - q[i]
                t = np.clip((pts - q[i]) @ u / (u @ u), 0.0, 1.0)
                gap = float(np.linalg.norm(q[i] + t[:, None] * u - pts, axis=1).min())
                if abs(gap - p.R_o) < EDGE_TOL:
                    continue
                expect = gap >= p.R_o
            if bool(adj[i, j]) != expect or bool(adj[j, i]) != expect:
                bad.append((i, j))
    return [("oracle_adjacency_bruteforce", not bad, bad)]


# -- files written by a traced trial ------------------------------------------


def trace_checks(trace_dir, scenario, metrics, result):
    n = len(scenario.robots)
    ticks = round(result.completion_time / scenario.dt)
    rows = np.loadtxt(os.path.join(trace_dir, "robots.csv"), delimiter=",", skiprows=1, ndmin=2)
    ok = len(rows) == ticks * n
    if ok:
        rows = rows.reshape(ticks, n, -1)
        ok = bool((rows[:, :, 1] == np.arange(n)).all())
    out = [("trace_row_count", ok, (len(rows), ticks * n))]
    if not ok:
        return out
    roles = rows[:, :, 8]
    out.append(
        (
            "trace_roles",
            bool(np.isin(roles, (1, 2, 3, 4)).all() and ((roles == 1).sum(axis=1) <= 1).all()),
            None,
        )
    )
    pos = np.concatenate([np.array([r[0] for r in scenario.robots])[None], rows[:, :, 2:5]])
    steps = np.sqrt((np.diff(pos, axis=0) ** 2).sum(axis=2)).sum(axis=0)
    mask = result.explorer_mask
    out.append(
        (
            "trace_traveled",
            bool(np.allclose(steps[mask], result.traveled[mask], rtol=1e-9, atol=0.0)),
            None,
        )
    )
    iu = np.triu_indices(n, 1)
    diff = rows[:, iu[0], 2:5] - rows[:, iu[1], 2:5]
    min_rr = float(np.sqrt((diff * diff).sum(axis=2)).min())
    out.append(
        (
            "trace_min_interrobot",
            abs(min_rr - metrics.min_interrobot_dist) <= 1e-12 * min_rr,
            (min_rr, metrics.min_interrobot_dist),
        )
    )
    conn = np.loadtxt(os.path.join(trace_dir, "connectivity.csv"), delimiter=",", skiprows=1, ndmin=2)
    out.append(("trace_lambda2_floor", bool((conn[:, 1] > scenario.conn.lambda2_min).all()), None))
    filt = rows[:, :, 9:]
    out.append(("trace_filter_finite", filt.shape[2] == 6 and bool(np.isfinite(filt).all()), None))
    return out


def trace_volume(trace_dir):
    """(data rows, bytes) over every file a traced trial wrote."""
    n_rows = n_bytes = 0
    for name in os.listdir(trace_dir):
        path = os.path.join(trace_dir, name)
        n_bytes += os.path.getsize(path)
        with open(path, "rb") as fh:
            n_rows += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    return n_rows, n_bytes
