"""Release acceptance gate.

Each test checks one gate criterion and prints a single PASS/FAIL line
(visible under pytest -rA or -s).  The seeded trial suite (60 trials across
the empty and walled worlds) runs once in a session fixture and is shared by
the criteria that need it.
"""

import heapq
import json
import time

import numpy as np
import pytest

from conexplore import harness
from conexplore.behavior import adaptive_gain, consensus_step, elect_winner
from conexplore.connectivity import WeightFactors, fiedler, lambda2_gradient, laplacian
from conexplore.dynamics import ReferenceFilter
from conexplore.planner import NoPath, astar
from conexplore.world import ObstacleSet, SensingParams, rasterize
from oracles import grid_path_cost
from record_golden import GOLDEN_PATH, changed_fields, trial_key, trial_record
from static_team import run_election

SUITE = [
    ("scenarios/walled_15x20.json", (0, 4), tuple(range(20))),
    ("scenarios/empty_15x20.json", (0, 2), tuple(range(10))),
]


def _report(num, label, ok):
    print(f"[ACCEPTANCE] {num:02d} {label}: {'PASS' if ok else 'FAIL'}", flush=True)


@pytest.fixture(scope="session")
def suite_runs():
    """All 60 seeded trials plus per-scenario wall-clock time."""
    trials = []
    wall = {}
    for path, connector_counts, seeds in SUITE:
        t0 = time.time()
        for ncon in connector_counts:
            for seed in seeds:
                sc = harness.load_scenario(path, seed=seed, connectors=ncon)
                metrics, result = harness.run_trial(sc)
                trials.append(
                    {
                        "name": sc.name,
                        "ncon": ncon,
                        "seed": seed,
                        "n": len(sc.robots),
                        "timeout": sc.timeout,
                        "robots": sc.robots,
                        "conn": sc.conn,
                        "sensing": sc.sensing,
                        "metrics": metrics,
                        "result": result,
                    }
                )
        wall[path] = time.time() - t0
    return trials, wall


def test_01_connectivity_invariant(suite_runs):
    trials, wall = suite_runs
    violations = []
    for t in trials:
        m = t["metrics"]
        tag = (t["name"], t["ncon"], t["seed"])
        if not m.min_lambda2 > t["conn"].lambda2_min:
            violations.append((tag, "lambda2", m.min_lambda2))
        if not m.min_interrobot_dist > t["sensing"].R_c:
            violations.append((tag, "interrobot", m.min_interrobot_dist))
        if not m.min_obstacle_clearance > t["sensing"].R_o:
            violations.append((tag, "clearance", m.min_obstacle_clearance))
    total_wall = sum(wall.values())
    ok = len(trials) >= 60 and not violations and total_wall < 600.0
    _report(1, "connectivity invariant over seeded suite", ok)
    assert len(trials) >= 60
    assert not violations, violations
    assert total_wall < 600.0, f"suite took {total_wall:.0f}s"


def test_suite_matches_golden_record(suite_runs):
    # bitwise record of every suite trial; rewrite it only with record_golden.py
    trials, _ = suite_runs
    golden = json.loads(GOLDEN_PATH.read_text())["trials"]
    got = {
        trial_key(t["name"], t["ncon"], t["seed"]): trial_record(t["robots"], t["metrics"], t["result"])
        for t in trials
    }
    changed = changed_fields(golden, got)
    assert not changed, changed


def test_02_gradient_matches_finite_differences():
    sensing = SensingParams(
        R_s=6.0, R_s_inner=2.5, R_o=0.75, R_o_outer=1.75, R_c=1.0, R_c_outer=2.5, R_m=4.0
    )
    empty = ObstacleSet()
    rng = np.random.default_rng(2024)
    h = 1e-6
    t0 = time.time()
    checked = 0
    worst = 0.0
    while checked < 100:
        q = rng.random((5, 3)) * 4.0
        d = np.linalg.norm(q[:, None] - q[None], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() <= sensing.R_c:
            continue
        f = WeightFactors(q, empty, sensing)
        spec = fiedler(laplacian(f.weight_matrix()))
        if spec.eigengap <= 1e-3 or spec.lambda2 < 1e-6:
            continue
        checked += 1
        g = lambda2_gradient(f, spec)
        fd = np.empty_like(g)
        for i in range(5):
            for k in range(3):
                qp = q.copy()
                qp[i, k] += h
                qm = q.copy()
                qm[i, k] -= h
                lp = fiedler(laplacian(WeightFactors(qp, empty, sensing).weight_matrix())).lambda2
                lm = fiedler(laplacian(WeightFactors(qm, empty, sensing).weight_matrix())).lambda2
                fd[i, k] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(fd - g) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(2, f"analytic gradient vs finite differences (worst {worst:.2e})", ok)
    assert worst < 1e-4
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_03_spectral_oracle():
    k3 = np.ones((3, 3)) - np.eye(3)
    p3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    disc = np.zeros((3, 3))
    errs = [
        abs(fiedler(laplacian(k3)).lambda2 - 3.0),
        abs(fiedler(laplacian(p3)).lambda2 - 1.0),
        abs(fiedler(laplacian(disc)).lambda2 - 0.0),
    ]
    ok = max(errs) < 1e-9
    _report(3, "triangle / chain / disconnected eigenvalue oracle", ok)
    assert max(errs) < 1e-9, errs


def test_04_gain_algebra_grid():
    thetas = np.linspace(0.0, 1.0, 101)
    lams = np.linspace(0.0, 1.0, 101)
    sigmas = (1.0, 2.0, 3.0, 4.0, 5.0)
    ok = True
    for th in thetas:
        for sg in sigmas:
            if adaptive_gain(th, 1.0, sg) != 1.0 or adaptive_gain(th, 0.0, sg) != 0.0:
                ok = False
            prev = -1.0
            for lam in lams:
                rho = adaptive_gain(th, lam, sg)
                if sg == 1.0 and abs(rho - lam) > 1e-12:
                    ok = False
                if rho < prev - 1e-15:
                    ok = False
                prev = rho
    _report(4, "adaptive gain identities and monotonicity on 101x101x5 grid", ok)
    assert ok


def test_05_completeness_and_single_prime(suite_runs):
    trials, _ = suite_runs
    bad = []
    for t in trials:
        tag = (t["name"], t["ncon"], t["seed"])
        r = t["result"]
        mon = r.monitors
        if not r.completed or r.fault is not None:
            bad.append((tag, "incomplete", r.fault))
        if not r.completion_time < t["timeout"]:
            bad.append((tag, "timeout", r.completion_time))
        if mon.targets_done != mon.targets_planned:
            bad.append((tag, "targets", (mon.targets_done, mon.targets_planned)))
        if mon.max_prime_count > 1:
            bad.append((tag, "multiple leaders", mon.max_prime_count))
        if mon.max_primeless_rounds > t["n"] - 1:
            bad.append((tag, "leaderless window", mon.max_primeless_rounds))
    ok = not bad
    _report(5, "all suite trials complete with a unique leader", ok)
    assert not bad, bad


def test_06_connector_benefit_walled(suite_runs):
    trials, wall = suite_runs
    walled = [t for t in trials if t["name"] == "walled_15x20"]
    by_count = {}
    for t in walled:
        by_count.setdefault(t["ncon"], {})[t["seed"]] = t["metrics"].completion_time
    counts = sorted(by_count)
    assert len(counts) == 2
    lo, hi = counts
    seeds = sorted(by_count[lo])
    assert seeds == sorted(by_count[hi]) and len(seeds) >= 20
    med_lo = float(np.median([by_count[lo][s] for s in seeds]))
    med_hi = float(np.median([by_count[hi][s] for s in seeds]))
    walled_wall = wall["scenarios/walled_15x20.json"]
    ok = med_hi < med_lo and walled_wall < 900.0
    _report(
        6,
        f"walled median completion {med_lo:.1f}s ({lo} conn) -> {med_hi:.1f}s ({hi} conn)",
        ok,
    )
    assert med_hi < med_lo, (med_lo, med_hi)
    assert walled_wall < 900.0, f"walled batch took {walled_wall:.0f}s"


def test_07_consensus_convergence():
    def run(adj, prime, value, k=1.0, dt=1e-3, horizon=20.0):
        n = adj.shape[0]
        adj_f = adj.astype(float)
        vals = np.array([value if i == prime else 0.0 for i in range(n)])
        for _ in range(int(round(horizon / dt))):
            vals = consensus_step(vals, adj_f, adj_f.sum(axis=1), k, dt)
            vals[prime] = value
        return max(abs(v - value) for v in vals)

    tri = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
    star = np.zeros((6, 6), dtype=bool)
    star[0, 1:] = star[1:, 0] = True
    k6 = ~np.eye(6, dtype=bool)
    line3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    errs = [
        run(tri, prime=0, value=0.8),
        run(star, prime=0, value=0.8),
        run(k6, prime=2, value=0.8),
        run(line3, prime=0, value=0.8),
    ]
    ok = max(errs) < 1e-3
    _report(7, f"pinned consensus error after 20/k s (worst {max(errs):.1e})", ok)
    assert max(errs) < 1e-3, errs


def test_08_filter_step_settling():
    rf = ReferenceFilter()
    dt = 1e-3
    history = []
    for _ in range(3000):
        p, _, _ = rf.step([1.0, 0.0, 0.0], dt)
        history.append(abs(p[0] - 1.0))
    settled = 3000 * dt
    for k in range(len(history) - 1, -1, -1):
        if history[k] > 0.05:
            settled = (k + 2) * dt
            break
    ok = 0.24 <= settled <= 0.36
    _report(8, f"step response 5% settling time {settled:.3f}s (target 0.30 +/- 20%)", ok)
    assert ok, f"settling time {settled:.3f}s outside [0.24, 0.36]"


_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def _dijkstra_cost(grid, start, goal):
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, c = heapq.heappop(heap)
        if c == goal:
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


def test_09_planner_optimality_50_grids():
    rng = np.random.default_rng(404)
    cases = 0
    worst = 0.0
    while cases < 50:
        dims = tuple(int(d) for d in rng.integers(4, 13, size=3))
        pts = rng.integers(0, dims, size=(int(rng.integers(0, 40)), 3)) + 0.5
        grid = rasterize(ObstacleSet(pts if len(pts) else None), ([0, 0, 0], list(dims)), 1.0)
        start = (0, 0, 0)
        goal = (dims[0] - 1, dims[1] - 1, dims[2] - 1)
        if not (grid.is_free(start) and grid.is_free(goal)):
            continue
        cases += 1
        ref = _dijkstra_cost(grid, start, goal)
        if ref is None:
            with pytest.raises(NoPath):
                astar(grid, grid.center(start), grid.center(goal))
        else:
            got = grid_path_cost(astar(grid, grid.center(start), grid.center(goal)))
            worst = max(worst, abs(got - ref))
    ok = worst < 1e-9
    _report(9, f"grid search optimal on 50 random grids (worst dev {worst:.1e})", ok)
    assert worst < 1e-9


def test_10_election_matches_oracle():
    rng = np.random.default_rng(555)
    cases = 0
    ok = True
    while cases < 50:
        n = int(rng.integers(2, 11))
        adj = np.zeros((n, n), dtype=bool)
        order = rng.permutation(n)
        for k in range(1, n):
            j = order[k]
            i = order[rng.integers(0, k)]
            adj[i, j] = adj[j, i] = True
        for _ in range(rng.integers(0, n)):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                adj[i, j] = adj[j, i] = True
        host = int(rng.integers(0, n))
        m = int(rng.integers(0, n + 1))
        # quantized distances force index tie-breaks in roughly half the cases
        quantize = bool(rng.integers(0, 2))
        cands = {}
        for i in rng.choice(n, size=m, replace=False):
            d = float(rng.integers(1, 4)) if quantize else float(rng.random() * 10)
            cands[int(i)] = d
        winner, rounds = run_election(adj, host, cands)
        if rounds > 2 * (n - 1) or winner != elect_winner(cands.items()):
            ok = False
        cases += 1
    _report(10, "distributed election equals centralized oracle on 50 graphs", ok)
    assert ok
