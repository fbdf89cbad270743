"""Scenario loading, seeded trial execution, Monte Carlo batches, and the
five-number summaries emitted by the CLI."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .behavior import BehaviorParams
from .connectivity import ConnectivityParams, WeightFactors, fiedler, laplacian
from .dynamics import BodyParams
from .sim import RunResult, Simulation
from .world import ObstacleSet, OccupancyGrid, SensingParams, rasterize


@dataclass
class TrialMetrics:
    completion_time: float
    mean_explorer_distance: float
    max_stretch: float
    mean_lambda2: float
    min_lambda2: float
    min_interrobot_dist: float
    min_obstacle_clearance: float
    completed: bool

    @classmethod
    def field_names(cls):
        return [f.name for f in fields(cls)]

    def row(self):
        return [getattr(self, name) for name in self.field_names()]


@dataclass
class Scenario:
    name: str
    obstacles: ObstacleSet
    grid: OccupancyGrid
    bounds: tuple
    sensing: SensingParams
    conn: ConnectivityParams
    behavior: BehaviorParams
    body: BodyParams
    robots: list  # (position, [(target, dwell), ...]) per robot
    timeout: float
    dt: float


class ScenarioError(ValueError):
    pass


def _sample_targets(cfg, obstacles, grid, bounds, sensing, rng):
    """Rejection-sample one target list per explorer.

    A sample is accepted when it lies in the target region, its grid cell is
    free, it keeps R_o_outer clearance from obstacles, and it stays at least
    target_min_separation (default R_c_outer) away from every previously
    accepted target.

    Candidates are drawn and tested in blocks, yet the result is that of
    testing one `rng.random(3)` draw at a time: `Generator.random` fills a
    (k, 3) block row by row, so row r is the r-th single draw, and once a row
    is accepted the stream is rewound and advanced past that row only.  The
    block size starts at 1 for every target and grows 4x after each block
    without an accepted row, so it follows the rejection rate.
    """
    counts = cfg["explorer_target_counts"]
    min_sep = float(cfg.get("target_min_separation", sensing.R_c_outer))
    min_sep = max(min_sep, sensing.R_c_outer)
    region = cfg.get("target_region")
    if region is None:
        lo = np.asarray(bounds[0], dtype=float) + 1.0
        hi = np.asarray(bounds[1], dtype=float) - 1.0
    else:
        lo = np.asarray(region["min"], dtype=float)
        hi = np.asarray(region["max"], dtype=float)
    span = hi - lo
    # every candidate lies in [lo, lo + span], and cell_of is monotone, so an
    # unoccupied grid whose cells cover both corners can reject none of them
    check_cells = bool(grid.occupied.any()) or not (
        grid.is_free(grid.cell_of(lo)) and grid.is_free(grid.cell_of(lo + span))
    )
    accepted = np.empty((sum(counts), 3))
    acc_rows = [None] * len(accepted)  # the same rows as float lists
    lo_row, span_row = lo.tolist(), span.tolist()

    def passing(z, n_acc):
        """Indices of the candidate rows of z that pass every test, ascending."""
        rows = np.arange(len(z))
        if check_cells:
            cells = np.floor((z - grid.origin) / grid.cell_size).astype(np.intp)
            rows = rows[((cells >= 0) & (cells < grid.dims)).all(axis=1)]
            rows = rows[~grid.occupied[tuple(cells[rows].T)]]
        if not obstacles.empty:
            rows = rows[obstacles.clearances(z[rows]) >= sensing.R_o_outer]
        if n_acc and len(rows):
            zr = z[rows] if len(rows) < len(z) else z
            gap = zr[:, None, :] - accepted[None, :n_acc, :]
            d = np.sqrt((gap * gap).sum(axis=2).min(axis=1))
            ok = d >= min_sep
            # rows within rounding of min_sep take the scalar test's verdict
            near = np.abs(d - min_sep) <= 1e-9 * min_sep
            if near.any():
                for j in np.flatnonzero(near):
                    ok[j] = min(np.linalg.norm(zr[j] - a) for a in accepted[:n_acc]) >= min_sep
            rows = rows[ok]
        return rows

    def separated(z, n_acc):
        """The separation test of one candidate z, a float list."""
        x, y, w = z
        d2 = [(x - a) * (x - a) + (y - b) * (y - b) + (w - c) * (w - c) for a, b, c in acc_rows[:n_acc]]
        d = math.sqrt(min(d2, default=math.inf))
        if abs(d - min_sep) <= 1e-9 * min_sep:
            return min(np.linalg.norm(np.array(z) - a) for a in accepted[:n_acc]) >= min_sep
        return d >= min_sep

    def draw_target(n_acc):
        """The next accepted candidate, or None after 2000 rejected ones."""
        left, k = 2000, 1
        while left:
            m = min(k, left)
            if m == 1 and not check_cells and obstacles.empty:
                # only the separation can reject: floats give the array test's bits
                z = [a + r * b for a, r, b in zip(lo_row, rng.random(3).tolist(), span_row)]
                if separated(z, n_acc):
                    return np.array(z)
            else:
                saved = rng.bit_generator.state if m > 1 else None
                z = lo + rng.random((m, 3)) * span
                hits = passing(z, n_acc)
                if len(hits):
                    hit = hits[0]
                    if hit + 1 < m:
                        rng.bit_generator.state = saved
                        rng.random((hit + 1, 3))
                    return z[hit].copy()
            left -= m
            k *= 4
        return None

    # sequential rejection can corner itself near the packing limit, so a
    # failed set is discarded and resampled from the same stream
    for _restart in range(50):
        n_acc = 0
        per_robot = []
        for c in counts:
            lst = []
            for _ in range(c):
                z = draw_target(n_acc)
                if z is None:
                    break
                accepted[n_acc] = z
                acc_rows[n_acc] = z.tolist()
                n_acc += 1
                lst.append(z)
            if len(lst) < c:
                break
            per_robot.append(lst)
        else:
            return per_robot
    raise ScenarioError("target sampling failed: region too constrained")


def _read_json(path):
    """Parsed JSON file; malformed JSON raises ScenarioError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: malformed JSON: {exc}") from exc


def load_scenario(path, seed=None, connectors=None) -> Scenario:
    """Build a Scenario from a JSON file.

    Concrete files list robots explicitly; template files carry spawn points
    and explorer target counts, and require a seed for target randomization.
    The same seed yields the same targets for every connector count.
    Malformed JSON or a missing key raises ScenarioError.
    """
    cfg = _read_json(path)
    try:
        return _build_scenario(cfg, path, seed, connectors)
    except KeyError as exc:
        raise ScenarioError(f"{path}: missing key {exc}") from exc


def _section(path, name, build):
    """build(), with its ValueError or TypeError raised as a ScenarioError."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: bad {name}: {exc}") from exc


def _build_scenario(cfg, path, seed, connectors) -> Scenario:
    bounds = (cfg["bounds"]["min"], cfg["bounds"]["max"])
    obst_cfg = cfg.get("obstacles", {})
    obstacles = _section(
        path,
        "obstacles",
        lambda: ObstacleSet.from_primitives(points=obst_cfg.get("points"), boxes=obst_cfg.get("boxes", ())),
    )
    sensing = _section(path, "sensing", lambda: SensingParams(**cfg["sensing"]))
    conn = _section(
        path, "connectivity", lambda: ConnectivityParams(**cfg.get("connectivity", {}))
    )
    behavior = _section(path, "behavior", lambda: BehaviorParams(**cfg.get("behavior", {})))
    body = _section(path, "body", lambda: BodyParams(**cfg.get("body", {})))
    grid = _section(
        path, "bounds or grid_cell", lambda: rasterize(obstacles, bounds, cfg.get("grid_cell", 0.75))
    )

    if "robots" in cfg:
        robots = [
            (
                np.asarray(r["position"], dtype=float),
                [(np.asarray(tg["z"], dtype=float), tg["dwell"]) for tg in r.get("targets", [])],
            )
            for r in cfg["robots"]
        ]
    else:
        if seed is None:
            raise ScenarioError("template scenario requires a seed")
        rng = np.random.default_rng(int(seed))
        per_robot = _sample_targets(cfg, obstacles, grid, bounds, sensing, rng)
        dwell = float(cfg.get("dwell", 3.0))
        spawn = [np.asarray(p, dtype=float) for p in cfg["spawn_points"]]
        n_exp = len(per_robot)
        n_con = int(cfg.get("connectors", 0) if connectors is None else connectors)
        if n_exp + n_con > len(spawn):
            raise ScenarioError("not enough spawn points for requested team size")
        robots = [(spawn[i], [(z, dwell) for z in per_robot[i]]) for i in range(n_exp)]
        robots += [(spawn[n_exp + j], []) for j in range(n_con)]

    positions = np.array([r[0] for r in robots])
    if len(positions) >= 2:
        W = WeightFactors(positions, obstacles, sensing).weight_matrix()
        lambda2 = fiedler(laplacian(W)).lambda2
        if lambda2 <= conn.lambda2_min:
            raise ScenarioError(f"initial graph not connected: lambda2={lambda2:.6g}")
    return Scenario(
        name=cfg.get("name", str(path)),
        obstacles=obstacles,
        grid=grid,
        bounds=bounds,
        sensing=sensing,
        conn=conn,
        behavior=behavior,
        body=body,
        robots=robots,
        timeout=float(cfg.get("timeout", 300.0)),
        dt=float(cfg.get("dt", 1e-3)),
    )


def run_trial(scenario: Scenario, trace_dir=None, use_filter=False) -> tuple:
    """Run one deterministic trial; returns (TrialMetrics, RunResult)."""
    simu = Simulation(
        obstacles=scenario.obstacles,
        grid=scenario.grid,
        sensing=scenario.sensing,
        conn=scenario.conn,
        bp=scenario.behavior,
        body=scenario.body,
        robots=scenario.robots,
        timeout=scenario.timeout,
        dt=scenario.dt,
        trace_dir=trace_dir,
        use_filter=use_filter,
    )
    result = simu.run()
    mask = result.explorer_mask
    mean_dist = float(result.traveled[mask].mean()) if mask.any() else 0.0
    metrics = TrialMetrics(
        completion_time=result.completion_time,
        mean_explorer_distance=mean_dist,
        max_stretch=result.max_stretch,
        mean_lambda2=result.mean_lambda2,
        min_lambda2=result.min_lambda2,
        min_interrobot_dist=result.min_interrobot_dist,
        min_obstacle_clearance=result.min_obstacle_clearance,
        completed=result.completed and result.fault is None,
    )
    return metrics, result


ID_COLUMNS = ["scenario", "connectors", "seed"]


def run_montecarlo(batch_path, out_csv=None):
    """Run a seeded batch; returns (rows, faults, timeouts).

    Rows are ordered by (connector count, seed); each row is the three id
    columns followed by the TrialMetrics fields.  Identical seeds reuse
    identical target configurations across connector counts.
    """
    batch = _read_json(batch_path)
    try:
        scenario_path = batch["scenario"]
        connector_counts = batch["connectors"]
        seeds = batch["seeds"]
    except KeyError as exc:
        raise ScenarioError(f"{batch_path}: missing key {exc}") from exc
    rows = []
    faults = 0
    timeouts = 0
    for n_con in connector_counts:
        for seed in seeds:
            scenario = load_scenario(scenario_path, seed=seed, connectors=n_con)
            metrics, result = run_trial(scenario)
            if result.fault is not None:
                faults += 1
            elif not result.completed:
                timeouts += 1
            rows.append([scenario.name, n_con, seed, *metrics.row()])
    if out_csv:
        write_rows(out_csv, rows)
    return rows, faults, timeouts


def write_rows(out_csv, rows):
    with open(out_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ID_COLUMNS + TrialMetrics.field_names())
        w.writerows(rows)


def read_rows(in_csv):
    """Header and rows of a metrics CSV; an empty file raises ScenarioError."""
    with open(in_csv) as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ScenarioError(f"{in_csv}: empty metrics file")
        return header, [row for row in r]


def summarize(rows):
    """Five-number summary per (scenario, connector count) per metric.

    Accepts rows shaped as run_montecarlo emits them; returns a dict
    {(scenario, connectors): {metric: (min, p25, p50, p75, max)}}.  A row of
    the wrong length or with a non-numeric cell raises ScenarioError.
    """
    names = TrialMetrics.field_names()
    width = len(ID_COLUMNS) + len(names)
    groups = {}
    for n, row in enumerate(rows, 1):
        try:
            if len(row) != width:
                raise ValueError(f"{len(row)} cells, expected {width}")
            key = (row[0], int(row[1]))
            vals = [float(x) for x in row[3 : 3 + len(names) - 1]]
        except ValueError as exc:
            raise ScenarioError(f"metrics row {n}: {exc}") from exc
        groups.setdefault(key, []).append(vals)
    out = {}
    for key, vals in groups.items():
        arr = np.asarray(vals)
        table = {}
        for j, name in enumerate(names[:-1]):
            col = arr[:, j]
            table[name] = tuple(
                float(np.percentile(col, p)) for p in (0, 25, 50, 75, 100)
            )
        out[key] = table
    return out


def format_summary(summary) -> str:
    lines = []
    for (scen, ncon), table in sorted(summary.items()):
        lines.append(f"scenario={scen} connectors={ncon}")
        lines.append(f"  {'metric':<24}{'min':>10}{'p25':>10}{'p50':>10}{'p75':>10}{'max':>10}")
        for name, vals in table.items():
            lines.append(
                f"  {name:<24}" + "".join(f"{v:>10.3f}" for v in vals)
            )
    return "\n".join(lines)
