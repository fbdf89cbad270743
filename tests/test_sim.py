import csv
import dataclasses
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conexplore import cli, connectivity, harness, sim, world
from conexplore.behavior import SECONDARY
from conexplore.dynamics import SimulationFault
from conexplore.planner import SmoothPath

# every control law, the batched dot products they take and the integrator,
# at the name conexplore.sim calls it by
LAWS = (
    "row_dots",
    "tracking_errors",
    "travel_force",
    "saturate",
    "traveling_efficiency",
    "direction_alignment",
    "adaptive_gain",
    "anchor_force",
    "consensus_step",
    "integrate_step",
)

# two explorers side by side: robot 0 travels as prime while robot 1 follows
# as secondary; both anchor at their targets, robot 1 after its hand-off win
TWO_EXPLORERS = {
    "name": "two_explorers",
    "bounds": {"min": [0.0, 0.0, 0.0], "max": [10.0, 10.0, 3.0]},
    "obstacles": {},
    "sensing": {
        "R_s": 8.0, "R_s_inner": 3.0,
        "R_o": 0.6, "R_o_outer": 1.5,
        "R_c": 0.5, "R_c_outer": 1.5,
        "R_m": 4.0,
    },
    "behavior": {"R_z": 1.8, "v_cruise": 1.0, "x_c": 0.1, "x_M": 0.6},
    "body": {},
    "grid_cell": 1.0,
    "timeout": 60.0,
    "robots": [
        {"position": [2.0, 2.0, 1.5], "targets": [{"z": [6.0, 2.0, 1.5], "dwell": 0.5}]},
        {"position": [2.0, 4.0, 1.5], "targets": [{"z": [6.0, 4.0, 1.5], "dwell": 0.5}]},
    ],
}


@pytest.fixture
def two_explorers(tmp_path):
    path = tmp_path / "two_explorers.json"
    path.write_text(json.dumps(TWO_EXPLORERS))
    return harness.load_scenario(path)


def test_simulation_runs_the_tested_laws(two_explorers, monkeypatch):
    calls = dict.fromkeys(LAWS, 0)
    for name in LAWS:
        law = getattr(sim, name)

        def counted(*args, _name=name, _law=law, **kwargs):
            calls[_name] += 1
            return _law(*args, **kwargs)

        monkeypatch.setattr(sim, name, counted)
    metrics, result = harness.run_trial(two_explorers)
    assert metrics.completed and result.fault is None
    assert all(calls.values()), calls


def test_simulation_runs_the_tested_kernel(monkeypatch):
    # adjacency and the connectivity field, at the names conexplore.sim calls,
    # must both reach the segment-obstacle kernel that tests/test_world.py checks
    calls = {}
    for module in (world, connectivity):
        kernel = module.segment_gaps

        def counted(*args, _name=module.__name__, _kernel=kernel):
            calls[_name] = calls.get(_name, 0) + 1
            return _kernel(*args)

        monkeypatch.setattr(module, "segment_gaps", counted)
    sensing = world.SensingParams(**TWO_EXPLORERS["sensing"])
    # robots 0 and 1 face each other through the wall; robot 2 links them over it
    wall = world.ObstacleSet(world.sample_box([2.9, -2, -2], [3.1, 2, 2], 0.25))
    q = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [3.0, 4.5, 0.0]])
    adj = sim.adjacency(q, wall, sensing)
    state = sim.evaluate_field(q, wall, sensing, connectivity.ConnectivityParams())
    assert not adj[0, 1] and state.W[0, 1] == 0.0
    assert calls == {"conexplore.world": 1, "conexplore.connectivity": 1}


def test_path_queries_run_the_tested_kernel(two_explorers, monkeypatch):
    # the 250 Hz tracker and the 10 Hz drag-off and candidacy queries must
    # each reach the one nearest-point kernel that tests/test_planner.py checks
    queries = {"track_frame": 0, "closest_point": 0}
    kernel_calls = dict.fromkeys(queries, 0)
    active = []
    kernel = SmoothPath._nearest

    def counted_kernel(self, *args):
        kernel_calls[active[-1]] += 1
        return kernel(self, *args)

    monkeypatch.setattr(SmoothPath, "_nearest", counted_kernel)
    for name in queries:
        query = getattr(SmoothPath, name)

        def entered(self, *args, _name=name, _query=query):
            queries[_name] += 1
            active.append(_name)
            try:
                return _query(self, *args)
            finally:
                active.pop()

        monkeypatch.setattr(SmoothPath, name, entered)
    metrics, result = harness.run_trial(two_explorers)
    assert metrics.completed and result.fault is None
    assert all(queries.values()) and kernel_calls == queries, (queries, kernel_calls)


def test_startup_secondary_logs_its_role(two_explorers):
    # robot 1 follows from t = 0, so its first role event says so
    _metrics, result = harness.run_trial(two_explorers)
    events = [e for e in result.events if e[1] == 1 and e[2] == "role_change"]
    assert events[0] == (0.0, 1, "role_change", SECONDARY)


def test_startup_host_logs_its_candidacy(two_explorers):
    # robot 0 hosts the first election and stands in it, like robot 1 does
    _metrics, result = harness.run_trial(two_explorers)
    startup = [e[:3] for e in result.events if e[0] == 0.0 and e[2] == "candidacy"]
    assert sorted(startup) == [(0.0, 0, "candidacy"), (0.0, 1, "candidacy")]


def test_startup_election_runs_on_the_network(two_explorers, tmp_path):
    # the first election floods over the team's own network: its messages are
    # in messages.csv, in the 3(N-1)+1 rounds delivered at t = 0 before the
    # first planning round, and the winner is prime from the first tick
    harness.run_trial(two_explorers, trace_dir=tmp_path)
    n = len(two_explorers.robots)

    def rows(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.DictReader(fh))

    startup = {r["kind"] for r in rows("messages.csv") if int(r["round"]) <= 3 * (n - 1)}
    assert {"election_open", "candidacy", "winner_announce"} <= startup
    winners = [int(e["robot_id"]) for e in rows("events.csv") if e["event"] == "winner" and float(e["t"]) == 0.0]
    first_tick = [r for r in rows("robots.csv")[:n] if int(r["role_code"]) == 1]
    assert [int(r["robot_id"]) for r in first_tick] == winners == [0]


@pytest.fixture
def writers(monkeypatch):
    """Every trace writer process the test starts."""
    started = []
    start = subprocess.Popen

    def popen(*args, **kwargs):
        started.append(start(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(sim.subprocess, "Popen", popen)
    return started


def _fail_at_tick(monkeypatch, k, action):
    # integrate_step runs once per tick: action runs at tick k, before its step
    calls = []
    step = sim.integrate_step

    def counted(*args):
        calls.append(None)
        if len(calls) == k + 1:
            action()
        return step(*args)

    monkeypatch.setattr(sim, "integrate_step", counted)


def test_fault_mid_trial_keeps_every_traced_row(two_explorers, tmp_path, monkeypatch, writers):
    # a fault at tick k, past the first block of rows: the trace ends with the
    # k ticks completed, and the writer still exits cleanly
    k = sim.Simulation.TRACE_BLOCK + 44

    def fault():
        raise SimulationFault("injected")

    _fail_at_tick(monkeypatch, k, fault)
    _metrics, result = harness.run_trial(two_explorers, trace_dir=tmp_path)
    assert result.fault == "SimulationFault: injected"
    with open(tmp_path / "robots.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n = len(two_explorers.robots)
    assert len(rows) == k * n
    assert float(rows[-1]["t"]) == pytest.approx(k * two_explorers.dt)
    assert [w.returncode for w in writers] == [0]


def test_trace_writer_gives_csv_writer_bytes():
    # edge values, blocks of one row, and a stream that ends inside a row
    rows = [
        [0.1, 0, 1e-300, -0.0, float("inf"), 1e22, 2],
        [1 / 3, 1, float("-inf"), float("nan"), 5e-324, 123456789.0, 4],
    ]
    data = np.array(rows).tobytes()
    out = subprocess.run(
        [sys.executable, sim.TRACE_WRITER, "%r,%d,%r,%r,%r,%r,%d", "1"],
        input=data + data[:20],
        capture_output=True,
        check=True,
    ).stdout
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([[r[0], int(r[1]), *r[2:6], int(r[6])] for r in rows])
    assert out == expected.getvalue().encode()


def test_unwritable_robot_trace_raises(two_explorers, tmp_path, writers):
    (tmp_path / "robots.csv").symlink_to("/dev/full")
    with pytest.raises(OSError, match="robots.csv"):
        harness.run_trial(two_explorers, trace_dir=tmp_path)
    assert all(w.poll() is not None for w in writers)


def test_writer_that_dies_mid_trial_raises(two_explorers, tmp_path, monkeypatch, writers):
    # the rows sent after the writer is gone fail, and the run says which file
    def kill():
        writers[0].kill()
        writers[0].wait()

    _fail_at_tick(monkeypatch, 10, kill)
    with pytest.raises(OSError, match="robots.csv"):
        harness.run_trial(two_explorers, trace_dir=tmp_path)
    assert len(writers) == 1 and writers[0].poll() is not None


def test_cli_unwritable_robot_trace_exits_4(tmp_path, capsys):
    (tmp_path / "robots.csv").symlink_to("/dev/full")
    rc = cli.main(["run", "--scenario", "scenarios/single_robot.json", "--trace-dir", str(tmp_path)])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "robots.csv" in err[0]


def _all_pairs_min(q) -> float:
    q = np.asarray(q)  # the monitor takes q as float rows
    i, j = np.triu_indices(len(q), 1)
    diff = q[i] - q[j]
    return float(np.sqrt((diff * diff).sum(axis=1).min()))


@pytest.mark.parametrize(
    "batch, seed, connectors",
    [("scenarios/batch_walled.json", 2, 4), ("scenarios/batch_empty.json", 0, 2)],
)
def test_certified_pairwise_minimum_equals_all_pairs_check(batch, seed, connectors, monkeypatch):
    # an all-pairs check after every 1 kHz tick, beside the certified monitor:
    # after each tick both running minima are the same float
    with open(batch) as fh:
        path = json.load(fh)["scenario"]
    scenario = dataclasses.replace(harness.load_scenario(path, seed=seed, connectors=connectors), timeout=5.0)
    brute = {"min": math.inf, "ticks": 0, "differ": []}
    update = sim.PairwiseMinimum.update

    def checked(self, q, traveled, step):
        update(self, q, traveled, step)
        brute["min"] = min(brute["min"], _all_pairs_min(q))
        brute["ticks"] += 1
        if self.value.hex() != brute["min"].hex():
            brute["differ"].append((brute["ticks"], self.value, brute["min"]))

    monkeypatch.setattr(sim.PairwiseMinimum, "update", checked)
    metrics, result = harness.run_trial(scenario)
    assert brute["ticks"] == 5000 and result.fault is None
    assert not brute["differ"], brute["differ"][:5]
    assert result.min_interrobot_dist.hex() == brute["min"].hex()


def test_single_robot_keeps_its_obstacle_clearance(tmp_path, monkeypatch):
    # one robot beside a wall: the field has no pair to weigh, yet the
    # clearance monitor still reads the robot's own clearance at every field
    # tick, the minimum over the points
    cfg = dict(TWO_EXPLORERS, name="one_by_a_wall", robots=TWO_EXPLORERS["robots"][:1])
    cfg["obstacles"] = {"boxes": [{"min": [0.0, 4.0, 0.0], "max": [10.0, 4.2, 3.0], "spacing": 0.25}]}
    (tmp_path / "one.json").write_text(json.dumps(cfg))
    scenario = harness.load_scenario(tmp_path / "one.json")
    positions = []
    field = sim.evaluate_field

    def captured(q, *args):
        positions.append(q.copy())
        return field(q, *args)

    monkeypatch.setattr(sim, "evaluate_field", captured)
    metrics, result = harness.run_trial(scenario)
    assert metrics.completed and result.fault is None
    pts = scenario.obstacles.points
    expect = min(float(np.sqrt(((q[0] - pts) ** 2).sum(axis=1).min())) for q in positions)
    assert math.isfinite(result.min_obstacle_clearance)
    assert result.min_obstacle_clearance.hex() == expect.hex()
