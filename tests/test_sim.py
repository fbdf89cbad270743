import csv
import json

import numpy as np
import pytest

from conexplore import connectivity, harness, sim, world
from conexplore.behavior import SECONDARY
from conexplore.planner import SmoothPath

# every control law and the integrator, at the name conexplore.sim calls it by
LAWS = (
    "travel_force",
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
