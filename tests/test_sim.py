import json

from conexplore import harness, sim

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


def test_simulation_runs_the_tested_laws(tmp_path, monkeypatch):
    calls = dict.fromkeys(LAWS, 0)
    for name in LAWS:
        law = getattr(sim, name)

        def counted(*args, _name=name, _law=law, **kwargs):
            calls[_name] += 1
            return _law(*args, **kwargs)

        monkeypatch.setattr(sim, name, counted)
    path = tmp_path / "two_explorers.json"
    path.write_text(json.dumps(TWO_EXPLORERS))
    metrics, result = harness.run_trial(harness.load_scenario(path))
    assert metrics.completed and result.fault is None
    assert all(calls.values()), calls
