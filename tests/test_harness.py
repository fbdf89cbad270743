import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from conexplore import cli, harness
from conexplore.world import ObstacleSet, SensingParams, rasterize

EMPTY_SCENARIO = "scenarios/empty_15x20.json"


def scalar_sample_targets(cfg, obstacles, grid, bounds, sensing, rng):
    """Oracle for harness._sample_targets: one candidate per rng.random(3)."""
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
    for _restart in range(50):
        accepted = []
        per_robot = []
        for c in counts:
            lst = []
            for _ in range(c):
                for _attempt in range(2000):
                    z = lo + rng.random(3) * (hi - lo)
                    if obstacles.clearance(z) < sensing.R_o_outer:
                        continue
                    cell = grid.cell_of(z)
                    if not grid.is_free(cell):
                        continue
                    if accepted and min(np.linalg.norm(z - a) for a in accepted) < min_sep:
                        continue
                    accepted.append(z)
                    lst.append(z)
                    break
                else:
                    per_robot = None
                    break
            if per_robot is None:
                break
            per_robot.append(lst)
        if per_robot is not None:
            return per_robot
    raise harness.ScenarioError("target sampling failed: region too constrained")


@pytest.fixture(scope="module")
def single_robot_run():
    scenario = harness.load_scenario("scenarios/single_robot.json")
    return harness.run_trial(scenario)


class TestLoadScenario:
    def test_template_requires_seed(self):
        with pytest.raises(harness.ScenarioError):
            harness.load_scenario(EMPTY_SCENARIO)

    def test_template_team_composition(self):
        sc = harness.load_scenario(EMPTY_SCENARIO, seed=0, connectors=2)
        explorers = [r for r in sc.robots if r[1]]
        connectors = [r for r in sc.robots if not r[1]]
        assert len(explorers) == 6
        assert len(connectors) == 2

    def test_same_seed_same_targets_across_connector_counts(self):
        a = harness.load_scenario(EMPTY_SCENARIO, seed=3, connectors=0)
        b = harness.load_scenario(EMPTY_SCENARIO, seed=3, connectors=2)
        for (qa, ta), (qb, tb) in zip(a.robots[:6], b.robots[:6]):
            assert np.array_equal(qa, qb)
            for (za, _), (zb, _) in zip(ta, tb):
                assert np.array_equal(za, zb)

    def test_different_seeds_differ(self):
        a = harness.load_scenario(EMPTY_SCENARIO, seed=0, connectors=0)
        b = harness.load_scenario(EMPTY_SCENARIO, seed=1, connectors=0)
        za = a.robots[0][1][0][0]
        zb = b.robots[0][1][0][0]
        assert not np.allclose(za, zb)

    def test_targets_respect_clearances(self):
        sc = harness.load_scenario("scenarios/walled_15x20.json", seed=5, connectors=0)
        all_targets = [z for _, tl in sc.robots for z, _ in tl]
        for z in all_targets:
            assert sc.obstacles.clearance(z) >= sc.sensing.R_o_outer
            assert sc.grid.is_free(sc.grid.cell_of(z))
        for i, zi in enumerate(all_targets):
            for zj in all_targets[i + 1 :]:
                assert np.linalg.norm(zi - zj) >= sc.sensing.R_c_outer

    def test_target_min_separation_enforced(self):
        sc = harness.load_scenario("scenarios/walled_15x20.json", seed=11, connectors=0)
        targets = [z for _, tl in sc.robots for z, _ in tl]
        for i, zi in enumerate(targets):
            for zj in targets[i + 1 :]:
                assert np.linalg.norm(zi - zj) >= 5.0

    def test_too_many_connectors_rejected(self):
        with pytest.raises(harness.ScenarioError):
            harness.load_scenario(EMPTY_SCENARIO, seed=0, connectors=99)

    def test_explicit_robot_list(self):
        sc = harness.load_scenario("scenarios/single_robot.json")
        assert len(sc.robots) == 1
        assert len(sc.robots[0][1]) == 1


class TestSampleTargets:
    # a 3.5 m square around one obstacle point: seven targets 1.5 m apart sit
    # near the packing limit, so sets corner themselves and restart
    TIGHT_SENSING = SensingParams(
        R_s=8.0, R_s_inner=3.0, R_o=0.6, R_o_outer=1.0, R_c=0.5, R_c_outer=1.5, R_m=4.0
    )
    TIGHT_BOUNDS = ([0.0, 0.0, 0.0], [6.0, 6.0, 2.0])

    @staticmethod
    def both(cfg, obstacles, grid, bounds, sensing, seed):
        """(targets, final generator state) of the oracle and of the sampler."""
        out = []
        for sampler in (scalar_sample_targets, harness._sample_targets):
            rng = np.random.default_rng(seed)
            targets = sampler(cfg, obstacles, grid, bounds, sensing, rng)
            out.append(([np.stack(t).tolist() for t in targets], rng.bit_generator.state))
        return out

    @pytest.mark.parametrize(
        "path, seed", [(EMPTY_SCENARIO, s) for s in range(10)] + [("scenarios/walled_15x20.json", 1)]
    )
    def test_matches_scalar_oracle(self, path, seed):
        cfg = json.loads(Path(path).read_text())
        sc = harness.load_scenario(path, seed=seed, connectors=0)
        oracle, blocks = self.both(cfg, sc.obstacles, sc.grid, sc.bounds, sc.sensing, seed)
        assert blocks == oracle

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_oracle_through_restarts(self, seed, monkeypatch):
        obstacles = ObstacleSet([[3.0, 3.0, 1.0]])
        grid = rasterize(obstacles, self.TIGHT_BOUNDS, 0.5)
        cfg = {
            "explorer_target_counts": [3, 2, 2],
            "target_region": {"min": [0.5, 0.5, 1.0], "max": [4.0, 4.0, 1.0]},
        }
        candidates = []
        clearance = obstacles.clearance
        monkeypatch.setattr(obstacles, "clearance", lambda z: candidates.append(z) or clearance(z))
        oracle, blocks = self.both(cfg, obstacles, grid, self.TIGHT_BOUNDS, self.TIGHT_SENSING, seed)
        assert blocks == oracle
        assert len(candidates) > 2000  # some target used up its 2000 candidates

    @staticmethod
    def block_and_float(cfg, obstacles, grid, bounds, sensing, seeds):
        """Seeds on which the sampler and the array block sampler give other
        targets or leave the generator in another state."""
        differ = []
        for seed in seeds:
            out = []
            for sampler in (oracles.block_sample_targets, harness._sample_targets):
                rng = np.random.default_rng(seed)
                targets = sampler(cfg, obstacles, grid, bounds, sensing, rng)
                out.append(([np.stack(t).tobytes() for t in targets], rng.bit_generator.state))
            if out[0] != out[1]:
                differ.append(seed)
        return differ

    @pytest.mark.parametrize(
        "path, seeds", [(EMPTY_SCENARIO, range(200)), ("scenarios/walled_15x20.json", range(3))]
    )
    def test_matches_block_sampler(self, path, seeds):
        # one-row blocks on the empty world are tested on floats, with the
        # targets and the generator state of the array test
        cfg = json.loads(Path(path).read_text())
        sc = harness.load_scenario(path, seed=0, connectors=0)
        assert not self.block_and_float(cfg, sc.obstacles, sc.grid, sc.bounds, sc.sensing, seeds)

    def test_matches_block_sampler_through_restarts(self):
        # the tight square without its obstacle: only the separation rejects,
        # so floats test the one-row blocks and arrays the larger ones
        grid = rasterize(ObstacleSet(), self.TIGHT_BOUNDS, 0.5)
        cfg = {
            "explorer_target_counts": [3, 2, 2],
            "target_region": {"min": [0.5, 0.5, 1.0], "max": [4.0, 4.0, 1.0]},
        }
        args = (cfg, ObstacleSet(), grid, self.TIGHT_BOUNDS, self.TIGHT_SENSING)
        assert not self.block_and_float(*args, range(20))

    def test_impossible_region_raises(self):
        cfg = {
            "explorer_target_counts": [2],
            "target_region": {"min": [1.0, 1.0, 1.0], "max": [1.5, 1.5, 1.0]},
        }
        grid = rasterize(ObstacleSet(), self.TIGHT_BOUNDS, 0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(harness.ScenarioError, match="too constrained"):
            harness._sample_targets(cfg, ObstacleSet(), grid, self.TIGHT_BOUNDS, self.TIGHT_SENSING, rng)


class TestRunTrial:
    def test_no_targets_completes_immediately(self):
        sc = harness.load_scenario("scenarios/no_targets.json")
        metrics, result = harness.run_trial(sc)
        assert result.completed
        assert metrics.completion_time == 0.0
        assert metrics.mean_explorer_distance == 0.0

    def test_single_robot_frozen_regression(self, single_robot_run):
        # frozen behavior: 5 m leg at 1 m/s with terminal taper plus 3 s dwell
        metrics, result = single_robot_run
        assert result.completed and result.fault is None
        assert metrics.completion_time == pytest.approx(11.0, abs=0.05)
        assert metrics.mean_explorer_distance == pytest.approx(5.05, abs=0.05)
        assert metrics.max_stretch == 0.0
        assert metrics.min_lambda2 == 1.0

    def test_deterministic_bit_for_bit(self):
        def run():
            sc = harness.load_scenario(EMPTY_SCENARIO, seed=0, connectors=1)
            m, r = harness.run_trial(sc)
            return (m.row(), r.traveled.tobytes(), tuple(e[:2] for e in r.events))

        assert run() == run()

    def test_trace_files_written(self, tmp_path):
        sc = harness.load_scenario("scenarios/no_targets.json")
        harness.run_trial(sc, trace_dir=str(tmp_path), use_filter=True)
        robots = (tmp_path / "robots.csv").read_text().splitlines()
        assert robots[0].split(",")[:4] == ["t", "robot_id", "x", "y"]
        assert "xf" in robots[0]
        assert (tmp_path / "connectivity.csv").exists()
        assert (tmp_path / "events.csv").exists()
        assert (tmp_path / "messages.csv").exists()

    def test_metrics_row_matches_field_order(self, single_robot_run):
        metrics, _ = single_robot_run
        names = harness.TrialMetrics.field_names()
        assert names[0] == "completion_time"
        assert names[-1] == "completed"
        assert len(metrics.row()) == len(names)


class TestBatchIO:
    def test_write_read_roundtrip(self, tmp_path):
        rows = [["s", 0, 1, 10.0, 5.0, 2.0, 0.9, 0.5, 1.0, 2.0, True]]
        out = tmp_path / "m.csv"
        harness.write_rows(out, rows)
        header, got = harness.read_rows(out)
        assert header == harness.ID_COLUMNS + harness.TrialMetrics.field_names()
        assert got[0][0] == "s" and got[0][3] == "10.0"

    def test_mini_batch_row_count_and_order(self, tmp_path):
        batch = {
            "scenario": "scenarios/empty_15x20.json",
            "connectors": [0, 1],
            "seeds": [0],
        }
        bp = tmp_path / "batch.json"
        bp.write_text(json.dumps(batch))
        out = tmp_path / "out.csv"
        rows, faults, timeouts = harness.run_montecarlo(bp, out_csv=out)
        assert len(rows) == 2
        assert faults == 0 and timeouts == 0
        assert [r[1] for r in rows] == [0, 1]
        header, got = harness.read_rows(out)
        assert len(got) == 2


class TestSummarize:
    ROWS = [
        ["s", 0, 1, 10.0, 5.0, 2.0, 0.9, 0.5, 1.0, 2.0, "True"],
        ["s", 0, 2, 20.0, 6.0, 3.0, 0.8, 0.4, 1.1, 2.1, "True"],
        ["s", 0, 3, 30.0, 7.0, 4.0, 0.7, 0.3, 1.2, 2.2, "True"],
        ["s", 2, 1, 8.0, 4.0, 2.0, 0.95, 0.6, 1.0, 2.0, "True"],
    ]

    def test_groups_and_quartiles(self):
        s = harness.summarize(self.ROWS)
        assert set(s) == {("s", 0), ("s", 2)}
        ct = s[("s", 0)]["completion_time"]
        assert ct == (10.0, 15.0, 20.0, 25.0, 30.0)
        assert s[("s", 2)]["completion_time"] == (8.0,) * 5

    def test_format_contains_all_metrics(self):
        text = harness.format_summary(harness.summarize(self.ROWS))
        for name in harness.TrialMetrics.field_names()[:-1]:
            assert name in text
        assert "connectors=2" in text


class TestCli:
    def test_run_success_exit_zero(self, capsys):
        rc = cli.main(["run", "--scenario", "scenarios/no_targets.json"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completion_time: 0.0" in out

    def test_summarize_pipeline(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        harness.write_rows(out, TestSummarize.ROWS)
        rc = cli.main(["summarize", "--in", str(out)])
        assert rc == 0
        assert "completion_time" in capsys.readouterr().out

    def test_mc_subcommand(self, tmp_path, capsys):
        batch = {
            "scenario": "scenarios/no_targets.json",
            "connectors": [0],
            "seeds": [0],
        }
        # a concrete scenario ignores the seed but exercises the batch plumbing
        bp = tmp_path / "b.json"
        bp.write_text(json.dumps(batch))
        out = tmp_path / "o.csv"
        rc = cli.main(["mc", "--batch", str(bp), "--out", str(out)])
        assert rc == 0
        assert "1 trials" in capsys.readouterr().out

    def test_batch_with_too_many_connectors_exits_4(self, tmp_path, capsys):
        bp = tmp_path / "b.json"
        bp.write_text(json.dumps({"scenario": EMPTY_SCENARIO, "connectors": [99], "seeds": [0]}))
        rc = cli.main(["mc", "--batch", str(bp), "--out", str(tmp_path / "o.csv")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_truncated_json_exits_4(self, tmp_path, capsys):
        text = Path("scenarios/single_robot.json").read_text()
        sp = tmp_path / "s.json"
        sp.write_text(text[: len(text) // 2])
        rc = cli.main(["run", "--scenario", str(sp)])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {sp}: malformed JSON")

    def test_missing_file_and_key_exit_4(self, tmp_path, capsys):
        assert cli.main(["run", "--scenario", str(tmp_path / "absent.json")]) == 4
        sp = tmp_path / "s.json"
        sp.write_text(json.dumps({"name": "no_bounds"}))
        assert cli.main(["run", "--scenario", str(sp)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ") and "No such file" in err[0]
        assert err[1] == f"error: {sp}: missing key 'bounds'"

    def test_disconnected_start_exits_4(self, tmp_path, capsys):
        cfg = json.loads(Path("scenarios/no_targets.json").read_text())
        cfg["robots"] = [{"position": [0.1, 0.1, 1.5]}, {"position": [9.9, 9.9, 1.5]}]
        sp = tmp_path / "s.json"
        sp.write_text(json.dumps(cfg))
        assert cli.main(["run", "--scenario", str(sp)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "not connected" in err[0]

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("sensing", "R_s_inner", 99.0, "bad sensing: need 0 < R_s_inner < R_s"),
            ("sensing", "R_S", 8.0, "bad sensing: "),
            ("behavior", "sigma", "3", "bad behavior: "),
            ("obstacles", "points", [[1.0, 2.0]], "bad obstacles: "),
        ],
        ids=["R_s_inner_above_R_s", "unknown_key", "string_for_number", "malformed_obstacle_points"],
    )
    def test_bad_parameter_value_exits_4(self, tmp_path, capsys, section, key, value, message):
        cfg = json.loads(Path("scenarios/single_robot.json").read_text())
        cfg[section][key] = value
        sp = tmp_path / "s.json"
        sp.write_text(json.dumps(cfg))
        assert cli.main(["run", "--scenario", str(sp)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {sp}: {message}")

    def test_empty_metrics_csv_exits_4(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("")
        assert cli.main(["summarize", "--in", str(path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: empty metrics file"]

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            (["s", 0, 2, "n/a", 6.0, 3.0, 0.8, 0.4, 1.1, 2.1, "True"], "could not convert"),
            (["s", 0, 2, 20.0, 6.0], "5 cells, expected 11"),
        ],
        ids=["non_numeric_cell", "short_row"],
    )
    def test_bad_metrics_row_exits_4(self, tmp_path, capsys, bad_row, message):
        path = tmp_path / "m.csv"
        harness.write_rows(path, [TestSummarize.ROWS[0], bad_row])
        assert cli.main(["summarize", "--in", str(path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: metrics row 2: {message}")

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            cli.main([])
