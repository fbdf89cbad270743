#!/usr/bin/env python3
"""Outside-in benchmark of conexplore trials through the public harness API.

    python3 perfbench/run.py --workload walled_mc --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  A workload is a fixed list of
(scenario seed, connector count) trials taken from a batch file; one round
runs each of them once with `harness.run_trial`, sequentially in this
process.  `--seed` fixes the order of the trials in a round and the
subsample of layer calls the oracles re-check.  Set-up (`load_scenario`) is
timed apart, several times before and after the rounds, and reported as a
median.  Rounds run back to back while the next one is expected to end
inside `--seconds`; the first always runs.

`--trace 0` prints the end-to-end metrics.  `--trace 1` also runs one
layer-timed round (see layers.py) and prints the per-layer metrics instead.
Every trial is checked (see checks.py) outside the timed sections.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = {
    # N = 6 on a cheap-to-sample seed, N = 10 on a costly one
    "walled_mc": {"batch": "scenarios/batch_walled.json", "trials": [(1, 0), (2, 4)], "trace": False},
    "empty_mc": {"batch": "scenarios/batch_empty.json", "trials": [(0, 0), (0, 2)], "trace": False},
    "empty_trace_io": {"batch": "scenarios/batch_empty.json", "trials": [(0, 2)], "trace": True},
}
# set-up is timed twice before the rounds and once after them, each time
# repeated further while the repeats add up to under SETUP_MIN_S
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 100
WARMUP_SIM_S = 0.5  # simulated seconds of the untimed warm-up trial

END_TO_END_UNITS = {"wall_s": "s", "us_per_tick": "us", "setup_s": "s", "mission_s": "sim_s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Bench:
    def __init__(self, args):
        from conexplore import harness

        self.harness = harness
        self.args = args
        spec = WORKLOADS[args.workload]
        with open(ROOT / spec["batch"]) as fh:
            batch = json.load(fh)
        for seed, con in spec["trials"]:
            if seed not in batch["seeds"] or con not in batch["connectors"]:
                raise SystemExit(f"trial {(seed, con)} is not in {spec['batch']}")
        self.scenario_path = ROOT / batch["scenario"]
        self.traced = spec["trace"]
        self.trials = list(spec["trials"])
        random.Random(args.seed).shuffle(self.trials)
        self.run_dir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.checks = []  # (name, ok, detail)
        self.fingerprints = {}  # trial -> outputs of its first run
        self.n_trials = 0

    def load_all(self):
        return [
            self.harness.load_scenario(self.scenario_path, seed=seed, connectors=con)
            for seed, con in self.trials
        ]

    def run_round(self, scenarios, tag, run_trial=None):
        """One trial per workload entry; returns [(trial, scenario, metrics, result, wall, dir)]."""
        run_trial = run_trial or self.harness.run_trial
        out = []
        for trial, sc in zip(self.trials, scenarios):
            trace_dir = None
            if self.traced:
                trace_dir = str(self.run_dir / f"{tag}-{trial[0]}-{trial[1]}")
            t0 = time.perf_counter()
            metrics, result = run_trial(sc, trace_dir=trace_dir, use_filter=self.traced)
            wall = time.perf_counter() - t0
            out.append((trial, sc, metrics, result, wall, trace_dir))
        return out

    def check_round(self, rnd):
        from checks import fingerprint, trace_checks, trial_checks

        for trial, sc, metrics, result, _wall, trace_dir in rnd:
            self.n_trials += 1
            self.checks += trial_checks(sc, metrics, result)
            if trace_dir is not None:
                self.checks += trace_checks(trace_dir, sc, metrics, result)
            fp = fingerprint(metrics, result)
            first = self.fingerprints.setdefault(trial, fp)
            if first is not fp:
                self.checks.append(("deterministic_repeat", fp == first, trial))


def ticks_of(rnd):
    return sum(round(m.completion_time / sc.dt) for _t, sc, m, _r, _w, _d in rnd)


def round_wall(rnd):
    return sum(w for *_x, w, _d in rnd)


def time_setup(bench, samples, reps):
    """Time set-up repeats into samples; returns the last set of scenarios."""
    start = len(samples)
    while len(samples) - start < reps or (
        sum(samples[start:]) < SETUP_MIN_S and len(samples) - start < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        scenarios = bench.load_all()
        samples.append(time.perf_counter() - t0)
    return scenarios


def measure(bench, seconds):
    """Set-up repeats, warm-up, timed rounds, set-up repeats; returns end-to-end figures."""
    setup = []
    scenarios = time_setup(bench, setup, 2)
    bench.harness.run_trial(dataclasses.replace(scenarios[0], timeout=WARMUP_SIM_S))

    rounds = []
    start = time.perf_counter()
    while True:
        if rounds:
            scenarios = bench.load_all()
        t0 = time.perf_counter()
        rounds.append(bench.run_round(scenarios, f"r{len(rounds)}"))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    time_setup(bench, setup, 1)
    for rnd in rounds:
        bench.check_round(rnd)

    walls = [round_wall(r) for r in rounds]
    completions = [m.completion_time for r in rounds for _t, _s, m, *_x in r]
    return rounds, {
        "wall_s": statistics.median(walls),
        "us_per_tick": 1e6 * sum(walls) / sum(ticks_of(r) for r in rounds),
        "setup_s": statistics.median(setup),
        "mission_s": statistics.median(completions),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_pass(bench, untimed_wall):
    """One set-up and one round with every layer span on; returns per-layer figures."""
    from checks import adjacency_oracle, field_oracles, trace_volume
    from layers import LayerTimer

    timer = LayerTimer(bench.args.seed)
    sim_self_ns = 0

    def timed(sc, **kwargs):
        nonlocal sim_self_ns
        out, own = timer.trial(bench.harness.run_trial, sc, **kwargs)
        sim_self_ns += own
        return out

    timer.install()
    try:
        scenarios = bench.load_all()
        attempts = timer.calls("world.clearance")
        rasterize_s = timer.total_s("world.rasterize")
        for spans in (timer.incl, timer.self_ns):
            for lst in spans.values():
                lst.clear()  # the wrappers keep these lists; set-up spans end here
        rnd = bench.run_round(scenarios, "layers", timed)
    finally:
        timer.restore()
    bench.check_round(rnd)
    for args, state in timer.captured["connectivity.evaluate_field"]:
        bench.checks += field_oracles(args, state)
    for args, adj in timer.captured["world.adjacency"]:
        bench.checks += adjacency_oracle(args, adj)

    ticks = ticks_of(rnd)
    accepted = sum(len(targets) for sc in scenarios for _q, targets in sc.robots)
    rows = nbytes = 0
    for *_x, trace_dir in rnd:
        if trace_dir is not None:
            r, b = trace_volume(trace_dir)
            rows, nbytes = rows + r, nbytes + b

    figures = {
        "sim.self_us_per_tick": (sim_self_ns / 1e3 / ticks, "us"),
        "sim.ticks": (ticks, "count"),
        "connectivity.busy_s": (timer.total_s("connectivity.evaluate_field"), "s"),
        "connectivity.degenerate_ticks": (sum(r.monitors.degenerate_ticks for _t, _s, _m, r, *_x in rnd), "count"),
        "world.rasterize.s": (rasterize_s, "s"),
        "world.clearance.calls": (attempts, "count"),
        "harness.target_attempts": (attempts, "count"),
        "harness.target_accept_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
        "netsim.sent": (timer.sent, "count"),
        "netsim.delivered": (timer.delivered, "count"),
        "trace.rows": (rows, "count"),
        "trace.bytes": (nbytes, "bytes"),
        "bench.timing_overhead_pct": (100.0 * (round_wall(rnd) / untimed_wall - 1.0), "%"),
    }
    for name in (
        "connectivity.evaluate_field",
        "world.adjacency",
        "world.clearances",
        "planner.astar",
        "planner.SmoothPath",
        "planner.track_frame",
        "planner.closest_point",
        "behavior.plan_tick",
        "netsim.deliver_round",
        "dynamics.filter_step",
    ):
        figures[f"{name}.calls"] = (timer.calls(name), "count")
        if name == "behavior.plan_tick":
            figures[f"{name}.self_us"] = (timer.median_us(name, own=True), "us")
        else:
            figures[f"{name}.us"] = (timer.median_us(name), "us")
    for name in ("WeightFactors", "fiedler", "lambda2_gradient"):
        figures[f"connectivity.{name}.us"] = (timer.median_us(f"connectivity.{name}"), "us")
    return figures


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "conexplore").is_dir() or not (ROOT / "scenarios").is_dir():
        print(f"error: no conexplore source checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    bench = Bench(args)
    try:
        rounds, e2e = measure(bench, args.seconds)
        if args.trace:
            layer = layer_pass(bench, statistics.median(round_wall(r) for r in rounds))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass

    failed = [c for c in bench.checks if not c[1]]
    for name, _ok, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(
        f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
        f"trials={bench.n_trials} checks={len(bench.checks)} failed_checks={len(failed)}"
    )
    print("checks: " + " ".join(f"{k}={v}" for k, v in sorted(Counter(c[0] for c in bench.checks).items())))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": bench.n_trials + len(bench.checks),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
