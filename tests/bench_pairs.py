"""Paired benchmark of two commits: alternating perfbench runs into BENCH_<n>.json.

    python tests/bench_pairs.py --parent 19b49f7 --change HEAD --out BENCH_19.json \
        --title "what the change does" --claim empty_mc:us_per_tick:0.85 --first-seed 301

Exports both commits with `git archive` into a scratch directory and runs
`perfbench/run.py --seconds 30 --trace 0` from each export, sequentially:
for every workload of the benchmark, 10 pairs, one parent run and one change
run per pair, the parent first in even pairs.  Pair p of the k-th workload
runs perfbench seed `--first-seed + 10 * k + p` on both sides.  Then one `--trace 1`
layer pass per workload and side, parent first (seed 7, 10 s).  Nothing
else should run on the host meanwhile: it shares the CPU with the runs.

Per workload and end-to-end metric (their units, bounds and directions are
those `BENCHMARK.json` declares) the file holds every run, the quartiles of
each side (statistics.quantiles, method='inclusive'), the paired ratios
change / parent, the wins and losses of the change and a verdict:

- `identical in every run`: every pair reads the same value;
- `claim met` / `claim missed`, for the metric `--claim` names: met with at
  least 9 wins in 10 pairs and a median gain larger than the parent's
  interquartile range;
- `better in every run`: every change run beats every parent run;
- `unresolved (spread over bound)`: either side's interquartile range over
  its median exceeds the bound;
- `worse past bound` or `within bound`: the ratio of the medians against the
  bound.

The layout is that of `BENCH_15.json`, with the `src/` line count of both
commits.  The script edits nothing in either export, perfbench included.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("walled_mc", "empty_mc", "empty_trace_io")
PAIRS, SECONDS = 10, 30.0  # the benchmark's run length; 10 pairs to judge a claim
LAYER_SEED, LAYER_SECONDS = 7, 10.0  # the layer pass of BENCH_15.json


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Extract the tree of rev into dest."""
    cmd = ["git", "archive", "--format=tar", rev]
    data = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def src_lines(tree: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((tree / "src").rglob("*.py")))


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree: its JSON line and exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree.name}: no result from {' '.join(cmd)}:\n{proc.stderr.strip()}") from None
    out["exit_code"] = proc.returncode
    return out


def quartiles(xs) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def metric_summary(parent, change, unit, bound, lower_is_better, claim=None) -> dict:
    """Quartiles, paired ratios, wins and the verdict of one metric; claim is
    the target ratio of the medians when this metric carries the claim."""

    def better(a, b):
        return a < b if lower_is_better else a > b

    qp, qc = quartiles(parent), quartiles(change)
    iqr = qp["q3"] - qp["q1"]
    ratio = qc["median"] / qp["median"] if qp["median"] else 1.0
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    gain = (qp["median"] - qc["median"]) * (1 if lower_is_better else -1)
    spread = max((q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0 for q in (qp, qc))
    worse = ratio > 1.0 + bound if lower_is_better else ratio < 1.0 - bound
    if all(p == c for p, c in zip(parent, change)):
        verdict = "identical in every run"
    elif claim is not None:
        reached = ratio <= claim if lower_is_better else ratio >= claim
        met = wins >= 0.9 * len(parent) and gain > iqr and reached
        verdict = "claim met" if met else "claim missed"
    elif all(better(c, p) for c in change for p in parent):
        verdict = "better in every run"
    elif spread > bound:
        verdict = "unresolved (spread over bound)"
    else:
        verdict = "worse past bound" if worse else "within bound"
    return {
        "unit": unit,
        "bound": bound,
        "parent": qp,
        "change": qc,
        "ratio_of_medians": ratio,
        "paired_ratios": [c / p if p else 1.0 for p, c in zip(parent, change)],
        "parent_iqr": iqr,
        "change_wins": wins,
        "change_losses": losses,
        "verdict": verdict,
        "parent_runs": parent,
        "change_runs": change,
    }


def machine(note: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
        with open("/proc/meminfo") as fh:
            mem_kb = int(next(line.split()[1] for line in fh if line.startswith("MemTotal")))
    except OSError:
        mem_kb = 0
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "memory_gb": round(mem_kb / 2**20),
        "os": f"{platform.system()} {platform.release()}",
        "note": note,
    }


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit the change is measured against")
    ap.add_argument("--change", default="HEAD", help="the commit measured (default HEAD)")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--title", required=True, help="one line on what the change does")
    ap.add_argument("--first-seed", type=int, required=True, help="seeds not used while writing the change")
    ap.add_argument("--claim", help="WORKLOAD:METRIC:RATIO, the ratio of the medians the change claims")
    ap.add_argument("--note", default="", help="what the host was like while the runs were taken")
    args = ap.parse_args(argv)
    if args.claim:
        try:
            workload, metric, ratio = args.claim.split(":")
            args.claim = (workload, metric, float(ratio))
        except ValueError:
            ap.error("--claim takes WORKLOAD:METRIC:RATIO")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_rev, change_rev = git("rev-parse", "--short", args.parent), git("rev-parse", "--short", args.change)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        trees = {"parent": export(parent_rev, Path(work) / "parent")}
        trees["change"] = export(change_rev, Path(work) / "change")
        record = measure(args, trees, parent_rev, change_rev)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, w in record["workloads"].items():
        ratios = (f"{n} {m['ratio_of_medians']:.3f} ({m['verdict']})" for n, m in w["metrics"].items())
        print(f"{workload}: {', '.join(ratios)}")
    print(f"wrote {args.out}")
    return 0


def measure(args, trees, parent_rev, change_rev) -> dict:
    """The paired runs and the layer passes, as the record to write."""
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    for k, workload in enumerate(WORKLOADS):
        seeds = [args.first_seed + k * PAIRS + p for p in range(PAIRS)]
        runs = {"parent": [], "change": []}
        first = []
        for p, seed in enumerate(seeds):
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                runs[side].append(perfbench(trees[side], workload, seed, SECONDS, 0))
                value = runs[side][-1]["metrics"]["us_per_tick"]["value"]
                print(f"{workload} pair {p} seed {seed} {side}: us_per_tick {value:.1f}", flush=True)
        metrics = {}
        for m in declared:
            name = m["name"]
            claim = None
            if args.claim and args.claim[:2] == (workload, name):
                claim = args.claim[2]
            metrics[name] = metric_summary(
                [r["metrics"][name]["value"] for r in runs["parent"]],
                [r["metrics"][name]["value"] for r in runs["change"]],
                m["unit"],
                m["bound"],
                m["better"] == "lower",
                claim,
            )
        workloads[workload] = {
            "seeds": seeds,
            "pairs": PAIRS,
            "first_side": first,
            "checks_failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "checks_attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "exit_codes_nonzero": {s: sum(r["exit_code"] != 0 for r in runs[s]) for s in runs},
            "metrics": metrics,
            "change_commit": change_rev,
        }

    layer_runs = {}
    for workload in WORKLOADS:
        layer_runs[workload] = {}
        for side in ("parent", "change"):
            r = perfbench(trees[side], workload, LAYER_SEED, LAYER_SECONDS, 1)
            layer_runs[workload][side] = {
                "correct": r["correct"],
                "attempted": r["attempted"],
                "failed_checks": r["failed"],
                **{name: m["value"] for name, m in r["metrics"].items()},
            }
            print(f"{workload} layer pass {side}: failed checks {r['failed']}", flush=True)

    claim = None
    if args.claim:
        workload, metric, ratio = args.claim
        claim = {"workload": workload, "metric": metric, "target": f"<= {ratio}x the parent's median"}
    method = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} --trace 0, run from a fresh "
        f"export of each commit (git archive) by tests/bench_pairs.py; {PAIRS} pairs per workload, "
        "the side that runs first alternating by pair (parent first in even pairs); runs are sequential. "
        "Quartiles: statistics.quantiles(method='inclusive'). A claim needs >= 9 of 10 wins and a median "
        "gain larger than the parent's interquartile range; other metrics are 'unresolved' where either "
        "side's IQR over its median exceeds the bound, unless every change run is better than every parent run."
    )
    return {
        "change": args.title,
        "parent_commit": parent_rev,
        "change_commit": change_rev,
        "machine": machine(args.note),
        "versions": versions(),
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "method": method,
        "claim": claim,
        "workloads": workloads,
        "layer_pass": {
            "command": (
                f"python3 perfbench/run.py --workload W --seed {LAYER_SEED} --seconds {LAYER_SECONDS:g} "
                "--trace 1, one run per side, parent first"
            ),
            "runs": layer_runs,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
