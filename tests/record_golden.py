"""Write tests/golden_suite.json, the bitwise record of the acceptance suite.

    PYTHONPATH=src python tests/record_golden.py
    PYTHONPATH=src python tests/record_golden.py --check [KEY ...]

Runs the 60 `SUITE` trials of test_acceptance.py and records, per trial, the
TrialMetrics values (floats as float.hex), the Monitors fields, a sha1 of the
event list, a sha1 of the traveled-distance bytes and a sha1 of the spawn
points and target lists the scenario was built with.  The header names the
Python, numpy, scipy and BLAS versions the record was taken with.  Prints the
trials whose record changed against the file it replaces, with the fields
that changed.  This script is the only writer of the file; test_acceptance.py
compares the suite against it.

`--check` writes nothing: it re-runs the named trials (keys as in the file,
such as `walled_15x20/4/2`; all 60 by default), prints each field that
differs from the record, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().with_name("golden_suite.json")
ROOT = GOLDEN_PATH.parent.parent


def _exact(v):
    return v.hex() if isinstance(v, float) else v


def trial_key(name, ncon, seed) -> str:
    return f"{name}/{ncon}/{seed}"


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def trial_record(robots, metrics, result) -> dict:
    """Record of one trial; robots is the Scenario's (spawn, targets) list."""
    events = json.dumps([[_exact(x) for x in e] for e in result.events])
    targets = json.dumps(
        [[[_exact(float(x)) for x in q], [[_exact(float(x)) for x in z] for z, _ in tl]] for q, tl in robots]
    )
    return {
        "metrics": [_exact(v) for v in metrics.row()],
        "monitors": dataclasses.asdict(result.monitors),
        "events_sha1": _sha1(events),
        "traveled_sha1": hashlib.sha1(result.traveled.tobytes()).hexdigest(),
        "targets_sha1": _sha1(targets),
    }


def changed_fields(old: dict, new: dict) -> dict:
    """{trial: [field, ...]} for every trial whose record differs."""
    out = {}
    for k in sorted(old.keys() | new.keys()):
        a, b = old.get(k), new.get(k)
        if a is None or b is None:
            out[k] = ["(added)" if a is None else "(removed)"]
        elif a != b:
            out[k] = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Record or check the golden suite record.")
    ap.add_argument(
        "--check",
        nargs="*",
        metavar="KEY",
        help="compare these trials (default: all) with the record; write nothing",
    )
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from conexplore import harness
    from test_acceptance import SUITE

    suite = [
        (trial_key(Path(path).stem, ncon, seed), path, ncon, seed)
        for path, connector_counts, seeds in SUITE
        for ncon in connector_counts
        for seed in seeds
    ]
    old = json.loads(GOLDEN_PATH.read_text())["trials"] if GOLDEN_PATH.exists() else None
    if args.check is not None:
        if old is None:
            ap.error(f"{GOLDEN_PATH.name} does not exist")
        unknown = sorted(set(args.check) - {k for k, *_ in suite})
        if unknown:
            ap.error(f"no such trial: {', '.join(unknown)}")
        suite = [t for t in suite if not args.check or t[0] in args.check]

    trials = {}
    for _, path, ncon, seed in suite:
        sc = harness.load_scenario(path, seed=seed, connectors=ncon)
        metrics, result = harness.run_trial(sc)
        key = trial_key(sc.name, ncon, seed)
        trials[key] = trial_record(sc.robots, metrics, result)
        if args.check is not None:
            changed = changed_fields({key: old[key]}, {key: trials[key]}).get(key)
            print(f"changed: {key}: {', '.join(changed)}" if changed else f"same: {key}")
    if args.check is not None:
        changed = changed_fields({k: old[k] for k in trials}, trials)
        print(f"{len(trials)} trials checked, {len(changed)} changed")
        return 1 if changed else 0
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"environment": environment(), "trials": trials}, fh, indent=1)
        fh.write("\n")
    print(f"{len(trials)} trials recorded to {GOLDEN_PATH.name}")
    if old is not None:
        changed = changed_fields(old, trials)
        print(f"{len(changed)} changed")
        for k, names in changed.items():
            print(f"changed: {k}: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
