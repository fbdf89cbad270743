"""Byte record of the trace files two short traced runs write.

    PYTHONPATH=src python tests/test_trace_bytes.py

rewrites tests/trace_bytes.json: per run, the sha1 of every file in its trace
directory, under a header naming the Python, numpy, scipy and BLAS versions.
The test compares both runs against it, so a change to how traces are
written must leave every file byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from record_golden import environment
from test_sim import TWO_EXPLORERS

from conexplore import harness

RECORD_PATH = Path(__file__).resolve().with_name("trace_bytes.json")
ROOT = RECORD_PATH.parent.parent


def _empty_trial(tmp):
    # the traced batch trial of perfbench's empty_trace_io, cut at 1.3 s so
    # that robots.csv ends in the middle of a block of ticks
    sc = harness.load_scenario(ROOT / "scenarios/empty_15x20.json", seed=0, connectors=2)
    return dataclasses.replace(sc, timeout=1.3), True


def _two_explorers(tmp):
    path = tmp / "two_explorers.json"
    path.write_text(json.dumps(TWO_EXPLORERS))
    return harness.load_scenario(path), False


RUNS = {"empty_15x20/2/0 to 1.3 s, filtered": _empty_trial, "two_explorers": _two_explorers}


def trace_digests(name, tmp) -> dict:
    """{file name: sha1} of every file one traced run writes."""
    tmp.mkdir(parents=True)
    sc, use_filter = RUNS[name](tmp)
    trace_dir = tmp / "trace"
    harness.run_trial(sc, trace_dir=trace_dir, use_filter=use_filter)
    return {
        fn: hashlib.sha1((trace_dir / fn).read_bytes()).hexdigest() for fn in sorted(os.listdir(trace_dir))
    }


def test_trace_files_match_byte_record(tmp_path):
    record = json.loads(RECORD_PATH.read_text())["runs"]
    for k, name in enumerate(RUNS):
        got = trace_digests(name, tmp_path / str(k))
        assert {"robots.csv", "connectivity.csv", "events.csv", "messages.csv"} <= got.keys()
        assert any(fn.startswith("path_") for fn in got)
        changed = sorted(fn for fn in record[name].keys() | got.keys() if record[name].get(fn) != got.get(fn))
        assert not changed, (name, changed)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: trace_digests(name, Path(tmp) / str(k)) for k, name in enumerate(RUNS)}
    with open(RECORD_PATH, "w") as fh:
        json.dump({"environment": environment(), "runs": runs}, fh, indent=1)
        fh.write("\n")
    print(f"{sum(map(len, runs.values()))} files recorded to {RECORD_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
