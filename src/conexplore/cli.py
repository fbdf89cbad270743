"""Command-line entry point: single runs, Monte Carlo batches, summaries.

Exit codes: 0 success, 2 connectivity/anchor fault, 3 timeout-only failure,
4 bad input: a scenario or batch file that is missing, malformed or lacks a
key, a scenario that cannot be built (a bad parameter value or a malformed
obstacle list among them), a metrics CSV that cannot be summarized, or a
file that cannot be read or written.  Bad input prints one `error: ...` line
on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def _cmd_run(args) -> int:
    scenario = harness.load_scenario(args.scenario, seed=args.seed)
    metrics, result = harness.run_trial(
        scenario, trace_dir=args.trace_dir, use_filter=args.filter
    )
    for name, value in zip(harness.TrialMetrics.field_names(), metrics.row()):
        print(f"{name}: {value}")
    if result.fault is not None:
        print(f"fault: {result.fault}", file=sys.stderr)
        return 2
    if not result.completed:
        print("timeout: task incomplete", file=sys.stderr)
        return 3
    return 0


def _cmd_mc(args) -> int:
    rows, faults, timeouts = harness.run_montecarlo(args.batch, out_csv=args.out)
    print(f"{len(rows)} trials -> {args.out} ({faults} faults, {timeouts} timeouts)")
    if faults:
        return 2
    if timeouts:
        return 3
    return 0


def _cmd_summarize(args) -> int:
    path = getattr(args, "in")
    _, rows = harness.read_rows(path)
    try:
        summary = harness.summarize(rows)
    except harness.ScenarioError as exc:
        raise harness.ScenarioError(f"{path}: {exc}") from exc
    print(harness.format_summary(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="conexplore")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("--scenario", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trace-dir", default=None)
    run.add_argument("--filter", action="store_true", help="add filtered trace columns")
    run.set_defaults(func=_cmd_run)

    mc = sub.add_parser("mc", help="run a Monte Carlo batch")
    mc.add_argument("--batch", required=True)
    mc.add_argument("--out", required=True)
    mc.set_defaults(func=_cmd_mc)

    summ = sub.add_parser("summarize", help="five-number summary of a metrics CSV")
    summ.add_argument("--in", dest="in", required=True)
    summ.set_defaults(func=_cmd_summarize)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (harness.ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
