"""``repro-bench run/compare/gate/history`` — the perf observatory CLI.

These subcommands live on the existing ``repro-bench`` console script
(:mod:`repro.bench.cli` registers them next to ``figures``)::

    repro-bench run --suite core --profile smoke      # append a run
    repro-bench compare --suite core                  # report, exit 0
    repro-bench gate --suite core                     # exit 1 on fail
    repro-bench gate --suite core --counters-only     # CI across machines
    repro-bench history --suite core                  # the trajectory

``run`` appends to ``BENCH_<suite>.json`` in the current directory
(the committed trajectory); ``gate`` compares the newest run of the
baseline's profile against the pinned baseline.  ``run --rebaseline``
is the only way the baseline moves.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import sys
from typing import Any, Dict, List, Optional

from repro.obs.perf.compare import CompareOptions, _short_sha, compare_runs
from repro.obs.perf.runner import (
    RunnerOptions,
    bench_file_path,
    load_bench_file,
    record_run,
    run_suite,
)
from repro.obs.perf.suites import SUITES, build_suite

__all__ = ["register", "cmd_run", "cmd_compare", "cmd_gate", "cmd_history"]


def register(sub: "argparse._SubParsersAction") -> None:
    """Add the perf-observatory subcommands to a subparser set."""
    run = sub.add_parser(
        "run", help="execute a benchmark suite and record the run"
    )
    _common_args(run)
    run.add_argument(
        "--profile", default="smoke",
        help="scale profile (smoke/quick/full; default smoke)",
    )
    run.add_argument("--repeats", type=int, default=3,
                     help="measured repetitions per case (default 3)")
    run.add_argument("--warmup", type=int, default=1,
                     help="throwaway repetitions per case (default 1)")
    run.add_argument("--n", type=int, default=None,
                     help="override data set cardinality (core suite)")
    run.add_argument("--datasets", nargs="+", default=None,
                     help="restrict core suite data sets (UNI FC ZIL CAL)")
    run.add_argument("--algorithms", nargs="+", default=None,
                     help="restrict core suite algorithms")
    run.add_argument("--rebaseline", action="store_true",
                     help="pin this run as the new gate baseline")
    run.add_argument("--no-record", action="store_true",
                     help="run and report without touching the file")
    run.add_argument("--profiler-out", metavar="PATH", default=None,
                     help="attach the sampling profiler and write "
                          "collapsed stacks (flamegraph/speedscope) here")
    run.add_argument("--profiler-interval", type=float, default=0.005,
                     help="profiler sampling interval in seconds "
                          "(default 0.005)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-case progress output")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser(
        "compare", help="compare the newest run against the baseline"
    )
    _common_args(compare)
    _compare_args(compare)
    compare.set_defaults(func=cmd_compare)

    gate = sub.add_parser(
        "gate",
        help="compare and FAIL (exit 1) on regressions (exact "
             "counters; wall-clock warns unless --wall enforces it)",
    )
    _common_args(gate)
    _compare_args(gate)
    gate.set_defaults(func=cmd_gate)

    history = sub.add_parser(
        "history", help="print the recorded performance trajectory"
    )
    _common_args(history)
    history.add_argument(
        "--benchmark", metavar="ID", default=None,
        help="trace one benchmark id instead of the run summary",
    )
    history.set_defaults(func=cmd_history)


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite", default="core", choices=sorted(SUITES),
        help="benchmark suite (default core)",
    )
    parser.add_argument(
        "--file", metavar="PATH", default=None,
        help="trajectory file (default BENCH_<suite>.json)",
    )


def _compare_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold", type=float, default=0.40,
        help="relative wall-clock slowdown tolerance (default 0.40)",
    )
    parser.add_argument(
        "--counters-only", action="store_true",
        help="gate only the deterministic counters (use when baseline "
             "and current ran on different machines, e.g. CI)",
    )
    parser.add_argument(
        "--wall", action="store_true",
        help="enforce the wall-clock gate (exit 1 on slowdown) instead "
             "of reporting exceedances as warnings; use on a quiet, "
             "pinned machine",
    )
    parser.add_argument(
        "--against", default="baseline", choices=("baseline", "previous"),
        help="reference run: the pinned baseline (default) or the "
             "previous recorded run",
    )


def _resolve_file(args: argparse.Namespace) -> str:
    return args.file or bench_file_path(args.suite)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.config import PROFILES

    try:
        profile = PROFILES[args.profile]
    except KeyError:
        print(
            f"unknown profile {args.profile!r}; choose from "
            f"{sorted(PROFILES)}",
            file=sys.stderr,
        )
        return 2
    overrides: Dict[str, Any] = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.datasets:
        overrides["datasets"] = tuple(args.datasets)
    if args.algorithms:
        overrides["algorithms"] = tuple(args.algorithms)
    if overrides:
        profile = dataclasses.replace(profile, **overrides)

    def progress(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr, flush=True)

    options = RunnerOptions(
        warmup=args.warmup, repeats=args.repeats, progress=progress
    )
    profiler = None
    if args.profiler_out:
        from repro.obs.perf.profiler import SamplingProfiler

        profiler = SamplingProfiler(interval=args.profiler_interval)
        profiler.start()
    try:
        cases = build_suite(args.suite, profile)
        run = run_suite(
            args.suite, profile=args.profile, options=options, cases=cases
        )
    finally:
        if profiler is not None:
            profiler.stop()
    if profiler is not None:
        lines = profiler.write_collapsed(args.profiler_out)
        print(
            f"wrote {lines} collapsed stacks "
            f"({profiler.sample_count} samples) to {args.profiler_out}"
        )
    print(
        f"suite={args.suite} profile={args.profile}: "
        f"{len(run['benchmarks'])} benchmarks, "
        f"{run['repeats']} repeats, "
        f"{run['wall_seconds_total']:.1f}s total"
    )
    if args.no_record:
        return 0
    path = _resolve_file(args)
    document = record_run(path, run, rebaseline=args.rebaseline)
    pinned = document["baseline"] is run or args.rebaseline
    print(
        f"recorded run #{len(document['runs'])} in {path}"
        + (" (baseline pinned)" if pinned else "")
    )
    return 0


# ----------------------------------------------------------------------
# compare / gate
# ----------------------------------------------------------------------
def _load_pair(args: argparse.Namespace):
    path = _resolve_file(args)
    try:
        document = load_bench_file(path)
    except FileNotFoundError:
        print(
            f"{path} not found — run `repro-bench run --suite "
            f"{args.suite}` first",
            file=sys.stderr,
        )
        return None
    runs: List[Dict[str, Any]] = document.get("runs", [])
    if not runs:
        print(f"{path} holds no runs", file=sys.stderr)
        return None
    # one trajectory may hold several profiles (the smoke gate runs
    # next to a recorded quick run); cell ids repeat across profiles
    # at different n, so only runs of the baseline's profile compare.
    baseline = document.get("baseline") or runs[0]
    profile = baseline.get("profile")
    same = [run for run in runs if run.get("profile") == profile]
    if not same:
        print(f"{path} holds no {profile} runs", file=sys.stderr)
        return None
    if args.against == "previous":
        if len(same) < 2:
            print(
                f"{path} holds a single {profile} run; nothing previous "
                "to compare against",
                file=sys.stderr,
            )
            return None
        return same[-2], same[-1]
    return baseline, same[-1]


def _compare(args: argparse.Namespace):
    pair = _load_pair(args)
    if pair is None:
        return None
    reference, current = pair
    options = CompareOptions(
        wall_threshold=args.threshold,
        check_wall=not args.counters_only,
        # counters are exact everywhere; wall baselines only bind on a
        # quiet, pinned machine, so the CLI reports wall exceedances
        # as warnings unless --wall explicitly enforces them.
        wall_advisory=not args.wall,
    )
    return compare_runs(reference, current, options)


def cmd_compare(args: argparse.Namespace) -> int:
    report = _compare(args)
    if report is None:
        return 2
    print(report.render())
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    report = _compare(args)
    if report is None:
        return 2
    print(report.render())
    if not report.ok:
        print(
            "\ngate failed — see docs/observability.md "
            "('Reading a gate failure') for triage and the "
            "re-baseline procedure",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# history
# ----------------------------------------------------------------------
def _fmt_time(timestamp: Optional[float]) -> str:
    if not timestamp:
        return "?"
    return datetime.datetime.fromtimestamp(timestamp).strftime(
        "%Y-%m-%d %H:%M"
    )


def cmd_history(args: argparse.Namespace) -> int:
    path = _resolve_file(args)
    try:
        document = load_bench_file(path)
    except FileNotFoundError:
        print(f"{path} not found", file=sys.stderr)
        return 2
    runs: List[Dict[str, Any]] = document.get("runs", [])
    if not runs:
        print(f"{path} holds no runs")
        return 0
    baseline = document.get("baseline")
    baseline_created = baseline.get("created") if baseline else None
    if args.benchmark:
        print(f"{args.benchmark} ({path}):")
        for index, run in enumerate(runs, 1):
            bench = next(
                (
                    b
                    for b in run.get("benchmarks", [])
                    if b["id"] == args.benchmark
                ),
                None,
            )
            if bench is None:
                continue
            from repro.obs.perf.compare import median

            wall = median(bench["wall_seconds"]) * 1e3
            counters = " ".join(
                f"{name}={value}"
                for name, value in sorted(bench["counters"].items())
            )
            print(
                f"  #{index:<3d} {_fmt_time(run.get('created'))}  "
                f"wall={wall:9.3f} ms  {counters}"
            )
        return 0
    print(
        f"{path}: suite={document['suite']}, {len(runs)} run(s), "
        f"baseline from {_fmt_time(baseline_created)}"
    )
    from repro.obs.perf.compare import median

    for index, run in enumerate(runs, 1):
        env = run.get("env", {})
        total_wall = sum(
            median(b["wall_seconds"]) for b in run.get("benchmarks", [])
        )
        marker = " *" if run is baseline or (
            baseline is not None and run.get("created") == baseline_created
        ) else ""
        print(
            f"  #{index:<3d} {_fmt_time(run.get('created'))}  "
            f"sha={_short_sha(env):<16}  "
            f"py={env.get('python', '?'):<7}  "
            f"profile={run.get('profile', '?'):<6}  "
            f"benchmarks={len(run.get('benchmarks', [])):<3d}  "
            f"wall(sum of medians)={total_wall:8.3f} s{marker}"
        )
    print("  (* = pinned baseline)")
    return 0
