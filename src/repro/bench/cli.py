"""Command-line interface of the benchmark harness.

Examples::

    python -m repro.bench figures --figure 4
    python -m repro.bench figures --table 3 --profile full
    python -m repro.bench figures --all --json results.json
    python -m repro.bench figures --figure 6 --n 1200 --repeats 3

``figures`` runs the ``core`` benchmark suite — the paper's grid —
filtered to the cells the chosen exhibits show, and prints each
exhibit's series; it records nothing.  ``--repeats`` sets the query
sets averaged per cell.

The performance-observatory subcommands (``run`` / ``compare`` /
``gate`` / ``history`` — continuous benchmarking over
``BENCH_<suite>.json`` trajectories) are registered from
:mod:`repro.obs.perf.cli`::

    repro-bench run --suite core --profile smoke
    repro-bench gate --suite core
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List

from repro.bench.config import PROFILES, BenchProfile
from repro.bench.figures import FIGURES, TABLES, cells_from_run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the figures and tables of 'Metric-Based Top-k "
            "Dominating Queries' (EDBT 2014)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.obs.perf.cli import register as register_perf

    register_perf(sub)

    fig = sub.add_parser(
        "figures", help="run figure/table reproductions"
    )
    fig.add_argument(
        "--figure", action="append", default=[],
        choices=sorted(FIGURES), help="figure number to reproduce",
    )
    fig.add_argument(
        "--table", action="append", default=[],
        choices=sorted(TABLES), help="table number to reproduce",
    )
    fig.add_argument(
        "--all", action="store_true", help="every figure and table"
    )
    fig.add_argument(
        "--profile", default="quick", choices=sorted(PROFILES),
        help="scale profile (default: quick)",
    )
    fig.add_argument("--n", type=int, help="override data set cardinality")
    fig.add_argument(
        "--repeats", type=int, help="override repetitions per cell"
    )
    fig.add_argument(
        "--datasets", nargs="+",
        help="restrict to these data sets (UNI FC ZIL CAL)",
    )
    fig.add_argument(
        "--json", metavar="PATH",
        help="also dump every measured cell as JSON",
    )
    fig.add_argument(
        "--csv", metavar="PATH",
        help="also dump every measured cell as CSV",
    )
    fig.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    fig.add_argument(
        "--charts", action="store_true",
        help="also render ASCII log-scale charts for the figures",
    )
    return parser


def _resolve_profile(args: argparse.Namespace) -> BenchProfile:
    profile = PROFILES[args.profile]
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.datasets:
        overrides["datasets"] = tuple(args.datasets)
    if overrides:
        profile = dataclasses.replace(profile, **overrides)
    return profile


def main(argv: List[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "figures":
        return args.func(args)
    profile = _resolve_profile(args)

    figure_keys = sorted(FIGURES) if args.all else args.figure
    table_keys = sorted(TABLES) if args.all else args.table
    exhibits = [FIGURES[key] for key in figure_keys] + [
        TABLES[key] for key in table_keys
    ]
    if not exhibits:
        print("nothing selected: pass --figure/--table/--all", file=sys.stderr)
        return 2

    from repro.obs.perf.runner import RunnerOptions, run_suite
    from repro.obs.perf.suites import build_suite

    def progress(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr, flush=True)

    cases = [
        case
        for case in build_suite("core", profile)
        if any(
            exhibit.wants(case.meta["parameter"], case.meta["algorithm"])
            for exhibit in exhibits
        )
    ]
    run = run_suite(
        "core",
        profile=profile.name,
        options=RunnerOptions(progress=progress),
        cases=cases,
    )
    all_cells = cells_from_run(run)
    for exhibit in exhibits:
        print(f"\n### {exhibit.kind} {exhibit.key}: {exhibit.title}")
        print(
            f"(profile={profile.name}, n={profile.n}, "
            f"repeats={profile.repeats})\n"
        )
        cells = [
            cell
            for cell in all_cells
            if exhibit.wants(cell["parameter"], cell["algorithm"])
        ]
        print(exhibit.render(cells))
        if args.charts and exhibit.kind == "Figure":
            from repro.bench.charts import render_figure_charts

            metric = exhibit.metrics[0]
            for parameter in exhibit.parameters:
                print(
                    render_figure_charts(
                        [c for c in cells if c["parameter"] == parameter],
                        metric,
                        f"Figure {exhibit.key} — ASCII rendering "
                        f"({metric} vs {parameter})",
                    )
                )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(all_cells, handle, indent=2)
        print(f"\nwrote {len(all_cells)} cells to {args.json}")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as handle:
            if all_cells:
                writer = csv.DictWriter(
                    handle, fieldnames=list(all_cells[0])
                )
                writer.writeheader()
                writer.writerows(all_cells)
        print(f"wrote {len(all_cells)} rows to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
