"""Suite execution and the ``BENCH_<suite>.json`` trajectory files.

One **run** executes every case of a suite — ``warmup`` throwaway
repetitions, then ``repeats`` measured ones — and produces a
schema-versioned JSON document: the environment fingerprint, the suite
configuration, and per-case wall-clock samples plus deterministic
counters.  Counters are recorded from every repetition and collapsed
to a single value only when all repetitions agree; a counter that
moves between repetitions of the *same* case is demoted to
``nondeterministic_counters`` so the zero-tolerance gate never fires
on noise it cannot attribute.

Runs accumulate in ``BENCH_<suite>.json`` at the repository root — the
recorded performance trajectory.  The file holds a pinned ``baseline``
(what the gate compares against, refreshed only deliberately via
``repro-bench run --rebaseline``) and a bounded ``runs`` history.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.perf.env import environment_fingerprint, git_dirty
from repro.obs.perf.suites import BenchCase, build_suite

__all__ = [
    "FILE_SCHEMA",
    "RUN_SCHEMA",
    "bench_file_path",
    "load_bench_file",
    "record_run",
    "run_suite",
]

FILE_SCHEMA = "repro-bench/1"
RUN_SCHEMA = "repro-bench-run/1"

#: bounded trajectory length: the newest runs matter, the file must
#: stay reviewable in a diff.
MAX_HISTORY = 50


@dataclass
class RunnerOptions:
    """Execution policy for one suite run."""

    warmup: int = 1
    repeats: int = 3
    quiet: bool = True
    progress: Callable[[str], None] = field(default=lambda _msg: None)


def _measure_case(
    case: BenchCase, warmup: int, repeats: int
) -> Dict[str, Any]:
    for _ in range(warmup):
        case.run()
    wall: List[float] = []
    counter_runs: List[Dict[str, int]] = []
    metrics: Dict[str, Any] = {}
    for _ in range(repeats):
        sample = case.run()
        wall.append(sample.wall_seconds)
        counter_runs.append(dict(sample.counters))
        metrics = dict(sample.metrics)
    counters: Dict[str, int] = {}
    nondeterministic: List[str] = []
    for name in sorted(counter_runs[0]) if counter_runs else []:
        values = [run.get(name) for run in counter_runs]
        if all(value == values[0] for value in values):
            counters[name] = values[0]
        else:
            nondeterministic.append(name)
            metrics[f"{name}_per_repeat"] = values
    record: Dict[str, Any] = {
        "id": case.id,
        "wall_seconds": wall,
        "counters": counters,
        "metrics": metrics,
    }
    if nondeterministic:
        record["nondeterministic_counters"] = nondeterministic
    if case.meta:
        record["meta"] = dict(case.meta)
    return record


def run_suite(
    suite: str,
    profile: str = "smoke",
    options: Optional[RunnerOptions] = None,
    cases: Optional[List[BenchCase]] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Dict[str, Any]:
    """Execute a suite and return its run document.

    ``cases`` overrides the registry lookup (tests inject tiny
    synthetic cases; the CLI's ``--datasets``/``--algorithms`` filters
    pre-build and subset the real ones).
    """
    options = options or RunnerOptions()
    if options.repeats < 1:
        raise ValueError("repeats must be >= 1")
    if options.warmup < 0:
        raise ValueError("warmup must be >= 0")
    if cases is None:
        cases = build_suite(suite, profile, clock=clock)
    if not cases:
        raise ValueError(f"suite {suite!r} produced no cases")
    started = time.time()
    benchmarks: List[Dict[str, Any]] = []
    for index, case in enumerate(cases):
        record = _measure_case(case, options.warmup, options.repeats)
        benchmarks.append(record)
        wall = min(record["wall_seconds"])
        options.progress(
            f"[{index + 1}/{len(cases)}] {case.id}"
            f"  wall={wall * 1e3:8.2f} ms"
            + (
                f"  dists={record['counters']['distance_computations']}"
                if "distance_computations" in record["counters"]
                else ""
            )
        )
    return {
        "schema": RUN_SCHEMA,
        "suite": suite,
        "profile": profile,
        "created": started,
        "warmup": options.warmup,
        "repeats": options.repeats,
        "wall_seconds_total": time.time() - started,
        "env": environment_fingerprint(
            profile=profile, extras={"git_dirty": git_dirty()}
        ),
        "benchmarks": benchmarks,
    }


# ----------------------------------------------------------------------
# trajectory files
# ----------------------------------------------------------------------
def bench_file_path(suite: str, root: str = ".") -> str:
    """The conventional trajectory path: ``<root>/BENCH_<suite>.json``."""
    return os.path.join(root, f"BENCH_{suite}.json")


def load_bench_file(path: str) -> Dict[str, Any]:
    """Read and schema-check a trajectory file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if (
        not isinstance(document, dict)
        or document.get("schema") != FILE_SCHEMA
    ):
        raise ValueError(
            f"{path}: not a {FILE_SCHEMA} benchmark file "
            f"(schema={document.get('schema') if isinstance(document, dict) else None!r})"
        )
    return document


def record_run(
    path: str,
    run: Dict[str, Any],
    rebaseline: bool = False,
    max_history: int = MAX_HISTORY,
) -> Dict[str, Any]:
    """Append ``run`` to the trajectory at ``path`` (created if absent).

    The first recorded run becomes the baseline; afterwards the
    baseline only moves when ``rebaseline`` is explicit — a gate
    failure must never be silenced by simply re-running.
    """
    if os.path.exists(path):
        document = load_bench_file(path)
        if document.get("suite") != run["suite"]:
            raise ValueError(
                f"{path} records suite {document.get('suite')!r}, "
                f"refusing to append a {run['suite']!r} run"
            )
    else:
        document = {
            "schema": FILE_SCHEMA,
            "suite": run["suite"],
            "baseline": None,
            "runs": [],
        }
    document["runs"].append(run)
    if max_history > 0:
        document["runs"] = document["runs"][-max_history:]
    if rebaseline or document.get("baseline") is None:
        document["baseline"] = run
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=False)
        handle.write("\n")
    return document
