"""repro.obs.perf — the performance observatory.

Continuous benchmarking for the paper's cost story: declarative suites
(``core`` / ``streaming`` / ``backends``) executed with warmup and repeats,
environment-fingerprinted runs recorded in schema-versioned
``BENCH_<suite>.json`` trajectory files, a comparator/gate that holds
deterministic cost counters to exact equality while judging wall-clock
medians with robust statistics, and a pure-Python sampling profiler
with collapsed-stack output.

* :mod:`repro.obs.perf.suites` — suite registry and cases.
* :mod:`repro.obs.perf.runner` — execution, run documents, trajectory
  files.
* :mod:`repro.obs.perf.compare` — comparator, gate policy.
* :mod:`repro.obs.perf.profiler` — ``sys._current_frames`` sampler.
* :mod:`repro.obs.perf.env` — environment fingerprinting.
* :mod:`repro.obs.perf.cli` — the ``repro-bench run/compare/gate/
  history`` subcommands.
"""

from repro.obs.perf.compare import (
    CompareOptions,
    CompareReport,
    Finding,
    compare_runs,
    mad,
    median,
)
from repro.obs.perf.env import environment_fingerprint, git_revision
from repro.obs.perf.profiler import SamplingProfiler
from repro.obs.perf.runner import (
    FILE_SCHEMA,
    RUN_SCHEMA,
    RunnerOptions,
    bench_file_path,
    load_bench_file,
    record_run,
    run_suite,
)
from repro.obs.perf.suites import (
    SUITES,
    BenchCase,
    CaseSample,
    build_suite,
    stable_seed,
)

__all__ = [
    "BenchCase",
    "CaseSample",
    "CompareOptions",
    "CompareReport",
    "FILE_SCHEMA",
    "Finding",
    "RUN_SCHEMA",
    "RunnerOptions",
    "SUITES",
    "SamplingProfiler",
    "bench_file_path",
    "build_suite",
    "compare_runs",
    "environment_fingerprint",
    "git_revision",
    "load_bench_file",
    "mad",
    "median",
    "record_run",
    "run_suite",
    "stable_seed",
]
