"""Runner and trajectory-file tests (repro.obs.perf.runner)."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.obs.perf.env import git_dirty

from repro.obs.perf.runner import (
    FILE_SCHEMA,
    RUN_SCHEMA,
    RunnerOptions,
    bench_file_path,
    load_bench_file,
    record_run,
    run_suite,
)
from repro.obs.perf.suites import SUITES, BenchCase, CaseSample, stable_seed


def constant_case(bench_id="t/one", wall=0.002, dists=10):
    def run():
        return CaseSample(
            wall_seconds=wall,
            counters={"distance_computations": dists, "page_faults": 3},
            metrics={"results": 5},
        )

    return BenchCase(id=bench_id, run=run, meta={"dataset": "t"})


def flaky_counter_case(bench_id="t/flaky"):
    calls = iter(range(100))

    def run():
        return CaseSample(
            wall_seconds=0.001,
            counters={"page_faults": 3, "cache_hits": next(calls)},
        )

    return BenchCase(id=bench_id, run=run)


class TestStableSeed:
    def test_deterministic_and_hash_free(self):
        # hash() of strings varies per process (PYTHONHASHSEED); the
        # CRC-based seed must not — pin known values.
        assert stable_seed("core", 42, "UNI", 5) == stable_seed(
            "core", 42, "UNI", 5
        )
        assert stable_seed("a") != stable_seed("b")
        assert stable_seed("core", 42) == 667455651

    def test_non_negative(self):
        for part in ("", "x", 0, -1, 3.5, ("a", 1)):
            assert 0 <= stable_seed(part) <= 0x7FFFFFFF


def test_git_dirty_sees_changes_to_tracked_files_only(tmp_path):
    def committed_tree(name):
        root = tmp_path / name
        root.mkdir()
        (root / "f.txt").write_text("a")
        for args in (["init", "-q"], ["add", "f.txt"], ["commit", "-q", "-m", "i"]):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=root, check=True, capture_output=True,
            )
        return root

    clean, dirty = committed_tree("clean"), committed_tree("dirty")
    (clean / "untracked.txt").write_text("x")
    (dirty / "f.txt").write_text("b")
    assert git_dirty(str(clean)) is False
    assert git_dirty(str(dirty)) is True
    assert git_dirty(str(tmp_path)) is None  # not a work tree


class TestRunSuite:
    def test_run_document_schema(self):
        run = run_suite(
            "synthetic",
            profile="smoke",
            options=RunnerOptions(warmup=1, repeats=3),
            cases=[constant_case()],
        )
        assert run["schema"] == RUN_SCHEMA
        assert run["suite"] == "synthetic"
        assert run["profile"] == "smoke"
        assert run["warmup"] == 1 and run["repeats"] == 3
        assert run["env"]["profile"] == "smoke"
        assert "python" in run["env"] and "cpu_count" in run["env"]
        assert "git_dirty" in run["env"]
        (bench,) = run["benchmarks"]
        assert bench["id"] == "t/one"
        assert len(bench["wall_seconds"]) == 3
        assert bench["counters"] == {
            "distance_computations": 10,
            "page_faults": 3,
        }
        assert bench["meta"] == {"dataset": "t"}
        assert "nondeterministic_counters" not in bench

    def test_disagreeing_counters_are_demoted(self):
        run = run_suite(
            "synthetic",
            options=RunnerOptions(warmup=0, repeats=3),
            cases=[flaky_counter_case()],
        )
        (bench,) = run["benchmarks"]
        # page_faults agreed across repeats -> stays a gated counter;
        # cache_hits moved -> demoted, per-repeat values preserved.
        assert bench["counters"] == {"page_faults": 3}
        assert bench["nondeterministic_counters"] == ["cache_hits"]
        assert bench["metrics"]["cache_hits_per_repeat"] == [0, 1, 2]

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            run_suite("x", options=RunnerOptions(repeats=0), cases=[constant_case()])
        with pytest.raises(ValueError):
            run_suite("x", options=RunnerOptions(warmup=-1), cases=[constant_case()])
        with pytest.raises(ValueError):
            run_suite("synthetic", cases=[])

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("no-such-suite")

    def test_registry_has_the_three_suites(self):
        assert set(SUITES) == {"core", "streaming", "backends"}


class TestTrajectoryFile:
    def test_first_run_becomes_baseline(self, tmp_path):
        path = bench_file_path("core", str(tmp_path))
        assert path.endswith("BENCH_core.json")
        run = run_suite("core", cases=[constant_case()],
                        options=RunnerOptions(warmup=0, repeats=1))
        document = record_run(path, run)
        assert document["schema"] == FILE_SCHEMA
        assert document["baseline"] == run
        assert document["runs"] == [run]
        # round-trips through the schema-checked loader
        assert load_bench_file(path)["suite"] == "core"

    def test_baseline_is_pinned_until_rebaseline(self, tmp_path):
        path = bench_file_path("core", str(tmp_path))
        options = RunnerOptions(warmup=0, repeats=1)
        first = run_suite("core", cases=[constant_case(dists=10)], options=options)
        second = run_suite("core", cases=[constant_case(dists=99)], options=options)
        record_run(path, first)
        document = record_run(path, second)
        assert document["baseline"] == first  # pinned
        assert len(document["runs"]) == 2
        document = record_run(path, second, rebaseline=True)
        assert document["baseline"] == second

    def test_history_is_bounded(self, tmp_path):
        path = bench_file_path("core", str(tmp_path))
        options = RunnerOptions(warmup=0, repeats=1)
        for _ in range(5):
            run = run_suite("core", cases=[constant_case()], options=options)
            record_run(path, run, max_history=3)
        document = load_bench_file(path)
        assert len(document["runs"]) == 3
        assert document["baseline"] is not None  # survives trimming

    def test_suite_mismatch_refused(self, tmp_path):
        path = bench_file_path("core", str(tmp_path))
        options = RunnerOptions(warmup=0, repeats=1)
        record_run(path, run_suite("core", cases=[constant_case()], options=options))
        other = run_suite("streaming", cases=[constant_case()], options=options)
        with pytest.raises(ValueError, match="refusing"):
            record_run(path, other)

    def test_loader_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="repro-bench/1"):
            load_bench_file(str(path))
