"""End-to-end CLI tests for the repro-bench perf subcommands.

Drive ``repro.bench.cli.main`` against hand-built trajectory files via
``--file`` — no real suite execution, so these stay fast and the exit
codes are deterministic.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.cli import main
from repro.obs.perf.runner import record_run


def make_run(dists=100, wall=0.010, created=1.0, profile="smoke"):
    return {
        "schema": "repro-bench-run/1",
        "suite": "core",
        "profile": profile,
        "created": created,
        "warmup": 1,
        "repeats": 3,
        "wall_seconds_total": 0.1,
        "env": {"git_sha": "a" * 40, "python": "3.12.0"},
        "benchmarks": [
            {
                "id": "UNI/pba2/m=5",
                "wall_seconds": [wall, wall, wall],
                "counters": {"distance_computations": dists},
                "metrics": {},
            }
        ],
    }


@pytest.fixture
def trajectory(tmp_path):
    path = str(tmp_path / "BENCH_core.json")
    record_run(path, make_run(created=1.0))
    return path


class TestGateExitCodes:
    def test_identical_runs_pass(self, trajectory):
        record_run(trajectory, make_run(created=2.0))
        assert main(["gate", "--file", trajectory]) == 0

    def test_counter_regression_fails(self, trajectory, capsys):
        record_run(trajectory, make_run(dists=101, created=2.0))
        assert main(["gate", "--file", trajectory]) == 1
        out = capsys.readouterr()
        assert "100 -> 101" in out.out
        # the failure banner points at the documented triage procedure
        assert "Reading a gate failure" in out.err

    def test_wall_slowdown_warns_by_default_fails_with_wall_flag(
        self, trajectory, capsys
    ):
        record_run(trajectory, make_run(wall=0.020, created=2.0))
        assert main(["gate", "--file", trajectory]) == 0
        assert "[WARN]" in capsys.readouterr().out
        assert main(["gate", "--file", trajectory, "--wall"]) == 1

    def test_counters_only_ignores_wall_entirely(self, trajectory, capsys):
        record_run(trajectory, make_run(wall=0.200, created=2.0))
        assert (
            main(["gate", "--file", trajectory, "--counters-only", "--wall"])
            == 0
        )
        assert "WARN" not in capsys.readouterr().out

    def test_against_previous(self, trajectory):
        record_run(trajectory, make_run(dists=101, created=2.0))
        record_run(trajectory, make_run(dists=101, created=3.0))
        # vs pinned baseline: regression; vs previous run: identical
        assert main(["gate", "--file", trajectory]) == 1
        assert (
            main(["gate", "--file", trajectory, "--against", "previous"]) == 0
        )

    def test_gate_compares_runs_of_the_baselines_profile(
        self, trajectory, capsys
    ):
        """A quick run reuses the smoke cell ids at another n; the gate
        must never compare it with the smoke baseline."""
        record_run(trajectory, make_run(created=2.0))
        record_run(
            trajectory, make_run(dists=900, created=3.0, profile="quick")
        )
        assert main(["gate", "--file", trajectory, "--counters-only"]) == 0
        assert "900" not in capsys.readouterr().out
        assert (
            main(["gate", "--file", trajectory, "--against", "previous"]) == 0
        )
        record_run(trajectory, make_run(dists=101, created=4.0))
        record_run(
            trajectory, make_run(dists=901, created=5.0, profile="quick")
        )
        assert main(["gate", "--file", trajectory]) == 1
        assert "100 -> 101" in capsys.readouterr().out
        # previous: the two newest smoke runs (created 2.0 and 4.0)
        assert (
            main(["gate", "--file", trajectory, "--against", "previous"]) == 1
        )
        assert "100 -> 101" in capsys.readouterr().out

    def test_previous_needs_two_runs_of_the_profile(self, trajectory, capsys):
        record_run(trajectory, make_run(created=2.0, profile="quick"))
        assert (
            main(["gate", "--file", trajectory, "--against", "previous"]) == 2
        )
        assert "single smoke run" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["gate", "--file", str(tmp_path / "nope.json")]) == 2


class TestCompareAndHistory:
    def test_compare_reports_without_failing(self, trajectory, capsys):
        record_run(trajectory, make_run(dists=150, created=2.0))
        assert main(["compare", "--file", trajectory]) == 0
        out = capsys.readouterr().out
        assert "gate: FAIL" in out  # report text still shows the verdict

    def test_history_marks_pinned_baseline(self, trajectory, capsys):
        record_run(trajectory, make_run(created=2.0))
        assert main(["history", "--file", trajectory]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "(* = pinned baseline)" in out

    def test_history_marks_dirty_tree_runs(self, trajectory, capsys):
        dirty = make_run(created=2.0)
        dirty["env"] = dict(dirty["env"], git_dirty=True)
        record_run(trajectory, dirty)
        assert main(["history", "--file", trajectory]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "sha=aaaaaaaaaa " in lines[1]
        assert "sha=aaaaaaaaaa+dirty " in lines[2]

    def test_history_single_benchmark(self, trajectory, capsys):
        assert (
            main(
                [
                    "history",
                    "--file",
                    trajectory,
                    "--benchmark",
                    "UNI/pba2/m=5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "distance_computations=100" in out

    def test_rebaselined_file_round_trips(self, trajectory):
        record_run(trajectory, make_run(dists=120, created=2.0), rebaseline=True)
        assert main(["gate", "--file", trajectory]) == 0
        document = json.load(open(trajectory))
        assert (
            document["baseline"]["benchmarks"][0]["counters"][
                "distance_computations"
            ]
            == 120
        )
