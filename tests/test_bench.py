"""Smoke tests for the benchmark harness, reporting and CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.config import PROFILES, BenchProfile
from repro.bench.figures import FIGURES, TABLES
from repro.bench.harness import BenchHarness, CellResult
from repro.bench.reporting import (
    METRICS,
    format_series_table,
    format_table2,
    format_table3,
)
from repro.bench.cli import main as cli_main

_TINY = BenchProfile(
    name="tiny",
    n=80,
    repeats=1,
    m_values=(2, 3),
    k_values=(1, 3),
    c_values=(0.2, 0.5),
    datasets=("UNI",),
    algorithms=("pba1", "pba2"),
)


@pytest.fixture(scope="module")
def harness():
    return BenchHarness(_TINY, verbose=False)


class TestHarness:
    def test_engine_cached(self, harness):
        first = harness.engine("UNI")
        second = harness.engine("UNI")
        assert first is second

    def test_sweep_m_produces_grid(self, harness):
        cells = harness.sweep_m()
        assert len(cells) == len(_TINY.m_values) * len(_TINY.algorithms)
        assert {cell.parameter for cell in cells} == {"m"}
        for cell in cells:
            assert cell.stats.results_reported > 0

    def test_sweep_k_varies_k(self, harness):
        cells = harness.sweep_k(algorithms=["pba2"])
        assert [cell.k for cell in cells] == list(_TINY.k_values)

    def test_sweep_c_varies_c(self, harness):
        cells = harness.sweep_c(algorithms=["pba2"])
        assert [cell.c for cell in cells] == list(_TINY.c_values)

    def test_cell_as_dict_round_trips_json(self, harness):
        cell = harness.sweep_m(algorithms=["pba2"])[0]
        payload = json.dumps(cell.as_dict())
        parsed = json.loads(payload)
        assert parsed["dataset"] == "UNI"
        assert parsed["algorithm"] == "pba2"
        assert parsed["distance_computations"] >= 0

    def test_measure_is_average_over_repeats(self):
        profile = BenchProfile(
            name="rep", n=60, repeats=3, datasets=("UNI",),
            algorithms=("pba2",), m_values=(2,), k_values=(1,),
            c_values=(0.2,),
        )
        harness = BenchHarness(profile, verbose=False)
        cell = harness.measure(
            "UNI", "pba2", m=2, k=1, c=0.2, parameter="m", value=2
        )
        assert cell.stats.results_reported == 1  # averaged, not summed


    def test_query_sets_do_not_depend_on_pythonhashseed(self):
        """Figure seeding is process-stable: two processes with
        different string-hash seeds draw the same query sets."""
        script = (
            "import json\n"
            "import repro.bench.harness as h\n"
            "from repro.bench.config import BenchProfile\n"
            "drawn = []\n"
            "select = h.select_query_objects\n"
            "def spy(*args, **kwargs):\n"
            "    ids = select(*args, **kwargs)\n"
            "    drawn.append(list(ids))\n"
            "    return ids\n"
            "h.select_query_objects = spy\n"
            "harness = h.BenchHarness(BenchProfile(name='seeds', n=60, repeats=3), "
            "verbose=False)\n"
            "harness.measure('UNI', 'pba2', m=3, k=1, c=0.2, parameter='m', value=3)\n"
            "print(json.dumps(drawn))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        draws = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            draws.append(json.loads(proc.stdout))
        assert len(draws[0]) == 3
        assert draws[0] == draws[1]


class TestReporting:
    def test_series_table_contains_all_algorithms(self, harness):
        cells = harness.sweep_m()
        text = format_series_table(cells, "cpu", "CPU")
        for algorithm in _TINY.algorithms:
            assert algorithm.upper() in text

    def test_metric_extractors(self, harness):
        cell = harness.sweep_m(algorithms=["pba2"])[0]
        for name, extract in METRICS.items():
            assert extract(cell) >= 0

    def test_table2_renders(self, harness):
        cells = {
            "m": harness.sweep_m(algorithms=["pba2"]),
            "k": harness.sweep_k(algorithms=["pba2"]),
            "c": harness.sweep_c(algorithms=["pba2"]),
        }
        text = format_table2(cells)
        assert "Table 2" in text and "UNI" in text and "CPU" in text

    def test_table3_renders(self, harness):
        cells = {
            "m": harness.sweep_m(),
            "k": harness.sweep_k(),
            "c": harness.sweep_c(),
        }
        text = format_table3(cells)
        assert "Table 3" in text and "/" in text


class TestDefinitions:
    def test_all_paper_exhibits_defined(self):
        assert set(FIGURES) == {"4", "5", "6", "7", "8"}
        assert set(TABLES) == {"2", "3"}

    def test_figure_exhibit_runs_end_to_end(self, harness):
        report, cells = FIGURES["8"].run(harness)
        assert "Figure 8" in report
        assert cells

    def test_table_exhibit_runs_end_to_end(self, harness):
        report, cells = TABLES["3"].run(harness)
        assert "Table 3" in report
        assert all(c.algorithm in ("pba1", "pba2") for c in cells)

    def test_profiles_exist(self):
        assert {"smoke", "quick", "full"} <= set(PROFILES)
        assert PROFILES["full"].n > PROFILES["quick"].n


class TestCli:
    def test_nothing_selected_errors(self, capsys):
        assert cli_main(["figures"]) == 2

    def test_figure_run(self, capsys, tmp_path):
        out = tmp_path / "cells.json"
        code = cli_main(
            [
                "figures", "--figure", "8", "--profile", "smoke",
                "--n", "60", "--repeats", "1", "--datasets", "UNI",
                "--quiet", "--json", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 8" in captured.out
        cells = json.loads(out.read_text())
        assert cells and all("dataset" in c for c in cells)
