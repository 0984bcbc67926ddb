"""The paper's figure grid (the core suite), its exhibits and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.config import PROFILES, BenchProfile
from repro.bench.figures import (
    EXHIBITS,
    FIGURES,
    TABLES,
    cell_from_record,
    cells_from_run,
    series_tables,
)
from repro.bench.cli import main as cli_main
from repro.obs.perf.runner import RunnerOptions, run_suite
from repro.obs.perf.suites import build_suite

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


def _sweep(cases, parameter, algorithms=None):
    return [
        case
        for case in cases
        if case.meta["parameter"] == parameter
        and (algorithms is None or case.meta["algorithm"] in algorithms)
    ]


@pytest.fixture(scope="module")
def cases():
    return build_suite("core", _TINY)


@pytest.fixture(scope="module")
def cells(cases):
    run = run_suite(
        "core", "tiny", options=RunnerOptions(warmup=0, repeats=1),
        cases=cases,
    )
    return cells_from_run(run)


class TestHarness:
    def test_engine_cached(self, monkeypatch):
        """The suite builds one engine per data set, shared by its cells."""
        import repro.api

        built = []
        open_engine = repro.api.open_engine

        def spy(*args, **kwargs):
            built.append(args)
            return open_engine(*args, **kwargs)

        monkeypatch.setattr(repro.api, "open_engine", spy)
        tiny = build_suite("core", _TINY)
        for case in _sweep(tiny, "m"):
            case.run()
        assert len(built) == 1

    def test_sweep_m_produces_grid(self, cases, cells):
        sweep = _sweep(cases, "m")
        assert len(sweep) == len(_TINY.m_values) * len(_TINY.algorithms)
        assert [case.meta["m"] for case in sweep] == [2, 2, 3, 3]
        for cell in cells:
            assert cell["distance_computations"] > 0

    def test_sweep_k_varies_k(self, cases):
        sweep = _sweep(cases, "k", ["pba2"])
        assert [case.meta["k"] for case in sweep] == list(_TINY.k_values)

    def test_sweep_c_varies_c(self, cases):
        sweep = _sweep(cases, "c", ["pba2"])
        assert [case.meta["c"] for case in sweep] == list(_TINY.c_values)

    def test_cell_as_dict_round_trips_json(self, cells):
        cell = cells[0]
        parsed = json.loads(json.dumps(cell))
        assert parsed == cell
        assert parsed["dataset"] == "UNI"
        assert parsed["algorithm"] in _TINY.algorithms
        assert parsed["distance_computations"] >= 0

    def test_cell_reads_median_wall_and_counters(self):
        record = {
            "id": "UNI/pba2/m=2",
            "wall_seconds": [0.5, 0.1, 0.3],
            "counters": {
                "distance_computations": 40,
                "page_faults": 3,
                "buffer_hits": 9,
                "exact_score_computations": 2,
            },
            "metrics": {"cpu_seconds": 0.5, "io_seconds": 0.024},
            "meta": {
                "dataset": "UNI", "algorithm": "pba2", "parameter": "m",
                "value": 2, "m": 2, "k": 10, "c": 0.2, "n": 80,
                "query_sets": 1,
            },
        }
        assert cell_from_record(record) == {
            "dataset": "UNI", "algorithm": "pba2", "parameter": "m",
            "value": 2, "m": 2, "k": 10, "c": 0.2,
            "cpu_seconds": 0.3,
            "io_seconds": 0.024,
            "page_faults": 3,
            "distance_computations": 40,
            "exact_score_computations": 2,
        }

    def test_measure_is_average_over_repeats(self, monkeypatch):
        """A core case averages its ``profile.repeats`` query sets."""
        from repro.core.engine import TopKDominatingEngine

        profile = BenchProfile(
            name="rep", n=60, repeats=3, datasets=("UNI",),
            algorithms=("pba2",), m_values=(2,), k_values=(1,),
            c_values=(0.2,),
        )
        (case,) = _sweep(build_suite("core", profile), "k")
        assert case.meta["query_sets"] == 3
        seen = []
        query = TopKDominatingEngine.top_k_dominating

        def spy(self, *args, **kwargs):
            results, stats = query(self, *args, **kwargs)
            seen.append(stats)
            return results, stats

        monkeypatch.setattr(TopKDominatingEngine, "top_k_dominating", spy)
        sample = case.run()
        assert len(seen) == 3
        assert sample.metrics["results"] == 1  # averaged, not summed
        for name, value in (
            ("distance_computations", [s.distance_computations for s in seen]),
            ("page_faults", [s.io.page_faults for s in seen]),
        ):
            assert sample.counters[name] == round(sum(value) / 3)

    def test_query_sets_do_not_depend_on_pythonhashseed(self):
        """Grid seeding is process-stable: two processes with
        different string-hash seeds draw the same query sets."""
        script = (
            "import json\n"
            "import repro.datasets as d\n"
            "from repro.bench.config import BenchProfile\n"
            "from repro.obs.perf.suites import build_suite\n"
            "drawn = []\n"
            "select = d.select_query_objects\n"
            "def spy(*args, **kwargs):\n"
            "    ids = select(*args, **kwargs)\n"
            "    drawn.append(list(ids))\n"
            "    return ids\n"
            "d.select_query_objects = spy\n"
            "profile = BenchProfile(name='seeds', n=60, repeats=3, "
            "m_values=(3,), datasets=('UNI',), algorithms=('pba2',))\n"
            "build_suite('core', profile)[0].run()\n"
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
        assert len({tuple(ids) for ids in draws[0]}) == 3
        assert draws[0] == draws[1]


class TestReporting:
    def test_series_table_contains_all_algorithms(self, cells):
        text = "\n".join(series_tables(cells, "m", "cpu_seconds"))
        for algorithm in _TINY.algorithms:
            assert algorithm.upper() in text

    def test_metric_extractors(self, cells):
        """Every metric an exhibit shows is a non-negative cell column."""
        for exhibit in EXHIBITS:
            for metric in exhibit.metrics:
                assert all(cell[metric] >= 0 for cell in cells)

    def test_table2_renders(self, cells):
        text = TABLES["2"].render(cells)
        assert "UNI / cpu_seconds" in text and "UNI / io_seconds" in text
        assert "PBA2" in text and "PBA1" not in text

    def test_table3_renders(self, cells):
        text = TABLES["3"].render(cells)
        assert "UNI / exact_score_computations" in text
        assert "PBA1" in text and "PBA2" in text


class TestDefinitions:
    def test_all_paper_exhibits_defined(self):
        assert set(FIGURES) == {"4", "5", "6", "7", "8"}
        assert set(TABLES) == {"2", "3"}
        assert [e.kind for e in EXHIBITS] == ["Figure"] * 5 + ["Table"] * 2

    def test_figure_exhibit_runs_end_to_end(self, cells):
        text = FIGURES["8"].render(cells)
        assert "UNI / distance_computations | 20% | 50% |" in text

    def test_table_exhibit_runs_end_to_end(self, cells):
        exhibit = TABLES["3"]
        shown = [
            c for c in cells if exhibit.wants(c["parameter"], c["algorithm"])
        ]
        assert shown
        assert all(c["algorithm"] in ("pba1", "pba2") for c in shown)

    def test_profiles_exist(self):
        assert {"smoke", "quick", "full"} <= set(PROFILES)
        assert PROFILES["full"].n > PROFILES["quick"].n
        assert PROFILES["smoke"].repeats == 1


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
        assert {c["parameter"] for c in cells} == {"c"}
