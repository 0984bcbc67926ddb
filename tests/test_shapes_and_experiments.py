"""The shape-check engine and the EXPERIMENTS.md generator."""

import json
import pathlib

from repro.bench.experiments_md import main as exp_main
from repro.bench.experiments_md import render_experiments_md, render_run
from repro.bench.figures import cells_from_run, newest_run
from repro.bench.shapes import SHAPE_CHECKS, run_shape_checks
from repro.obs.perf.runner import load_bench_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_CORE = ROOT / "BENCH_core.json"


def _cell(
    dataset="UNI",
    algorithm="pba2",
    parameter="m",
    value=5,
    m=5,
    k=10,
    c=0.2,
    cpu=0.1,
    io=0.2,
    dists=100,
    exact=10,
):
    return {
        "dataset": dataset,
        "algorithm": algorithm,
        "parameter": parameter,
        "value": value,
        "m": m,
        "k": k,
        "c": c,
        "cpu_seconds": cpu,
        "io_seconds": io,
        "page_faults": int(io / 0.008),
        "distance_computations": dists,
        "exact_score_computations": exact,
    }


def good_cells():
    """A synthetic result set satisfying every paper claim."""
    cells = []
    for dataset in ("UNI", "CAL"):
        cal = dataset == "CAL"
        for m in (2, 5, 10):
            for algorithm, dists, cpu, io, exact in (
                ("sba", 4000, 1.0, 2.0, 200),
                ("aba", 8000, 2.0, 4.0, 800),
                ("pba1", 900 + 10 * m, 0.2, 0.3, 20),
                ("pba2", 800 + 10 * m, 0.5 if cal else 0.1,
                 0.05 if cal else 0.3, 20),
            ):
                cells.append(
                    _cell(dataset, algorithm, "m", m, m=m, dists=dists,
                          cpu=cpu, io=io, exact=exact)
                )
        for k in (1, 10, 30):
            for algorithm in ("sba", "aba", "pba1", "pba2"):
                exact = 30 * k if algorithm in ("sba", "aba") else 10 + k
                cells.append(
                    _cell(dataset, algorithm, "k", k, k=k, exact=exact)
                )
        for c in (0.01, 0.2, 0.5):
            for algorithm in ("sba", "aba", "pba1", "pba2"):
                exact = (
                    int(1000 * c) + 100
                    if algorithm == "sba"
                    else 20
                )
                cells.append(
                    _cell(dataset, algorithm, "c", c, c=c, exact=exact)
                )
    return cells


class TestShapeChecks:
    def test_all_pass_on_conforming_data(self):
        verdicts = run_shape_checks(good_cells())
        assert all(verdicts.values()), verdicts

    def test_pba_distances_fails_when_pba_loses(self):
        cells = good_cells()
        for cell in cells:
            if cell["algorithm"] == "pba2" and cell["parameter"] == "m":
                cell["distance_computations"] = 10**9
        verdicts = run_shape_checks(cells)
        assert not verdicts["pba-distances"]

    def test_cal_cpu_bound_fails_when_inverted(self):
        cells = good_cells()
        for cell in cells:
            if cell["dataset"] == "CAL" and cell["algorithm"] == "pba2":
                cell["cpu_seconds"] = 0.0001
                cell["io_seconds"] = 10.0
        verdicts = run_shape_checks(cells)
        assert not verdicts["cal-cpu-bound"]

    def test_empty_cells_fail_gracefully(self):
        verdicts = run_shape_checks([])
        assert set(verdicts) == {check.key for check in SHAPE_CHECKS}
        assert not verdicts["pba-distances"]

    def test_real_harness_results_pass(self):
        """The committed quick-profile core run satisfies every claim."""
        run = newest_run(load_bench_file(str(BENCH_CORE)), "quick")
        verdicts = run_shape_checks(cells_from_run(run))
        assert all(verdicts.values()), verdicts


def _run_document(cells, profile="quick"):
    """A core run document whose records read back as ``cells``."""
    return {
        "schema": "repro-bench-run/1",
        "suite": "core",
        "profile": profile,
        "warmup": 1,
        "repeats": 3,
        "env": {"git_sha": "0123456789abcdef", "git_dirty": False},
        "benchmarks": [
            {
                "id": f"{c['dataset']}/{c['algorithm']}/"
                      f"{c['parameter']}={c['value']:g}",
                "wall_seconds": [c["cpu_seconds"]] * 3,
                "counters": {
                    "distance_computations": c["distance_computations"],
                    "page_faults": c["page_faults"],
                    "buffer_hits": 0,
                    "exact_score_computations": (
                        c["exact_score_computations"]
                    ),
                },
                "metrics": {"io_seconds": c["io_seconds"]},
                "meta": {
                    **{key: c[key] for key in (
                        "dataset", "algorithm", "parameter", "value",
                        "m", "k", "c",
                    )},
                    "n": 800,
                    "query_sets": 2,
                },
            }
            for c in cells
        ],
    }


def _trajectory(tmp_path, *runs):
    path = tmp_path / "BENCH_core.json"
    path.write_text(json.dumps({
        "schema": "repro-bench/1", "suite": "core",
        "baseline": runs[0], "runs": list(runs),
    }))
    return path


class TestExperimentsMd:
    def test_render_contains_all_sections(self):
        text = render_experiments_md(good_cells(), "note here")
        for heading in (
            "# EXPERIMENTS", "## Shape-check summary",
            "## Figure 4", "## Figure 8", "## Table 2", "## Table 3",
        ):
            assert heading in text
        assert "note here" in text
        assert "PASS" in text

    def test_render_includes_paper_reference_tables(self):
        text = render_experiments_md(good_cells())
        assert "Paper Table 2" in text
        assert "Paper Table 3" in text

    def test_cli_roundtrip(self, tmp_path, capsys):
        smoke = _run_document(good_cells()[:4], profile="smoke")
        path = _trajectory(tmp_path, smoke, _run_document(good_cells()))
        assert exp_main([str(path), "quick"]) == 0
        out = capsys.readouterr().out
        assert out == render_run(str(path), "quick") + "\n"
        assert "newest `quick` run in `BENCH_core.json`" in out
        assert "n = 800 per data set, 2 seeded query sets" in out
        assert "commit `0123456789`" in out
        assert "| **FAIL** |" not in out

    def test_cli_usage_error(self, tmp_path, capsys):
        assert exp_main([]) == 2
        path = _trajectory(tmp_path, _run_document(good_cells()[:4], "smoke"))
        assert exp_main([str(path), "quick"]) == 2
        assert "no 'quick' run" in capsys.readouterr().err

    def test_cells_round_trip_through_a_run_document(self):
        cells = good_cells()
        assert cells_from_run(_run_document(cells)) == cells

    def test_committed_sections_match_the_generator(self):
        """EXPERIMENTS.md's Figure and Table sections are the
        generator's output over the committed quick run, byte for
        byte; the hand-written sections follow them."""
        generated = render_run(str(BENCH_CORE), "quick")
        document = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert document.startswith(generated + "\n## ")
