"""The example scripts must run end-to-end and tell a true story."""

import functools
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

EXAMPLES = [
    "quickstart.py",
    "protein_network.py",
    "real_estate.py",
    "dna_sequences.py",
    "road_network.py",
    "extensions_tour.py",
]


@functools.lru_cache(maxsize=None)
def run_example(name: str) -> str:
    """The script's stdout; each script runs once per session (a
    failed run raises, is not cached, and fails every test using it)."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    output = run_example(name)
    assert output.strip()


def test_quickstart_shows_agreement():
    output = run_example("quickstart.py")
    assert "algorithm agreement" in output
    # all four algorithms print the same score list.
    score_lines = [
        line.split("scores=")[1].split("]")[0]
        for line in output.splitlines()
        if "scores=" in line
    ]
    assert len(set(score_lines)) == 1


def test_real_estate_scale_invariance_holds():
    output = run_example("real_estate.py")
    assert "same domination scores? True" in output


def test_protein_network_pba_saves_distances():
    output = run_example("protein_network.py")
    counts = {}
    for line in output.splitlines():
        stripped = line.strip()
        if stripped.startswith(("aba", "pba2")):
            name, rest = stripped.split(":", 1)
            counts[name.strip()] = int(
                rest.strip().split(" ")[0]
            )
    assert counts["pba2"] < counts["aba"]


def test_dna_example_reports_costs():
    output = run_example("dna_sequences.py")
    assert "edit-distance evaluations" in output


def test_road_network_reports_progressiveness():
    output = run_example("road_network.py")
    assert "first result" in output


def test_extensions_tour_consistency_claims_hold():
    output = run_example("extensions_tour.py")
    assert "same answer? True" in output
