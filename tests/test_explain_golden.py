"""Golden explain plans: the plan content is pinned, not just its shape.

Ten plans of the CI explain-smoke instance (``uniform(n=200, seed=7,
dims=4)``, engine seed 7, ``Q=(0, 1, 2, 3)``, ``k=10``): the M-tree
and the PM-tree under every algorithm, plus the VP-tree under PBA1
and PBA2.  Each plan runs on a freshly built engine, so the cold
buffer state is the same whatever order the plans run in.

Wall-clock fields (``cpu_seconds``, ``wall_seconds``,
``self_seconds``) and the raw ``spans`` section are dropped; every
other section — counters, the phase rows in the plan's own order (by
name) with their self-costs, the funnel with its per-stage costs, the
index profile, the timeline and the discard rules — must match the
fixture exactly.

Regenerate the fixture (only for an intended plan change) with::

    PYTHONPATH=src python -m tests.test_explain_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import open_engine
from repro.datasets.synthetic import uniform

FIXTURE = Path(__file__).parent / "fixtures" / "explain_golden.json"
QUERY = (0, 1, 2, 3)
K = 10
CELLS = [
    (backend, algorithm)
    for backend in ("mtree", "pmtree")
    for algorithm in ("sba", "aba", "pba1", "pba2")
] + [("vptree", "pba1"), ("vptree", "pba2")]

_TIMING_KEYS = {"cpu_seconds", "wall_seconds", "self_seconds"}


def _normalise(value):
    if isinstance(value, dict):
        return {
            key: _normalise(item)
            for key, item in value.items()
            if key not in _TIMING_KEYS
        }
    if isinstance(value, list):
        return [_normalise(item) for item in value]
    return value


def golden_plan(backend: str, algorithm: str) -> dict:
    """The normalised plan of one cell, as stored in the fixture."""
    engine = open_engine(uniform(n=200, seed=7, dims=4), seed=7, index=backend)
    _results, _stats, plan = engine.explain(QUERY, K, algorithm=algorithm)
    document = plan.as_dict()
    del document["spans"]
    return _normalise(document)


def generate() -> dict:
    return {
        f"{backend}/{algorithm}": golden_plan(backend, algorithm)
        for backend, algorithm in CELLS
    }


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(fixture):
    assert sorted(fixture) == sorted(f"{b}/{a}" for b, a in CELLS)


@pytest.mark.parametrize(
    "backend,algorithm", CELLS, ids=[f"{b}/{a}" for b, a in CELLS]
)
def test_plan_matches_golden(fixture, backend, algorithm):
    expected = fixture[f"{backend}/{algorithm}"]
    actual = golden_plan(backend, algorithm)
    for section in expected:
        assert actual.get(section) == expected[section], (
            f"{backend}/{algorithm}: plan section {section!r} changed"
        )
    assert actual == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
