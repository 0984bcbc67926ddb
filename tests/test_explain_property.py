"""Property: explain arithmetic is conserved, not merely plausible.

Two laws over randomized datasets and queries, all four algorithms:

* **funnel conservation** — at every funnel stage the candidates
  entering equal the survivors plus the sum of per-rule discards; no
  object vanishes from the funnel unexplained and none is counted
  twice.
* **phase attribution telescopes** — the per-span *self* distance
  computations over the plan's phase table sum exactly to the run's
  ``QueryStats.distance_computations``: every distance computation the
  engine charged is attributed to exactly one phase.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.obs.explain import validate_plan
from tests.conftest import make_engine

ALGORITHMS = ["sba", "aba", "pba1", "pba2"]


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=30, max_value=110))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    grid = draw(st.sampled_from([None, 4, 8]))  # grids force ties
    m = draw(st.integers(min_value=1, max_value=4))
    query_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    k = draw(st.integers(min_value=1, max_value=12))
    return n, seed, grid, query_ids, k


@settings(max_examples=20, deadline=None)
@given(instance=instances())
def test_funnel_conserved_and_distances_attributed(instance):
    n, seed, grid, query_ids, k = instance
    engine = make_engine(n=n, dims=3, seed=seed, grid=grid)
    for algorithm in ALGORITHMS:
        engine.buffers.clear()
        results, stats, plan = engine.explain(
            query_ids, k, algorithm=algorithm
        )
        document = plan.as_dict()
        # validate_plan enforces the conservation law internally; the
        # explicit loop below keeps the failure message concrete.
        validate_plan(document)
        for stage in document["funnel"]:
            discarded = sum(stage.get("discards", {}).values())
            assert (
                stage["entering"] == stage["survivors"] + discarded
            ), (
                f"{algorithm}/{stage['phase']}: {stage['entering']} "
                f"entered but {stage['survivors']} + {discarded} "
                "accounted for"
            )
        attributed = sum(
            (phase.get("self_costs") or {}).get(
                "distance_computations", 0
            )
            for phase in document["phases"]
        )
        assert attributed == stats.distance_computations, (
            f"{algorithm}: phases attribute {attributed} distance "
            f"computations, stats counted {stats.distance_computations}"
        )
        assert document["counters"]["distance_computations"] == (
            stats.distance_computations
        )
        assert len(results) == min(k, n)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ops=st.lists(st.integers(min_value=0, max_value=79), min_size=1,
                 max_size=6),
)
# delete then re-insert object 5: both updates leave the top-k as it
# was (no delta), yet the insert still costs its m distances.
@example(seed=0, ops=[5, 5])
def test_streaming_repair_funnel_conserved(seed, ops):
    from repro.streaming.continuous import ContinuousTopK

    engine = make_engine(n=80, dims=3, seed=seed)
    maintainer = ContinuousTopK(engine, [0, 1], 5, aux_mirror=False)
    present = set(maintainer.member_ids)
    for object_id in ops:
        op = "delete" if object_id in present else "insert"
        _delta, plan = maintainer.explain_update(op, object_id)
        (present.discard if op == "delete" else present.add)(object_id)
        document = plan.as_dict()
        validate_plan(document)
        for stage in document["funnel"]:
            discarded = sum(stage.get("discards", {}).values())
            assert stage["entering"] == stage["survivors"] + discarded
        # every update here is applied, so the plan reports its cost
        # even when the top-k did not change (delta is None).
        attributed = sum(
            phase["self_costs"]["distance_computations"]
            for phase in document["phases"]
        )
        counted = document["counters"]["distance_computations"]
        assert attributed == counted
        assert counted == maintainer.last_stats.distance_computations
