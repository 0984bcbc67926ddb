"""The correctness anchor of ``repro.streaming.continuous``.

After every update the incrementally maintained ``MSD(Q, k)`` must
equal a from-scratch recompute over the same universe — across
arbitrary interleavings of appends, expiries, pins and standing-query
registrations, including k larger than the window and duplicate
payloads.
"""

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro import ManhattanMetric, MetricSpace, TopKDominatingEngine
from repro.core.brute_force import brute_force_scores
from repro.metric.counting import CountingMetric
from repro.streaming import ContinuousTopK, SlidingWindowTopK, StandingQuery

from tests.conftest import make_engine
from tests.test_btree import leaf_chain


def oracle_topk(space, query_ids, universe, k):
    """Brute-force MSD(Q, k) with the (-score, id) tie-break."""
    truth = brute_force_scores(space, query_ids, universe=list(universe))
    ranked = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(oid, score) for oid, score in ranked[: min(k, len(truth))]]


def as_pairs(items):
    return [(item.object_id, item.score) for item in items]


# ---------------------------------------------------------------------------
# the hypothesis property
# ---------------------------------------------------------------------------
@st.composite
def churn_scenarios(draw):
    initial = draw(st.integers(min_value=6, max_value=16))
    window_size = draw(st.integers(min_value=initial, max_value=20))
    # deliberately allowed to exceed the window: k > |window| must
    # simply return every member, ranked.
    k = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    threshold = draw(st.sampled_from([0.3, 0.95]))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["append", "append_dup", "pin", "unpin"]),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return initial, window_size, k, seed, threshold, ops


@settings(max_examples=25, deadline=None)
@given(scenario=churn_scenarios())
def test_incremental_equals_batch_recompute(scenario):
    initial, window_size, k, seed, threshold, ops = scenario
    engine = make_engine(n=initial, seed=seed)
    window = SlidingWindowTopK(engine, window_size=window_size)
    rng = np.random.default_rng(seed)

    # standing query on two pinned members: pinning keeps the query
    # objects alive (as ghosts) however far the stream churns.
    queries = window.live_ids[:2]
    for q in queries:
        window.pin(q)
    maintainer = window.register(queries, k, recompute_threshold=threshold)

    last_payload = rng.random(3)
    for op, arg in ops:
        if op == "append":
            last_payload = (
                np.round(rng.random(3) * 4) / 4
            )  # quantized: duplicates and ties are common
            window.append(last_payload)
        elif op == "append_dup":
            window.append(np.array(last_payload))  # exact duplicate payload
        elif op == "pin":
            live = window.live_ids
            window.pin(live[arg % len(live)])
        elif op == "unpin":
            candidates = sorted(set(window.live_ids) | {arg % 30})
            window.unpin(candidates[arg % len(candidates)])
        # the anchor: maintained result == from-scratch recompute,
        # exact ids and scores, after *every* op.
        expected = oracle_topk(engine.space, queries, window.live_ids, k)
        assert as_pairs(maintainer.result) == expected
        assert len(maintainer) == len(window.live_ids)

    assert maintainer.counters["updates"] >= sum(
        1 for op, _ in ops if op.startswith("append")
    )
    window.unregister(maintainer)
    engine.tree.check_invariants()


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=24),
    k=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
    threshold=st.sampled_from([0.3, 1.0]),
    aux=st.booleans(),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=10_000)),
        min_size=1,
        max_size=20,
    ),
)
def test_direct_maintainer_matches_oracle(n, k, seed, threshold, aux, ops):
    """Raw engine inserts/deletes (no window) through ``attach``."""
    engine = make_engine(n=n, seed=seed)
    queries = [0, 1]
    maintainer = ContinuousTopK(
        engine,
        queries,
        k,
        recompute_threshold=threshold,
        aux_mirror=aux,
    )
    maintainer.attach()
    rng = np.random.default_rng(seed)
    try:
        for is_insert, arg in ops:
            deletable = [
                obj for obj in maintainer.member_ids if obj not in queries
            ]
            if is_insert or not deletable:
                engine.insert_object(rng.random(3))
            else:
                engine.delete_object(deletable[arg % len(deletable)])
            universe = sorted(engine.tree.object_ids())
            expected = oracle_topk(engine.space, queries, universe, k)
            assert as_pairs(maintainer.result) == expected
            if aux:
                for obj in maintainer.member_ids:
                    assert maintainer.aux.get(obj).q_counter == (
                        maintainer.score_of(obj)
                    )
    finally:
        maintainer.close()


def expected_aux_snapshot(maintainer):
    """``aux_snapshot()`` as the maintainer's own arrays say it must be."""
    rows = []
    for obj in sorted(maintainer.member_ids):
        r = maintainer._row_of[obj]
        rows.append(
            (
                obj,
                int(maintainer._scores[r]),
                int(maintainer._dominated_by[r]),
                tuple(float(x) for x in maintainer._matrix[r]),
            )
        )
    return rows


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=110, max_value=160),
    seed=st.integers(min_value=0, max_value=10_000),
    threshold=st.sampled_from([0.1, 1.0]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "expire", "resync"]),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=14,
    ),
)
@example(n=120, seed=3, threshold=1.0, ops=[("expire", 63), ("insert", 0)])
@example(n=120, seed=4, threshold=0.1, ops=[("expire", 63), ("delete", 5), ("resync", 0)])
def test_aux_mirror_matches_arrays_on_multi_leaf_trees(n, seed, threshold, ops):
    """The sorted leaf sweep writes exactly the maintainer's counters.

    ``n`` fills at least three aux leaves; ``expire`` deletes a run of
    the oldest members, so whole leaves go empty under the lazy
    deletes and later sweeps must walk through them.
    """
    engine = make_engine(n=n, seed=seed)
    queries = [0, 1]
    maintainer = ContinuousTopK(
        engine, queries, 5, recompute_threshold=threshold
    )
    maintainer.attach()
    assert len(leaf_chain(maintainer.aux.tree)) >= 3
    rng = np.random.default_rng(seed)
    try:
        for op, arg in ops:
            deletable = sorted(
                obj for obj in maintainer.member_ids if obj not in queries
            )
            if op == "insert" or not deletable:
                engine.insert_object(rng.random(3))
            elif op == "delete":
                engine.delete_object(deletable[arg % len(deletable)])
            elif op == "expire":
                for obj in deletable[: 1 + arg % 64]:
                    engine.delete_object(obj)
            else:
                maintainer.resync()
            universe = sorted(engine.tree.object_ids())
            assert as_pairs(maintainer.result) == oracle_topk(
                engine.space, queries, universe, 5
            )
            assert maintainer.aux_snapshot() == expected_aux_snapshot(
                maintainer
            )
            maintainer.aux.tree.check_invariants()
    finally:
        maintainer.close()


# ---------------------------------------------------------------------------
# update cost semantics
# ---------------------------------------------------------------------------
class TestUpdateCost:
    def test_insert_costs_exactly_m_distances(self):
        engine = make_engine(n=50, seed=21)
        maintainer = ContinuousTopK(engine, [0, 1, 2, 3], 5)
        # isolate the maintainer's own cost from the M-tree insert's
        # navigation distances: add a space-resident object directly.
        new_id = engine.register_query_payload(np.full(3, 0.5))
        metric = engine.counting_metric
        before = metric.count
        maintainer.add_object(new_id)
        assert metric.count - before == 4  # one per query object
        assert maintainer.last_stats.distance_computations == 4
        assert maintainer.last_stats.distance_batches == 1
        maintainer.close()

    def test_attached_insert_charges_maintainer_m_distances(self):
        engine = make_engine(n=50, seed=21)
        maintainer = ContinuousTopK(engine, [0, 1, 2, 3], 5)
        maintainer.attach()
        engine.insert_object(np.full(3, 0.5))
        # the tree insert spends its own navigation distances; the
        # repair's share — what last_stats measures — is exactly m.
        assert maintainer.last_stats.distance_computations == 4
        assert maintainer.last_stats.distance_batches == 1
        maintainer.close()

    def test_delete_costs_zero_distances(self):
        engine = make_engine(n=50, seed=22)
        maintainer = ContinuousTopK(engine, [0, 1], 5)
        maintainer.attach()
        metric = engine.counting_metric
        before = metric.count
        engine.delete_object(30)
        assert metric.count == before
        assert maintainer.last_stats.distance_computations == 0
        maintainer.close()

    def test_bootstrap_cost_is_m_times_n(self):
        engine = make_engine(n=40, seed=23)
        metric = engine.counting_metric
        before = metric.count
        maintainer = ContinuousTopK(engine, [0, 1, 2], 5)
        # pairwise(q, ids) skips d(q, q), hence m * (n - 1) + duplicates
        # of q against the other query objects; bound it instead of
        # pinning the exact off-by-m arithmetic.
        spent = metric.count - before
        assert 3 * 37 <= spent <= 3 * 40
        assert maintainer.bootstrap_stats.distance_computations == spent
        maintainer.close()


# ---------------------------------------------------------------------------
# delta semantics
# ---------------------------------------------------------------------------
class TestResultDeltas:
    def test_entered_left_on_displacing_insert(self):
        engine = make_engine(n=20, seed=24)
        maintainer = ContinuousTopK(engine, [0, 1], 3)
        maintainer.attach()
        seen = []
        maintainer.subscribe(seen.append)
        old = maintainer.result
        # the query objects' own location dominates everything: the
        # arrival enters the result and displaces the old k-th item.
        new_id = engine.insert_object(engine.space.payload(0))
        assert seen, "a displacing insert must emit a delta"
        delta = seen[-1]
        assert delta.op == "insert" and delta.object_id == new_id
        assert any(item.object_id == new_id for item in delta.entered)
        assert delta.left  # someone was displaced from a full top-3
        assert list(delta.result) == maintainer.result
        assert delta.changed
        assert delta.universe_size == 21
        assert [i.object_id for i in old] != [
            i.object_id for i in maintainer.result
        ]
        maintainer.close()

    def test_no_delta_when_result_unchanged(self):
        # 1-D Manhattan with Q at 0.0 and 1.0: every point inside
        # [0, 1] has distance vector (x, 1 - x) — all interior points
        # are pairwise incomparable, so an interior arrival changes no
        # score and must emit nothing.
        space = MetricSpace(
            [np.array([x]) for x in (0.0, 1.0, 0.3, 0.5, 0.7)],
            CountingMetric(ManhattanMetric()),
            name="diag",
        )
        engine = TopKDominatingEngine(space)
        maintainer = ContinuousTopK(engine, [0, 1], 3)
        maintainer.attach()
        seen = []
        maintainer.subscribe(seen.append)
        assert as_pairs(maintainer.result) == [(0, 0), (1, 0), (2, 0)]
        engine.insert_object(np.array([0.4]))  # incomparable to all
        assert seen == []
        assert maintainer.counters["deltas"] == 0
        assert maintainer.counters["updates"] == 1
        assert as_pairs(maintainer.result) == [(0, 0), (1, 0), (2, 0)]
        # a point outside the segment IS dominated (by the 1.0 query
        # object): now a delta must fire, rescoring exactly that one.
        engine.insert_object(np.array([1.2]))
        assert len(seen) == 1
        delta = seen[0]
        assert as_pairs(delta.rescored) == [(1, 1)]
        assert delta.entered == () and delta.left == ()
        assert as_pairs(maintainer.result) == [(1, 1), (0, 0), (2, 0)]
        maintainer.close()

    def test_unsubscribe_stops_delivery(self):
        engine = make_engine(n=15, seed=27)
        maintainer = ContinuousTopK(engine, [0], 2)
        maintainer.attach()
        seen = []
        unsubscribe = maintainer.subscribe(seen.append)
        engine.insert_object(engine.space.payload(0))
        count = len(seen)
        unsubscribe()
        unsubscribe()  # idempotent
        engine.insert_object(engine.space.payload(0))
        assert len(seen) == count
        maintainer.close()


# ---------------------------------------------------------------------------
# repair vs recompute accounting
# ---------------------------------------------------------------------------
class TestRepairHeuristic:
    def test_threshold_validation(self):
        engine = make_engine(n=10, seed=28)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ContinuousTopK(engine, [0], 2, recompute_threshold=bad)

    def test_tiny_threshold_forces_recomputes(self):
        engine = make_engine(n=25, seed=29)
        maintainer = ContinuousTopK(
            engine, [0, 1], 4, recompute_threshold=1e-9, aux_mirror=False
        )
        maintainer.attach()
        # inserting at a query object's own location dominates every
        # member, so the comparable ball is the whole universe.
        engine.insert_object(engine.space.payload(0))
        assert maintainer.counters["recomputes"] >= 1
        universe = sorted(engine.tree.object_ids())
        assert as_pairs(maintainer.result) == oracle_topk(
            engine.space, [0, 1], universe, 4
        )
        maintainer.close()

    def test_default_threshold_repairs(self):
        engine = make_engine(n=25, seed=30)
        maintainer = ContinuousTopK(engine, [0, 1], 4, aux_mirror=False)
        maintainer.attach()
        rng = np.random.default_rng(31)
        for _ in range(5):
            engine.insert_object(rng.random(3))
        assert maintainer.counters["repairs"] >= 4
        assert maintainer.counters["updates"] == 5
        maintainer.close()

    def test_resync_rebuilds_and_counts(self):
        engine = make_engine(n=20, seed=32)
        maintainer = ContinuousTopK(engine, [0, 1], 3)
        before = as_pairs(maintainer.result)
        delta = maintainer.resync()
        assert delta.kind == "resync" and delta.op == "resync"
        assert as_pairs(maintainer.result) == before
        assert list(delta.result) == maintainer.result
        assert maintainer.counters["resyncs"] == 1
        maintainer.close()


# ---------------------------------------------------------------------------
# edge shapes
# ---------------------------------------------------------------------------
class TestEdgeShapes:
    def test_k_larger_than_universe(self):
        engine = make_engine(n=6, seed=33)
        maintainer = ContinuousTopK(engine, [0], 50)
        assert len(maintainer.result) == 6
        engine_ids = sorted(engine.tree.object_ids())
        assert as_pairs(maintainer.result) == oracle_topk(
            engine.space, [0], engine_ids, 50
        )
        maintainer.close()

    def test_duplicate_payloads_score_identically(self):
        engine = make_engine(n=10, seed=34)
        maintainer = ContinuousTopK(engine, [0, 1], 12)
        maintainer.attach()
        payload = np.full(3, 0.25)
        a = engine.insert_object(np.array(payload))
        b = engine.insert_object(np.array(payload))
        # equal vectors: neither dominates the other (no strict
        # component), so their scores must agree.
        assert maintainer.score_of(a) == maintainer.score_of(b)
        universe = sorted(engine.tree.object_ids())
        assert as_pairs(maintainer.result) == oracle_topk(
            engine.space, [0, 1], universe, 12
        )
        maintainer.close()

    def test_duplicate_add_and_absent_remove_are_noops(self):
        engine = make_engine(n=10, seed=35)
        maintainer = ContinuousTopK(engine, [0], 3)
        assert maintainer.add_object(4) is None  # already a member
        assert maintainer.remove_object(999) is None
        assert maintainer.counters["updates"] == 0
        maintainer.close()

    def test_standing_query_validation(self):
        with pytest.raises(ValueError):
            StandingQuery((), 3)
        with pytest.raises(ValueError):
            StandingQuery((1, 2), 0)
        assert StandingQuery((1, 2, 3), 2).m == 3

    def test_empty_universe_bootstrap(self):
        engine = make_engine(n=5, seed=36)
        maintainer = ContinuousTopK(engine, [0], 3, universe=[])
        assert maintainer.result == []
        assert len(maintainer) == 0
        maintainer.add_object(2)
        assert as_pairs(maintainer.result) == oracle_topk(
            engine.space, [0], [2], 3
        )
        maintainer.close()
