"""Dominance relation, scores and the vectorized matrix."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import ManhattanMetric, MetricSpace
from repro.core.brute_force import brute_force_scores
from repro.core.dominance import (
    DistanceVectorSource,
    DominanceMatrix,
    DominatorSet,
    dominates,
    dominates_vectors,
    domination_score,
    equivalent,
    equivalent_vectors,
)
from repro.datasets.roadnet import road_network
from repro.metric.counting import CountingMetric
from repro.metric.graph import ShortestPathMetric

from tests.conftest import make_vector_space

_vec = st.lists(
    st.floats(min_value=0, max_value=10, allow_nan=False),
    min_size=3,
    max_size=3,
)


class TestDominatesVectors:
    def test_strictly_smaller_dominates(self):
        assert dominates_vectors([1, 1], [2, 2])

    def test_equal_does_not_dominate(self):
        assert not dominates_vectors([1, 2], [1, 2])

    def test_partial_improvement_dominates(self):
        assert dominates_vectors([1, 2], [1, 3])

    def test_incomparable(self):
        assert not dominates_vectors([1, 3], [2, 2])
        assert not dominates_vectors([2, 2], [1, 3])

    def test_never_both_directions(self):
        assert not (
            dominates_vectors([1, 2], [2, 1])
            and dominates_vectors([2, 1], [1, 2])
        )

    @settings(max_examples=60, deadline=None)
    @given(a=_vec, b=_vec)
    def test_antisymmetry_property(self, a, b):
        assert not (dominates_vectors(a, b) and dominates_vectors(b, a))

    @settings(max_examples=60, deadline=None)
    @given(a=_vec, b=_vec, c=_vec)
    def test_transitivity_property(self, a, b, c):
        if dominates_vectors(a, b) and dominates_vectors(b, c):
            assert dominates_vectors(a, c)

    @settings(max_examples=60, deadline=None)
    @given(a=_vec)
    def test_irreflexive(self, a):
        assert not dominates_vectors(a, a)

    @settings(max_examples=60, deadline=None)
    @given(a=_vec, b=_vec)
    def test_equivalence_excludes_dominance(self, a, b):
        if equivalent_vectors(a, b):
            assert not dominates_vectors(a, b)


class TestDominatorSet:
    @pytest.mark.parametrize("filler", [0, DominatorSet._VECTORIZE_FROM])
    def test_matches_definition_3_on_both_paths(self, filler):
        # ``filler`` incomparable rows push the set onto the vectorized
        # path; none of them dominates any probe below.
        dominators = DominatorSet(2)
        assert not dominators.dominates((0.0, 0.0))  # empty set
        for i in range(filler):
            dominators.add((100.0 + i, -1.0 - i))
        dominators.add((1.0, 1.0))
        assert dominators.dominates((2.0, 2.0))
        assert dominators.dominates((1.0, 3.0))
        assert not dominators.dominates((1.0, 1.0))  # equivalent vector
        assert not dominators.dominates((0.5, 3.0))  # incomparable


class TestDistanceVectorSource:
    @pytest.fixture
    def setup(self):
        space = make_vector_space(n=40, dims=3, seed=0)
        return space, DistanceVectorSource(space, [0, 10, 20])

    def test_vector_dimension(self, setup):
        _space, source = setup
        assert len(source.vector(5)) == 3
        assert source.m == 3

    def test_query_object_has_zero_coordinate(self, setup):
        _space, source = setup
        assert source.vector(10)[1] == 0.0

    def test_caching_avoids_recomputation(self, setup):
        space, source = setup
        source.vector(7)
        before = space.metric.snapshot()
        source.vector(7)
        assert space.metric.delta_since(before) == 0
        assert source.known(7)

    def test_put_installs_external_vector(self, setup):
        space, source = setup
        source.put(9, (1.0, 2.0, 3.0))
        assert source.vector(9) == (1.0, 2.0, 3.0)

    def test_aggregate_distance(self, setup):
        _space, source = setup
        assert source.aggregate_distance(4) == pytest.approx(
            sum(source.vector(4))
        )

    def test_self_never_dominates(self, setup):
        _space, source = setup
        assert not source.dominates(3, 3)
        assert source.equivalent(3, 3)

    def test_domination_score_counts(self, setup):
        space, source = setup
        score = source.domination_score(0, space.object_ids)
        manual = sum(
            1
            for other in space.object_ids
            if other != 0
            and dominates_vectors(source.vector(0), source.vector(other))
        )
        assert score == manual


def _twin_spaces(kind):
    """Two identical counted spaces (one per evaluation path) and Q."""

    def build():
        if kind == "graph":
            _space, graph = road_network(n=150, seed=4)
            metric = ShortestPathMetric(graph, cache_sources=0)
            return MetricSpace(list(range(150)), CountingMetric(metric))
        inner = ManhattanMetric() if kind == "l1" else None
        return make_vector_space(n=150, dims=3, seed=4, metric=inner)

    return build(), build(), [3, 77, 140]


class TestVectorsBatch:
    @pytest.mark.parametrize("kind", ["l1", "l2", "graph"])
    def test_equals_per_object_vectors_bit_for_bit(self, kind):
        batch_space, loop_space, queries = _twin_spaces(kind)
        batched = DistanceVectorSource(batch_space, queries)
        looped = DistanceVectorSource(loop_space, queries)
        # some ids cached beforehand, on both sides alike.
        for object_id in (5, 9, 140):
            batched.vector(object_id)
            looped.vector(object_id)
        # duplicates, a query object, cached ids and fresh ids.
        ids = [9, 12, 77, 12, 5, 33, 140, 149, 0, 33, 77]
        got = batched.vectors(ids)
        want = [looped.vector(i) for i in ids]
        assert [[x.hex() for x in v] for v in got] == [
            [x.hex() for x in v] for v in want
        ]
        assert batch_space.metric.count == loop_space.metric.count
        assert batched.vectors([]) == []

    def test_one_batch_per_query_object(self):
        space = make_vector_space(n=40, dims=2, seed=5)
        source = DistanceVectorSource(space, [1, 2, 3])
        source.vectors(list(range(10, 30)))
        assert space.metric.batches == 3
        assert all(source.known(i) for i in range(10, 30))

    def test_empty_query_set_gives_empty_vectors(self):
        space = make_vector_space(n=10, dims=2, seed=5)
        source = DistanceVectorSource(space, [])
        assert source.vectors([1, 2, 1]) == [(), (), ()]
        assert source.vector(3) == ()

    def test_query_object_is_the_source(self):
        calls = []

        class Recording:
            name = "recording"

            def __call__(self, a, b):
                calls.append((a, b))
                return abs(a - b)

        space = MetricSpace(list(range(10)), Recording())
        source = DistanceVectorSource(space, [7, 2])
        source.vector(4)
        source.vectors([5, 6])
        assert calls == [(7, 4), (2, 4), (7, 5), (7, 6), (2, 5), (2, 6)]


def _expected_scores(space, queries, active, ids):
    """``dom(i)`` over the active universe for every id, by brute force."""
    out = []
    for object_id in ids:
        universe = list(active)
        if object_id not in active:
            universe.append(object_id)
        out.append(brute_force_scores(space, queries, universe)[object_id])
    return out


class TestDominanceMatrixScores:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_brute_force_over_active_universe(self, seed):
        # an integer grid under L1: many ties and equivalent vectors.
        space = make_vector_space(
            n=80, dims=2, seed=seed, grid=3, metric=ManhattanMetric()
        )
        queries = [0, 40, 79]
        universe = list(range(60))
        matrix = DominanceMatrix(DistanceVectorSource(space, queries), universe)
        removed = [universe[i] for i in (4, 17, 33, 50)]
        for object_id in removed:
            matrix.deactivate(object_id)
        active = [i for i in universe if i not in removed]
        # active rows, deactivated rows and ids outside the universe.
        ids = [2, 17, 61, 79, 4, 2, 70, 33]
        got = matrix.scores(ids)
        assert got.dtype == np.int64
        assert got.tolist() == _expected_scores(space, queries, active, ids)
        assert matrix.scores(sorted(universe)).tolist() == _expected_scores(
            space, queries, active, sorted(universe)
        )

    def test_empty_ids(self):
        space = make_vector_space(n=20, dims=2, seed=3)
        matrix = DominanceMatrix(
            DistanceVectorSource(space, [0, 10]), list(space.object_ids)
        )
        assert matrix.scores([]).tolist() == []

    def test_spans_several_chunks(self, monkeypatch):
        import repro.core.dominance as dominance

        # seven rows per chunk over a 45-object universe.
        monkeypatch.setattr(dominance, "_MASK_CELLS", 7 * 45)
        space = make_vector_space(n=45, dims=2, seed=6, grid=4)
        queries = [1, 30]
        matrix = DominanceMatrix(
            DistanceVectorSource(space, queries), list(space.object_ids)
        )
        matrix.deactivate(8)
        ids = list(range(44, -1, -1))
        active = [i for i in ids if i != 8]
        assert matrix.scores(ids).tolist() == _expected_scores(
            space, queries, active, ids
        )


class TestDominanceMatrix:
    @pytest.fixture
    def setup(self):
        space = make_vector_space(n=60, dims=2, seed=1, grid=4)
        source = DistanceVectorSource(space, [0, 30])
        matrix = DominanceMatrix(source, list(space.object_ids))
        return space, source, matrix

    def test_matches_scalar_scores(self, setup):
        space, source, matrix = setup
        for object_id in range(0, 60, 7):
            assert matrix.score(object_id) == source.domination_score(
                object_id, space.object_ids
            )

    def test_deactivate_excludes_target(self, setup):
        _space, source, matrix = setup
        # find a dominated object and its dominator
        for a in range(60):
            before = matrix.score(a)
            if before > 0:
                break
        victims = [
            b
            for b in range(60)
            if b != a and dominates_vectors(source.vector(a), source.vector(b))
        ]
        matrix.deactivate(victims[0])
        assert matrix.score(a) == before - 1

    def test_score_of_foreign_object(self, setup):
        space, source, matrix = setup
        # an object outside the universe can still be scored against it
        partial = DominanceMatrix(source, list(range(30)))
        score = partial.score(45)
        manual = sum(
            1
            for other in range(30)
            if dominates_vectors(source.vector(45), source.vector(other))
        )
        assert score == manual


class TestFreeFunctions:
    def test_dominates_and_equivalent(self):
        space = make_vector_space(n=30, dims=2, seed=2, grid=2)
        queries = [0, 15]
        source = DistanceVectorSource(space, queries)
        for a in range(0, 30, 5):
            for b in range(0, 30, 5):
                assert dominates(space, queries, a, b) == source.dominates(
                    a, b
                )
                assert equivalent(space, queries, a, b) == source.equivalent(
                    a, b
                )

    def test_domination_score_default_universe(self):
        space = make_vector_space(n=25, dims=2, seed=3)
        queries = [0, 12]
        source = DistanceVectorSource(space, queries)
        assert domination_score(space, queries, 4) == (
            source.domination_score(4, space.object_ids)
        )
