"""repro.api: the facade, its one spelling per parameter, and the
retired alias spellings."""

import random
import warnings

import numpy as np
import pytest

from repro import api
from repro.api import (
    EuclideanMetric,
    MetricSpace,
    Query,
    Result,
    TopKDominatingEngine,
    UnknownIndexError,
    open_engine,
    run,
)
from repro.core.pba import PBA2
from repro.service import QueryService, ServiceConfig


def _space(n=60, seed=0):
    rng = np.random.default_rng(seed)
    return MetricSpace(list(rng.random((n, 3))), EuclideanMetric())


@pytest.fixture(scope="module")
def engine():
    return open_engine(_space(), seed=0)


class TestOpenEngine:
    def test_matches_direct_construction_exactly(self):
        """open_engine(seed=s) is the one canonical recipe: same tree,
        same counters as the boilerplate it replaced."""
        direct = TopKDominatingEngine(
            _space(), rng=random.Random(7)
        )
        facade = open_engine(_space(), seed=7)
        queries = [3, 17, 40]
        a, a_stats = direct.top_k_dominating(queries, 5)
        b, b_stats = facade.top_k_dominating(queries, 5)
        assert [(r.object_id, r.score) for r in a] == [
            (r.object_id, r.score) for r in b
        ]
        assert (
            a_stats.distance_computations == b_stats.distance_computations
        )
        assert a_stats.io.page_faults == b_stats.io.page_faults

    def test_forwards_index_kind(self):
        engine = open_engine(_space(), seed=1, index="vptree")
        assert engine.index_kind == "vptree"


class TestQueryResult:
    def test_query_normalises(self):
        q = Query(query_ids=[4, 2], k=3, algorithm="PBA2")
        assert q.query_ids == (4, 2)
        assert q.algorithm == "pba2"
        assert q.m == 2
        hash(q)  # usable as a cache key

    def test_query_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Query(query_ids=(1,), k=1, algorithm="nope")

    def test_run_equals_engine_call(self, engine):
        result = run(engine, Query(query_ids=(3, 17), k=4))
        direct, _stats = engine.top_k_dominating([3, 17], 4)
        assert isinstance(result, Result)
        assert list(result) == direct
        assert len(result) == 4
        assert result.object_ids == tuple(r.object_id for r in direct)
        assert result.stats.distance_computations >= 0


def _service_call(method):
    """A retired-spelling case that calls ``QueryService.<method>``."""

    def call(_engine, space):
        with QueryService(
            open_engine(space, seed=0), ServiceConfig(workers=1)
        ) as service:
            getattr(service, method)([1, 2], top_k=3)

    return call


def _unknown_keyword(name):
    return TypeError, f"unexpected keyword argument '{name}'"


#: (case id, call(engine, space), (exception type, message pattern)):
#: every spelling the former alias window translated, and the typed
#: error it now raises.
RETIRED_SPELLINGS = [
    ("top_k_dominating-top_k",
     lambda e, s: e.top_k_dominating([1, 2], top_k=4),
     _unknown_keyword("top_k")),
    ("stream-top_k",
     lambda e, s: e.stream([1, 2], top_k=2),
     _unknown_keyword("top_k")),
    ("explain-top_k",
     lambda e, s: e.explain([1, 2], top_k=2),
     _unknown_keyword("top_k")),
    ("query_sync-top_k", _service_call("query_sync"),
     _unknown_keyword("top_k")),
    ("query-top_k", _service_call("query"), _unknown_keyword("top_k")),
    ("make_algorithm-name",
     lambda e, s: e.make_algorithm(name="pba2"),
     _unknown_keyword("name")),
    ("algorithm-class",
     lambda e, s: e.top_k_dominating([1, 2], 3, algorithm=PBA2),
     (ValueError, "unknown algorithm .*choose from")),
    ("Query-algorithm-class",
     lambda e, s: Query(query_ids=(1,), k=1, algorithm=PBA2),
     (ValueError, "unknown algorithm .*choose from")),
    ("open_engine-rng",
     lambda e, s: open_engine(s, rng=random.Random(7)),
     _unknown_keyword("rng")),
    ("open_engine-node_capacity",
     lambda e, s: open_engine(s, node_capacity=6),
     _unknown_keyword("node_capacity")),
    ("open_engine-split_policy",
     lambda e, s: open_engine(s, split_policy="sampling"),
     _unknown_keyword("split_policy")),
    ("open_engine-bulk_load",
     lambda e, s: open_engine(s, bulk_load=True),
     _unknown_keyword("bulk_load")),
    ("engine-node_capacity",
     lambda e, s: TopKDominatingEngine(s, node_capacity=6),
     _unknown_keyword("node_capacity")),
    ("engine-split_policy",
     lambda e, s: TopKDominatingEngine(s, split_policy="sampling"),
     _unknown_keyword("split_policy")),
    ("engine-bulk_load",
     lambda e, s: TopKDominatingEngine(s, bulk_load=True),
     _unknown_keyword("bulk_load")),
    ("engine-positional-rng",
     lambda e, s: TopKDominatingEngine(s, random.Random(1)),
     (TypeError, "positional argument")),
    ("index-PM-Tree",
     lambda e, s: open_engine(s, index="PM-Tree"),
     (UnknownIndexError, "registered backends: mtree, pmtree, vptree")),
    ("index-pm_tree",
     lambda e, s: open_engine(s, index="pm_tree"),
     (UnknownIndexError, "registered backends: mtree, pmtree, vptree")),
    ("index-MTREE",
     lambda e, s: TopKDominatingEngine(s, index="MTREE"),
     (UnknownIndexError, "registered backends: mtree, pmtree, vptree")),
    ("index-vp-tree",
     lambda e, s: TopKDominatingEngine(s, index="vp-tree"),
     (UnknownIndexError, "registered backends: mtree, pmtree, vptree")),
    ("index-M-Tree",
     lambda e, s: TopKDominatingEngine(s, index="M-Tree"),
     (UnknownIndexError, "registered backends: mtree, pmtree, vptree")),
]


class TestDeprecatedAliases:
    """The spellings the former alias window served now fail typed."""

    def test_k_still_required(self, engine):
        with pytest.raises(
            TypeError, match="missing 1 required positional argument: 'k'"
        ):
            engine.top_k_dominating([1, 2])

    def test_canonical_spellings_do_not_warn(self, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.top_k_dominating([1, 2], 3, algorithm="pba2")
            list(engine.stream([1, 2], 2))
            engine.make_algorithm("sba")
            open_engine(_space(20), seed=0)

    @pytest.mark.parametrize(
        "call, expected",
        [case[1:] for case in RETIRED_SPELLINGS],
        ids=[case[0] for case in RETIRED_SPELLINGS],
    )
    def test_retired_spelling_raises(self, engine, call, expected):
        error, pattern = expected
        with pytest.raises(error, match=pattern):
            call(engine, _space(20))


class TestSurfaceDeclaration:
    def test_all_exports_exist_and_are_sorted(self):
        assert api.__all__ == sorted(api.__all__)
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_covers_engine_workflow(self):
        """The documented supported surface is importable from one place."""
        for name in (
            "open_engine",
            "run",
            "Query",
            "Result",
            "Metric",
            "MetricSpace",
            "TopKDominatingEngine",
            "ALGORITHMS",
            "pairwise_distances",
        ):
            assert name in api.__all__
