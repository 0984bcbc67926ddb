"""Unit tests for the graph and shortest-path metric."""

import heapq
import math
import pickle
from collections import OrderedDict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.metric.graph import Graph, ShortestPathMetric, _dijkstra_row, dijkstra


def path_graph(n=5, weight=1.0):
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, weight)
    return g


class TestGraph:
    def test_empty(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_add_node(self):
        g = Graph(2)
        node = g.add_node()
        assert node == 2
        assert g.num_nodes == 3

    def test_add_edge_symmetric(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.5)
        assert dict(g.neighbors(0)) == {1: 2.5}
        assert dict(g.neighbors(1)) == {0: 2.5}
        assert g.num_edges == 1

    def test_parallel_edge_keeps_minimum(self):
        g = Graph(2)
        g.add_edge(0, 1, 5.0)
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 1, 9.0)
        assert dict(g.neighbors(0)) == {1: 2.0}
        assert g.num_edges == 1

    def test_self_loop_ignored(self):
        g = Graph(2)
        g.add_edge(1, 1, 3.0)
        assert g.num_edges == 0

    def test_negative_weight_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0)

    def test_out_of_range_rejected(self):
        g = Graph(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 5)

    def test_degree_and_average(self):
        g = path_graph(4)
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert g.average_degree() == pytest.approx(2 * 3 / 4)

    def test_edges_iterated_once(self):
        g = path_graph(4)
        edges = list(g.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)


class TestDijkstra:
    def test_path_distances(self):
        g = path_graph(5, weight=2.0)
        dist = dijkstra(g, 0)
        assert dist == {0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0, 4: 8.0}

    def test_early_termination_is_exact(self):
        g = path_graph(10)
        dist = dijkstra(g, 0, target=3)
        assert dist[3] == pytest.approx(3.0)

    def test_shortcut_wins(self):
        g = path_graph(4)
        g.add_edge(0, 3, 0.5)
        assert dijkstra(g, 0)[3] == pytest.approx(0.5)

    def test_cutoff_limits_exploration(self):
        g = path_graph(10)
        dist = dijkstra(g, 0, cutoff=3.0)
        assert 9 not in dist
        assert dist[3] == pytest.approx(3.0)

    def test_disconnected_component_absent(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        dist = dijkstra(g, 0)
        assert 3 not in dist


class TestShortestPathMetric:
    def test_basic_distance(self):
        metric = ShortestPathMetric(path_graph(5))
        assert metric(0, 4) == pytest.approx(4.0)
        assert metric(2, 2) == 0.0

    def test_symmetry(self):
        g = path_graph(6)
        g.add_edge(1, 4, 0.7)
        metric = ShortestPathMetric(g)
        assert metric(0, 5) == pytest.approx(metric(5, 0))

    def test_triangle_inequality_sampled(self):
        g = path_graph(8)
        g.add_edge(0, 5, 1.2)
        metric = ShortestPathMetric(g)
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    assert metric(a, b) <= metric(a, c) + metric(c, b) + 1e-9

    def test_disconnected_sentinel(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        metric = ShortestPathMetric(g, disconnected_distance=999.0)
        assert metric(0, 2) == 999.0

    def test_cache_reduces_dijkstra_runs(self):
        metric = ShortestPathMetric(path_graph(50), cache_sources=4)
        for target in range(1, 20):
            metric(0, target)
        assert metric.dijkstra_runs == 1

    def test_cache_symmetric_reuse(self):
        metric = ShortestPathMetric(path_graph(20), cache_sources=4)
        metric(3, 7)
        runs = metric.dijkstra_runs
        metric(9, 3)  # 3's row is cached; reused via symmetry
        assert metric.dijkstra_runs == runs

    def test_cache_disabled_runs_every_time(self):
        metric = ShortestPathMetric(path_graph(20), cache_sources=0)
        metric(0, 5)
        metric(0, 6)
        assert metric.dijkstra_runs == 2

    def test_clear_cache(self):
        metric = ShortestPathMetric(path_graph(20), cache_sources=4)
        metric(0, 5)
        metric.clear_cache()
        metric(0, 6)
        assert metric.dijkstra_runs == 2

    def test_default_disconnected_distance_is_inf(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        assert ShortestPathMetric(g)(0, 2) == math.inf


class TestDegenerateInput:
    """Out-of-range node ids are a typed error on every path; unreachable
    pairs read ``disconnected_distance`` on every path."""

    @pytest.mark.parametrize("cache_sources", [0, 4])
    @pytest.mark.parametrize("bad", [-1, -5, 5, 99])
    def test_out_of_range_ids_raise(self, cache_sources, bad):
        metric = ShortestPathMetric(path_graph(5), cache_sources=cache_sources)
        with pytest.raises(IndexError):
            metric(0, bad)
        with pytest.raises(IndexError):
            metric(bad, 0)
        with pytest.raises(IndexError):
            metric(bad, bad)
        for reflect in (False, True):
            with pytest.raises(IndexError):
                metric.pairwise(0, [1, bad, 2], reflect=reflect)
            with pytest.raises(IndexError):
                metric.pairwise(bad, [1, 2], reflect=reflect)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_dijkstra_rejects_out_of_range_ids(self, bad):
        with pytest.raises(IndexError):
            dijkstra(path_graph(4), bad)
        with pytest.raises(IndexError):
            dijkstra(path_graph(4), 0, target=bad)

    @pytest.mark.parametrize("cache_sources", [0, 4])
    def test_unreachable_pairs_get_the_sentinel_everywhere(self, cache_sources):
        g = Graph(5)
        g.add_edge(0, 1, 1.0)
        g.add_edge(3, 4, 2.0)
        metric = ShortestPathMetric(
            g, cache_sources=cache_sources, disconnected_distance=999.0
        )
        assert metric(0, 4) == 999.0
        assert metric(4, 0) == 999.0
        assert metric(2, 1) == 999.0
        for reflect in (False, True):
            out = metric.pairwise(0, [1, 2, 3, 4, 0], reflect=reflect)
            assert out.tolist() == [1.0, 999.0, 999.0, 999.0, 0.0]


def textbook_dijkstra(graph, source, cutoff=None):
    """Heap Dijkstra over ``Graph.neighbors`` with a dict and a settled
    set: the reference the kernel must match with ``==``."""
    best = {source: 0.0}
    settled = {}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        for v, w in graph.neighbors(u):
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            if v not in settled and nd < best.get(v, math.inf):
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


#: weights that tie, sum inexactly (0.1 + 0.2) and include zero.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 3.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


@st.composite
def graphs(draw, max_nodes=14):
    """Random graphs: parallel edges, zero weights, equal-length
    alternative paths and (often) several components."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = Graph(n)
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), WEIGHTS),
        max_size=3 * n,
    ))
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return graph


class TestKernelMatchesTextbook:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_rows_equal_textbook_dijkstra(self, graph, data):
        n = graph.num_nodes
        source = data.draw(st.integers(0, n - 1))
        cutoff = data.draw(st.none() | st.floats(0.0, 12.0))
        targets = data.draw(st.none() | st.sets(st.integers(0, n - 1), max_size=n))
        reference = textbook_dijkstra(graph, source, cutoff)
        row = _dijkstra_row(graph._adjacency(), source, targets, cutoff)
        assert len(row) == n
        # every settled value is exact, however early the run stopped
        for u, d in enumerate(row):
            if d != math.inf:
                assert d == reference[u]
        if targets is None:
            assert row == [reference.get(u, math.inf) for u in range(n)]
            assert dijkstra(graph, source, cutoff=cutoff) == reference
        else:
            for t in targets:
                assert row[t] == reference.get(t, math.inf)

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.data())
    def test_single_target_wrapper_is_exact(self, graph, data):
        n = graph.num_nodes
        source = data.draw(st.integers(0, n - 1))
        target = data.draw(st.integers(0, n - 1))
        reference = textbook_dijkstra(graph, source)
        settled = dijkstra(graph, source, target=target)
        assert all(reference[u] == d for u, d in settled.items())
        assert settled.get(target) == reference.get(target)


def _per_pair(metric, a, candidates, reflect):
    if reflect:
        return [metric(c, a) for c in candidates]
    return [metric(a, c) for c in candidates]


class TestPairwiseHook:
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("cache_sources", [0, 1, 3])
    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(), data=st.data())
    def test_pairwise_equals_the_per_pair_loop(
        self, cache_sources, reflect, graph, data
    ):
        n = graph.num_nodes
        batches = data.draw(st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.lists(st.integers(0, n - 1), max_size=2 * n),
            ),
            min_size=1,
            max_size=6,
        ))
        loop = ShortestPathMetric(graph, cache_sources=cache_sources,
                                  disconnected_distance=-1.0)
        batch = ShortestPathMetric(graph, cache_sources=cache_sources,
                                   disconnected_distance=-1.0)
        for a, candidates in batches:
            before = batch.dijkstra_runs
            expected = _per_pair(loop, a, candidates, reflect)
            assert batch.pairwise(a, candidates, reflect=reflect).tolist() == expected
            if cache_sources or reflect:
                # the per-pair sequence is replayed: same runs, same LRU
                assert batch.dijkstra_runs == loop.dijkstra_runs
                assert list(batch._cache) == list(loop._cache)
            else:
                # one multi-target run per batch that names another node
                spent = batch.dijkstra_runs - before
                assert spent == (1 if any(c != a for c in candidates) else 0)

    def test_uncached_batch_is_one_run(self):
        metric = ShortestPathMetric(path_graph(30), cache_sources=0)
        out = metric.pairwise(3, [0, 29, 3, 17, 17])
        assert out.tolist() == [3.0, 26.0, 0.0, 14.0, 14.0]
        assert metric.dijkstra_runs == 1

    def test_cached_batch_reuses_candidate_rows_then_the_source_row(self):
        metric = ShortestPathMetric(path_graph(20), cache_sources=8)
        metric(5, 0)  # caches 5's row
        metric.pairwise(0, [5, 9, 12])
        # 5's row answered d(0, 5); the miss on 9 ran from 0 once and
        # 0's row answered the rest
        assert metric.dijkstra_runs == 2
        metric.pairwise(0, [1, 2, 3])
        assert metric.dijkstra_runs == 2


class TestGraphChangesInvalidate:
    @pytest.mark.parametrize("cache_sources", [0, 4])
    def test_add_edge_after_use_is_seen(self, cache_sources):
        g = path_graph(6)
        metric = ShortestPathMetric(g, cache_sources=cache_sources)
        assert metric(0, 5) == 5.0
        assert metric.pairwise(0, [4, 5]).tolist() == [4.0, 5.0]
        g.add_edge(0, 5, 0.5)
        assert metric(0, 5) == 0.5
        assert metric(5, 0) == 0.5
        assert metric.pairwise(0, [4, 5]).tolist() == [1.5, 0.5]
        assert dijkstra(g, 0)[4] == 1.5

    def test_add_node_after_use_is_seen(self):
        g = path_graph(3)
        metric = ShortestPathMetric(g)
        assert metric(0, 2) == 2.0
        with pytest.raises(IndexError):
            metric(0, 3)
        node = g.add_node()
        g.add_edge(2, node, 1.0)
        assert metric(0, node) == 3.0

    def test_packed_adjacency_is_rebuilt_only_after_a_change(self):
        g = path_graph(4)
        packed = g._adjacency()
        assert g._adjacency() is packed
        g.add_edge(0, 1, 7.0)  # heavier parallel edge: no change
        assert g._adjacency() is packed
        g.add_edge(0, 3, 0.5)
        assert g._adjacency() is not packed
        assert dict(g._adjacency()[0]) == {1: 1.0, 3: 0.5}

    def test_cached_rows_dropped_on_change(self):
        g = path_graph(6)
        metric = ShortestPathMetric(g, cache_sources=4)
        metric(0, 5)
        metric(1, 5)
        runs = metric.dijkstra_runs
        g.add_edge(1, 4, 0.25)
        assert metric(0, 5) == 2.25
        assert metric.dijkstra_runs == runs + 1
        assert list(metric._cache) == [0]


class TestPickling:
    """Checkpoints pickle the metric with its graph: only the graph and
    the settings go in, the packed adjacency and cached rows are rebuilt."""

    def _two_parts(self):
        g = path_graph(4)
        g.add_node()  # node 4: unreachable
        return g

    @pytest.mark.parametrize("cache_sources", [0, 4])
    def test_round_trip_drops_derived_state(self, cache_sources):
        g = self._two_parts()
        metric = ShortestPathMetric(g, cache_sources=cache_sources,
                                    disconnected_distance=99.0)
        assert metric(0, 3) == 3.0
        state = metric.__getstate__()
        assert "_adj" not in state and "_cache" not in state
        assert "_packed" not in g.__getstate__()
        loaded = pickle.loads(pickle.dumps(metric))
        assert loaded.dijkstra_runs == metric.dijkstra_runs
        assert list(loaded._cache) == []
        assert loaded(0, 3) == 3.0
        assert loaded(4, 0) == 99.0
        assert loaded.pairwise(0, [1, 4, 3]).tolist() == [1.0, 99.0, 3.0]
        loaded.graph.add_edge(0, 3, 0.5)
        assert loaded(0, 3) == 0.5

    def test_loads_a_pickle_without_the_packed_state(self, monkeypatch):
        # the layout pickled before the list-backed kernel: no packed
        # adjacency on the graph, no ``_adj`` on the metric, dict rows
        # (unreached nodes absent) in the cache.
        g = self._two_parts()
        metric = ShortestPathMetric(g, cache_sources=4)
        old_graph = {"_adj": g._adj}
        old_metric = {
            "graph": g,
            "cache_sources": 4,
            "disconnected_distance": math.inf,
            "name": "shortest-path",
            "_cache": OrderedDict({0: {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}}),
            "dijkstra_runs": 1,
        }
        monkeypatch.setattr(Graph, "__getstate__", lambda self: old_graph)
        monkeypatch.setattr(
            ShortestPathMetric, "__getstate__", lambda self: old_metric
        )
        blob = pickle.dumps(metric)
        monkeypatch.undo()
        loaded = pickle.loads(blob)
        assert loaded(0, 4) == math.inf
        assert loaded(0, 2) == 2.0
        assert loaded.pairwise(4, [0, 4]).tolist() == [math.inf, 0.0]
        assert all(isinstance(row, list) for row in loaded._cache.values())
