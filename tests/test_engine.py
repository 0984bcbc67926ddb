"""The TopKDominatingEngine facade: API, accounting, registry."""

import random

import numpy as np
import pytest

from repro import (
    ALGORITHMS,
    EuclideanMetric,
    MetricSpace,
    PruningConfig,
    TopKDominatingEngine,
)
from repro.datasets import california
from repro.datasets.roadnet import road_network
from repro.metric.counting import CountingMetric
from repro.metric.safety import safe_lower_bound

from tests.conftest import make_engine, make_vector_space


class TestConstruction:
    def test_wraps_plain_metric_in_counter(self):
        rng = np.random.default_rng(0)
        space = MetricSpace(list(rng.random((50, 2))), EuclideanMetric())
        engine = TopKDominatingEngine(space)
        assert isinstance(engine.space.metric, CountingMetric)

    def test_keeps_existing_counter(self):
        space = make_vector_space(50)
        metric = space.metric
        engine = TopKDominatingEngine(space)
        assert engine.space.metric is metric

    def test_build_cost_recorded(self):
        engine = make_engine(n=80)
        assert engine.build_distance_computations > 0

    def test_buffers_sized(self):
        engine = make_engine(n=80)
        assert engine.buffers.index_buffer.capacity >= 1
        assert engine.buffers.aux_buffer.capacity >= 1

    def test_bulk_load_option(self):
        from repro.core.brute_force import brute_force_scores

        space = make_vector_space(120, dims=3, seed=65)
        engine = TopKDominatingEngine(
            space, rng=random.Random(65), index_options={"bulk_load": True}
        )
        engine.tree.check_invariants()
        truth = brute_force_scores(engine.space, [0, 60])
        results, _ = engine.top_k_dominating([0, 60], 5)
        assert [r.score for r in results] == sorted(
            truth.values(), reverse=True
        )[:5]


class TestRegistry:
    def test_known_algorithms(self):
        assert set(ALGORITHMS) == {
            "brute", "sba", "aba", "pba1", "pba2", "apx",
        }

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_make_algorithm(self, name):
        engine = make_engine(n=40)
        algo = engine.make_algorithm(name)
        assert algo.name.lower().replace("force", "") in (
            name, "brute"
        ) or algo.name in ("PBA1", "PBA2", "SBA", "ABA", "BruteForce")

    def test_case_insensitive(self):
        engine = make_engine(n=40)
        assert engine.make_algorithm("PBA2").name == "PBA2"

    def test_unknown_algorithm_rejected(self):
        engine = make_engine(n=40)
        with pytest.raises(ValueError):
            engine.make_algorithm("quantum")

    def test_pruning_config_forwarded(self):
        engine = make_engine(n=40)
        config = PruningConfig.none()
        algo = engine.make_algorithm("pba1", pruning=config)
        assert algo.pruning is config


class TestMeasurement:
    def test_cold_reset_clears_dijkstra_rows(self):
        """After a reset a query costs the Dijkstra runs it costs on a
        freshly built (and reset) engine, whatever ran before."""
        query = [5, 60, 100]

        def cold_runs(warm_up):
            engine = TopKDominatingEngine(california(n=120, seed=3))
            for query_ids in warm_up:
                engine.top_k_dominating(query_ids, 5, algorithm="pba2")
            engine.reset_cost_counters()
            graph_metric = engine.counting_metric.inner
            before = graph_metric.dijkstra_runs
            engine.top_k_dominating(query, 5, algorithm="pba2")
            return graph_metric.dijkstra_runs - before

        fresh = cold_runs([])
        assert fresh > 0
        assert cold_runs([query, [1, 2, 3]]) == fresh

    @pytest.mark.parametrize("algorithm", ["aba", "sba"])
    @pytest.mark.parametrize("cache_sources", [4, 128])
    def test_cold_query_runs_at_most_m_dijkstras(self, algorithm, cache_sources):
        """Distance vectors are read from the query objects' rows: a
        cold query set of m objects costs at most m graph searches."""
        space, _graph = road_network(n=300, seed=3, cache_sources=cache_sources)
        engine = TopKDominatingEngine(space)
        query = [5, 60, 100, 250]
        engine.reset_cost_counters()
        graph_metric = engine.counting_metric.inner
        before = graph_metric.dijkstra_runs
        _results, stats = engine.top_k_dominating(query, 5, algorithm=algorithm)
        assert stats.distance_computations > len(query)
        assert graph_metric.dijkstra_runs - before <= len(query)

    def test_stats_are_per_query_deltas(self):
        engine = make_engine(n=100, seed=61)
        _r1, s1 = engine.top_k_dominating([0, 50], 5, algorithm="pba2")
        _r2, s2 = engine.top_k_dominating([0, 50], 5, algorithm="pba2")
        # second run re-pays distances (fresh vector cache) but not
        # multiplicatively; both must be positive and finite.
        assert s1.distance_computations > 0
        assert s2.distance_computations > 0
        assert s1.cpu_seconds > 0

    def test_io_seconds_consistent_with_faults(self):
        engine = make_engine(n=100, seed=62)
        _r, stats = engine.top_k_dominating([1, 60], 5, algorithm="sba")
        assert stats.io_seconds == pytest.approx(
            stats.io.page_faults * 0.008
        )

    def test_stream_api_progressive(self):
        engine = make_engine(n=80, seed=63)
        gen = engine.stream([0, 40], 5)
        first = next(gen)
        assert hasattr(first, "object_id") and hasattr(first, "score")
        gen.close()

    def test_results_and_stats_tuple(self):
        engine = make_engine(n=60, seed=64)
        results, stats = engine.top_k_dominating([2, 30], 4)
        assert len(results) == 4
        assert stats.results_reported == 4

    def test_concurrent_query_stats_partition_shared_counters(self):
        # regression: per-query stats must reflect only the
        # query's own page faults and distance computations, even while
        # neighbours run concurrently — the serving layer enacts
        # io_seconds as real latency and caches the stats, so absorbed
        # foreign faults were a behavioural bug, not just noisy
        # reporting.  Exactness is checked as a partition: each access
        # is charged to exactly one query, so per-query deltas sum to
        # the global delta.
        import threading

        engine = make_engine(n=100, seed=65)
        engine.prepare_for_concurrency()
        io_before = engine.buffers.combined_io()
        dist_before = engine.counting_metric.snapshot()
        queries = [[1, 2, 3], [40, 41, 42], [70, 71, 72], [10, 50, 90]]
        collected = []
        barrier = threading.Barrier(len(queries))

        def worker(query_ids):
            barrier.wait()  # maximize interleaving
            _results, stats = engine.top_k_dominating(query_ids, 5)
            collected.append(stats)

        threads = [
            threading.Thread(target=worker, args=(q,)) for q in queries
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        io_delta = engine.buffers.combined_io().delta_since(io_before)
        assert (
            sum(s.io.logical_reads for s in collected)
            == io_delta.logical_reads
        )
        assert (
            sum(s.io.page_faults for s in collected) == io_delta.page_faults
        )
        assert (
            sum(s.distance_computations for s in collected)
            == engine.counting_metric.snapshot() - dist_before
        )
        for stats in collected:
            assert stats.distance_computations > 0


class TestSafetyHelper:
    def test_zero_and_negative_clamped(self):
        assert safe_lower_bound(0.0) == 0.0
        assert safe_lower_bound(-1.0) == 0.0

    def test_padding_is_downward(self):
        assert safe_lower_bound(1.0) < 1.0
        assert safe_lower_bound(1.0) > 0.999999

    def test_tiny_values_stay_nonnegative(self):
        assert safe_lower_bound(1e-300) == 0.0
