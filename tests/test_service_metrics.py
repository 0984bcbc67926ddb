"""Unit tests of the service metrics layer."""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import open_engine
from repro.obs.registry import Histogram
from repro.service import QueryService, ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.storage.stats import QueryStats

from .conftest import make_vector_space

#: 50 us doubling up to ~52 s: fine enough that the quantile tests
#: below separate sub-millisecond from second-scale observations.
LATENCY_BOUNDS = tuple(50e-6 * 2.0**i for i in range(21))


def _latency_histogram():
    return Histogram("latency", bounds=LATENCY_BOUNDS)


class TestLatencyHistogram:
    """The latency summary of :class:`repro.obs.registry.Histogram`."""

    def test_empty(self):
        histogram = _latency_histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_mean_min_max_are_exact(self):
        histogram = _latency_histogram()
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(0.002)
        assert histogram.min == pytest.approx(0.001)
        assert histogram.max == pytest.approx(0.003)

    def test_quantiles_are_bucket_accurate(self):
        histogram = _latency_histogram()
        # 90 fast requests, 10 slow ones: p50 must look fast, p99 slow
        for _ in range(90):
            histogram.observe(0.001)
        for _ in range(10):
            histogram.observe(1.0)
        p50 = histogram.quantile(0.50)
        p99 = histogram.quantile(0.99)
        assert p50 < 0.01
        assert p99 > 0.25
        # estimates never leave the observed range
        assert histogram.min <= p50 <= histogram.max
        assert histogram.min <= p99 <= histogram.max

    def test_quantile_validation(self):
        histogram = _latency_histogram()
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_out_of_range_observation_lands_in_overflow(self):
        histogram = _latency_histogram()
        histogram.observe(10_000.0)  # beyond the last bound
        assert histogram.count == 1
        assert histogram.quantile(1.0) == pytest.approx(10_000.0)

    def test_thread_safety_no_lost_updates(self):
        histogram = _latency_histogram()

        def hammer():
            for _ in range(1000):
                histogram.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 4000

    def test_nan_is_dropped_and_counted(self):
        histogram = _latency_histogram()
        histogram.observe(float("nan"))
        assert histogram.count == 0
        assert histogram.dropped == 1
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0
        # totals stay un-poisoned: later observations remain exact
        histogram.observe(0.002)
        assert histogram.mean == pytest.approx(0.002)
        assert histogram.snapshot()["dropped"] == 1

    def test_negative_duration_clamps_to_zero(self):
        histogram = _latency_histogram()
        histogram.observe(-0.5)
        assert histogram.count == 1
        assert histogram.dropped == 0
        assert histogram.min == 0.0
        assert histogram.export()["sum"] == 0.0
        assert histogram.quantile(1.0) == 0.0

    def test_quantile_exact_at_bucket_boundary(self):
        # rank = 0.9 * 10 is 9.000000000000002 in floats; without the
        # integer snap the estimate jumps into the slow bucket.
        histogram = _latency_histogram()
        for _ in range(9):
            histogram.observe(0.0001)
        histogram.observe(1.0)
        assert histogram.quantile(0.90) == pytest.approx(0.0001)

    def test_quantile_boundary_returns_upper_exactly(self):
        # fraction == 1.0 must return the bucket's upper bound itself,
        # not lower + (upper - lower) * 1.0, which can round past it.
        histogram = _latency_histogram()
        for _ in range(5):
            histogram.observe(50e-6)
        for _ in range(5):
            histogram.observe(1.0)
        assert histogram.quantile(0.50) == 50e-6

    def test_snapshot_shape(self):
        histogram = _latency_histogram()
        histogram.observe(0.005)
        snap = histogram.snapshot()
        assert set(snap) == {
            "count",
            "dropped",
            "mean_seconds",
            "p50_seconds",
            "p90_seconds",
            "p99_seconds",
            "min_seconds",
            "max_seconds",
        }
        assert snap["count"] == 1


class TestServiceMetrics:
    def test_response_accounting(self):
        metrics = ServiceMetrics()
        metrics.observe_request()
        metrics.observe_response(0.01, cached=False, coalesced=False)
        metrics.observe_request()
        metrics.observe_response(0.001, cached=True, coalesced=False)
        metrics.observe_request()
        metrics.observe_response(0.002, cached=False, coalesced=True)
        snap = metrics.snapshot()
        assert snap["requests"]["received"] == 3
        assert snap["requests"]["completed"] == 3
        assert snap["requests"]["cache_hits"] == 1
        assert snap["requests"]["coalesced"] == 1
        assert snap["latency"]["all"]["count"] == 3
        assert snap["latency"]["cache_hit"]["count"] == 1
        # coalesced responses are not cold executions
        assert snap["latency"]["cold"]["count"] == 1

    def test_per_algorithm_aggregation(self):
        metrics = ServiceMetrics()
        stats = QueryStats()
        stats.distance_computations = 100
        stats.io.page_faults = 7
        metrics.observe_execution("pba2", stats)
        metrics.observe_execution("pba2", stats)
        metrics.observe_execution("sba", stats)
        snap = metrics.snapshot()
        assert snap["per_algorithm"]["pba2"]["executions"] == 2
        assert snap["per_algorithm"]["pba2"]["distance_computations"] == 200
        assert snap["per_algorithm"]["pba2"]["page_faults"] == 14
        assert snap["per_algorithm"]["sba"]["executions"] == 1

    def test_rejections_and_failures(self):
        metrics = ServiceMetrics()
        metrics.observe_rejection(overloaded=True)
        metrics.observe_rejection(overloaded=False)
        metrics.observe_failure()
        metrics.observe_write(0.01)
        snap = metrics.snapshot()
        assert snap["requests"]["rejected_overloaded"] == 1
        assert snap["requests"]["rejected_deadline"] == 1
        assert snap["requests"]["failures"] == 1
        assert snap["requests"]["writes"] == 1
        assert snap["latency"]["write"]["count"] == 1

    def test_snapshot_is_json_serialisable(self):
        metrics = ServiceMetrics()
        metrics.observe_execution("pba2", QueryStats())
        assert json.loads(json.dumps(metrics.snapshot()))

    def test_monitored_latency_all_is_the_registry_instrument(self):
        engine = open_engine(make_vector_space(n=40, dims=2, seed=3), seed=3)
        config = ServiceConfig(workers=1, monitor=True, monitor_interval=60.0)
        with QueryService(engine, config) as service:
            for query in ([0, 5], [1, 9], [0, 5], [2, 7]):
                service.query_sync(query, 3)
            snap = service.snapshot()
            # one histogram, observed once per response
            assert service.metrics.latency_all is service.registry.histogram(
                "request_latency_seconds"
            )
        instrument = snap["instruments"]["request_latency_seconds"]
        assert snap["latency"]["all"]["count"] == 4
        assert instrument["count"] == snap["latency"]["all"]["count"]
