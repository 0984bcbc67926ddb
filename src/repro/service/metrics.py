"""Service observability: latency histograms and counter aggregation.

The benchmark harness measures the paper's three per-query costs (CPU,
simulated I/O, distance computations); a *server* additionally needs
distributional latency (p50/p99, not means — queueing skews tails),
queue gauges and cache/coalescer effectiveness.  Everything here is
dependency-free and exports plain dicts so ``repro-serve --stats`` can
dump one JSON document.

Attribution: the engine charges I/O and distance computations from
**per-thread** counters once ``prepare_for_concurrency`` has run
(``BufferPool.local_io``, ``CountingMetric.local_count``).  A query
executes entirely on one worker thread, so each request's
``QueryStats`` reflects exactly its own page faults and distance
evaluations even while neighbours run concurrently — which matters
beyond reporting, because the server *enacts* ``io_seconds`` as real
latency in ``io_model`` mode and caches the stats in the response.
The shared global counters still exist and stay exact in aggregate.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.obs.registry import Histogram
from repro.storage.stats import QueryStats


#: bucket upper bounds (seconds) of every service latency histogram:
#: the request latencies, the write latency and the subscription delta
#: lag.  The default latency SLO threshold (0.25 s) is a bound, so its
#: burn-rate accounting is exact.
REQUEST_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _AlgorithmAggregate:
    """Engine-cost totals for one algorithm (exact in aggregate)."""

    def __init__(self) -> None:
        self.executions = 0
        self.stats = QueryStats()

    def merge(self, stats: QueryStats) -> None:
        self.executions += 1
        self.stats.merge(stats)

    def snapshot(self) -> dict:
        io = self.stats.io
        return {
            "executions": self.executions,
            "cpu_seconds": self.stats.cpu_seconds,
            "io_seconds": self.stats.io_seconds,
            "distance_computations": self.stats.distance_computations,
            "exact_score_computations": self.stats.exact_score_computations,
            "page_faults": io.page_faults,
            "buffer_hits": io.buffer_hits,
            "results_reported": self.stats.results_reported,
        }


class ServiceMetrics:
    """All serving-layer counters, snapshotted as one nested dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.completed = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.cold_executions = 0
        self.rejected_overloaded = 0
        self.rejected_deadline = 0
        self.failures = 0
        self.faults_transient = 0
        self.faults_fatal = 0
        self.writes = 0
        self.latency_all = Histogram(
            "request_latency_seconds", bounds=REQUEST_BOUNDS
        )
        self.latency_cold = Histogram("latency_cold", bounds=REQUEST_BOUNDS)
        self.latency_cache_hit = Histogram(
            "latency_cache_hit", bounds=REQUEST_BOUNDS
        )
        self.latency_write = Histogram("latency_write", bounds=REQUEST_BOUNDS)
        self._per_algorithm: Dict[str, _AlgorithmAggregate] = {}
        self.explain_requests = 0
        self.last_plan: Optional[dict] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def observe_request(self) -> None:
        """Count an arriving query request."""
        with self._lock:
            self.requests += 1

    def observe_response(
        self,
        latency_seconds: float,
        cached: bool,
        coalesced: bool,
    ) -> None:
        """Count a successfully served query and its latency."""
        with self._lock:
            self.completed += 1
            if cached:
                self.cache_hits += 1
            if coalesced:
                self.coalesced += 1
        self.latency_all.observe(latency_seconds)
        if cached:
            self.latency_cache_hit.observe(latency_seconds)
        elif not coalesced:
            self.latency_cold.observe(latency_seconds)

    def observe_execution(self, algorithm: str, stats: QueryStats) -> None:
        """Aggregate one cold engine execution's cost counters."""
        with self._lock:
            self.cold_executions += 1
            aggregate = self._per_algorithm.get(algorithm)
            if aggregate is None:
                aggregate = self._per_algorithm[algorithm] = (
                    _AlgorithmAggregate()
                )
            aggregate.merge(stats)

    def _observe_explain(self, plan_summary: dict) -> None:
        """Count one explained execution and keep its plan digest.

        Service-internal (called by ``QueryService``), so it stays off
        the public API surface.
        """
        with self._lock:
            self.explain_requests += 1
            self.last_plan = plan_summary

    def observe_rejection(self, overloaded: bool) -> None:
        """Count a typed admission rejection."""
        with self._lock:
            if overloaded:
                self.rejected_overloaded += 1
            else:
                self.rejected_deadline += 1

    def observe_failure(self) -> None:
        """Count a query that raised a non-admission error."""
        with self._lock:
            self.failures += 1

    def observe_fault(self, retryable: bool) -> None:
        """Count a query killed by a typed upstream fault.

        Transient faults absorbed by retries are *not* counted here —
        those queries succeed; the injector's own counters (merged into
        the service snapshot under ``"faults"``) account every injected
        event and every retry taken.
        """
        with self._lock:
            if retryable:
                self.faults_transient += 1
            else:
                self.faults_fatal += 1

    def observe_write(self, latency_seconds: float) -> None:
        """Count an insert/delete and its latency."""
        with self._lock:
            self.writes += 1
        self.latency_write.observe(latency_seconds)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every counter and histogram summary, JSON-serialisable."""
        with self._lock:
            requests = {
                "received": self.requests,
                "completed": self.completed,
                "cache_hits": self.cache_hits,
                "coalesced": self.coalesced,
                "cold_executions": self.cold_executions,
                "rejected_overloaded": self.rejected_overloaded,
                "rejected_deadline": self.rejected_deadline,
                "failures": self.failures,
                "faults_transient": self.faults_transient,
                "faults_fatal": self.faults_fatal,
                "writes": self.writes,
            }
            per_algorithm = {
                name: aggregate.snapshot()
                for name, aggregate in sorted(self._per_algorithm.items())
            }
            explain = {
                "requests": self.explain_requests,
                "last_plan": self.last_plan,
            }
        return {
            "requests": requests,
            "latency": {
                "all": self.latency_all.snapshot(),
                "cold": self.latency_cold.snapshot(),
                "cache_hit": self.latency_cache_hit.snapshot(),
                "write": self.latency_write.snapshot(),
            },
            "per_algorithm": per_algorithm,
            "explain": explain,
        }
