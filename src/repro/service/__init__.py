"""repro.service — a concurrent query server over the engine.

The ROADMAP's north star is serving heavy traffic, not one synchronous
caller; this subsystem is the first layer where that becomes real,
measurable code.  It wraps one shared
:class:`~repro.core.engine.TopKDominatingEngine` behind
:class:`QueryService`:

* **worker pool + read/write lock** — queries execute concurrently on
  a sized thread pool under shared engine access; ``insert``/``delete``
  take the exclusive side (``server.py``);
* **admission control** — a bounded wait queue with per-request
  deadlines; overload is rejected with the typed :class:`Overloaded`
  (HTTP-429 analogue) instead of queueing unboundedly
  (``admission.py``);
* **single-flight coalescing** — concurrent identical
  ``(sorted(Q), k, algorithm)`` requests share one engine execution
  (``coalesce.py``);
* **result cache** — an LRU keyed the same way, validated against the
  engine's write epoch and flushed on every ``insert_object`` /
  ``delete_object`` so a dynamic data set can never be served stale
  scores; keys of subscribed standing queries are *pinned* and
  refreshed in place instead of flushed (``cache.py``);
* **standing-query subscriptions** — ``subscribe``/``unsubscribe``
  register a continuous ``MSD(Q, k)`` maintained incrementally by
  :class:`~repro.streaming.continuous.ContinuousTopK`; result deltas
  stream through bounded per-subscription queues with
  overflow→resync semantics (``subscriptions.py``, see
  ``docs/streaming.md``);
* **metrics** — latency histograms, queue gauges, cache/coalescer
  effectiveness and per-algorithm engine-cost aggregates, exported as
  one ``snapshot()`` dict (``metrics.py``) through the unified
  :class:`~repro.obs.registry.MetricsRegistry` (JSON and Prometheus
  text exposition; see ``docs/observability.md``);
* **tracing** — ``ServiceConfig(tracer=...)`` (or ``repro-serve
  --trace``) records per-request span trees with paper-cost deltas
  across the asyncio front end and the worker threads (see
  :mod:`repro.obs.trace`);
* **load generator** — the closed-loop, Zipf-skewed ``repro-serve``
  console script demonstrating throughput scaling, cache speedup and
  overload behaviour (``loadgen.py``);
* **fault handling** — with a :class:`~repro.faults.chaos.ChaosConfig`
  (``ServiceConfig(chaos=...)`` or ``repro-serve --fault-profile``),
  typed engine faults surface as :class:`TransientFault` (HTTP-503,
  retryable) or :class:`FatalFault` (HTTP-500) instead of crashing
  workers, and fault/retry counters join the metrics snapshot (see
  ``docs/robustness.md``).

See ``docs/serving.md`` for the architecture and semantics.
"""

from repro.service.admission import (
    AdmissionController,
    DeadlineExceeded,
    FatalFault,
    Overloaded,
    Rejected,
    ServiceError,
    StaleResultError,
    TransientFault,
)
from repro.service.cache import CacheEntry, ResultCache
from repro.service.coalesce import SingleFlight
from repro.service.loadgen import LoadConfig, LoadReport, run_load
from repro.service.metrics import ServiceMetrics
from repro.service.server import (
    QueryRequest,
    QueryResponse,
    QueryService,
    ReadWriteLock,
    ServiceConfig,
)
from repro.service.subscriptions import Subscription, SubscriptionManager

__all__ = [
    "AdmissionController",
    "CacheEntry",
    "DeadlineExceeded",
    "FatalFault",
    "LoadConfig",
    "LoadReport",
    "Overloaded",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ReadWriteLock",
    "Rejected",
    "ResultCache",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "SingleFlight",
    "StaleResultError",
    "Subscription",
    "SubscriptionManager",
    "TransientFault",
    "run_load",
]
