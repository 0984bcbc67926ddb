"""The concurrent query service over one shared engine.

:class:`QueryService` turns a single
:class:`~repro.core.engine.TopKDominatingEngine` into a multi-tenant
server.  The request path composes the subsystem's parts in a fixed
order::

    client --> admission (bounded queue, deadline)      [admission.py]
           --> result cache (epoch-validated LRU)       [cache.py]
           --> single-flight coalescing                 [coalesce.py]
           --> worker pool --> engine read lock --> engine
                                     |
    insert/delete --> engine WRITE lock --> epoch bump --> cache flush

Concurrency model
-----------------
Queries run on a sized :class:`~concurrent.futures.ThreadPoolExecutor`
and share the engine under a **writer-preference read/write lock**:
any number of queries execute concurrently; ``insert``/``delete`` take
the write side, so a query never observes a half-mutated M-tree and a
cached entry's epoch stamp provably matches the tree its query read.
A cold execution also *closes* its single-flight entry while still
holding the read lock: a write can only commit once every reader has
released, so by the time the epoch moves the flight is guaranteed
un-joinable and a post-write request starts a fresh execution instead
of inheriting a pre-write answer.

Simulated I/O as real latency (``io_model``)
--------------------------------------------
The paper *charges* 8 ms per page fault without sleeping — right for
offline benchmarking, wrong for a server demo where latency and
worker-scaling behaviour are the point.  With ``io_model=True`` the
worker sleeps the query's simulated I/O seconds (scaled by
``io_cost_scale``) *after* releasing the read lock, making the
workload I/O-bound the way the paper's cost model says it is — which
is also what lets N workers overlap stalls into real throughput on a
GIL-constrained runtime.

Verification (``verify`` / :meth:`verify_response`)
---------------------------------------------------
In verify mode every cold execution is audited under the same read
lock against :func:`~repro.core.brute_force.brute_force_scores`; the
public :meth:`verify_response` additionally audits *served* responses
(including cache hits), raising :class:`StaleResultError` on any
mismatch.  This is the teeth behind the "no stale cache reads" claim.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    ContextManager,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.api import (
    QueryPlan,
    ResultItem,
    TopKDominatingEngine,
    brute_force_scores,
)
from repro.faults.chaos import ChaosConfig, FaultInjector
from repro.faults.errors import FaultError
from repro.obs import trace
from repro.obs.monitor import HealthLimits, compute_health
from repro.obs.perf.env import environment_fingerprint
from repro.obs.registry import MetricsRegistry, sanitize_metric_name
from repro.obs.trace import Span, Tracer
from repro.service.admission import (
    AdmissionController,
    DeadlineExceeded,
    FatalFault,
    Overloaded,
    Rejected,
    StaleResultError,
    TransientFault,
)
from repro.service.cache import CacheKey, ResultCache
from repro.service.coalesce import SingleFlight
from repro.service.metrics import REQUEST_BOUNDS, ServiceMetrics
from repro.service.subscriptions import Subscription, SubscriptionManager
from repro.storage.stats import QueryStats

#: shared stand-in for "no root trace": yields the falsy no-op span, so
#: the request path needs a single truthiness check, not two branches.
_NO_TRACE: ContextManager = contextlib.nullcontext(trace.NOOP_SPAN)

#: one execution's answer as cached and shared with a flight's
#: followers: ``(results, stats, epoch)``.
Outcome = Tuple[List[ResultItem], QueryStats, int]


class ReadWriteLock:
    """Writer-preference shared/exclusive lock for engine access.

    Readers (queries) share; writers (``insert``/``delete``) exclude
    everyone.  Writer preference — new readers wait while a writer is
    waiting — keeps a steady query stream from starving updates.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        """``with lock.read():`` — shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write(self) -> Iterator[None]:
        """``with lock.write():`` — exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass(frozen=True)
class QueryRequest:
    """A normalized ``MSD(Q, k)`` request.

    ``query_ids`` are stored sorted: domination scores depend on the
    distance *vector as a set of components*, so any permutation of
    ``Q`` yields the same answer — normalizing maximizes cache and
    coalescing hit rates.
    """

    query_ids: Tuple[int, ...]
    k: int
    algorithm: str = "pba2"

    @classmethod
    def make(
        cls, query_ids: Sequence[int], k: int, algorithm: str = "pba2"
    ) -> "QueryRequest":
        """Normalize raw arguments into a canonical request."""
        return cls(
            query_ids=tuple(sorted(query_ids)),
            k=k,
            algorithm=algorithm.lower(),
        )

    @property
    def key(self) -> CacheKey:
        """The cache / coalescing identity of this request."""
        return (self.query_ids, self.k, self.algorithm)


@dataclass
class QueryResponse:
    """A served answer plus its provenance.

    ``epoch`` is the engine write epoch the answer was computed at;
    ``cached``/``coalesced`` say how it was served; ``stats`` are the
    engine costs of the execution that *produced* the answer (for a
    cache hit: the original cold run, not the hit itself).
    """

    results: List[ResultItem]
    stats: QueryStats
    epoch: int
    algorithm: str
    cached: bool = False
    coalesced: bool = False
    latency_seconds: float = 0.0
    #: the explain artifact; ``None`` unless served with ``explain=True``.
    plan: Optional[QueryPlan] = None


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of :class:`QueryService` (all have serving defaults)."""

    workers: int = 4
    max_inflight: Optional[int] = None  # default: workers
    max_queue: int = 64
    default_deadline: Optional[float] = None
    cache_capacity: int = 256
    io_model: bool = False
    io_cost_scale: float = 1.0
    verify: bool = False
    #: default per-subscription delta-queue capacity; an overflowing
    #: queue drops its backlog and forces a resync on the next poll
    #: (see repro.service.subscriptions).
    subscription_queue: int = 64
    #: optional seeded fault injection on the engine's simulated disks
    #: (see repro.faults); typed failures surface as TransientFault /
    #: FatalFault instead of crashing workers.
    chaos: Optional[ChaosConfig] = None
    #: optional span tracer (see repro.obs.trace).  ``None`` — the
    #: default — keeps every instrumentation point on its no-op fast
    #: path.
    tracer: Optional[Tracer] = None
    #: self-monitoring (see repro.obs.monitor): scrape the registry
    #: into a retained time-series store, evaluate SLO/burn-rate
    #: rules, and feed the health verdict.  Off by default — the
    #: standing invariant is that monitor-off means zero behavior
    #: change and bit-identical deterministic cost counters.
    monitor: bool = False
    #: scrape/evaluate period of the monitor thread, in seconds.
    monitor_interval: float = 1.0
    #: retained points per series in the monitor's ring buffers.
    monitor_capacity: int = 512
    #: alert rules; ``None`` uses :func:`repro.obs.slo.default_rules`.
    monitor_rules: Optional[Sequence[Any]] = None
    #: atomically republish the live monitor document to this path on
    #: every tick (``repro-top FILE`` tails it).
    monitor_out: Optional[str] = None

    def resolved_max_inflight(self) -> int:
        """Admission slots: default one per worker thread.

        Only ``None`` means "default"; an explicit ``max_inflight=0``
        is passed through so :class:`AdmissionController` rejects it
        instead of being silently coerced to ``workers``.
        """
        return (
            self.max_inflight
            if self.max_inflight is not None
            else self.workers
        )


class QueryService:
    """Serve ``MSD(Q, k, algorithm)`` queries and writes concurrently.

    Asynchronous API (:meth:`query`, :meth:`insert`, :meth:`delete`)
    for servers and the load generator; synchronous API
    (:meth:`query_sync`) for embedding and deterministic tests.  Use as
    a context manager or call :meth:`close` to release the pool.
    """

    def __init__(
        self,
        engine: TopKDominatingEngine,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        engine.prepare_for_concurrency()
        if self.config.chaos is not None:
            engine.attach_fault_injector(FaultInjector(self.config.chaos))
        self.injector: Optional[FaultInjector] = engine.fault_injector
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._engine_lock = ReadWriteLock()
        self.cache = ResultCache(self.config.cache_capacity)
        self.cache.attach(engine)
        self.subscriptions = SubscriptionManager(
            engine,
            self.cache,
            default_queue_capacity=self.config.subscription_queue,
        )
        self.coalescer = SingleFlight()
        self.admission = AdmissionController(
            max_inflight=self.config.resolved_max_inflight(),
            max_queue=self.config.max_queue,
            default_deadline=self.config.default_deadline,
        )
        self.metrics = ServiceMetrics()
        self.tracer: Optional[Tracer] = self.config.tracer
        chaos = self.config.chaos
        self._fingerprint = environment_fingerprint(
            extras={
                "trace_enabled": self.tracer is not None,
                "fault_profile": (
                    (chaos.profile_name or "custom")
                    if chaos is not None
                    else "none"
                ),
                "fault_seed": chaos.seed if chaos is not None else None,
            }
        )
        self.registry = MetricsRegistry()
        self._register_collectors()
        self._detach_phase_listener: Optional[Any] = None
        if self.tracer is not None:
            self._detach_phase_listener = self.tracer.add_listener(
                self._observe_phase_span
            )
        self.health_limits = HealthLimits()
        self.monitor: Optional[Any] = None
        if self.config.monitor:
            self._start_monitor()
        self._closed = False

    def _start_monitor(self) -> None:
        """Construct and start the self-monitoring pipeline.

        Everything monitor-specific lives behind ``config.monitor`` —
        imports, the registered request-latency histogram, the extra
        registry sections — so a monitor-off service carries no trace
        of it (the neutrality invariant).
        """
        from repro.obs.monitor import Monitor
        from repro.obs.slo import counter_sink, default_rules, logging_sink

        rules = self.config.monitor_rules
        if rules is None:
            rules = default_rules()
        # the snapshot's latency.all becomes the registry instrument the
        # latency burn-rate rule reads, so each response is observed
        # once; this runs before the first request is served.
        self.metrics.latency_all = self.registry.histogram(
            "request_latency_seconds",
            help="wall seconds from request admission to response",
            bounds=self.REQUEST_BOUNDS,
        )
        self.monitor = Monitor(
            self.registry,
            rules=rules,
            interval=self.config.monitor_interval,
            capacity=self.config.monitor_capacity,
            sinks=(logging_sink(), counter_sink(self.registry)),
            out_path=self.config.monitor_out,
            meta={"service": "repro", "interval": self.config.monitor_interval},
        )
        self.monitor.health_source = self.health
        self.registry.register_collector("monitor", self.monitor.snapshot)
        self.registry.register_collector("health", self.health)
        self.monitor.start()

    def _register_collectors(self) -> None:
        """Plug every subsystem's snapshot into the unified registry.

        The registry *pulls* at scrape time, so the sections below stay
        live views; the root (``None``) collector merges the service
        metrics' own sections (``requests`` / ``latency`` /
        ``per_algorithm``) at the top level, preserving the snapshot
        shape clients of earlier versions already parse.
        """
        registry = self.registry
        registry.register_collector(None, self.metrics.snapshot)
        registry.register_collector("build", self._build_snapshot)
        registry.register_collector("config", self._config_snapshot)
        registry.register_collector("engine", self._engine_snapshot)
        registry.register_collector("admission", self.admission.snapshot)
        registry.register_collector("cache", self.cache.snapshot)
        registry.register_collector(
            "subscriptions", self.subscriptions.snapshot
        )
        registry.register_collector("coalescer", self.coalescer.snapshot)
        registry.register_collector(
            "faults",
            lambda: (
                self.injector.snapshot()
                if self.injector is not None
                else None
            ),
        )
        registry.register_collector(
            "storage", self.engine.buffers.snapshot
        )
        registry.register_collector("recovery", self._recovery_snapshot)
        registry.register_collector(
            "observability",
            lambda: (
                self.tracer.snapshot() if self.tracer is not None else None
            ),
        )

    #: finer-than-default bounds for per-phase spans, which sit well
    #: below request latencies (10 us up to ~167 s, x4 per bucket).
    PHASE_BOUNDS = tuple(1e-05 * 4**i for i in range(12))

    #: bounds of every service latency histogram and the subscription
    #: delta lag (defined in :mod:`repro.service.metrics`).
    REQUEST_BOUNDS = REQUEST_BOUNDS

    def _observe_phase_span(self, span_obj: Span) -> None:
        """Tracer listener: algorithm phase durations into histograms.

        Every finished ``category="algo"`` span (``sba.round``,
        ``pba.confirm``, ``aba.candidates``, ...) lands in a
        per-phase-name histogram, so the Prometheus exposition covers
        phase timings (``repro_phase_<name>_seconds_bucket``) next to
        the request-level latency histograms.
        """
        if span_obj.phase != "X" or span_obj.category != "algo":
            return
        name = sanitize_metric_name(span_obj.name)
        self.registry.histogram(
            f"phase_{name}_seconds",
            help=f"wall seconds of the {span_obj.name} algorithm phase",
            bounds=self.PHASE_BOUNDS,
        ).observe(span_obj.duration)

    def _build_snapshot(self) -> dict:
        """Who produced these numbers: build + run-mode attribution.

        The environment fingerprint (git SHA, Python, platform, CPU
        count) is computed once at service construction; the trace and
        fault-profile attribution makes any archived snapshot
        answerable to "which build, under which injection mix?".
        """
        return self._fingerprint

    def _config_snapshot(self) -> dict:
        return {
            "workers": self.config.workers,
            "max_inflight": self.config.resolved_max_inflight(),
            "max_queue": self.config.max_queue,
            "cache_capacity": self.config.cache_capacity,
            "io_model": self.config.io_model,
            "io_cost_scale": self.config.io_cost_scale,
        }

    def _engine_snapshot(self) -> dict:
        return {
            "epoch": self.engine.epoch,
            "objects": len(self.engine.tree),
            "index": self.engine.index_kind,
        }

    def _recovery_snapshot(self) -> Optional[dict]:
        """Durability/recovery section: WAL counters + last recovery.

        ``None`` (section omitted) for volatile engines; for durable
        ones the controller reports its commit/page-record/checkpoint
        counters plus — after ``--recover-from`` — the recovery time
        and replayed-record metrics of the warm restart.
        """
        durability = getattr(self.engine, "durability", None)
        if durability is None:
            return None
        return durability.snapshot()

    def restore_subscriptions(self) -> List[Subscription]:
        """Re-register standing queries after a warm restart.

        For an engine opened with ``recover_from=...`` whose manifest
        lists standing queries: re-subscribes each under the write
        lock and queues one full-state ``resync`` delta per
        subscription.  No-op (empty list) otherwise.
        """
        with self._exclusive("restore"):
            return self.subscriptions.restore_from_recovery()

    # ------------------------------------------------------------------
    # async API
    # ------------------------------------------------------------------
    async def query(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        deadline: Optional[float] = None,
        *,
        explain: bool = False,
    ) -> QueryResponse:
        """Serve one query: admission -> cache -> coalesce -> engine.

        Raises :class:`Overloaded` / :class:`DeadlineExceeded` on
        admission rejection; engine validation errors (unknown
        algorithm, bad query ids) propagate as-is.

        ``explain=True`` executes on the engine's explain path and
        attaches the :class:`~repro.api.QueryPlan` to the response.
        An explained request bypasses the cache lookup and coalescing
        — the plan describes one concrete execution, so serving a
        cached answer or joining another request's flight would have
        no plan to attach — but it still lands its (bit-identical)
        answer in the cache for later un-explained requests.
        """
        request = QueryRequest.make(query_ids, k, algorithm)
        started = time.perf_counter()
        with self._accounted(request) as root:
            async with self.admission.admit(deadline):
                hit, joined = self._route(request, explain)
                plan = None
                if hit is not None:
                    outcome = hit
                elif joined is None:
                    outcome, plan = await self._in_pool(
                        self._execute, request, explain
                    )
                else:
                    with trace.span(
                        "service.coalesce_join", category="service"
                    ):
                        outcome = await asyncio.wrap_future(joined)
                return self._respond(
                    request,
                    outcome,
                    started,
                    root,
                    plan,
                    cached=hit is not None,
                    coalesced=joined is not None,
                )

    async def insert(self, payload: object) -> int:
        """Add an object (exclusive engine access); returns its id."""
        return await self._in_pool(self.insert_sync, payload)

    async def delete(self, object_id: int) -> bool:
        """Remove an object (exclusive engine access)."""
        return await self._in_pool(self.delete_sync, object_id)

    # ------------------------------------------------------------------
    # sync API (embedding, tests, property checks)
    # ------------------------------------------------------------------
    def query_sync(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        *,
        explain: bool = False,
    ) -> QueryResponse:
        """Serve one query synchronously (cache + coalesce + engine).

        No admission control — the caller owns its own backpressure.
        ``explain=True`` behaves as in :meth:`query`:
        bypasses cache and coalescing, attaches ``response.plan``.
        """
        request = QueryRequest.make(query_ids, k, algorithm)
        started = time.perf_counter()
        with self._accounted(request) as root:
            hit, joined = self._route(request, explain)
            plan = None
            if hit is not None:
                outcome = hit
            elif joined is None:
                outcome, plan = self._execute(request, explain)
            else:
                with trace.span("service.coalesce_join", category="service"):
                    outcome = joined.result()
            return self._respond(
                request,
                outcome,
                started,
                root,
                plan,
                cached=hit is not None,
                coalesced=joined is not None,
            )

    def insert_sync(self, payload: object) -> int:
        """Synchronous :meth:`insert`."""
        started = time.perf_counter()
        with self._exclusive("insert"):
            object_id = self.engine.insert_object(payload)
        self.metrics.observe_write(time.perf_counter() - started)
        return object_id

    def delete_sync(self, object_id: int) -> bool:
        """Synchronous :meth:`delete`."""
        started = time.perf_counter()
        with self._exclusive("delete"):
            removed = self.engine.delete_object(object_id)
        self.metrics.observe_write(time.perf_counter() - started)
        return removed

    # ------------------------------------------------------------------
    # standing-query subscriptions
    # ------------------------------------------------------------------
    def subscribe_sync(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        **kwargs: Any,
    ) -> Subscription:
        """Register a standing query; returns its delta channel.

        The standing result is bootstrapped under the engine write lock
        (a consistent snapshot), then repaired incrementally inside
        every subsequent write.  The query's cache key is pinned and
        kept refreshed, so one-shot :meth:`query` calls for the same
        ``(Q, k, algorithm)`` hit the cache across writes.  Keyword
        arguments reach the maintainer (``queue_capacity``,
        ``recompute_threshold``, ``aux_mirror``).
        """
        with self._exclusive("subscribe"):
            return self.subscriptions.subscribe(
                query_ids, k, algorithm, **kwargs
            )

    def unsubscribe_sync(self, subscription: Subscription) -> None:
        """Tear down a subscription (idempotent)."""
        with self._engine_lock.write():
            self.subscriptions.unsubscribe(subscription)

    def poll_sync(
        self,
        subscription: Subscription,
        max_deltas: Optional[int] = None,
    ) -> List[Any]:
        """Drain a subscription's queued deltas.

        The common drain is lock-free; a poll that must resync (after
        a queue overflow) rebuilds the standing result under the write
        lock so the snapshot cannot interleave with a mutation.
        """
        if subscription.resync_pending:
            with self._engine_lock.write():
                return subscription.poll(max_deltas)
        return subscription.poll(max_deltas)

    async def subscribe(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        **kwargs: Any,
    ) -> Subscription:
        """Async :meth:`subscribe_sync` (runs on the worker pool)."""
        return await self._in_pool(
            lambda: self.subscribe_sync(query_ids, k, algorithm, **kwargs)
        )

    async def unsubscribe(self, subscription: Subscription) -> None:
        """Async :meth:`unsubscribe_sync`."""
        await self._in_pool(self.unsubscribe_sync, subscription)

    async def poll(
        self,
        subscription: Subscription,
        max_deltas: Optional[int] = None,
    ) -> List[Any]:
        """Async :meth:`poll_sync`."""
        return await self._in_pool(self.poll_sync, subscription, max_deltas)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify_response(
        self,
        query_ids: Sequence[int],
        k: int,
        response: QueryResponse,
    ) -> Optional[bool]:
        """Audit a served response against fresh brute-force scores.

        Returns True when verified, None when unverifiable (the engine
        has moved past ``response.epoch``, so the ground truth the
        response was computed against no longer exists — which is not
        staleness: the cache would refuse to *serve* that entry now).
        Raises :class:`StaleResultError` on a genuine mismatch.
        Approximate algorithms (``apx``) are not auditable this way.
        """
        with self._engine_lock.read():
            if self.engine.epoch != response.epoch:
                return None
            self._verify_locked(
                QueryRequest.make(query_ids, k, response.algorithm),
                response.results,
            )
        return True

    def _verify_locked(
        self, request: QueryRequest, results: List[ResultItem]
    ) -> None:
        expected = brute_force_scores(
            self.engine.space,
            list(request.query_ids),
            universe=list(self.engine.tree.object_ids()),
        )
        for item in results:
            if expected.get(item.object_id) != item.score:
                raise StaleResultError(
                    f"object {item.object_id} served with score "
                    f"{item.score}, brute force says "
                    f"{expected.get(item.object_id)} "
                    f"(Q={request.query_ids}, k={request.k})"
                )
        top = sorted(expected.values(), reverse=True)[: len(results)]
        served = sorted((item.score for item in results), reverse=True)
        if served != top:
            raise StaleResultError(
                f"served top-{request.k} scores {served} are not the "
                f"brute-force top scores {top}"
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _root(self, name: str, **args: Any) -> ContextManager:
        """Open a root span — its own trace — or the no-op without a tracer."""
        if self.tracer is None:
            return _NO_TRACE
        return self.tracer.trace(name, category="service", args=args)

    @contextlib.contextmanager
    def _accounted(self, request: QueryRequest) -> Iterator[Any]:
        """Count one request and its outcome around its root span.

        The ``service.request`` root lives on the event loop (or the
        sync caller's thread), where the engine's per-thread counters
        never move, so it carries no cost probe — the ``engine.query``
        span inside the worker owns the paper-cost delta.  Admission
        rejections count as rejections; a typed engine fault is counted
        and mapped onto the admission taxonomy — retryable ones (a
        transient storage error that exhausted its retry budget) become
        :class:`TransientFault`, the HTTP-503 analogue a client may
        retry, the rest :class:`FatalFault`; any other error counts as
        a failure.  Either way the worker survives.
        """
        self.metrics.observe_request()
        try:
            with self._root(
                "service.request",
                algorithm=request.algorithm,
                k=request.k,
                m=len(request.query_ids),
            ) as root:
                yield root
        except Overloaded:
            self.metrics.observe_rejection(overloaded=True)
            raise
        except DeadlineExceeded:
            self.metrics.observe_rejection(overloaded=False)
            raise
        except Rejected:  # pragma: no cover - future rejection kinds
            raise
        except FaultError as exc:
            self.metrics.observe_fault(exc.retryable)
            mapped = TransientFault if exc.retryable else FatalFault
            raise mapped(str(exc)) from exc
        except Exception:
            self.metrics.observe_failure()
            raise

    @contextlib.contextmanager
    def _exclusive(self, op: str) -> Iterator[None]:
        """A write's prologue: root span, spanned lock wait, exclusion."""
        with self._root("service.write", op=op):
            with trace.span("service.write_lock_wait", category="service"):
                self._engine_lock.acquire_write()
            try:
                yield
            finally:
                self._engine_lock.release_write()

    def _in_pool(self, fn: Any, *args: Any) -> "asyncio.Future":
        """Run ``fn(*args)`` on the worker pool in a copy of this context.

        ``run_in_executor`` does NOT copy contextvars (bpo-34014 by
        design); the copy (O(1)) carries the trace scope into the
        worker.
        """
        ctx = contextvars.copy_context()
        return asyncio.get_running_loop().run_in_executor(
            self._pool, ctx.run, fn, *args
        )

    def _route(
        self, request: QueryRequest, explain: bool
    ) -> Tuple[Optional[Outcome], Optional[Future]]:
        """The cache-or-flight decision: ``(hit, joined)``.

        ``hit`` is a valid cached outcome; else ``joined`` is another
        request's flight to wait on; with both ``None`` the caller
        executes — as the flight's leader, or, for an explained
        request, which reads no cache and leads no flight, alone.
        """
        if explain:
            return None, None
        with trace.span(
            "service.cache_lookup", category="service"
        ) as span_obj:
            entry = self.cache.get(request.key, self.engine.epoch)
            if span_obj:
                span_obj.set("hit", entry is not None)
        if entry is not None:
            return entry.value, None
        future, leader = self.coalescer.begin(request.key)
        return None, None if leader else future

    def _execute(
        self, request: QueryRequest, explain: bool
    ) -> Tuple[Outcome, Optional[QueryPlan]]:
        """Cold execution: compute, land the flight, stall.

        A plain request must hold the leadership of the ``request.key``
        flight (:meth:`_route` returned neither a hit nor a flight to
        join); this method owns landing it.  The flight is **closed**
        while the engine read lock is still held: a write commits only
        after every reader releases, so once the epoch can move the key
        is already gone and a post-write request starts a fresh flight
        instead of joining one whose answer predates it (the stale-join
        window a joinable-until-delivery flight would open).  The
        future is **completed** only after the modeled I/O stall, so
        followers that did join still experience the leader's I/O
        latency — the answer physically does not exist before the disk
        read finishes.  An explained request has no flight and runs on
        the engine's explain path; its answer (identical to the plain
        one by the explain-neutrality guarantee) still lands in the
        cache so subsequent plain requests hit.
        """
        flight: Optional[Future] = None
        try:
            with trace.span("service.lock_wait", category="service"):
                self._engine_lock.acquire_read()
            try:
                epoch = self.engine.epoch
                query_ids = list(request.query_ids)
                plan = None
                if explain:
                    results, stats, plan = self.engine.explain(
                        query_ids, request.k, algorithm=request.algorithm
                    )
                else:
                    results, stats = self.engine.top_k_dominating(
                        query_ids, request.k, algorithm=request.algorithm
                    )
                if self.config.verify and request.algorithm != "apx":
                    with trace.span("service.verify", category="service"):
                        self._verify_locked(request, results)
                outcome = (results, stats, epoch)
                self.cache.put(request.key, epoch, outcome)
                if not explain:
                    flight = self.coalescer.close(request.key)
            finally:
                self._engine_lock.release_read()
            self.metrics.observe_execution(request.algorithm, stats)
            if plan is not None:
                self.metrics._observe_explain(plan.summary())
            self._io_stall(stats)
            if flight is not None:
                flight.set_result(outcome)
            return outcome, plan
        except BaseException as exc:
            if flight is None and not explain:
                flight = self.coalescer.close(request.key)
            if flight is not None and not flight.done():
                flight.set_exception(exc)
            raise

    def _io_stall(self, stats: QueryStats) -> None:
        """Enact the paper's simulated disk outside the read lock.

        The stall delays this client (and its coalesced followers),
        not writers or unrelated queries.  Separated out so tests can
        interleave writes into the stall window deterministically.
        """
        if self.config.io_model and stats.io_seconds > 0.0:
            with trace.span(
                "service.io_stall",
                category="service",
                args={"io_seconds": stats.io_seconds},
            ):
                time.sleep(stats.io_seconds * self.config.io_cost_scale)

    def _respond(
        self,
        request: QueryRequest,
        outcome: Outcome,
        started: float,
        root: Any,
        plan: Optional[QueryPlan],
        cached: bool,
        coalesced: bool,
    ) -> QueryResponse:
        results, stats, epoch = outcome
        latency = time.perf_counter() - started
        self.metrics.observe_response(latency, cached, coalesced)
        if root:
            root.set("cached", cached)
            root.set("coalesced", coalesced)
            root.set("epoch", epoch)
        return QueryResponse(
            results=results,
            stats=stats,
            epoch=epoch,
            algorithm=request.algorithm,
            cached=cached,
            coalesced=coalesced,
            latency_seconds=latency,
            plan=plan,
        )

    # ------------------------------------------------------------------
    # lifecycle & introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool and detach from the engine."""
        if self._closed:
            return
        self._closed = True
        if self.monitor is not None:
            self.monitor.stop()
        if self._detach_phase_listener is not None:
            self._detach_phase_listener()
            self._detach_phase_listener = None
        self.subscriptions.close()
        self.cache.detach()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *_exc) -> None:
        self.close()

    def snapshot(self) -> dict:
        """One JSON-serialisable dict of every subsystem's counters.

        Since the registry absorbed the hand-rolled snapshot this is a
        straight :meth:`MetricsRegistry.collect` — the legacy sections
        (``config`` / ``engine`` / ``admission`` / ``cache`` /
        ``coalescer`` / ``faults`` plus the top-level ``requests`` /
        ``latency`` / ``per_algorithm``) are unchanged;
        ``storage`` (buffer pools), ``observability`` (tracer) and
        ``build`` (environment fingerprint + trace/fault attribution)
        ride along.  With ``config.monitor`` on, ``monitor`` (scrape /
        alert state) and ``health`` (the verdict) join them.
        """
        return self.registry.collect()

    def health(self) -> dict:
        """The service's ``ok/degraded/unhealthy`` verdict, with checks.

        Folds alert state (when the monitor is attached), WAL size and
        checkpoint age, subscription backlog, and the fatal-fault budget —
        see :func:`repro.obs.monitor.compute_health` for the rules.
        Works monitor-off too: the alert check then reports "monitor
        not attached" and judges everything else.
        """
        durability = getattr(self.engine, "durability", None)
        return compute_health(
            alerts=(
                self.monitor.alerts.active()
                if self.monitor is not None
                else None
            ),
            recovery=(
                durability.snapshot() if durability is not None else None
            ),
            subscriptions=self.subscriptions.snapshot(),
            requests=self.metrics.snapshot()["requests"],
            limits=self.health_limits,
        )

    def metrics_prometheus(self) -> str:
        """The same document in Prometheus text exposition 0.0.4."""
        return self.registry.to_prometheus()
