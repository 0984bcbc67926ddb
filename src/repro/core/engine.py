"""User-facing facade: build the indexes once, query many times.

:class:`TopKDominatingEngine` owns the paper's full execution stack for
one data set — the M-tree over an LRU buffer sized at 10 % of the tree,
the auxiliary buffer at 20 % of the data set (Section 5) — and runs any
of the algorithms with precise per-query accounting of CPU time,
simulated I/O and distance computations.

Typical use::

    from repro import TopKDominatingEngine, MetricSpace, EuclideanMetric

    space = MetricSpace(points, EuclideanMetric(), name="demo")
    engine = TopKDominatingEngine(space)
    for item in engine.stream(query_ids=[3, 17], k=5):   # progressive
        print(item.object_id, item.score)

    results, stats = engine.top_k_dominating([3, 17], k=5)  # measured
"""

from __future__ import annotations

import math
import random
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from dataclasses import dataclass

from repro.faults.crashpoints import crashpoint
from repro.core.aba import ABA
from repro.core.approximate import ApproximateTopK
from repro.core.brute_force import BruteForce
from repro.core.pba import PBA1, PBA2
from repro.core.progressive import QueryContext, ResultItem, TopKAlgorithm
from repro.core.pruning import PruningConfig
from repro.core.sba import SBA
from repro.index import get_backend
from repro.metric.base import MetricSpace
from repro.metric.counting import CountingMetric
from repro.obs import explain as explain_mod
from repro.obs import trace
from repro.storage.buffer import BufferPool
from repro.storage.stats import QueryStats, Stopwatch

#: algorithm registry keyed by the lower-case names used in benchmarks.
ALGORITHMS: Dict[str, Type[TopKAlgorithm]] = {
    "brute": BruteForce,
    "sba": SBA,
    "aba": ABA,
    "pba1": PBA1,
    "pba2": PBA2,
    "apx": ApproximateTopK,
}


def canonical_algorithm(value: object, func: str) -> str:
    """The registry name for an algorithm selector string.

    Matching is case-insensitive (``"PBA2"`` selects ``"pba2"``);
    anything else raises a ``ValueError`` listing the algorithms.
    """
    if isinstance(value, str) and value.lower() in ALGORITHMS:
        return value.lower()
    raise ValueError(
        f"{func}(): unknown algorithm {value!r}; choose from "
        f"{sorted(ALGORITHMS)}"
    )


#: rough bytes per data-set record, used to size the aux buffer the way
#: the paper sizes it ("20% of db size").
_RECORD_BYTES_ESTIMATE = 64


@dataclass(frozen=True)
class ChangeEvent:
    """One committed data-set mutation, as seen by change listeners.

    ``epoch`` is the write epoch *after* the mutation; ``op`` is
    ``"insert"`` or ``"delete"``; ``object_id`` names the object.  The
    epoch-only write listeners (:meth:`TopKDominatingEngine.
    subscribe_writes`) tell a cache *that* the world moved; change
    listeners tell an incremental maintainer *what* moved — which is
    the difference between flushing a result and repairing it (see
    :mod:`repro.streaming.continuous`).
    """

    epoch: int
    op: str
    object_id: int


class TopKDominatingEngine:
    """Indexes a metric space and answers ``MSD(Q, k)`` queries.

    Parameters
    ----------
    space:
        The data set.  Its metric is wrapped in a
        :class:`~repro.metric.counting.CountingMetric` automatically
        (unless it already is one) so distance computations are always
        accounted.
    rng:
        Randomness source for index construction.
    buffers:
        Optionally share a pre-built :class:`BufferPool`.
    index, index_options:
        A registered backend name (:func:`repro.index.
        available_backends`) and its build options — e.g.
        ``index="pmtree", index_options={"pivots": 8}``.

    Every parameter after ``space`` is keyword-only.
    """

    def __init__(
        self,
        space: MetricSpace,
        *,
        rng: Optional[random.Random] = None,
        buffers: Optional[BufferPool] = None,
        index: str = "mtree",
        index_options: Optional[Dict[str, object]] = None,
    ) -> None:
        if not isinstance(space.metric, CountingMetric):
            space = MetricSpace(
                [space.payload(i) for i in space.object_ids],
                CountingMetric(space.metric),
                name=space.name,
            )
        self.space = space
        self.buffers = buffers or BufferPool()
        if not isinstance(index, str):
            raise TypeError(
                "TopKDominatingEngine(): index must be a backend name "
                f"string, got {type(index).__name__}"
            )
        options = dict(index_options) if index_options else {}
        # the registry replaces the former hard-coded if/elif over
        # index names: any access method registered through
        # repro.index.register_backend is constructible here, and an
        # unknown name raises a typed error listing what is registered.
        spec = get_backend(index)
        self.backend = spec
        self.index_kind = spec.name
        self.index_options = dict(options)
        self.tree = spec.build(
            space, self.buffers.index_buffer, rng, options
        )
        dataset_pages = max(
            1,
            math.ceil(
                len(space)
                * _RECORD_BYTES_ESTIMATE
                / self.buffers.aux_manager.page_size
            ),
        )
        self.buffers.size_for(self.tree.num_pages, dataset_pages)
        self.build_distance_computations = self.counting_metric.count
        self._epoch = 0
        self._write_listeners: List[Callable[[int], None]] = []
        self._change_listeners: List[Callable[[ChangeEvent], None]] = []
        self.fault_injector = None
        #: durability controller (repro.recovery), None = volatile.
        self.durability = None
        #: RecoveryReport when this engine came out of recover_engine.
        self.last_recovery = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def counting_metric(self) -> CountingMetric:
        metric = self.space.metric
        assert isinstance(metric, CountingMetric)
        return metric

    def make_context(self) -> QueryContext:
        """A fresh query context (fresh stats) over the shared indexes."""
        return QueryContext(
            space=self.space, tree=self.tree, buffers=self.buffers
        )

    def make_algorithm(
        self,
        algorithm: str,
        context: Optional[QueryContext] = None,
        pruning: Optional[PruningConfig] = None,
    ) -> TopKAlgorithm:
        """Instantiate an algorithm by registry name (``"pba2"``)."""
        algorithm = canonical_algorithm(algorithm, "make_algorithm")
        cls = ALGORITHMS[algorithm]
        if (
            algorithm in ("sba", "aba")
            and "skyline" not in self.backend.capabilities
        ):
            supported = sorted(
                name
                for name in ALGORITHMS
                if name not in ("sba", "aba")
            )
            raise ValueError(
                f"{algorithm} requires an index backend with the "
                f"'skyline' capability (metric-skyline / aggregate-NN "
                f"node pruning); the {self.index_kind} backend supports "
                + ", ".join(supported)
            )
        ctx = context or self.make_context()
        if issubclass(cls, (PBA1, PBA2)) and pruning is not None:
            return cls(ctx, pruning=pruning)
        return cls(ctx)

    # ------------------------------------------------------------------
    # write epoch (consumed by the serving layer's result cache)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotone write counter: bumped by every successful mutation.

        Two queries executed at the same epoch are guaranteed to see
        the same data set, which is exactly the invariant a result
        cache in front of the engine needs (see ``repro.service``).
        """
        return self._epoch

    def subscribe_writes(
        self, listener: Callable[[int], None]
    ) -> Callable[[], None]:
        """Call ``listener(new_epoch)`` after every successful write.

        Returns an unsubscribe callable.  Listeners run synchronously
        inside :meth:`insert_object`/:meth:`delete_object`, after the
        index mutation completed — so a cache flushing itself from the
        listener can never observe the pre-write tree at the post-write
        epoch.
        """
        self._write_listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._write_listeners.remove(listener)
            except ValueError:  # already unsubscribed
                pass

        return unsubscribe

    def subscribe_changes(
        self, listener: Callable[[ChangeEvent], None]
    ) -> Callable[[], None]:
        """Call ``listener(ChangeEvent)`` after every successful write.

        Like :meth:`subscribe_writes` but typed: the listener learns
        *which* object moved, not just that the epoch advanced.  Change
        listeners run synchronously after all epoch-only write
        listeners — so a cache that flushes on the write channel is
        already clean by the time an incremental maintainer repairs and
        re-primes it from the change channel.  Returns an unsubscribe
        callable.
        """
        self._change_listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._change_listeners.remove(listener)
            except ValueError:  # already unsubscribed
                pass

        return unsubscribe

    def _notify_write(self, op: str, object_id: int) -> None:
        self._epoch += 1
        for listener in list(self._write_listeners):
            listener(self._epoch)
        if self._change_listeners:
            event = ChangeEvent(
                epoch=self._epoch, op=op, object_id=object_id
            )
            for listener in list(self._change_listeners):
                listener(event)

    def prepare_for_concurrency(self) -> None:
        """Make the shared mutable internals safe for parallel queries.

        The engine's hot path is single-threaded by design (no lock
        overhead for benchmarks); a multi-threaded caller such as
        :class:`repro.service.QueryService` must call this once before
        issuing concurrent queries.  It makes safe the two structures
        that concurrent *readers* mutate: both LRU buffers go behind a
        lock (their recency lists move on every page hit), and the
        buffers and the :class:`CountingMetric` give every thread its
        own counter tally, incremented without a lock; the global
        counters become sums of those tallies.  Mutating the *data
        set* concurrently with queries additionally requires external
        read/write exclusion, which the service layer provides.
        """
        self.counting_metric.make_thread_safe()
        self.buffers.make_thread_safe()

    def reset_cost_counters(self) -> None:
        """Zero the engine's *global* cost accumulators.

        Per-query :class:`QueryStats` are exact deltas already; the
        global distance count and buffer I/O counters, however, keep
        accumulating for the engine's lifetime.  Callers that hold an
        engine across many measured cells (session-cached benchmark
        engines, the perf-observatory suites) reset between cells so
        any reader of the globals sees per-cell values instead of a
        running total.  After :meth:`prepare_for_concurrency` the
        globals restart from the current sum of the per-thread
        tallies; the tallies themselves are untouched — they are
        diffed, never read absolutely.

        The reset is also *cold*: the counted metric's own caches (the
        shortest-path metric's Dijkstra rows) are dropped too, so a
        cell's Dijkstra work never depends on which cell ran before.
        """
        metric = self.counting_metric
        metric.reset()
        clear_cache = getattr(metric.inner, "clear_cache", None)
        if clear_cache is not None:
            clear_cache()
        self.buffers.reset_stats()

    def attach_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.faults.chaos.FaultInjector`.

        Enables page checksumming and fault injection on both simulated
        disks (index and aux).  With all probabilities at zero this
        changes no result and no counter — checksums are stamped and
        verified but no fault ever fires; see ``docs/robustness.md``.
        """
        self.fault_injector = injector
        self.buffers.index_manager.attach_injector(injector)
        self.buffers.aux_manager.attach_injector(injector)

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Snapshot pages + aux records + epoch atomically.

        Requires durability.  With ``path=None`` the controller's own
        checkpoint is rewritten and the WAL truncated (log
        compaction); an explicit ``path`` writes an out-of-band
        snapshot and leaves the WAL alone.  Returns the path written.
        """
        if self.durability is None:
            raise RuntimeError(
                "engine has no durability attached; build it with "
                "open_engine(durability=...) first"
            )
        return self.durability.checkpoint(self, path)

    # ------------------------------------------------------------------
    # dynamic data (the M-tree's insert/delete support, Section 4.1)
    # ------------------------------------------------------------------
    def insert_object(self, payload) -> int:
        """Add a new object to the data set and index; returns its id."""
        if "insert" not in self.backend.capabilities:
            raise NotImplementedError(
                f"the {self.index_kind} index is static; rebuild the "
                "engine to add objects"
            )
        durability = self.durability
        if durability is None:
            object_id = self.space.append(payload)
            self.tree.insert(object_id)
        else:
            # WAL transaction: page mutations during the insert are
            # captured; the commit record is the durability boundary.
            # Listeners (caches, standing queries) are only notified
            # after commit, so no observer ever sees an un-durable
            # state as current.
            with durability.transaction():
                object_id = self.space.append(payload)
                self.tree.insert(object_id)
                crashpoint("engine.insert.pre_commit")
                durability.commit_mutation(
                    self, "insert", object_id, payload
                )
                crashpoint("engine.insert.post_commit")
        self._notify_write("insert", object_id)
        return object_id

    def delete_object(self, object_id: int) -> bool:
        """Remove an object from the index (id stays allocated)."""
        durability = self.durability
        if durability is None:
            removed = self.tree.delete(object_id)
        else:
            with durability.transaction():
                removed = self.tree.delete(object_id)
                if removed:
                    crashpoint("engine.delete.pre_commit")
                    durability.commit_mutation(
                        self, "delete", object_id, None
                    )
                    crashpoint("engine.delete.post_commit")
        if removed:
            self._notify_write("delete", object_id)
        return removed

    def register_query_payload(self, payload) -> int:
        """Admit an *external* query object; returns its query id.

        The paper draws query objects from ``D``, but nothing in the
        algorithms requires it: the payload is added to the metric
        space (so distances to it are defined) **without** being
        indexed, so it is never a result candidate and never counts
        toward domination scores.  Use the returned id inside
        ``query_ids`` like any other.
        """
        object_id = self.space.append(payload)
        if self.durability is not None:
            self.durability.record_query_payload(object_id, payload)
        return object_id

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def stream(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        pruning: Optional[PruningConfig] = None,
    ) -> Iterator[ResultItem]:
        """Progressive results, one at a time (stop whenever you like)."""
        algo = self.make_algorithm(algorithm, pruning=pruning)
        return algo.run(query_ids, k)

    def top_k_dominating(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        pruning: Optional[PruningConfig] = None,
    ) -> Tuple[List[ResultItem], QueryStats]:
        """Full answer plus the paper's three cost metrics.

        CPU seconds are measured wall time of the computation; I/O
        seconds are simulated (page faults x 8 ms across both buffers);
        distance computations are the counting metric's delta.  The
        I/O and distance deltas are taken from the calling thread's
        own counters once :meth:`prepare_for_concurrency` has run, so
        per-query attribution stays exact under concurrent queries;
        single-threaded, the thread-local view *is* the global one.
        """
        algorithm = canonical_algorithm(algorithm, "top_k_dominating")
        return self._measured_run(
            query_ids, k, algorithm, pruning, self.make_context()
        )

    def _measured_run(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str,
        pruning: Optional[PruningConfig],
        context: QueryContext,
    ) -> Tuple[List[ResultItem], QueryStats]:
        """Run one canonicalized query with exact cost accounting."""
        algo = self.make_algorithm(algorithm, context, pruning=pruning)
        probe = self.cost_probe(context) if trace.active() else None
        with trace.span(
            "engine.query",
            category="engine",
            probe=probe,
            args={
                "algorithm": algorithm,
                "k": k,
                "m": len(query_ids),
            },
        ):
            io_before = self.buffers.local_io()
            dist_before = self.counting_metric.local_count()
            batches_before = self.counting_metric.local_batches()
            watch = Stopwatch()
            with watch:
                results = list(algo.run(query_ids, k))
            stats = context.stats
            stats.cpu_seconds = watch.elapsed
            stats.io = self.buffers.local_io().delta_since(io_before)
            stats.distance_computations = (
                self.counting_metric.local_count() - dist_before
            )
            stats.distance_batches = (
                self.counting_metric.local_batches() - batches_before
            )
        return results, stats

    def explain(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        pruning: Optional[PruningConfig] = None,
    ) -> Tuple[List[ResultItem], QueryStats, "explain_mod.QueryPlan"]:
        """Run the query and return ``(results, stats, QueryPlan)``.

        Identical execution to :meth:`top_k_dominating` — explain is a
        strict observer, so results and every
        deterministic cost counter are bit-identical to an unexplained
        run (pinned by ``tests/test_explain_neutrality.py``).  On top
        of the stats, the returned :class:`repro.obs.explain.QueryPlan`
        carries the pruning funnel, the per-level index visit profile,
        heap/threshold snapshots and per-phase self-attributed cost
        deltas.

        The run is one explain scope
        (:func:`repro.obs.explain.explained`): under an ambient trace
        (e.g. the service's tracer) its spans land in that tracer,
        otherwise in a private one; either way the plan is built from
        the captured ``engine.explain`` subtree.
        """
        algorithm = canonical_algorithm(algorithm, "explain")
        context = self.make_context()

        def body():
            results, stats = self._measured_run(
                query_ids, k, algorithm, pruning, context
            )
            header = explain_mod.plan_header(
                algorithm, query_ids, k, context.n, stats
            )
            return (results, stats), header

        (results, stats), plan = explain_mod.explained(
            "engine.explain",
            "engine",
            self.cost_probe(context),
            body,
            backend=self.index_kind,
        )
        return results, stats, plan

    def cost_probe(self, context: QueryContext) -> "trace.CostProbe":
        """A tracing probe over this thread's paper-cost counters.

        The probe reads the same sources the stats accounting above
        reads — the thread-local buffer counters, the thread-local
        distance count, and the context's exact-score count — so the
        ``engine.query`` span's cost delta is *identical* to the
        returned :class:`QueryStats` (pinned by
        ``tests/test_obs_attribution.py``).  Algorithm phase spans
        inherit it through the ambient scope.
        """
        buffers = self.buffers
        metric = self.counting_metric
        stats = context.stats

        def probe() -> trace.CostSnapshot:
            io = buffers.local_io()
            return trace.CostSnapshot(
                page_faults=io.page_faults,
                buffer_hits=io.buffer_hits,
                distance_computations=metric.local_count(),
                exact_score_computations=stats.exact_score_computations,
            )

        return probe
