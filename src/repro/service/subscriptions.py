"""Standing-query subscriptions over the query service.

A subscription registers a standing ``(Q, k)`` with a
:class:`~repro.streaming.continuous.ContinuousTopK` maintainer wired
to the engine's change feed, and exposes the maintainer's
:class:`~repro.streaming.continuous.ResultDelta` stream through a
**bounded per-subscription queue**:

* every engine write repairs the standing result synchronously (under
  the service's write lock, after the cache's write-time flush), and
  any resulting delta is enqueued with its emission timestamp;
* :meth:`Subscription.poll` drains the queue; the age of each drained
  delta is the **delta lag** the metrics report;
* when a slow consumer lets the queue overflow, queued deltas are
  dropped and the subscription flips to *resync-pending*: the next
  poll rebuilds the standing result from scratch and delivers one
  full-state ``resync`` delta instead of the lost increments — the
  wire protocol a client needs is therefore just "apply deltas; on
  ``kind == 'resync'`` replace your state with ``delta.result``".

The manager also keeps the service's :class:`ResultCache` primed: the
standing query's key is pinned (spared by write-time flushes) and
refreshed with the repaired answer at each new epoch, so one-shot
queries matching a subscribed standing query keep hitting the cache
across writes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import ChangeEvent, TopKDominatingEngine
from repro.core.progressive import ResultItem
from repro.obs.registry import Histogram
from repro.service.cache import ResultCache
from repro.service.metrics import REQUEST_BOUNDS
from repro.streaming.continuous import ContinuousTopK, ResultDelta


class Subscription:
    """One standing query's delta channel (created by ``subscribe``).

    Not constructed directly; returned by
    :meth:`SubscriptionManager.subscribe` /
    ``QueryService.subscribe``.
    """

    def __init__(
        self,
        subscription_id: int,
        maintainer: ContinuousTopK,
        manager: "SubscriptionManager",
        queue_capacity: int,
    ) -> None:
        self.id = subscription_id
        self.maintainer = maintainer
        self._manager = manager
        self.queue_capacity = queue_capacity
        self._queue: Deque[Tuple[ResultDelta, float]] = deque()
        self._lock = threading.Lock()
        self._resync_pending = False
        self._unsubscribe_delta: Optional[Callable[[], None]] = None
        self.delivered = 0
        self.dropped = 0
        self.overflows = 0
        self.closed = False

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def query(self):
        """The registered :class:`StandingQuery`."""
        return self.maintainer.query

    @property
    def key(self):
        """The cache/coalescing key this subscription keeps primed."""
        q = self.maintainer.query
        return (q.query_ids, q.k, q.algorithm)

    @property
    def result(self) -> List[ResultItem]:
        """The maintained top-k right now."""
        return self.maintainer.result

    @property
    def pending(self) -> int:
        """Deltas queued but not yet polled (the lag gauge)."""
        with self._lock:
            return len(self._queue)

    @property
    def resync_pending(self) -> bool:
        with self._lock:
            return self._resync_pending

    # ------------------------------------------------------------------
    # the delta channel
    # ------------------------------------------------------------------
    def _enqueue(self, delta: ResultDelta) -> None:
        with self._lock:
            if self.closed:
                return
            if len(self._queue) >= self.queue_capacity:
                # a consumer this far behind is better served by one
                # fresh snapshot than a replay it cannot keep up with.
                self.dropped += len(self._queue)
                self._queue.clear()
                self.overflows += 1
                self._resync_pending = True
                self._manager._note_overflow()
                return
            self._queue.append((delta, time.monotonic()))

    def poll(self, max_deltas: Optional[int] = None) -> List[ResultDelta]:
        """Drain queued deltas (oldest first).

        After an overflow the first poll triggers the maintainer's
        resync and returns its full-state delta (plus anything newer).
        ``max_deltas`` bounds the drain for incremental consumption.
        """
        if self.closed:
            raise ValueError(f"subscription {self.id} is closed")
        with self._lock:
            needs_resync = self._resync_pending
            self._resync_pending = False
        if needs_resync:
            # emits through the maintainer's listeners, landing in our
            # queue like any other delta (kind == "resync").
            self._manager._resync(self)
        drained: List[Tuple[ResultDelta, float]] = []
        now = time.monotonic()
        with self._lock:
            while self._queue:
                if max_deltas is not None and len(drained) >= max_deltas:
                    break
                drained.append(self._queue.popleft())
            self.delivered += len(drained)
        for _delta, born in drained:
            self._manager._observe_lag(now - born)
        return [delta for delta, _born in drained]

    def snapshot(self) -> dict:
        """This subscription's counters as plain types."""
        q = self.maintainer.query
        with self._lock:
            return {
                "id": self.id,
                "query_ids": list(q.query_ids),
                "k": q.k,
                "algorithm": q.algorithm,
                "pending": len(self._queue),
                "delivered": self.delivered,
                "dropped": self.dropped,
                "overflows": self.overflows,
                "resync_pending": self._resync_pending,
                "maintainer": dict(self.maintainer.counters),
            }


class SubscriptionManager:
    """Owns every live subscription of one service.

    Serialization contract: :meth:`subscribe`, :meth:`unsubscribe` and
    the per-write repair path must run under the service's **engine
    write lock** — the maintainer bootstrap reads the tree, and the
    repairs themselves are engine change listeners, which the engine
    invokes inside ``insert_object``/``delete_object`` (already under
    that lock in the service).  ``poll`` is safe from any thread.
    """

    def __init__(
        self,
        engine: TopKDominatingEngine,
        cache: ResultCache,
        default_queue_capacity: int = 64,
    ) -> None:
        if default_queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.engine = engine
        self.cache = cache
        self.default_queue_capacity = default_queue_capacity
        self._lock = threading.Lock()
        self._subscriptions: Dict[int, Subscription] = {}
        self._cache_refreshers: Dict[int, Callable[[], None]] = {}
        self._next_id = 0
        self.created = 0
        self.closed = 0
        self.total_overflows = 0
        self.delta_lag = Histogram("delta_lag", bounds=REQUEST_BOUNDS)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        *,
        queue_capacity: Optional[int] = None,
        **maintainer_kwargs: Any,
    ) -> Subscription:
        """Register a standing query; returns its delta channel.

        Caller must hold the engine write lock (the service wrapper
        does).  Extra keyword arguments reach the maintainer
        (``recompute_threshold``, ``aux_mirror``, ``universe``).
        """
        capacity = (
            queue_capacity
            if queue_capacity is not None
            else self.default_queue_capacity
        )
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        # normalize like QueryRequest.make: domination scores are
        # invariant under permutation of Q, and the sorted tuple is
        # what one-shot queries use as their cache key.
        maintainer = ContinuousTopK(
            self.engine, sorted(query_ids), k, algorithm, **maintainer_kwargs
        )
        with self._lock:
            subscription_id = self._next_id
            self._next_id += 1
        subscription = Subscription(
            subscription_id, maintainer, self, capacity
        )
        subscription._unsubscribe_delta = maintainer.subscribe(
            subscription._enqueue
        )
        # ordering: the maintainer's change listener registers first,
        # the cache refresher second — so by the time the refresher
        # runs for a write, the repaired result is already current.
        maintainer.attach()
        key = subscription.key

        def refresh_cache(event: ChangeEvent) -> None:
            self.cache.refresh(
                key,
                event.epoch,
                (maintainer.result, maintainer.last_stats, event.epoch),
            )

        detach_refresher = self.engine.subscribe_changes(refresh_cache)
        self.cache.pin(key)
        self.cache.refresh(
            key,
            self.engine.epoch,
            (maintainer.result, maintainer.bootstrap_stats, self.engine.epoch),
        )
        with self._lock:
            self._subscriptions[subscription_id] = subscription
            self._cache_refreshers[subscription_id] = detach_refresher
            self.created += 1
        return subscription

    def restore_from_recovery(self) -> List[Subscription]:
        """Re-register every standing query the recovered engine lists.

        Caller must hold the engine write lock (the service wrapper
        does).  For each manifest entry a fresh subscription is
        created (re-registering under a new durable sid), the
        recovered sid is dropped from the manifest, and one full-state
        ``resync`` delta is queued so the first poll hands consumers
        the complete post-restart result — the same wire contract as
        an overflow resync.
        """
        report = getattr(self.engine, "last_recovery", None)
        durability = getattr(self.engine, "durability", None)
        if report is None or not report.standing_queries:
            return []
        restored: List[Subscription] = []
        for sid, entry in sorted(report.standing_queries.items()):
            subscription = self.subscribe(
                entry["query_ids"], entry["k"], entry["algorithm"]
            )
            if durability is not None:
                # the re-registration above wrote a fresh sid; retire
                # the recovered one so the manifest stays 1:1 with
                # live maintainers.
                durability.forget_standing(sid)
            subscription.maintainer.emit_resync_snapshot()
            restored.append(subscription)
        return restored

    def unsubscribe(
        self,
        subscription: Subscription,
        *,
        retain_standing: bool = False,
    ) -> None:
        """Tear down a subscription (idempotent).

        Caller must hold the engine write lock (the service wrapper
        does): teardown detaches engine listeners and drops the
        maintainer's aux pages, which must not race in-flight writes.
        ``retain_standing=True`` (the :meth:`close` shutdown path)
        keeps the durable-manifest registration, so the standing query
        is re-registered by the next warm restart; an explicit client
        unsubscribe drops it for good.
        """
        with self._lock:
            live = self._subscriptions.pop(subscription.id, None)
            detach_refresher = self._cache_refreshers.pop(
                subscription.id, None
            )
            if live is not None:
                self.closed += 1
        if live is None:
            return
        subscription.closed = True
        if subscription._unsubscribe_delta is not None:
            subscription._unsubscribe_delta()
        if detach_refresher is not None:
            detach_refresher()
        self.cache.unpin(subscription.key)
        subscription.maintainer.close(forget=not retain_standing)

    def close(self) -> None:
        """Tear down every live subscription (keeping durable manifest
        entries, so a warm restart can re-register them)."""
        with self._lock:
            live = list(self._subscriptions.values())
        for subscription in live:
            self.unsubscribe(subscription, retain_standing=True)

    # ------------------------------------------------------------------
    # internals used by Subscription
    # ------------------------------------------------------------------
    def _resync(self, subscription: Subscription) -> None:
        delta = subscription.maintainer.resync()
        self.cache.refresh(
            subscription.key,
            delta.epoch,
            (
                subscription.maintainer.result,
                subscription.maintainer.last_stats,
                delta.epoch,
            ),
        )

    def _note_overflow(self) -> None:
        with self._lock:
            self.total_overflows += 1

    def _observe_lag(self, seconds: float) -> None:
        self.delta_lag.observe(seconds)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            return list(self._subscriptions.values())

    def snapshot(self) -> dict:
        """All subscription counters for the metrics registry."""
        with self._lock:
            subs = list(self._subscriptions.values())
            head = {
                "active": len(subs),
                "created": self.created,
                "closed": self.closed,
                "overflows": self.total_overflows,
            }
        pending = sum(sub.pending for sub in subs)
        return {
            **head,
            "pending_deltas": pending,
            "delta_lag": self.delta_lag.snapshot(),
            "per_subscription": [sub.snapshot() for sub in subs],
        }
