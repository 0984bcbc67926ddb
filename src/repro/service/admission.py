"""Admission control: bounded queueing, deadlines, typed rejection.

A server in front of :class:`~repro.core.engine.TopKDominatingEngine`
must not queue unboundedly: MSD queries are expensive (the paper's
Section 5 charges tens of page faults and thousands of distance
computations per query), so under overload an unbounded queue turns
into unbounded latency for *every* client.  The
:class:`AdmissionController` enforces the classic bounded-queue policy:

* at most ``max_inflight`` requests execute concurrently (a FIFO slot
  pool sized to the worker pool, so admitted work never piles up
  inside the executor);
* at most ``max_queue`` further requests wait for a slot; the next one
  is rejected immediately with :class:`Overloaded` — the HTTP-429
  analogue, a *typed* signal the client can back off on;
* a waiting request that outlives its ``deadline`` (seconds) is
  rejected with :class:`DeadlineExceeded` instead of occupying the
  queue forever.  The deadline bounds *queueing* delay; execution,
  once started, runs to completion.

The controller is pure asyncio and binds to the event loop lazily (its
waiter futures are created per acquisition), so it can be constructed
outside a running event loop (e.g. in synchronous test fixtures or the
CLI).
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from typing import AsyncIterator, Deque, Optional

from repro.obs import trace


class ServiceError(RuntimeError):
    """Base class of every error raised by the serving layer."""


class Rejected(ServiceError):
    """Base class of admission rejections (overload / deadline)."""


class Overloaded(Rejected):
    """Request rejected because the wait queue is full (back off)."""

    def __init__(self, queue_depth: int, max_queue: int) -> None:
        super().__init__(
            f"server overloaded: {queue_depth} requests already queued "
            f"(max_queue={max_queue})"
        )
        self.queue_depth = queue_depth
        self.max_queue = max_queue


class DeadlineExceeded(Rejected):
    """Request rejected because it queued longer than its deadline."""

    def __init__(self, deadline: float) -> None:
        super().__init__(
            f"request queued longer than its {deadline:.3f}s deadline"
        )
        self.deadline = deadline


class StaleResultError(ServiceError):
    """A served result disagreed with a fresh brute-force computation.

    Raised only in ``verify`` mode (tests / load-generator audits);
    seeing this in production mode would mean the cache invalidation
    protocol is broken.
    """


class TransientFault(Rejected):
    """A query failed on a *retryable* upstream fault (HTTP-503).

    The engine's transient faults are retried internally (storage
    backoff); this surfaces only once that budget is
    exhausted — the client may retry, ideally after backing off.  The
    original :class:`~repro.faults.errors.FaultError` is chained as
    ``__cause__``.
    """


class FatalFault(ServiceError):
    """A query failed on a *non-retryable* upstream fault (HTTP-500).

    Checksum corruption or a permanent page error: retrying cannot
    succeed, so the client must not.  The original
    :class:`~repro.faults.errors.FaultError` is chained as
    ``__cause__``.
    """


class _FifoSlots:
    """Bounded execution slots with loss-free timed acquisition.

    Deliberately *not* ``asyncio.Semaphore``: on Python 3.9/3.10 (3.9
    is in the CI matrix) cancelling ``wait_for(semaphore.acquire(),
    timeout)`` can swallow a wakeup that had already been handed to the
    cancelled waiter (CPython GH-90155, fixed in 3.11), so repeated
    deadline timeouts under contention strand permits and progressively
    wedge admission.  Here a release either bumps the free count or
    completes the next waiter's plain ``Future`` directly.  Plain
    futures cancel *synchronously* (no task is interposed), so a waiter
    observes exactly one of "completed with the slot" or "cancelled" —
    and a waiter cancelled just after being handed the slot passes it
    on instead of dropping it.
    """

    def __init__(self, slots: int) -> None:
        self._free = slots
        self._waiters: Deque["asyncio.Future[None]"] = deque()

    def locked(self) -> bool:
        """True when no slot is immediately free."""
        return self._free == 0

    async def acquire(self, timeout: Optional[float] = None) -> None:
        """Take a slot, waiting (bounded by ``timeout`` seconds) FIFO.

        Raises :class:`asyncio.TimeoutError` if no slot arrived in
        time; on timeout or cancellation no slot is ever leaked.
        """
        if self._free > 0:
            # fast path; release() hands slots to waiters directly, so
            # a free slot implies nobody is queued ahead of us.
            self._free -= 1
            return
        future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        try:
            if timeout is None:
                await future
            else:
                await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            if future.done() and not future.cancelled():
                # the slot was handed over concurrently with our
                # cancellation — pass it on rather than strand it.
                self.release()
            else:
                try:
                    self._waiters.remove(future)
                except ValueError:  # already popped by release()
                    pass
            raise
        # future completed: the slot was transferred directly to us.

    def release(self) -> None:
        """Return a slot: wake the next live waiter or free the slot."""
        while self._waiters:
            future = self._waiters.popleft()
            if not future.done():
                future.set_result(None)
                return
        self._free += 1


class AdmissionController:
    """Bounded admission for the asyncio front end.

    Use as::

        async with controller.admit(deadline=0.5):
            ...  # at most max_inflight of these bodies run at once

    ``queue_depth`` / ``inflight`` are live gauges;
    ``peak_queue_depth`` / ``peak_inflight`` are high-water marks for
    the metrics snapshot.
    """

    def __init__(
        self,
        max_inflight: int,
        max_queue: int,
        default_deadline: Optional[float] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.default_deadline = default_deadline
        self.queue_depth = 0
        self.inflight = 0
        self.peak_queue_depth = 0
        self.peak_inflight = 0
        self._slots = _FifoSlots(max_inflight)

    @contextlib.asynccontextmanager
    async def admit(
        self, deadline: Optional[float] = None
    ) -> AsyncIterator[None]:
        """Acquire an execution slot or raise a typed rejection."""
        slots = self._slots
        # the queue bound only applies when no slot is immediately
        # free: max_queue=0 means "never wait", not "never serve".
        if slots.locked() and self.queue_depth >= self.max_queue:
            raise Overloaded(self.queue_depth, self.max_queue)
        timeout = deadline if deadline is not None else self.default_deadline
        self.queue_depth += 1
        self.peak_queue_depth = max(self.peak_queue_depth, self.queue_depth)
        try:
            try:
                # span duration == queueing delay (the part the
                # deadline bounds); closed before the body runs so the
                # execute spans are siblings, not children, of the wait.
                with trace.span(
                    "service.admission_wait", category="service"
                ):
                    await slots.acquire(timeout)
            except asyncio.TimeoutError:
                raise DeadlineExceeded(timeout) from None
        finally:
            self.queue_depth -= 1
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        try:
            yield
        finally:
            self.inflight -= 1
            slots.release()

    def snapshot(self) -> dict:
        """Gauges and limits as plain types (for the metrics export)."""
        return {
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_inflight": self.peak_inflight,
        }
