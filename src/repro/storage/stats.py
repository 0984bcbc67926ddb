"""Cost accounting shared by every access method.

The paper evaluates algorithms along three axes (Section 5):

* CPU time,
* I/O time — every page fault through an LRU buffer costs 8 ms on a
  4 KB-page disk,
* the number of distance computations, which dominates total cost when
  the metric is expensive (e.g. shortest paths on a road network).

:class:`IOStats` counts page reads/writes/faults, :class:`CostModel`
turns the counters into seconds, and :class:`QueryStats` bundles all
per-query counters (including distance computations and exact-score
computations, the quantity reported in the paper's Table 3).
:class:`ThreadTallies` gives each thread its own counters, so
concurrent queries count without sharing a lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Generic, List, Tuple, TypeVar

#: a tally type: ``merge(other)``, ``reset()``, ``delta_since(earlier)``.
T = TypeVar("T")

#: Cost charged per page fault, in seconds (paper Section 5: "a cost of
#: 8msec is attributed to each page fault").
PAGE_FAULT_COST_SECONDS = 0.008


@dataclass
class IOStats:
    """Page-level I/O counters for one access method (or one query).

    ``logical_reads``/``logical_writes`` count every page request;
    ``page_faults`` counts only the requests the LRU buffer could not
    absorb.  ``buffer_hits`` is the difference, kept explicitly so the
    hit ratio can be asserted in tests without re-deriving it.
    """

    logical_reads: int = 0
    logical_writes: int = 0
    page_faults: int = 0
    buffer_hits: int = 0
    pages_allocated: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        self.logical_reads = 0
        self.logical_writes = 0
        self.page_faults = 0
        self.buffer_hits = 0
        self.pages_allocated = 0

    @property
    def logical_accesses(self) -> int:
        """Total page requests, hits and faults together."""
        return self.logical_reads + self.logical_writes

    @property
    def hit_ratio(self) -> float:
        """Fraction of page requests absorbed by the buffer."""
        accesses = self.logical_accesses
        if accesses == 0:
            return 0.0
        return self.buffer_hits / accesses

    def merge(self, other: "IOStats") -> None:
        """Accumulate ``other``'s counters into this object."""
        self.logical_reads += other.logical_reads
        self.logical_writes += other.logical_writes
        self.page_faults += other.page_faults
        self.buffer_hits += other.buffer_hits
        self.pages_allocated += other.pages_allocated

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return IOStats(
            logical_reads=self.logical_reads,
            logical_writes=self.logical_writes,
            page_faults=self.page_faults,
            buffer_hits=self.buffer_hits,
            pages_allocated=self.pages_allocated,
        )

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Return the counter difference ``self - earlier``.

        Used by the benchmark harness to attribute I/O to a single query
        executed against long-lived shared indexes.
        """
        return IOStats(
            logical_reads=self.logical_reads - earlier.logical_reads,
            logical_writes=self.logical_writes - earlier.logical_writes,
            page_faults=self.page_faults - earlier.page_faults,
            buffer_hits=self.buffer_hits - earlier.buffer_hits,
            pages_allocated=self.pages_allocated - earlier.pages_allocated,
        )


class ThreadTallies(Generic[T]):
    """The cost counters of one owner, kept as one tally per thread.

    A tally is any object with ``merge(other)``, ``reset()`` and
    ``delta_since(earlier)``, as :class:`IOStats` has; ``new()`` makes
    an empty one.  :meth:`mine` is the caller's tally.

    Single-threaded (the default) there is one tally, and :meth:`total`
    is that live object.  After :meth:`make_thread_safe` every thread
    gets its own: it registers the tally once, under the lock, and
    from then on increments it without any lock — no other thread
    writes to it, so no increment is lost.  :meth:`total` is then a
    new tally, the sum of all of them since the last :meth:`reset`.
    The tallies of threads that have exited are folded into one
    retired tally at the next registration, so their counts stay in
    the total while the list stays as long as the live threads.
    """

    def __init__(self, new: Callable[[], T]) -> None:
        self._new = new
        self._local: Any = SimpleNamespace(tally=new())
        self._threaded = False
        self._lock = threading.Lock()
        self._live: List[Tuple[threading.Thread, T]] = []
        self._retired = new()
        self._base = new()

    def make_thread_safe(self) -> None:
        """Give every thread its own tally (idempotent).  The counts
        made so far stay in the total."""
        if not self._threaded:
            self._retired.merge(self._local.tally)
            self._local = threading.local()
            self._threaded = True

    def _register(self) -> T:
        """Give the calling thread a fresh tally and return it."""
        tally = self._new()
        me = threading.current_thread()
        with self._lock:
            live = []
            for thread, other in self._live:
                if thread.is_alive():
                    live.append((thread, other))
                else:
                    self._retired.merge(other)
            live.append((me, tally))
            self._live = live
        self._local.tally = tally
        return tally

    def mine(self) -> T:
        """The calling thread's tally (the only one, single-threaded)."""
        try:
            return self._local.tally
        except AttributeError:  # first count on this thread
            return self._register()

    def _sum(self) -> T:
        out = self._new()
        with self._lock:
            out.merge(self._retired)
            for _thread, tally in self._live:
                out.merge(tally)
        return out

    def total(self) -> T:
        """Counts since the last :meth:`reset`, over all threads."""
        if not self._threaded:
            return self._local.tally
        return self._sum().delta_since(self._base)

    def reset(self) -> None:
        """Zero :meth:`total`; per-thread tallies keep growing."""
        if not self._threaded:
            self._local.tally.reset()
        else:
            self._base = self._sum()


@dataclass(frozen=True)
class CostModel:
    """Translates I/O counters into simulated wall-clock seconds."""

    page_fault_cost: float = PAGE_FAULT_COST_SECONDS

    def io_seconds(self, stats: IOStats) -> float:
        """Simulated I/O time for the given counters."""
        return stats.page_faults * self.page_fault_cost


@dataclass
class QueryStats:
    """Everything the paper measures for a single query execution.

    The benchmark harness fills one of these per (algorithm, data set,
    parameter) cell; the reporting layer then prints the same rows and
    series as the paper's Figures 4-8 and Tables 2-3.
    """

    cpu_seconds: float = 0.0
    io: IOStats = field(default_factory=IOStats)
    distance_computations: int = 0
    #: batched metric-kernel invocations behind the distance
    #: computations above.  Diagnostic only (how well the hot paths
    #: amortise Python-call overhead) — deliberately NOT one of the
    #: paper's gated cost counters, whose values batching leaves
    #: bit-identical.
    distance_batches: int = 0
    exact_score_computations: int = 0
    objects_retrieved: int = 0
    objects_pruned: int = 0
    results_reported: int = 0
    cost_model: CostModel = field(default_factory=CostModel)

    @property
    def io_seconds(self) -> float:
        """Simulated I/O time (page faults x 8 ms)."""
        return self.cost_model.io_seconds(self.io)

    @property
    def total_seconds(self) -> float:
        """CPU time plus simulated I/O time."""
        return self.cpu_seconds + self.io_seconds

    def merge(self, other: "QueryStats") -> None:
        """Accumulate ``other`` into this object (for averaging runs)."""
        self.cpu_seconds += other.cpu_seconds
        self.io.merge(other.io)
        self.distance_computations += other.distance_computations
        self.distance_batches += other.distance_batches
        self.exact_score_computations += other.exact_score_computations
        self.objects_retrieved += other.objects_retrieved
        self.objects_pruned += other.objects_pruned
        self.results_reported += other.results_reported

    def scaled(self, divisor: float) -> "QueryStats":
        """Return a copy with every additive counter divided by ``divisor``.

        Counters stay floats conceptually; integer fields are rounded to
        the nearest integer because the paper also reports averages of
        counts (e.g. Table 3) as integers.
        """
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        out = QueryStats(cost_model=self.cost_model)
        out.cpu_seconds = self.cpu_seconds / divisor
        out.io = IOStats(
            logical_reads=round(self.io.logical_reads / divisor),
            logical_writes=round(self.io.logical_writes / divisor),
            page_faults=round(self.io.page_faults / divisor),
            buffer_hits=round(self.io.buffer_hits / divisor),
            pages_allocated=round(self.io.pages_allocated / divisor),
        )
        out.distance_computations = round(self.distance_computations / divisor)
        out.distance_batches = round(self.distance_batches / divisor)
        out.exact_score_computations = round(
            self.exact_score_computations / divisor
        )
        out.objects_retrieved = round(self.objects_retrieved / divisor)
        out.objects_pruned = round(self.objects_pruned / divisor)
        out.results_reported = round(self.results_reported / divisor)
        return out


class Stopwatch:
    """Context manager measuring CPU time via ``time.perf_counter``.

    Usage::

        watch = Stopwatch()
        with watch:
            run_query()
        stats.cpu_seconds += watch.elapsed
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.elapsed += time.perf_counter() - self._start
