"""Distance-computation counting.

The number of distance computations is the paper's most important cost
metric (Figures 7-8): "in many applications a single distance
computation may be more computationally intensive than several I/O
operations".  :class:`CountingMetric` wraps any metric and counts every
evaluation; every index and algorithm in this library receives its
metric through such a proxy so the counts in the benchmark reports are
exhaustive — there is no side channel to the raw metric.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.metric.base import Metric, pairwise_distances
from repro.storage.stats import ThreadTallies


class CountingMetric:
    """A metric proxy that counts evaluations.

    Identity pairs (``a is b``) are short-circuited to 0 *without*
    counting, matching the convention that ``d(p, p)`` is never actually
    computed by the C++ implementations the paper benchmarks.

    Counts live in a ``count``/``batches`` tally.  Single-threaded there
    is one tally and no lock is ever taken.  The serving layer
    (:mod:`repro.service`) calls :meth:`make_thread_safe` once, after
    which every thread counts into its **own** tally (a
    :class:`~repro.storage.stats.ThreadTallies`): a thread registers
    its tally once, under a lock, and from then on ``__call__`` and
    :meth:`pairwise` increment only the caller's tally and take no
    lock.  ``count`` and ``batches`` are then the sums of all tallies
    since the last :meth:`reset`, and :meth:`local_count` /
    :meth:`local_batches` read the caller's own.  A query executes
    entirely on one worker thread, so deltas of :meth:`local_count`
    attribute distance computations to exactly the query that
    performed them, where deltas of the shared ``count`` would absorb
    concurrent neighbours' evaluations.
    """

    def __init__(self, inner: Metric) -> None:
        self.inner = inner
        self.name = getattr(inner, "name", "metric")
        self._tallies: ThreadTallies[_Counts] = ThreadTallies(_Counts)

    def __call__(self, a: Any, b: Any) -> float:
        if a is b:
            return 0.0
        self._tallies.mine().count += 1
        return self.inner(a, b)

    def pairwise(
        self, a: Any, candidates: Sequence[Any], reflect: bool = False
    ) -> "np.ndarray":
        """Batched distances from ``a`` to every candidate payload.

        Attribution is **by definition** one distance computation per
        candidate, so counters after a batch are bit-identical to the
        per-pair path — including the identity short-circuit: slots
        whose payload *is* ``a`` come back as 0.0 without being counted
        or evaluated, exactly as ``__call__`` would have skipped them.
        ``batches`` (and the per-thread mirror behind
        :meth:`local_batches`) tracks kernel invocations; it is not a
        paper cost counter and is never gated.
        """
        n = len(candidates)
        if n == 0:
            return np.empty(0, dtype=float)
        identity = [i for i, c in enumerate(candidates) if c is a]
        tally = self._tallies.mine()
        tally.count += n - len(identity)
        tally.batches += 1
        if not identity:
            return pairwise_distances(self.inner, a, candidates, reflect=reflect)
        survivors = [c for c in candidates if c is not a]
        out = np.zeros(n, dtype=float)
        if survivors:
            keep = np.ones(n, dtype=bool)
            keep[identity] = False
            out[keep] = pairwise_distances(
                self.inner, a, survivors, reflect=reflect
            )
        return out

    def make_thread_safe(self) -> None:
        """Give every thread its own tally (idempotent).

        Needed as soon as concurrent queries share one metric: a shared
        ``count += 1`` is a read-modify-write that CPython does not
        make atomic across threads, and lost increments would silently
        under-report the paper's headline cost metric.  The counts made
        so far stay in ``count``; every thread's :meth:`local_count`
        starts at 0.
        """
        self._tallies.make_thread_safe()

    @property
    def count(self) -> int:
        """Evaluations since the last :meth:`reset`, over all threads."""
        return self._tallies.total().count

    @property
    def batches(self) -> int:
        """Batch-kernel invocations since the last :meth:`reset`."""
        return self._tallies.total().batches

    def local_count(self) -> int:
        """The calling thread's own evaluation count.

        The global ``count`` in single-threaded mode (where the two are
        identical).  Per-thread counts only ever grow, so callers diff
        two calls the same way they diff :meth:`snapshot` —
        :meth:`reset` does not touch them.
        """
        return self._tallies.mine().count

    def local_batches(self) -> int:
        """The calling thread's own batch-kernel invocation count.

        Mirrors :meth:`local_count`: global ``batches`` in
        single-threaded mode, per-thread (grow-only) after
        :meth:`make_thread_safe`.
        """
        return self._tallies.mine().batches

    def reset(self) -> None:
        """Zero ``count`` and ``batches``.

        In thread-safe mode the per-thread tallies keep growing; the
        globals restart from their current sum.
        """
        self._tallies.reset()

    def snapshot(self) -> int:
        """Return the current evaluation count."""
        return self.count

    def delta_since(self, earlier: int) -> int:
        """Evaluations performed since an earlier :meth:`snapshot`."""
        return self.count - earlier

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CountingMetric({self.inner!r}, count={self.count})"



class _Counts:
    """One ``count``/``batches`` tally (see :class:`ThreadTallies`)."""

    __slots__ = ("count", "batches")

    def __init__(self, count: int = 0, batches: int = 0) -> None:
        self.count = count
        self.batches = batches

    def merge(self, other: "_Counts") -> None:
        self.count += other.count
        self.batches += other.batches

    def reset(self) -> None:
        self.count = self.batches = 0

    def delta_since(self, earlier: "_Counts") -> "_Counts":
        return _Counts(self.count - earlier.count, self.batches - earlier.batches)
