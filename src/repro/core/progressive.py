"""Progressive algorithm scaffolding.

All four of the paper's algorithms are *progressive*: they determine
the best object first, then the second best, and so on, and the user
may stop once enough results arrived (Section 1).  We model this with
plain Python generators — each algorithm's :meth:`TopKAlgorithm.run`
yields :class:`ResultItem` values one at a time, and pulling fewer than
``k`` items really does less work.

:class:`QueryContext` bundles everything an algorithm execution needs:
the metric space, the M-tree, the buffer pool, and the
:class:`~repro.storage.stats.QueryStats` the run should account into.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.metric.base import MetricSpace
from repro.metric.counting import CountingMetric
from repro.mtree.tree import MTree
from repro.storage.buffer import BufferPool
from repro.storage.stats import QueryStats


@dataclass(frozen=True)
class ResultItem:
    """One progressive result: an object id and its domination score."""

    object_id: int
    score: int

    def __iter__(self):
        # allow ``for oid, score in results`` unpacking.
        return iter((self.object_id, self.score))


@dataclass
class QueryContext:
    """Execution context shared by one algorithm run.

    ``stats`` accumulates the run's counters; the benchmark harness
    snapshots buffer and metric counters around ``run`` to attribute
    I/O and distance computations precisely.
    """

    space: MetricSpace
    tree: MTree
    buffers: BufferPool
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def n(self) -> int:
        """Data set cardinality |D| as seen by the query."""
        return len(self.tree)

    @property
    def counting_metric(self) -> Optional[CountingMetric]:
        """The space's counting metric, if it is one."""
        metric = self.space.metric
        return metric if isinstance(metric, CountingMetric) else None


class TopKAlgorithm(abc.ABC):
    """Base class of the paper's query-processing algorithms.

    Subclasses implement :meth:`run` as a generator yielding results
    best-first.  ``name`` identifies the algorithm in benchmark
    reports (``"SBA"``, ``"ABA"``, ``"PBA1"``, ``"PBA2"``,
    ``"BruteForce"``).
    """

    name: str = "abstract"

    def __init__(self, context: QueryContext) -> None:
        self.context = context

    @abc.abstractmethod
    def run(
        self, query_ids: Sequence[int], k: int
    ) -> Iterator[ResultItem]:
        """Yield the top-k dominating objects progressively."""

    def top_k(self, query_ids: Sequence[int], k: int) -> List[ResultItem]:
        """Materialize the full top-k answer."""
        return list(self.run(query_ids, k))

    # ------------------------------------------------------------------
    # shared validation
    # ------------------------------------------------------------------
    def _validate(self, query_ids: Sequence[int], k: int) -> None:
        if k < 0:
            raise ValueError("k must be >= 0")
        if not query_ids:
            raise ValueError("query set Q must not be empty")
        n = len(self.context.space)
        for q in query_ids:
            if not (0 <= q < n):
                raise ValueError(f"query object {q} not in the data set")
        if len(set(query_ids)) != len(query_ids):
            raise ValueError("query objects must be distinct")
