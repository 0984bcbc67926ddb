"""Shortest-path metrics on weighted graphs.

The paper's CALIFORNIA data set is a road network whose distance
function is the shortest-path length between nodes.  Shortest-path
distance on an undirected, non-negatively weighted graph is a metric
(symmetry from undirectedness, triangle inequality because paths
compose).

:class:`Graph` is a minimal adjacency-list graph; :func:`dijkstra`
computes single-source distances; :class:`ShortestPathMetric` wraps the
two as a :class:`~repro.metric.base.Metric` whose payloads are node
ids.  Because one metric evaluation runs (bounded) Dijkstra, this
metric is *expensive* — exactly the regime where the paper argues that
the number of distance computations dominates total cost (Table 2, CAL
rows).

One kernel, :func:`_dijkstra_row`, serves every path.  It runs on the
graph's packed adjacency (one tuple of ``(neighbor, weight)`` pairs per
node), keeps its distances in lists indexed by node, and can stop once
a whole *set* of targets is settled — so a batch of distances from one
source costs one run, not one run per candidate.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

INF = float("inf")

#: one tuple of ``(neighbor, weight)`` pairs per node.
Adjacency = Tuple[Tuple[Tuple[int, float], ...], ...]


class Graph:
    """An undirected graph with non-negative edge weights.

    Nodes are integers.  Parallel edges keep the smaller weight; self
    loops are ignored (they never shorten a path).
    """

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        self._adj: List[Dict[int, float]] = [{} for _ in range(num_nodes)]
        # the packed adjacency, built on first use; None after a change.
        self._packed: Optional[Adjacency] = None

    def __getstate__(self) -> Dict[str, object]:
        # the packed adjacency is a second copy of ``_adj``: not pickled.
        state = self.__dict__.copy()
        del state["_packed"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._packed = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Append a node and return its id."""
        self._adj.append({})
        self._packed = None
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add an undirected edge (keeping the minimum weight)."""
        if weight < 0:
            raise ValueError("edge weights must be non-negative")
        if u == v:
            return
        self._check(u)
        self._check(v)
        current = self._adj[u].get(v)
        if current is None or weight < current:
            self._adj[u][v] = weight
            self._adj[v][u] = weight
            self._packed = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs of node ``u``."""
        self._check(u)
        return iter(self._adj[u].items())

    def degree(self, u: int) -> int:
        self._check(u)
        return len(self._adj[u])

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self.num_edges / self.num_nodes

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected edge once as ``(u, v, weight)``."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    def _adjacency(self) -> Adjacency:
        """The packed adjacency the kernel runs on (rebuilt after a change)."""
        packed = self._packed
        if packed is None:
            packed = self._packed = tuple(tuple(nbrs.items()) for nbrs in self._adj)
        return packed

    def _check(self, u: int) -> None:
        if not (0 <= u < len(self._adj)):
            raise IndexError(f"node {u} out of range")


def _dijkstra_row(
    adj: Adjacency,
    source: int,
    targets: Optional[Iterable[int]] = None,
    cutoff: Optional[float] = None,
) -> List[float]:
    """Settled shortest-path distances from ``source``, indexed by node.

    Nodes the search did not settle read ``inf``.  With ``targets`` the
    search stops as soon as every target is settled; ``cutoff`` bounds
    the explored radius.  A settled value is the smallest left-to-right
    float sum over all paths from ``source`` (``d + w`` never rounds
    below ``d``), so it does not depend on when the search stops or
    how ties pop: a multi-target run returns exactly the values of one
    run per target.  Callers validate the node ids.
    """
    dist = [INF] * len(adj)
    # tentative distances start just above the cutoff, so the one test
    # ``nd < best[v]`` also keeps the search inside the radius.
    best = [INF if cutoff is None else math.nextafter(cutoff, INF)] * len(adj)
    best[source] = 0.0
    pending = None if targets is None else set(targets)
    heap = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if dist[u] != INF:
            continue
        dist[u] = d
        if pending is not None:
            pending.discard(u)
            if not pending:
                break
        for v, w in adj[u]:
            nd = d + w
            if nd < best[v]:
                best[v] = nd
                push(heap, (nd, v))
    return dist


def dijkstra(
    graph: Graph,
    source: int,
    target: Optional[int] = None,
    cutoff: Optional[float] = None,
) -> Dict[int, float]:
    """Single-source shortest-path distances, as ``{node: distance}``.

    With ``target`` set, the search stops as soon as the target is
    settled (returning a partial distance map that is exact for every
    settled node).  ``cutoff`` bounds the explored radius.  Unreached
    nodes are absent; out-of-range node ids raise :class:`IndexError`.
    """
    graph._check(source)
    if target is not None:
        graph._check(target)
    row = _dijkstra_row(
        graph._adjacency(), source, None if target is None else (target,), cutoff
    )
    return {u: d for u, d in enumerate(row) if d != INF}


class ShortestPathMetric:
    """Shortest-path distance between graph nodes as a metric.

    Payloads are node ids; an id outside ``0..num_nodes-1`` (negative
    ones included) raises :class:`IndexError`.  ``self(a, b)`` reads
    ``a``'s cached row, else ``b``'s, else runs a full Dijkstra from
    ``a`` and caches its row; the bounded LRU cache holds
    ``cache_sources`` rows.  The algorithms name the query object as
    the first argument — index scans, range queries and every
    distance vector (:class:`~repro.core.dominance.DistanceVectorSource`)
    — so a query set of ``m`` objects costs at most ``m`` runs while
    the cache holds ``m`` rows.  Set ``cache_sources=0`` to disable
    caching (every call runs a fresh early-terminating Dijkstra),
    which the benchmarks use to model a truly expensive metric.
    Changing the graph after first use drops the cached rows.

    Unreachable node pairs get ``disconnected_distance`` (default:
    ``inf``).

    :meth:`pairwise` is the batch hook that
    :func:`~repro.metric.base.pairwise_distances` dispatches to.
    Uncached, one multi-target run answers a whole batch.  Cached and
    reflected batches go pair by pair through :meth:`__call__`: cached
    rows already make the pairs cheap, and ``d(a, b)`` read from
    ``a``'s row and from ``b``'s row can differ in the last bits, so a
    reflected batch must name ``b`` as the source, as its loop does.

    Pickles (checkpoints store the metric) carry the graph and the
    settings only; the packed adjacency and the cached rows are derived
    and rebuilt after loading.
    """

    def __init__(
        self,
        graph: Graph,
        cache_sources: int = 64,
        disconnected_distance: float = INF,
    ) -> None:
        self.graph = graph
        self.cache_sources = cache_sources
        self.disconnected_distance = disconnected_distance
        self.name = "shortest-path"
        self._cache: "OrderedDict[int, List[float]]" = OrderedDict()
        # the packed adjacency the cached rows were computed on.
        self._adj = graph._adjacency()
        #: number of Dijkstra runs performed (cache misses).
        self.dijkstra_runs = 0

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["_adj"], state["_cache"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # also loads pickles from before the list rows: a stale
        # ``_cache`` of dict rows in ``state`` is dropped here.
        self.__dict__.update(state)
        self._cache = OrderedDict()
        self._adj = self.graph._adjacency()

    def _resync(self) -> Adjacency:
        """Adopt the graph's rebuilt adjacency after a change; the cached
        rows describe the old graph and go."""
        self._cache.clear()
        self._adj = self.graph._adjacency()
        return self._adj

    def _row(self, adj: Adjacency, source: int) -> List[float]:
        """Run a full Dijkstra from ``source`` and cache its row."""
        self.dijkstra_runs += 1
        row = _dijkstra_row(adj, source)
        self._cache[source] = row
        if len(self._cache) > self.cache_sources:
            self._cache.popitem(last=False)
        return row

    def __call__(self, a: int, b: int) -> float:
        adj = self._adj
        if adj is not self.graph._packed:
            adj = self._resync()
        n = len(adj)
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"node pair ({a}, {b}) out of range")
        if a == b:
            return 0.0
        if self.cache_sources <= 0:
            self.dijkstra_runs += 1
            d = _dijkstra_row(adj, a, (b,))[b]
        else:
            row = self._cache.get(a)
            if row is None:
                row = self._cache.get(b)
                if row is not None:
                    # symmetric: reuse the cached row of the other endpoint.
                    d = row[a]
                else:
                    d = self._row(adj, a)[b]
            else:
                self._cache.move_to_end(a)
                d = row[b]
        return d if d != INF else self.disconnected_distance

    def pairwise(
        self, a: int, candidates: Sequence[int], reflect: bool = False
    ) -> np.ndarray:
        """``[self(a, c) for c in candidates]`` (``self(c, a)`` with
        ``reflect``), bit-identical and with the same cache effects."""
        if reflect or self.cache_sources > 0 or len(candidates) == 0:
            return np.asarray(
                [self(c, a) if reflect else self(a, c) for c in candidates],
                dtype=float,
            )
        adj = self._adj
        if adj is not self.graph._packed:
            adj = self._resync()
        n = len(adj)
        if not (0 <= a < n and 0 <= min(candidates) and max(candidates) < n):
            raise IndexError(f"node {a} or a candidate out of range")
        targets = set(candidates)
        targets.discard(a)
        if not targets:
            return np.zeros(len(candidates))
        self.dijkstra_runs += 1
        row = _dijkstra_row(adj, a, targets)
        out = np.asarray([row[c] for c in candidates], dtype=float)
        if self.disconnected_distance != INF:
            out[out == INF] = self.disconnected_distance
        return out

    def clear_cache(self) -> None:
        """Drop all cached distance rows."""
        self._cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShortestPathMetric(nodes={self.graph.num_nodes}, "
            f"edges={self.graph.num_edges})"
        )
