"""M-tree query operations: range, k-NN and incremental NN.

All three queries exploit the two M-tree bounds:

* **covering-radius bound** — for a routing entry with router ``r`` and
  radius ``rad``, every object in the subtree is at distance at least
  ``max(0, d(q, r) - rad)`` from the query;
* **parent-distance bound** — for an entry with stored parent distance
  ``d(e, par)``, the triangle inequality gives ``d(q, e) >=
  |d(q, par) - d(e, par)|`` *without computing* ``d(q, e)``.

The incremental cursor is the Hjaltason–Samet best-first algorithm on a
priority queue whose items carry either exact or lower-bounded keys;
approximate items are refined (their true distance computed) only when
they reach the queue head.  This lazy refinement is what PBA's
round-robin retrieval rides on, and it is the main lever behind the
distance-computation counts in the paper's Figures 7-8.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Set, Tuple

from repro.metric.safety import safe_lower_bound
from repro.mtree.node import MTreeNode, RoutingEntry
from repro.mtree.tree import MTree, Query
from repro.obs import trace

# heap item kinds, also used as coarse tie-breakers: exact objects
# first so equal-key approximations are refined after exact items of
# the same distance have been yielded.
_KIND_OBJECT = 0
_KIND_OBJECT_APPROX = 1
_KIND_NODE = 2
_KIND_NODE_APPROX = 3


class IncrementalNNCursor:
    """Best-first incremental nearest-neighbor cursor.

    Yields ``(object_id, distance)`` pairs in non-decreasing distance
    order; pull as many as needed.  ``skip`` is an optional set of
    object ids to silently drop (used by PBA's discard heuristics to
    ignore pruned objects without restarting the stream).

    The cursor is also a plain iterator::

        cursor = IncrementalNNCursor(tree, q)
        first, d1 = next(cursor)
    """

    def __init__(
        self,
        tree: MTree,
        query: Query,
        skip: Optional[Set[int]] = None,
    ) -> None:
        self.tree = tree
        self.query = query
        self.skip = skip if skip is not None else set()
        #: rank of the last yielded object (1-based), counting skips.
        self.yielded = 0
        self._counter = itertools.count()
        self._heap: List[Tuple[float, int, int, tuple]] = []
        # resolved once per cursor; every explain hook below is guarded
        # with ``is not None`` so the unexplained path stays free.
        self._explain = trace.explaining()
        # backend pruning hook: None for the plain M-tree (keeping the
        # exact pre-protocol code path); the PM-tree returns its
        # hyper-ring filter, whose bounds tighten heap keys below.
        self._filter = tree.query_filter(query)
        # the root has no router: key 0 forces immediate expansion.
        self._heap.append(
            (0.0, _KIND_NODE, next(self._counter), (tree.root_page_id, None, 0))
        )

    # ------------------------------------------------------------------
    # iterator protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return self

    def __next__(self) -> Tuple[int, float]:
        tree = self.tree
        heap = self._heap
        counter = self._counter
        push, pop = heapq.heappush, heapq.heappop
        skip = self.skip
        while heap:
            key, kind, _tie, data = pop(heap)
            if kind == _KIND_OBJECT:
                object_id, distance = data
                if object_id in skip:
                    continue
                self.yielded += 1
                return object_id, distance
            if kind == _KIND_OBJECT_APPROX:
                object_id, level = data
                if object_id in skip:
                    continue
                distance = tree.query_distance(self.query, object_id)
                if self._explain is not None:
                    self._explain.refinement(level)
                push(heap, (distance, _KIND_OBJECT, next(counter),
                            (object_id, distance)))
                continue
            if kind == _KIND_NODE_APPROX:
                page_id, router_id, covering_radius, level = data
                d = tree.query_distance(self.query, router_id)
                if self._explain is not None:
                    self._explain.refinement(level)
                node_key = safe_lower_bound(d - covering_radius)
                flt = self._filter
                if flt is not None:
                    ring = flt.node_bound(page_id)
                    if ring > node_key:
                        node_key = ring
                        if self._explain is not None:
                            self._explain.hyper_ring_prune(
                                "incremental_nn", level
                            )
                push(heap, (node_key, _KIND_NODE, next(counter),
                            (page_id, d, level)))
                continue
            # _KIND_NODE: expand the node.
            page_id, d_router, level = data
            self._expand(page_id, d_router, level)
        raise StopIteration

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _expand(
        self, page_id: int, d_router: Optional[float], level: int
    ) -> None:
        ex = self._explain
        if ex is not None:
            node: MTreeNode = ex.get_page(
                self.tree.buffer, page_id, level
            ).payload
        else:
            node = self.tree.buffer.get(page_id).payload
        heap = self._heap
        counter = self._counter
        push = heapq.heappush
        if d_router is None:
            # root entries: no parent bound available; every distance
            # is needed, so compute the node as one batch (same pairs,
            # same order, bit-identical distances and counts).
            if not node.entries:
                if ex is not None:
                    ex.node_visit("incremental_nn", level)
                return
            distances = self.tree.query_distance_batch(
                self.query, [entry.object_id for entry in node.entries]
            )
            for entry, d in zip(node.entries, distances):
                if isinstance(entry, RoutingEntry):
                    push(heap, (
                        safe_lower_bound(d - entry.covering_radius),
                        _KIND_NODE,
                        next(counter),
                        (entry.child_page_id, d, level + 1),
                    ))
                else:
                    push(heap, (d, _KIND_OBJECT, next(counter),
                                (entry.object_id, d)))
            if ex is not None:
                ex.node_visit(
                    "incremental_nn",
                    level,
                    entries=len(node.entries),
                    batches=1,
                    batched_distances=len(node.entries),
                )
            return
        flt = self._filter
        skip = self.skip
        ring_tightened = 0
        for entry in node.entries:
            lower = safe_lower_bound(abs(d_router - entry.parent_distance))
            if isinstance(entry, RoutingEntry):
                key = safe_lower_bound(lower - entry.covering_radius)
                if flt is not None:
                    ring = flt.node_bound(entry.child_page_id)
                    if ring > key:
                        key = ring
                        ring_tightened += 1
                push(heap, (
                    key,
                    _KIND_NODE_APPROX,
                    next(counter),
                    (entry.child_page_id, entry.object_id,
                     entry.covering_radius, level + 1),
                ))
            else:
                if entry.object_id in skip:
                    continue
                key = lower
                if flt is not None:
                    ring = flt.object_bound(entry.object_id)
                    if ring > key:
                        key = ring
                        ring_tightened += 1
                push(heap, (key, _KIND_OBJECT_APPROX, next(counter),
                            (entry.object_id, level)))
        if ex is not None:
            deferred = sum(
                1
                for entry in node.entries
                if isinstance(entry, RoutingEntry)
                or entry.object_id not in self.skip
            )
            ex.node_visit(
                "incremental_nn",
                level,
                entries=len(node.entries),
                hyper_ring_prunes=ring_tightened,
                deferred_refinements=deferred,
            )


def range_query(
    tree: MTree, query: Query, radius: float
) -> List[Tuple[int, float]]:
    """All objects within ``radius`` of the query, sorted by distance.

    Depth-first traversal with both M-tree bounds; inclusive on the
    boundary (``d <= radius``), matching the paper's use of range
    queries with radii taken from exact object distances (ABA line 5).
    """
    results: List[Tuple[int, float]] = []
    ex = trace.explaining()
    # backend pruning hook (None for the plain M-tree — exact
    # pre-protocol behavior; the PM-tree's hyper-ring bounds prune
    # entries here without any distance computation).
    flt = tree.query_filter(query)
    # stack of (page_id, d(query, router) or None for the root, level).
    stack: List[Tuple[int, Optional[float], int]] = [
        (tree.root_page_id, None, 0)
    ]
    while stack:
        page_id, d_router, level = stack.pop()
        if ex is not None:
            node: MTreeNode = ex.get_page(
                tree.buffer, page_id, level
            ).payload
        else:
            node = tree.buffer.get(page_id).payload
        # prune first on the stored parent distances (no distance
        # computations), then evaluate the survivors as one batch.
        # Same pruning decisions, same entry order, same page-access
        # order — only the survivor distances move into one kernel call.
        survivors: List = []
        ring_prunes = 0
        for entry in node.entries:
            if d_router is not None:
                lower = safe_lower_bound(
                    abs(d_router - entry.parent_distance)
                )
                slack = (
                    entry.covering_radius
                    if isinstance(entry, RoutingEntry)
                    else 0.0
                )
                if safe_lower_bound(lower - slack) > radius:
                    continue  # pruned without a distance computation
            if flt is not None:
                ring = (
                    flt.node_bound(entry.child_page_id)
                    if isinstance(entry, RoutingEntry)
                    else flt.object_bound(entry.object_id)
                )
                if ring > radius:
                    ring_prunes += 1
                    continue  # also free of distance computations
            survivors.append(entry)
        if ex is not None:
            parent_prunes = covering_prunes = 0
            if d_router is not None:
                for entry in node.entries:
                    lower = safe_lower_bound(
                        abs(d_router - entry.parent_distance)
                    )
                    if isinstance(entry, RoutingEntry):
                        if (
                            safe_lower_bound(
                                lower - entry.covering_radius
                            )
                            > radius
                        ):
                            covering_prunes += 1
                    elif lower > radius:
                        parent_prunes += 1
            ex.node_visit(
                "range_query",
                level,
                entries=len(node.entries),
                parent_distance_prunes=parent_prunes,
                covering_radius_prunes=covering_prunes,
                hyper_ring_prunes=ring_prunes,
                batches=1 if survivors else 0,
                batched_distances=len(survivors),
            )
        if not survivors:
            continue
        distances = tree.query_distance_batch(
            query, [entry.object_id for entry in survivors]
        )
        for entry, d in zip(survivors, distances):
            if isinstance(entry, RoutingEntry):
                if d - entry.covering_radius <= radius:
                    stack.append((entry.child_page_id, d, level + 1))
            elif d <= radius:
                results.append((entry.object_id, d))
    results.sort(key=lambda pair: (pair[1], pair[0]))
    return results


def knn_query(
    tree: MTree, query: Query, k: int
) -> List[Tuple[int, float]]:
    """The ``k`` nearest objects, via the incremental cursor."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cursor = IncrementalNNCursor(tree, query)
    return list(itertools.islice(cursor, k))


def nearest_neighbor(tree: MTree, query: Query) -> Tuple[int, float]:
    """The single nearest object (``NN(q, 1)`` in the paper)."""
    result = knn_query(tree, query, 1)
    if not result:
        raise ValueError("empty tree has no nearest neighbor")
    return result[0]
