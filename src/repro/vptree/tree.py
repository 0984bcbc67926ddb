"""A disk-page-backed vantage-point tree with incremental NN.

Construction (Yianilos): pick a vantage object, compute distances from
it to the remaining set, split at the median — inside ball / outside
ball — and recurse; small sets become leaf buckets.  Every node lives
on one simulated 4 KB page behind the engine's index LRU buffer, like
the M-tree.

Search bounds (all padded through
:func:`repro.metric.safety.safe_lower_bound`):

* inside subtree:  ``d(q, x) >= d(q, v) - mu``
* outside subtree: ``d(q, x) >= mu - d(q, v)``
* leaf entry with stored vantage distance: ``d(q, x) >=
  |d(q, v) - d(x, v)|`` (the same triangle trick as the M-tree's
  parent-distance bound — leaf entries are refined lazily, so a pull
  of few neighbors computes few distances).

The cursor yields ``(object_id, distance)`` in exact non-decreasing
order — the only contract PBA needs.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple, Union

from repro.metric.base import MetricSpace
from repro.metric.safety import safe_lower_bound
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PagedFile

#: byte estimate per leaf entry (id + vantage distance).
_ENTRY_BYTES_ESTIMATE = 24

Query = Union[int, object]


@dataclass
class _InnerNode:
    """Vantage object, median radius and the two child pages."""

    vantage_id: int
    mu: float
    inside_page_id: int
    outside_page_id: int


@dataclass
class _LeafNode:
    """Bucket of (object id, distance to the parent vantage)."""

    vantage_id: int  # -1 at the root-as-leaf (no vantage above)
    entries: List[Tuple[int, float]] = field(default_factory=list)


class VPTree:
    """Vantage-point tree over a metric space's object ids."""

    def __init__(
        self,
        space: MetricSpace,
        buffer: LRUBuffer,
        leaf_capacity: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.space = space
        self.buffer = buffer
        if leaf_capacity is None:
            leaf_capacity = buffer.manager.capacity_for(
                _ENTRY_BYTES_ESTIMATE
            )
        if leaf_capacity < 2:
            raise ValueError("leaf_capacity must be >= 2")
        self.leaf_capacity = leaf_capacity
        self.rng = rng or random.Random(0)
        self.file = PagedFile(manager=buffer.manager, name="vptree")
        self._deleted: Set[int] = set()
        self._size = 0
        self._root_id = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        space: MetricSpace,
        buffer: LRUBuffer,
        object_ids: Optional[List[int]] = None,
        **kwargs,
    ) -> "VPTree":
        tree = cls(space, buffer, **kwargs)
        ids = (
            list(object_ids)
            if object_ids is not None
            else list(space.object_ids)
        )
        tree._root_id = tree._build_node(ids, vantage_above=-1, above=None)
        tree._size = len(ids)
        return tree

    def _build_node(
        self,
        ids: List[int],
        vantage_above: int,
        above: Optional[List[float]],
    ) -> int:
        """Recursively build; returns the node's page id.

        ``above`` carries each id's distance to the parent vantage so
        leaf entries store it without recomputation.
        """
        if len(ids) <= self.leaf_capacity:
            entries = [
                (obj, above[i] if above is not None else 0.0)
                for i, obj in enumerate(ids)
            ]
            return self._new_page(_LeafNode(vantage_above, entries))
        vantage = ids[self.rng.randrange(len(ids))]
        rest = [obj for obj in ids if obj != vantage]
        distances = self.space.pairwise(vantage, rest).tolist()
        order = sorted(range(len(rest)), key=lambda i: distances[i])
        mid = len(rest) // 2
        mu = distances[order[mid]]
        inside_idx = [i for i in order if distances[i] <= mu]
        outside_idx = [i for i in order if distances[i] > mu]
        if not outside_idx:
            # all ties at mu (duplicates): fall back to a flat leaf to
            # guarantee termination.
            entries = [
                (obj, above[i] if above is not None else 0.0)
                for i, obj in enumerate(ids)
            ]
            return self._new_page(_LeafNode(vantage_above, entries))
        inside_ids = [vantage] + [rest[i] for i in inside_idx]
        inside_dists = [0.0] + [distances[i] for i in inside_idx]
        outside_ids = [rest[i] for i in outside_idx]
        outside_dists = [distances[i] for i in outside_idx]
        inside_page = self._build_node(
            inside_ids, vantage_above=vantage, above=inside_dists
        )
        outside_page = self._build_node(
            outside_ids, vantage_above=vantage, above=outside_dists
        )
        return self._new_page(
            _InnerNode(vantage, mu, inside_page, outside_page)
        )

    def _new_page(self, node) -> int:
        page = self.buffer.new_page(node)
        self.file.page_ids.add(page.page_id)
        return page.page_id

    # ------------------------------------------------------------------
    # the index contract the algorithms use
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, object_id: int) -> bool:
        return (
            0 <= object_id < len(self.space)
            and object_id not in self._deleted
        )

    def object_ids(self) -> List[int]:
        return [
            obj for obj in self.space.object_ids
            if obj not in self._deleted
        ]

    def distance(self, a: int, b: int) -> float:
        return self.space.distance(a, b)

    def query_distance(self, query: Query, object_id: int) -> float:
        if isinstance(query, int):
            return self.space.distance(query, object_id)
        return self.space.distance_to_payload(object_id, query)

    def query_distance_batch(
        self, query: Query, object_ids: List[int]
    ) -> List[float]:
        """Batched :meth:`query_distance` over many indexed objects."""
        if isinstance(query, int):
            return self.space.pairwise(query, object_ids).tolist()
        return self.space.pairwise_to_payload(query, object_ids).tolist()

    def delete(self, object_id: int) -> bool:
        """Tombstone deletion (cursors skip deleted objects)."""
        if object_id in self._deleted or not (
            0 <= object_id < len(self.space)
        ):
            return False
        self._deleted.add(object_id)
        self._size -= 1
        return True

    def incremental_cursor(
        self, query: Query, skip: Optional[Set[int]] = None
    ) -> "VPTreeCursor":
        """The incremental-NN contract PBA requires."""
        return VPTreeCursor(self, query, skip=skip)

    def range_query(
        self, query: Query, radius: float
    ) -> List[Tuple[int, float]]:
        """All objects within ``radius``, sorted by (distance, id).

        Pulls the incremental cursor while it stays within the radius —
        valid because the cursor yields in exact non-decreasing order.
        """
        results: List[Tuple[int, float]] = []
        for object_id, d in self.incremental_cursor(query):
            if d > radius:
                break
            results.append((object_id, d))
        results.sort(key=lambda pair: (pair[1], pair[0]))
        return results

    def knn(self, query: Query, k: int) -> List[Tuple[int, float]]:
        """The ``k`` nearest objects, via the incremental cursor."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return list(
            itertools.islice(self.incremental_cursor(query), k)
        )

    def query_filter(self, query: Query) -> None:
        """No extra pruning bounds beyond the vantage-point ones."""
        return None

    def skyline_filter(self, query_ids, vectors) -> None:
        """No coordinate-wise bounds; the VP-tree has no skyline path."""
        return None

    @property
    def num_pages(self) -> int:
        return len(self.file)


_KIND_OBJECT = 0
_KIND_OBJECT_APPROX = 1
_KIND_NODE = 2


class VPTreeCursor:
    """Best-first incremental NN over a :class:`VPTree`."""

    def __init__(
        self,
        tree: VPTree,
        query: Query,
        skip: Optional[Set[int]] = None,
    ) -> None:
        self.tree = tree
        self.query = query
        self.skip = skip if skip is not None else set()
        self._counter = itertools.count()
        self._heap: List[tuple] = []
        if tree._root_id >= 0:
            self._push(0.0, _KIND_NODE, (tree._root_id,))

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return self

    def __next__(self) -> Tuple[int, float]:
        tree = self.tree
        while self._heap:
            key, kind, _tie, data = heapq.heappop(self._heap)
            if kind == _KIND_OBJECT:
                object_id, distance = data
                if object_id in self.skip or object_id in tree._deleted:
                    continue
                return object_id, distance
            if kind == _KIND_OBJECT_APPROX:
                (object_id,) = data
                if object_id in self.skip or object_id in tree._deleted:
                    continue
                d = tree.query_distance(self.query, object_id)
                self._push(d, _KIND_OBJECT, (object_id, d))
                continue
            (page_id,) = data
            self._expand(page_id)
        raise StopIteration

    def _push(self, key: float, kind: int, data: tuple) -> None:
        heapq.heappush(
            self._heap, (key, kind, next(self._counter), data)
        )

    def _expand(self, page_id: int) -> None:
        node = self.tree.buffer.get(page_id).payload
        if isinstance(node, _LeafNode):
            if node.vantage_id >= 0:
                d_vantage = self.tree.query_distance(
                    self.query, node.vantage_id
                )
                for object_id, dist_to_vantage in node.entries:
                    lower = safe_lower_bound(
                        abs(d_vantage - dist_to_vantage)
                    )
                    self._push(
                        lower, _KIND_OBJECT_APPROX, (object_id,)
                    )
            else:
                for object_id, _dv in node.entries:
                    d = self.tree.query_distance(self.query, object_id)
                    self._push(d, _KIND_OBJECT, (object_id, d))
            return
        d = self.tree.query_distance(self.query, node.vantage_id)
        inside_bound = safe_lower_bound(d - node.mu)
        outside_bound = safe_lower_bound(node.mu - d)
        self._push(inside_bound, _KIND_NODE, (node.inside_page_id,))
        self._push(outside_bound, _KIND_NODE, (node.outside_page_id,))
