"""The M-tree proper: construction, insertion, deletion.

The tree indexes the integer object ids of a
:class:`~repro.metric.base.MetricSpace`; every node lives on one
simulated disk page accessed through an LRU buffer, and every distance
evaluation goes through the space's (counting) metric.  Insertion
follows Ciaccia et al.: descend along the subtree needing the least
covering-radius enlargement, split overflowing nodes with a promotion
policy from :mod:`repro.mtree.split`.

Deletion — needed because the paper's SBA and ABA remove each reported
object from ``D`` before the next round — removes the leaf entry in
place without rebalancing.  Covering radii are left untouched, which
keeps them conservative upper bounds, so all query pruning remains
correct (they merely become slightly less tight).  An object-id → leaf
page directory (the moral equivalent of a DBMS record-id map) makes the
deletion O(1) page lookups instead of a distance-burning search.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.metric.base import MetricSpace
from repro.mtree.node import LeafEntry, MTreeNode, RoutingEntry
from repro.mtree.split import promote_and_partition
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PagedFile

#: byte estimate for one node entry (object key + distances + child
#: pointer), used to derive node capacity from the 4 KB page size.
_ENTRY_BYTES_ESTIMATE = 96

#: a query is either a data-object id or a free-standing payload.
Query = Union[int, object]


class MTree:
    """An M-tree over a metric space, backed by simulated disk pages.

    Parameters
    ----------
    space:
        The metric space whose object ids are indexed.
    buffer:
        LRU buffer through which all node pages are accessed.
    node_capacity:
        Maximum entries per node; defaults to the page-size-implied
        fan-out.
    split_policy:
        One of ``"random"``, ``"sampling"`` (default), ``"mmrad"``.
    rng:
        Randomness source for the split policies.
    """

    def __init__(
        self,
        space: MetricSpace,
        buffer: LRUBuffer,
        node_capacity: Optional[int] = None,
        split_policy: str = "sampling",
        rng: Optional[random.Random] = None,
    ) -> None:
        self.space = space
        self.buffer = buffer
        if node_capacity is None:
            node_capacity = buffer.manager.capacity_for(_ENTRY_BYTES_ESTIMATE)
        if node_capacity < 4:
            raise ValueError("node_capacity must be >= 4")
        self.node_capacity = node_capacity
        self.split_policy = split_policy
        self.rng = rng or random.Random(0)
        self.file = PagedFile(manager=buffer.manager, name="mtree")
        self._root_id = self._new_node_page(MTreeNode(is_leaf=True))
        self._size = 0
        self._height = 1
        #: object id -> leaf page id directory (maintained on
        #: insert/split/delete).
        self._leaf_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._leaf_of

    @property
    def height(self) -> int:
        return self._height

    @property
    def root_page_id(self) -> int:
        return self._root_id

    @property
    def num_pages(self) -> int:
        return len(self.file)

    def object_ids(self) -> Iterable[int]:
        """Ids currently indexed (insertion-independent order)."""
        return self._leaf_of.keys()

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def distance(self, a: int, b: int) -> float:
        """Metric distance between two indexed object ids."""
        return self.space.distance(a, b)

    def query_distance(self, query: Query, object_id: int) -> float:
        """Distance from a query (id or payload) to an indexed object."""
        if isinstance(query, int):
            return self.space.distance(query, object_id)
        return self.space.distance_to_payload(object_id, query)

    def query_distance_batch(
        self, query: Query, object_ids: List[int]
    ) -> List[float]:
        """Batched :meth:`query_distance` over many indexed objects.

        One metric-kernel call for the whole batch; distances (and
        metric counts) are bit-identical to a per-id loop, preserving
        the same argument order per pair.
        """
        if isinstance(query, int):
            return self.space.pairwise(query, object_ids).tolist()
        return self.space.pairwise_to_payload(query, object_ids).tolist()

    def incremental_cursor(self, query: Query, skip=None):
        """Incremental-NN cursor — the index contract PBA requires.

        (Implemented in :mod:`repro.mtree.queries`; method defined here
        so any index exposing ``incremental_cursor`` is interchangeable
        for the pruning-based algorithms, per the paper's "orthogonal
        to the indexing scheme" claim.)
        """
        from repro.mtree.queries import IncrementalNNCursor

        return IncrementalNNCursor(self, query, skip=skip)

    def range_query(self, query: Query, radius: float):
        """All objects within ``radius``, sorted by distance
        (:class:`repro.index.IndexBackend` contract)."""
        from repro.mtree.queries import range_query

        return range_query(self, query, radius)

    def knn(self, query: Query, k: int):
        """The ``k`` nearest objects
        (:class:`repro.index.IndexBackend` contract)."""
        from repro.mtree.queries import knn_query

        return knn_query(self, query, k)

    # ------------------------------------------------------------------
    # backend pruning hooks (repro.index.IndexBackend)
    # ------------------------------------------------------------------
    def query_filter(self, query: Query):
        """Extra per-entry lower bounds for one scalar query.

        The plain M-tree has nothing beyond its covering-radius and
        parent-distance bounds, so it returns ``None`` — which keeps
        the shared traversals on the exact pre-protocol code path
        (bit-identical counters, pinned by the benchmark gate).  The
        PM-tree overrides this with its hyper-ring filter.
        """
        return None

    def skyline_filter(self, query_ids, vectors):
        """Coordinate-wise bounds for the skyline traversal.

        ``None`` for the plain M-tree (see :meth:`query_filter`);
        overridden by the PM-tree.
        """
        return None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        space: MetricSpace,
        buffer: LRUBuffer,
        object_ids: Optional[Iterable[int]] = None,
        **kwargs,
    ) -> "MTree":
        """Build a tree by inserting the given ids (default: all)."""
        tree = cls(space, buffer, **kwargs)
        ids = list(object_ids) if object_ids is not None else list(
            space.object_ids
        )
        for object_id in ids:
            tree.insert(object_id)
        return tree

    @classmethod
    def restore(
        cls,
        space: MetricSpace,
        buffer: LRUBuffer,
        *,
        node_capacity: int,
        split_policy: str,
        rng: random.Random,
        root_id: int,
        size: int,
        height: int,
        page_ids: set,
    ) -> "MTree":
        """Re-adopt node pages already present in the buffer's manager.

        The recovery path (:mod:`repro.recovery`): the page manager has
        been restored from a checkpoint + WAL replay, so no node is
        rebuilt and no distance is computed — only the in-memory meta
        (root/size/height, the object→leaf directory) is reattached.
        """
        tree = cls.__new__(cls)
        tree.space = space
        tree.buffer = buffer
        tree.node_capacity = node_capacity
        tree.split_policy = split_policy
        tree.rng = rng
        tree.file = PagedFile(
            manager=buffer.manager, name="mtree", page_ids=set(page_ids)
        )
        tree._root_id = root_id
        tree._size = size
        tree._height = height
        tree._leaf_of = {}
        tree._rebuild_directory()
        return tree

    def _rebuild_directory(self) -> None:
        """Re-derive the object-id → leaf-page directory from the pages.

        Reads bypass the buffer (``manager.peek``) so recovery charges
        no page faults to the paper's counters.
        """
        self._leaf_of.clear()
        manager = self.buffer.manager
        stack = [self._root_id]
        while stack:
            page_id = stack.pop()
            node: MTreeNode = manager.peek(page_id).payload
            if node.is_leaf:
                for entry in node.entries:
                    self._leaf_of[entry.object_id] = page_id
            else:
                stack.extend(
                    entry.child_page_id for entry in node.entries
                )

    def insert(self, object_id: int) -> None:
        """Insert one object id."""
        if object_id in self._leaf_of:
            raise ValueError(f"object {object_id} already indexed")
        split = self._insert_into(self._root_id, object_id, parent_id=None)
        if split is not None:
            self._grow_root(split)
        self._size += 1

    def delete(self, object_id: int) -> bool:
        """Remove an object (leaf-entry removal, no rebalancing)."""
        leaf_page_id = self._leaf_of.pop(object_id, None)
        if leaf_page_id is None:
            return False
        page = self.buffer.get(leaf_page_id)
        node: MTreeNode = page.payload
        removed = node.remove_entry(object_id)
        assert removed, "leaf directory out of sync"
        self.buffer.put(page)
        self._size -= 1
        return True

    # ------------------------------------------------------------------
    # insert internals
    # ------------------------------------------------------------------
    def _new_node_page(self, node: MTreeNode) -> int:
        page = self.buffer.new_page(node)
        self.file.page_ids.add(page.page_id)
        return page.page_id

    def _insert_into(
        self,
        node_page_id: int,
        object_id: int,
        parent_id: Optional[int],
    ) -> Optional[Tuple[RoutingEntry, RoutingEntry]]:
        """Insert under a node; on split, return the two replacement
        routing entries (with parent distances not yet set)."""
        page = self.buffer.get(node_page_id)
        node: MTreeNode = page.payload

        if node.is_leaf:
            parent_distance = (
                self.distance(object_id, parent_id)
                if parent_id is not None
                else 0.0
            )
            node.entries.append(LeafEntry(object_id, parent_distance))
            self._leaf_of[object_id] = node_page_id
            if len(node.entries) <= self.node_capacity:
                self.buffer.put(page)
                return None
            return self._split(page, parent_id)

        # choose the subtree: prefer no radius enlargement, then the
        # closest routing object; otherwise least enlargement.
        best_entry: Optional[RoutingEntry] = None
        best_key: Tuple[int, float] = (2, float("inf"))
        best_distance = 0.0
        # every routing entry needs its distance anyway (no pruning in
        # the descent heuristic), so evaluate the node as one batch.
        distances = self.space.pairwise(
            object_id, [entry.object_id for entry in node.entries]
        ).tolist()
        for entry, d in zip(node.entries, distances):
            if d <= entry.covering_radius:
                key = (0, d)
            else:
                key = (1, d - entry.covering_radius)
            if key < best_key:
                best_key = key
                best_entry = entry
                best_distance = d
        assert best_entry is not None, "internal node with no entries"
        if best_distance > best_entry.covering_radius:
            best_entry.covering_radius = best_distance
            self.buffer.put(page)

        split = self._insert_into(
            best_entry.child_page_id, object_id, best_entry.object_id
        )
        if split is None:
            return None
        first, second = split
        page = self.buffer.get(node_page_id)
        node = page.payload
        # replace the routing entry for the split child with the two
        # promoted entries.  Removal must be by identity: distinct
        # routing entries may legitimately share the same routing
        # object id (an object can be promoted for several subtrees).
        for index, entry in enumerate(node.entries):
            if entry is best_entry:
                del node.entries[index]
                break
        else:  # pragma: no cover - structural invariant
            raise AssertionError("split child's routing entry vanished")
        for new_entry in (first, second):
            new_entry.parent_distance = (
                self.distance(new_entry.object_id, parent_id)
                if parent_id is not None
                else 0.0
            )
            node.entries.append(new_entry)
        if len(node.entries) <= self.node_capacity:
            self.buffer.put(page)
            return None
        return self._split(page, parent_id)

    def _split(
        self, page, parent_id: Optional[int]
    ) -> Tuple[RoutingEntry, RoutingEntry]:
        """Split an overflowing node; returns two promoted routing
        entries (parent distances left to the caller)."""
        node: MTreeNode = page.payload
        result = promote_and_partition(
            node.entries,
            self._distances_to,
            policy=self.split_policy,
            rng=self.rng,
        )
        sibling = MTreeNode(
            is_leaf=node.is_leaf,
            entries=result.second_entries,
            parent_object_id=result.promoted_second,
        )
        node.entries = result.first_entries
        node.parent_object_id = result.promoted_first
        self._refresh_parent_distances(node, result.promoted_first)
        self._refresh_parent_distances(sibling, result.promoted_second)
        sibling_page_id = self._new_node_page(sibling)
        if node.is_leaf:
            for entry in sibling.entries:
                self._leaf_of[entry.object_id] = sibling_page_id
            for entry in node.entries:
                self._leaf_of[entry.object_id] = page.page_id
        self.buffer.put(page)
        first = RoutingEntry(
            object_id=result.promoted_first,
            parent_distance=0.0,
            covering_radius=result.first_radius,
            child_page_id=page.page_id,
        )
        second = RoutingEntry(
            object_id=result.promoted_second,
            parent_distance=0.0,
            covering_radius=result.second_radius,
            child_page_id=sibling_page_id,
        )
        return first, second

    def _distances_to(self, object_id: int, ids: List[int]) -> List[float]:
        """``[self.distance(i, object_id) for i in ids]`` as one batch."""
        return self.space.pairwise_reflected(object_id, ids).tolist()

    def _refresh_parent_distances(
        self, node: MTreeNode, parent_object_id: int
    ) -> None:
        """Recompute entry parent distances after re-parenting."""
        if not node.entries:
            return
        # one batch for the whole node; reflected so each pair keeps
        # the legacy entry-first argument order.
        distances = self._distances_to(
            parent_object_id, [entry.object_id for entry in node.entries]
        )
        for entry, d in zip(node.entries, distances):
            entry.parent_distance = d

    def _grow_root(
        self, split: Tuple[RoutingEntry, RoutingEntry]
    ) -> None:
        first, second = split
        new_root = MTreeNode(is_leaf=False, entries=[first, second])
        self._root_id = self._new_node_page(new_root)
        self._height += 1

    # ------------------------------------------------------------------
    # validation (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural and metric invariants of the whole tree."""
        seen: List[int] = []
        self._check_node(self._root_id, None, depth=1)
        for object_id, leaf_page_id in self._leaf_of.items():
            node: MTreeNode = self.buffer.get(leaf_page_id).payload
            assert node.is_leaf, "directory points at internal node"
            assert node.find_entry(object_id) is not None, (
                f"directory stale for object {object_id}"
            )
            seen.append(object_id)
        assert len(seen) == self._size

    def _check_node(
        self, page_id: int, parent_id: Optional[int], depth: int
    ) -> int:
        node: MTreeNode = self.buffer.get(page_id).payload
        assert len(node.entries) <= self.node_capacity, "overflowing node"
        if node.is_leaf:
            assert depth == self._height, "leaves at unequal depths"
            for entry in node.entries:
                if parent_id is not None:
                    actual = self.distance(entry.object_id, parent_id)
                    assert abs(actual - entry.parent_distance) < 1e-9, (
                        "stale leaf parent distance"
                    )
            return len(node.entries)
        total = 0
        for entry in node.entries:
            if parent_id is not None:
                actual = self.distance(entry.object_id, parent_id)
                assert abs(actual - entry.parent_distance) < 1e-9, (
                    "stale routing parent distance"
                )
            self._check_covering(entry)
            total += self._check_node(
                entry.child_page_id, entry.object_id, depth + 1
            )
        return total

    def _check_covering(self, entry: RoutingEntry) -> None:
        """Covering radius must bound every object in the subtree."""
        stack = [entry.child_page_id]
        while stack:
            node: MTreeNode = self.buffer.get(stack.pop()).payload
            for child in node.entries:
                if node.is_leaf:
                    d = self.distance(child.object_id, entry.object_id)
                    assert d <= entry.covering_radius + 1e-9, (
                        f"object {child.object_id} outside covering radius "
                        f"of router {entry.object_id}"
                    )
                else:
                    stack.append(child.child_page_id)
