"""A disk-page-backed B+-tree.

Classic textbook B+-tree: internal nodes route by separator keys,
leaves hold ``(key, value)`` pairs and are chained for range scans.
Every node occupies one simulated disk page and all node accesses go
through an :class:`~repro.storage.buffer.LRUBuffer`, so reads and
writes are charged to the paper's I/O cost model.

The tree is used as the backing structure of the paper's
``AuxB+``-tree (see :mod:`repro.core.aux_index`), which stores small
fixed-size counter records keyed by object id; the default ``order`` is
therefore derived from the 4 KB page size and a conservative per-entry
estimate.

Deletion is implemented with lazy underflow handling (no rebalancing or
merging): entries are removed in place, empty nodes are collapsed only
at the root.  This keeps every search invariant intact — separator keys
remain valid upper/lower bounds — while matching how the paper's
temporary index is actually used (bulk inserts, counter updates, a drop
at query end).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PagedFile

#: Conservative byte estimate of one leaf entry (id + counter record
#: pointer) used to derive the default fan-out from the page size.
_ENTRY_BYTES_ESTIMATE = 64


@dataclass
class _Node:
    """One B+-tree node (the payload of one disk page)."""

    is_leaf: bool
    keys: List[int] = field(default_factory=list)
    #: children page ids (internal) — len(keys) + 1 entries.
    children: List[int] = field(default_factory=list)
    #: values aligned with keys (leaf only).
    values: List[Any] = field(default_factory=list)
    #: next-leaf page id (leaf only), -1 when last.
    next_leaf: int = -1


class BPlusTree:
    """B+-tree keyed by integers, backed by simulated disk pages.

    Parameters
    ----------
    buffer:
        LRU buffer through which all node pages are accessed.
    order:
        Maximum number of keys per node; defaults to the fan-out implied
        by the buffer's page size.
    name:
        Label for the tree's page file.
    """

    def __init__(
        self,
        buffer: LRUBuffer,
        order: Optional[int] = None,
        name: str = "bplustree",
    ) -> None:
        self.buffer = buffer
        if order is None:
            order = buffer.manager.capacity_for(_ENTRY_BYTES_ESTIMATE)
        if order < 3:
            raise ValueError("order must be >= 3")
        self.order = order
        self.name = name
        self.file = PagedFile(manager=buffer.manager, name=name)
        root = _Node(is_leaf=True)
        self._root_id = self._new_node_page(root)
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels, leaves included."""
        return self._height

    @property
    def num_pages(self) -> int:
        """Number of disk pages occupied by the tree."""
        return len(self.file)

    def get(self, key: int, default: Any = None) -> Any:
        """Return the value stored under ``key`` (or ``default``)."""
        node: _Node = self._leaf_page(key).payload
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return default

    def __contains__(self, key: int) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def insert(self, key: int, value: Any) -> None:
        """Insert ``key`` or overwrite its value if present."""
        self.upsert(key, lambda _old: value)

    def upsert(self, key: int, fn: Callable[[Any], Any]) -> Any:
        """Store ``fn(old)`` under ``key`` in one root-to-leaf descent.

        ``fn`` receives the present value, or None when ``key`` is
        absent, and returns the value to store (it may mutate and
        return ``old``); the stored value is returned.  The descent
        charges one logical read per level and the leaf one logical
        write.  A split adds a new page per split node, a re-read and a
        write of each parent that takes a separator, and a new page for
        a new root.
        """
        buffer = self.buffer
        path: List[int] = []
        page = buffer.get(self._root_id)
        node: _Node = page.payload
        while not node.is_leaf:
            path.append(page.page_id)
            page = buffer.get(node.children[bisect.bisect_right(node.keys, key)])
            node = page.payload
        keys = node.keys
        idx = bisect.bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            value = node.values[idx] = fn(node.values[idx])
            buffer.put(page)
            return value
        value = fn(None)
        keys.insert(idx, key)
        node.values.insert(idx, value)
        self._size += 1
        if len(keys) <= self.order:
            buffer.put(page)
            return value
        sep_key, right_id = self._split_leaf(page)
        while path:
            # re-fetch: the split below may have evicted the parent.
            page = buffer.get(path.pop())
            node = page.payload
            idx = bisect.bisect_right(node.keys, sep_key)
            node.keys.insert(idx, sep_key)
            node.children.insert(idx + 1, right_id)
            if len(node.keys) <= self.order:
                buffer.put(page)
                return value
            sep_key, right_id = self._split_internal(page)
        new_root = _Node(
            is_leaf=False,
            keys=[sep_key],
            children=[self._root_id, right_id],
        )
        self._root_id = self._new_node_page(new_root)
        self._height += 1
        return value

    def update_many(
        self, keys: Sequence[int], apply: Callable[[int, Any], None]
    ) -> None:
        """Mutate the values of many present keys in one leaf sweep.

        ``keys`` must be ascending and all present; ``apply(key, value)``
        mutates each value in place, in key order.  The sweep descends
        once to the first key's leaf, then walks the ``next_leaf``
        chain up to the last key's leaf: one logical read per node on
        the descent, one per further leaf walked (leaves emptied by
        lazy deletes included) and one logical write per leaf holding a
        key — where a per-key :meth:`get` + :meth:`update` would descend
        twice per key.  A missing key raises :class:`KeyError`.
        """
        if not keys:
            return
        page = self._leaf_page(keys[0])
        i, total = 0, len(keys)
        while True:
            node: _Node = page.payload
            node_keys = node.keys
            start = i
            j = 0
            while i < total and node_keys and keys[i] <= node_keys[-1]:
                key = keys[i]
                j = bisect.bisect_left(node_keys, key, j)
                if node_keys[j] != key:
                    raise KeyError(key)
                apply(key, node.values[j])
                i += 1
            if i > start:
                self.buffer.put(page)
            if i == total:
                return
            if node.next_leaf == -1:
                raise KeyError(keys[i])
            page = self.buffer.get(node.next_leaf)

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns True if it was present."""
        page = self._leaf_page(key)
        node: _Node = page.payload
        idx = bisect.bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return False
        node.keys.pop(idx)
        node.values.pop(idx)
        self.buffer.put(page)
        self._size -= 1
        return True

    def leaves(
        self, low: Optional[int] = None
    ) -> Iterator[Tuple[List[int], List[Any]]]:
        """Yield each leaf's ``(keys, values)`` lists in key order,
        from the leaf holding ``low`` (default: the leftmost).

        The walk descends once, then charges one logical read per
        further leaf on the chain.
        """
        page = self._leftmost_leaf() if low is None else self._leaf_page(low)
        while True:
            node: _Node = page.payload
            yield node.keys, node.values
            if node.next_leaf == -1:
                return
            page = self.buffer.get(node.next_leaf)

    def items(
        self,
        low: Optional[int] = None,
        high: Optional[int] = None,
    ) -> Iterator[Tuple[int, Any]]:
        """Iterate ``(key, value)`` in key order over ``[low, high]``.

        The scan walks the chained leaves (:meth:`leaves`), charging one
        logical read per leaf page — the access pattern the paper relies
        on for the ``AuxB+``-tree's "sorted accesses".
        """
        for keys, values in self.leaves(low):
            start = 0 if low is None else bisect.bisect_left(keys, low)
            for i in range(start, len(keys)):
                key = keys[i]
                if high is not None and key > high:
                    return
                yield key, values[i]

    def keys(self) -> Iterator[int]:
        """Iterate all keys in order."""
        for key, _value in self.items():
            yield key

    def drop(self) -> None:
        """Free every page (the per-query teardown of the AuxB+-tree)."""
        for page_id in tuple(self.file.page_ids):
            self.buffer.invalidate(page_id)
        self.file.drop()
        self._size = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_node_page(self, node: _Node) -> int:
        page = self.buffer.new_page(node)
        self.file.page_ids.add(page.page_id)
        return page.page_id

    def _leaf_page(self, key: int):
        """The page of the leaf that holds (or would hold) ``key``."""
        page = self.buffer.get(self._root_id)
        while not page.payload.is_leaf:
            node: _Node = page.payload
            idx = bisect.bisect_right(node.keys, key)
            page = self.buffer.get(node.children[idx])
        return page

    def _leftmost_leaf(self):
        """The page of the first leaf in key order."""
        page = self.buffer.get(self._root_id)
        while not page.payload.is_leaf:
            page = self.buffer.get(page.payload.children[0])
        return page

    def _split_leaf(self, page) -> Tuple[int, int]:
        node: _Node = page.payload
        mid = len(node.keys) // 2
        right = _Node(
            is_leaf=True,
            keys=node.keys[mid:],
            values=node.values[mid:],
            next_leaf=node.next_leaf,
        )
        right_id = self._new_node_page(right)
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.next_leaf = right_id
        self.buffer.put(page)
        return right.keys[0], right_id

    def _split_internal(self, page) -> Tuple[int, int]:
        node: _Node = page.payload
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Node(
            is_leaf=False,
            keys=node.keys[mid + 1:],
            children=node.children[mid + 1:],
        )
        right_id = self._new_node_page(right)
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self.buffer.put(page)
        return sep_key, right_id

    # ------------------------------------------------------------------
    # validation (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on bugs."""
        count = self._check_node(self._root_id, None, None, depth=0)
        assert count == self._size, (
            f"size mismatch: counted {count}, tracked {self._size}"
        )
        # leaf chain must produce sorted keys and cover all entries.
        keys = list(self.keys())
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == self._size, "leaf chain misses entries"

    def _check_node(
        self,
        node_id: int,
        low: Optional[int],
        high: Optional[int],
        depth: int,
    ) -> int:
        node: _Node = self.buffer.get(node_id).payload
        assert node.keys == sorted(node.keys), "unsorted node keys"
        for key in node.keys:
            assert low is None or key >= low, "key below separator bound"
            assert high is None or key < high, "key above separator bound"
        if node.is_leaf:
            assert len(node.keys) == len(node.values)
            return len(node.keys)
        assert len(node.children) == len(node.keys) + 1
        total = 0
        bounds = [low] + list(node.keys) + [high]
        for i, child in enumerate(node.children):
            total += self._check_node(
                child, bounds[i], bounds[i + 1], depth + 1
            )
        return total


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
