"""Unit tests for the disk-backed B+-tree."""

import random

import pytest

from repro.btree import BPlusTree
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager


def make_tree(order=6, capacity=16):
    buf = LRUBuffer(PageManager(), capacity=capacity)
    return BPlusTree(buf, order=order), buf


class TestBasics:
    def test_empty_tree(self):
        tree, _ = make_tree()
        assert len(tree) == 0
        assert tree.get(1) is None
        assert 1 not in tree
        assert list(tree.items()) == []

    def test_insert_and_get(self):
        tree, _ = make_tree()
        tree.insert(5, "five")
        assert tree.get(5) == "five"
        assert 5 in tree
        assert len(tree) == 1

    def test_overwrite_keeps_size(self):
        tree, _ = make_tree()
        tree.insert(5, "a")
        tree.insert(5, "b")
        assert tree.get(5) == "b"
        assert len(tree) == 1

    def test_get_default(self):
        tree, _ = make_tree()
        assert tree.get(9, default="d") == "d"

    def test_order_below_three_rejected(self):
        buf = LRUBuffer(PageManager(), capacity=4)
        with pytest.raises(ValueError):
            BPlusTree(buf, order=2)

    def test_default_order_from_page_size(self):
        buf = LRUBuffer(PageManager(), capacity=4)
        tree = BPlusTree(buf)
        assert tree.order >= 3


class TestSplitsAndOrder:
    def test_sequential_insert_grows_height(self):
        tree, _ = make_tree(order=4)
        for key in range(100):
            tree.insert(key, key)
        assert tree.height > 1
        tree.check_invariants()

    def test_random_insert_keeps_sorted_iteration(self):
        tree, _ = make_tree(order=5)
        keys = list(range(300))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, -key)
        assert list(tree.keys()) == sorted(keys)
        tree.check_invariants()

    def test_reverse_insert(self):
        tree, _ = make_tree(order=4)
        for key in reversed(range(120)):
            tree.insert(key, key)
        assert list(tree.keys()) == list(range(120))
        tree.check_invariants()

    def test_all_values_retrievable_after_splits(self):
        tree, _ = make_tree(order=4)
        keys = random.Random(7).sample(range(10_000), 500)
        for key in keys:
            tree.insert(key, key * 3)
        for key in keys:
            assert tree.get(key) == key * 3


class TestRangeScan:
    @pytest.fixture
    def populated(self):
        tree, buf = make_tree(order=5)
        for key in range(0, 100, 2):  # evens 0..98
            tree.insert(key, f"v{key}")
        return tree

    def test_full_scan(self, populated):
        assert [k for k, _ in populated.items()] == list(range(0, 100, 2))

    def test_bounded_scan(self, populated):
        assert [k for k, _ in populated.items(low=10, high=20)] == [
            10, 12, 14, 16, 18, 20,
        ]

    def test_low_bound_between_keys(self, populated):
        assert next(iter(populated.items(low=11)))[0] == 12

    def test_high_bound_exclusive_of_later(self, populated):
        keys = [k for k, _ in populated.items(high=5)]
        assert keys == [0, 2, 4]

    def test_empty_range(self, populated):
        assert list(populated.items(low=200)) == []


class TestDelete:
    def test_delete_present(self):
        tree, _ = make_tree()
        tree.insert(1, "a")
        assert tree.delete(1)
        assert 1 not in tree
        assert len(tree) == 0

    def test_delete_absent_returns_false(self):
        tree, _ = make_tree()
        assert not tree.delete(99)

    def test_delete_many_keeps_invariants(self):
        tree, _ = make_tree(order=4)
        for key in range(200):
            tree.insert(key, key)
        for key in range(0, 200, 2):
            assert tree.delete(key)
        assert list(tree.keys()) == list(range(1, 200, 2))
        tree.check_invariants()

    def test_reinsert_after_delete(self):
        tree, _ = make_tree(order=4)
        for key in range(50):
            tree.insert(key, key)
        tree.delete(25)
        tree.insert(25, "back")
        assert tree.get(25) == "back"
        tree.check_invariants()


class TestDiskBehaviour:
    def test_accesses_charge_buffer(self):
        tree, buf = make_tree(order=4, capacity=2)
        for key in range(100):
            tree.insert(key, key)
        before = buf.stats.page_faults
        for key in range(100):
            tree.get(key)
        assert buf.stats.page_faults > before  # tiny buffer must fault

    def test_drop_releases_pages(self):
        tree, buf = make_tree(order=4)
        for key in range(100):
            tree.insert(key, key)
        pages = tree.num_pages
        assert pages > 1
        tree.drop()
        assert len(buf.manager) == 0

    def test_num_pages_grows_with_data(self):
        small, _ = make_tree(order=4)
        big, _ = make_tree(order=4)
        for key in range(10):
            small.insert(key, key)
        for key in range(500):
            big.insert(key, key)
        assert big.num_pages > small.num_pages


def leaf_chain(tree):
    """The keys of every leaf, in ``next_leaf`` order (empty ones too)."""
    page_id = tree._leftmost_leaf().page_id
    leaves = []
    while page_id != -1:
        node = tree.buffer.get(page_id).payload
        leaves.append(list(node.keys))
        page_id = node.next_leaf
    return leaves


def leaf_index(leaves, key):
    return next(i for i, keys in enumerate(leaves) if key in keys)


def boxed_tree(keys, order=4, capacity=64):
    """A tree whose values are one-element lists (mutable in place)."""
    tree, buf = make_tree(order=order, capacity=capacity)
    for key in keys:
        tree.insert(key, [key])
    return tree, buf


def bump(_key, value):
    value[0] += 1000


def sweep_cost(tree, buf, keys):
    """(reads, writes, faults) charged by one ``update_many``."""
    before = (
        buf.stats.logical_reads,
        buf.stats.logical_writes,
        buf.stats.page_faults,
    )
    tree.update_many(keys, bump)
    return (
        buf.stats.logical_reads - before[0],
        buf.stats.logical_writes - before[1],
        buf.stats.page_faults - before[2],
    )


class TestUpdateMany:
    def test_dense_sweep_costs_one_descent_and_one_get_put_per_leaf(self):
        tree, buf = boxed_tree(range(100))
        leaves = leaf_chain(tree)
        assert len(leaves) >= 3 and tree.height >= 3
        reads, writes, faults = sweep_cost(tree, buf, list(range(100)))
        assert reads == tree.height + len(leaves) - 1
        assert writes == len(leaves)
        assert faults == 0
        assert list(tree.items()) == [(k, [k + 1000]) for k in range(100)]
        tree.check_invariants()

    def test_sparse_subset_walks_the_leaves_in_between(self):
        tree, buf = boxed_tree(range(100))
        leaves = leaf_chain(tree)
        keys = [7, 40, 41, 88]
        first, last = leaf_index(leaves, 7), leaf_index(leaves, 88)
        changed = {leaf_index(leaves, k) for k in keys}
        reads, writes, _faults = sweep_cost(tree, buf, keys)
        assert reads == tree.height + last - first
        assert writes == len(changed)
        for key in range(100):
            assert tree.get(key) == [key + 1000 if key in keys else key]

    def test_empty_leaves_are_walked_without_a_write(self):
        tree, buf = boxed_tree(range(100))
        leaves = leaf_chain(tree)
        gap = leaves[len(leaves) // 2]
        for key in gap:
            assert tree.delete(key)
        before, after = gap[0] - 1, gap[-1] + 1
        assert leaf_chain(tree)[len(leaves) // 2] == []
        reads, writes, _faults = sweep_cost(tree, buf, [before, after])
        assert reads == tree.height + 2
        assert writes == 2
        assert tree.get(before) == [before + 1000]
        assert tree.get(after) == [after + 1000]
        tree.check_invariants()

    def test_first_key_behind_an_empty_leaf(self):
        tree, buf = boxed_tree(range(100))
        leaves = leaf_chain(tree)
        for key in leaves[1]:
            tree.delete(key)
        key = leaves[2][0]
        tree.update_many([key], bump)
        assert tree.get(key) == [key + 1000]

    def test_missing_keys_raise(self):
        tree, _ = boxed_tree(range(0, 100, 2))
        with pytest.raises(KeyError):
            tree.update_many([10, 11, 12], bump)  # a gap inside a leaf
        with pytest.raises(KeyError):
            tree.update_many([4, 500], bump)  # beyond the last leaf
        with pytest.raises(KeyError):
            tree.update_many([40, 20], bump)  # not ascending

    def test_no_keys_no_access(self):
        tree, buf = boxed_tree(range(20))
        assert sweep_cost(tree, buf, []) == (0, 0, 0)

    def test_small_buffer_charges_faults_per_leaf(self):
        tree, buf = boxed_tree(range(100), capacity=1)
        leaves = leaf_chain(tree)
        reads, writes, faults = sweep_cost(tree, buf, list(range(100)))
        assert reads == tree.height + len(leaves) - 1
        assert writes == len(leaves)
        # every get faults; each put finds its leaf still resident.
        assert faults == reads
        assert list(tree.items()) == [(k, [k + 1000]) for k in range(100)]


def reads_of(buf, action):
    """Logical reads charged by ``action()``."""
    before = buf.stats.logical_reads
    action()
    return buf.stats.logical_reads - before


class TestPointAccessReads:
    """``get``, ``delete`` and a bounded scan each read one node per
    level on their way to the leaf, and the leaf itself only once."""

    def test_get_delete_and_scan_read_each_level_once(self):
        tree, buf = boxed_tree(range(100))
        assert tree.height == 4
        leaves = leaf_chain(tree)
        assert 98 in leaves[-1] and 99 in leaves[-1]
        assert reads_of(buf, lambda: tree.get(50)) == tree.height
        assert reads_of(buf, lambda: tree.delete(50)) == tree.height
        assert reads_of(buf, lambda: tree.delete(50)) == tree.height
        scanned = []
        assert reads_of(
            buf, lambda: scanned.extend(tree.items(low=98))
        ) == tree.height
        assert scanned == [(98, [98]), (99, [99])]
        # a scan starting in the first leaf walks the whole chain.
        assert reads_of(
            buf, lambda: list(tree.items(low=0))
        ) == tree.height + len(leaves) - 1
        tree.check_invariants()

    def test_full_scan_reads_the_first_leaf_once(self):
        tree, buf = boxed_tree(range(100))
        assert (tree.height, len(leaf_chain(tree))) == (4, 49)
        # 3 inner nodes on the way down, then each of the 49 leaves.
        assert reads_of(buf, lambda: list(tree.items())) == 52
        assert reads_of(buf, lambda: list(tree.keys())) == 52
