"""Property-based tests: the B+-tree vs a dict/sorted-list model."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.btree import BPlusTree
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager
from tests.test_btree import leaf_chain

# operations: ("insert", key, value) | ("delete", key) | ("get", key)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(min_value=0, max_value=200),
            st.integers(),
        ),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("get"), st.integers(min_value=0, max_value=200)),
    ),
    max_size=120,
)


def run_model(ops, order):
    tree = BPlusTree(LRUBuffer(PageManager(), capacity=8), order=order)
    model = {}
    for op in ops:
        if op[0] == "insert":
            _tag, key, value = op
            tree.insert(key, value)
            model[key] = value
        elif op[0] == "delete":
            _tag, key = op
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            _tag, key = op
            assert tree.get(key) == model.get(key)
    return tree, model


@settings(max_examples=60, deadline=None)
@given(ops=_ops, order=st.integers(min_value=3, max_value=9))
def test_btree_matches_dict_model(ops, order):
    tree, model = run_model(ops, order)
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    tree.check_invariants()


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=-10_000, max_value=10_000),
        unique=True,
        max_size=150,
    ),
    order=st.integers(min_value=3, max_value=8),
)
def test_iteration_always_sorted(keys, order):
    tree = BPlusTree(LRUBuffer(PageManager(), capacity=8), order=order)
    for key in keys:
        tree.insert(key, str(key))
    assert list(tree.keys()) == sorted(keys)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=500), unique=True, min_size=1,
        max_size=100,
    ),
    bounds=st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    ),
)
def test_range_scan_matches_filter(keys, bounds):
    low, high = min(bounds), max(bounds)
    tree = BPlusTree(LRUBuffer(PageManager(), capacity=8), order=5)
    for key in keys:
        tree.insert(key, key)
    expected = sorted(k for k in keys if low <= k <= high)
    assert [k for k, _ in tree.items(low=low, high=high)] == expected



@settings(max_examples=60, deadline=None)
@given(
    ops=_ops,
    order=st.integers(min_value=3, max_value=9),
    picks=st.lists(st.booleans(), max_size=220),
)
def test_update_many_matches_model(ops, order, picks):
    """One sweep over any ascending subset of present keys — deletes
    leave empty leaves behind — mutates exactly those values and
    charges one descent, one read per further leaf in range and one
    write per leaf holding a key."""
    tree = BPlusTree(LRUBuffer(PageManager(), capacity=8), order=order)
    model = {}
    for op in ops:
        if op[0] == "insert":
            tree.insert(op[1], [op[2]])
            model[op[1]] = op[2]
        elif op[0] == "delete":
            tree.delete(op[1])
            model.pop(op[1], None)
    keys = [k for k, pick in zip(sorted(model), picks) if pick]
    where = {
        key: i for i, leaf in enumerate(leaf_chain(tree)) for key in leaf
    }
    stats = tree.buffer.stats
    reads, writes = stats.logical_reads, stats.logical_writes

    tree.update_many(keys, lambda key, value: value.append(key))

    stats = tree.buffer.stats
    walked = where[keys[-1]] - where[keys[0]] if keys else 0
    assert stats.logical_reads - reads == (tree.height + walked if keys else 0)
    assert stats.logical_writes - writes == len({where[k] for k in keys})
    assert list(tree.items()) == [
        (k, [v, k] if k in keys else [v]) for k, v in sorted(model.items())
    ]
    tree.check_invariants()


# operations: ("upsert", key, delta) | ("delete", key, _)
_upsert_ops = st.lists(
    st.tuples(
        st.sampled_from(["upsert", "upsert", "upsert", "delete"]),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=-5, max_value=5),
    ),
    max_size=150,
)


@settings(max_examples=60, deadline=None)
@given(ops=_upsert_ops, order=st.integers(min_value=3, max_value=9))
def test_upsert_matches_dict_model(ops, order):
    """``upsert(key, fn)`` stores ``fn(old)`` in one descent: ``height``
    reads and one write when no node splits; a split adds a new page per
    split node, a re-read and a write of each parent that takes a
    separator, and a new page for a new root."""
    tree = BPlusTree(LRUBuffer(PageManager(), capacity=8), order=order)
    model = {}
    for tag, key, delta in ops:
        if tag == "delete":
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
            continue
        seen = []

        def fn(old):
            seen.append(old)
            return (0 if old is None else old) + delta

        stats = tree.buffer.stats
        reads, writes = stats.logical_reads, stats.logical_writes
        height, pages = tree.height, tree.num_pages

        stored = tree.upsert(key, fn)

        assert seen == [model.get(key)]
        model[key] = model.get(key, 0) + delta
        assert stored == model[key]
        grew = tree.height - height
        splits = tree.num_pages - pages - grew
        assert stats.logical_reads - reads == height + min(splits, height - 1)
        assert stats.logical_writes - writes == (
            2 * splits + (splits < height) + grew
        )
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    tree.check_invariants()
