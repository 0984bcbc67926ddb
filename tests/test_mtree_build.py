"""Unit tests for M-tree construction and structural invariants."""

import random

import numpy as np
import pytest

from repro.metric.base import MetricSpace
from repro.metric.counting import CountingMetric
from repro.metric.vector import EuclideanMetric
from repro.mtree import MTree
from repro.mtree.split import PROMOTION_POLICIES, promote_and_partition
from repro.mtree.node import LeafEntry
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager

from tests.conftest import make_vector_space


def build_tree(n=200, node_capacity=8, policy="sampling", seed=0, grid=None):
    space = make_vector_space(n, dims=3, seed=seed, grid=grid)
    buf = LRUBuffer(PageManager(), capacity=64)
    tree = MTree.build(
        space,
        buf,
        node_capacity=node_capacity,
        split_policy=policy,
        rng=random.Random(seed),
    )
    return tree, space


class TestBuild:
    def test_all_objects_indexed(self):
        tree, space = build_tree(n=150)
        assert len(tree) == 150
        assert set(tree.object_ids()) == set(space.object_ids)

    def test_invariants_hold(self):
        tree, _ = build_tree(n=200)
        tree.check_invariants()

    def test_height_grows(self):
        small, _ = build_tree(n=8, node_capacity=8)
        large, _ = build_tree(n=400, node_capacity=8)
        assert small.height == 1
        assert large.height >= 3

    def test_duplicate_points_supported(self):
        # grid quantization yields many coincident points; the tree
        # must keep every object id (regression for the shared-router
        # split bug).
        tree, _ = build_tree(n=200, grid=3)
        tree.check_invariants()
        assert len(set(tree.object_ids())) == 200

    def test_duplicate_insert_rejected(self):
        tree, _ = build_tree(n=20)
        with pytest.raises(ValueError):
            tree.insert(5)

    def test_capacity_below_four_rejected(self):
        space = make_vector_space(10)
        buf = LRUBuffer(PageManager(), capacity=8)
        with pytest.raises(ValueError):
            MTree(space, buf, node_capacity=3)

    def test_default_capacity_from_page_size(self):
        space = make_vector_space(10)
        buf = LRUBuffer(PageManager(), capacity=8)
        tree = MTree(space, buf)
        assert tree.node_capacity >= 4

    @pytest.mark.parametrize("policy", sorted(PROMOTION_POLICIES))
    def test_every_split_policy_builds_valid_tree(self, policy):
        tree, _ = build_tree(n=120, policy=policy)
        tree.check_invariants()

    def test_unknown_policy_rejected(self):
        space = make_vector_space(60)
        buf = LRUBuffer(PageManager(), capacity=16)
        tree = MTree(space, buf, node_capacity=4, split_policy="bogus")
        with pytest.raises(ValueError):
            for i in space.object_ids:
                tree.insert(i)

    def test_pages_charged_through_buffer(self):
        space = make_vector_space(100)
        buf = LRUBuffer(PageManager(), capacity=8)
        MTree.build(space, buf, node_capacity=6)
        assert buf.stats.logical_accesses > 0


class TestSplitPolicies:
    def _entries(self, n, seed=0):
        rng = np.random.default_rng(seed)
        points = list(rng.random((n, 2)))
        space = MetricSpace(points, CountingMetric(EuclideanMetric()))
        entries = [LeafEntry(i, 0.0) for i in range(n)]
        return entries, space

    @staticmethod
    def _distances(space):
        """The tree's batch contract: ``d(i, promoted)`` for each id."""
        return lambda promoted, ids: space.pairwise_reflected(
            promoted, ids
        ).tolist()

    @pytest.mark.parametrize("policy", sorted(PROMOTION_POLICIES))
    def test_partition_is_exhaustive_and_disjoint(self, policy):
        entries, space = self._entries(20)
        result = promote_and_partition(
            entries, self._distances(space), policy=policy, rng=random.Random(1)
        )
        got = {e.object_id for e in result.first_entries} | {
            e.object_id for e in result.second_entries
        }
        assert got == set(range(20))
        assert not (
            {e.object_id for e in result.first_entries}
            & {e.object_id for e in result.second_entries}
        )

    @pytest.mark.parametrize("policy", sorted(PROMOTION_POLICIES))
    def test_both_sides_nonempty(self, policy):
        entries, space = self._entries(12)
        result = promote_and_partition(
            entries, self._distances(space), policy=policy, rng=random.Random(2)
        )
        assert len(result.first_entries) >= 2
        assert len(result.second_entries) >= 2

    @pytest.mark.parametrize("policy", sorted(PROMOTION_POLICIES))
    def test_radii_cover_members(self, policy):
        entries, space = self._entries(15)
        result = promote_and_partition(
            entries, self._distances(space), policy=policy, rng=random.Random(3)
        )
        for entry in result.first_entries:
            assert (
                space.distance(entry.object_id, result.promoted_first)
                <= result.first_radius + 1e-9
            )
        for entry in result.second_entries:
            assert (
                space.distance(entry.object_id, result.promoted_second)
                <= result.second_radius + 1e-9
            )

    def test_mmrad_no_worse_than_random(self):
        entries, space = self._entries(16, seed=5)
        best = promote_and_partition(
            entries, self._distances(space), policy="mmrad", rng=random.Random(0)
        )
        rand = promote_and_partition(
            entries, self._distances(space), policy="random", rng=random.Random(0)
        )
        assert max(best.first_radius, best.second_radius) <= (
            max(rand.first_radius, rand.second_radius) + 1e-12
        )

    def test_too_few_entries_rejected(self):
        entries, space = self._entries(3)
        with pytest.raises(ValueError):
            promote_and_partition(entries, self._distances(space))

    def test_unknown_policy_rejected(self):
        entries, space = self._entries(8)
        with pytest.raises(ValueError):
            promote_and_partition(entries, self._distances(space), policy="nope")

    def test_each_candidate_pair_is_two_batches_entry_first(self):
        entries, space = self._entries(10)
        calls = []

        def distances(promoted, ids):
            calls.append((promoted, list(ids)))
            return [space.distance(i, promoted) for i in ids]

        result = promote_and_partition(
            entries, distances, policy="random", rng=random.Random(4)
        )
        ids = [e.object_id for e in entries]
        assert calls == [
            (result.promoted_first, ids),
            (result.promoted_second, ids),
        ]

    @pytest.mark.parametrize("policy", sorted(PROMOTION_POLICIES))
    def test_batched_split_counts_like_the_scalar_path(self, policy):
        entries, space = self._entries(12, seed=6)
        metric = space.metric
        promote_and_partition(
            entries, self._distances(space), policy=policy,
            rng=random.Random(5),
        )
        batched = metric.count
        metric.reset()
        promote_and_partition(
            entries,
            lambda promoted, ids: [space.distance(i, promoted) for i in ids],
            policy=policy,
            rng=random.Random(5),
        )
        # the promoted object's own slot is the identity pair: free.
        assert batched == metric.count > 0
