"""Bulk loading for the M-tree.

Repeated single inserts build a correct tree but pay a split-heavy
price (the original M-tree line of work added a BulkLoading algorithm
for exactly this reason).  This module implements *pivot-order
packing*, a metric adaptation of R-tree-style packing that guarantees
uniform leaf depth by construction:

1. order all objects by distance to a random pivot (objects close in
   pivot order tend to be metrically close — the classic VP intuition);
2. pack consecutive runs into leaves at the target fill factor;
3. choose each node's router as the medoid of a sample of its entries;
4. pack routers level by level until one node remains.

Covering radii on internal levels use the conservative composition
``max_child(d(router, child_router) + child_radius)`` — an upper bound
by the triangle inequality, so every query bound stays correct — while
leaf radii are exact.  The result is a valid :class:`~repro.mtree.tree
.MTree` (it passes ``check_invariants``), supports subsequent inserts
and deletes, and builds with a fraction of the distance computations
(see ``benchmarks/test_ablation_bulk_load.py``).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.metric.base import MetricSpace
from repro.mtree.node import LeafEntry, MTreeNode, RoutingEntry
from repro.mtree.tree import MTree
from repro.storage.buffer import LRUBuffer

#: default fill factor: leave room so post-load inserts do not split
#: immediately.
DEFAULT_FILL = 0.75


def bulk_build(
    space: MetricSpace,
    buffer: LRUBuffer,
    object_ids: Optional[Sequence[int]] = None,
    node_capacity: Optional[int] = None,
    fill_factor: float = DEFAULT_FILL,
    rng: Optional[random.Random] = None,
    **tree_kwargs,
) -> MTree:
    """Build an M-tree by pivot-order packing.

    Accepts the same ``tree_kwargs`` as :class:`MTree` (split policy
    etc. apply to *later* inserts).
    """
    if not (0.3 <= fill_factor <= 1.0):
        raise ValueError("fill_factor must be in [0.3, 1.0]")
    rng = rng or random.Random(0)
    tree = MTree(
        space, buffer, node_capacity=node_capacity, rng=rng, **tree_kwargs
    )
    ids = (
        list(object_ids)
        if object_ids is not None
        else list(space.object_ids)
    )
    if not ids:
        return tree
    per_node = max(2, int(tree.node_capacity * fill_factor))

    # 1. pivot ordering.
    pivot = ids[rng.randrange(len(ids))]
    to_pivot = space.pairwise(pivot, ids).tolist()
    ordered = [ids[i] for i in sorted(range(len(ids)), key=to_pivot.__getitem__)]

    # 2. pack leaves.
    leaves: List[Tuple[int, int, float]] = []  # (page_id, router, radius)
    for start in range(0, len(ordered), per_node):
        group = ordered[start:start + per_node]
        router = _medoid(space, group, rng)
        entries = []
        radius = 0.0
        for obj, d in zip(group, space.pairwise_reflected(router, group).tolist()):
            entries.append(LeafEntry(obj, d))
            radius = max(radius, d)
        node = MTreeNode(
            is_leaf=True, entries=entries, parent_object_id=router
        )
        page = buffer.new_page(node)
        tree.file.page_ids.add(page.page_id)
        for obj in group:
            tree._leaf_of[obj] = page.page_id
        leaves.append((page.page_id, router, radius))

    # 3-4. pack routers level by level.
    level = leaves
    height = 1
    while len(level) > 1:
        next_level: List[Tuple[int, int, float]] = []
        for start in range(0, len(level), per_node):
            group = level[start:start + per_node]
            routers = [router for _pid, router, _r in group]
            parent_router = _medoid(space, routers, rng)
            entries = []
            radius = 0.0
            to_parent = space.pairwise_reflected(parent_router, routers).tolist()
            for (page_id, router, child_radius), d in zip(group, to_parent):
                entries.append(
                    RoutingEntry(
                        object_id=router,
                        parent_distance=d,
                        covering_radius=child_radius,
                        child_page_id=page_id,
                    )
                )
                # conservative triangle-composed covering radius.
                radius = max(radius, d + child_radius)
            node = MTreeNode(
                is_leaf=False,
                entries=entries,
                parent_object_id=parent_router,
            )
            page = buffer.new_page(node)
            tree.file.page_ids.add(page.page_id)
            next_level.append((page.page_id, parent_router, radius))
        level = next_level
        height += 1

    root_page_id, _router, _radius = level[0]
    # the packed root replaces the empty leaf MTree.__init__ created.
    buffer.free_page(tree._root_id)
    tree.file.page_ids.discard(tree._root_id)
    tree._root_id = root_page_id
    tree._height = height
    tree._size = len(ids)
    return tree


def _medoid(
    space: MetricSpace, group: Sequence[int], rng: random.Random
) -> int:
    """Approximate medoid of a small group (sampled for big groups)."""
    if len(group) == 1:
        return group[0]
    sample = (
        list(group)
        if len(group) <= 8
        else rng.sample(list(group), 8)
    )
    best = sample[0]
    best_cost = float("inf")
    for candidate in sample:
        cost = sum(space.pairwise(candidate, sample).tolist())
        if cost < best_cost:
            best_cost = cost
            best = candidate
    return best


