"""Index-based metric skyline in the style of B²MS².

The original B²MS² (Fuhry, Jin, Zhang — EDBT 2009) computes metric
skylines by traversing a metric index best-first and pruning index
regions whose *best possible* distance vector is already dominated by a
found skyline object.  We reproduce that architecture over our M-tree:

* the priority queue is ordered by the **sum-aggregate lower bound**
  of each item — for an object, its exact ``adist``; for a node with
  router ``r`` and covering radius ``rad``, ``sum_j max(0, d(qj, r) -
  rad)``.  Because dominance implies a strictly smaller sum (the
  paper's Lemma 2), any dominator of an object pops before the object,
  so an object undominated by the *current* skyline is a true skyline
  member — the classic BBS/B²MS² progressiveness argument.
* a node is pruned when some skyline object ``s`` satisfies
  ``d(s,qj) <= lb_j`` for all ``j`` with at least one strict ``<`` —
  then ``s`` dominates every object in the subtree.

The first object reported is the sum-aggregate 1-NN, which doubles as a
direct check of the paper's Lemma 3 (``ANN(Q,1) ⊆ MSS(Q)``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.dominance import DistanceVectorSource, DominatorSet
from repro.metric.safety import safe_lower_bound
from repro.mtree.node import MTreeNode, RoutingEntry
from repro.mtree.tree import MTree
from repro.obs import explain, trace

_KIND_OBJECT = 0
_KIND_NODE = 1


def _node_lower_bounds(
    router_vector: Sequence[float], covering_radius: float
) -> Tuple[float, ...]:
    """Coordinate-wise lower bounds for every object under a router."""
    return tuple(
        safe_lower_bound(d - covering_radius) for d in router_vector
    )


def _dominates_region(
    skyline_vector: Sequence[float], bounds: Sequence[float]
) -> bool:
    """True if a skyline vector dominates the entire bounded region.

    Requires ``<=`` everywhere and ``<`` somewhere against the region's
    *lower* bounds, which guarantees strict dominance of every actual
    object inside the region.  This is the same predicate as object
    dominance (Definition 3), so the cursor evaluates it through its
    :class:`~repro.core.dominance.DominatorSet`; this scalar form is
    kept as the reference definition (exercised by the white-box
    tests).
    """
    strict = False
    for sv, lb in zip(skyline_vector, bounds):
        if sv > lb:
            return False
        if sv < lb:
            strict = True
    return strict


def metric_skyline_cursor(
    tree: MTree,
    query_ids: Sequence[int],
    vectors: Optional[DistanceVectorSource] = None,
    skip: Optional[Set[int]] = None,
) -> Iterator[int]:
    """Yield skyline object ids progressively (increasing ``adist``).

    ``skip`` hides objects from the computation entirely — SBA uses it
    for the already-reported objects it removed from ``D``; hidden
    objects neither appear in the skyline nor dominate anything.
    ``vectors`` shares a distance-vector cache with the caller.
    """
    source = vectors or DistanceVectorSource(tree.space, query_ids)
    hidden = skip if skip is not None else set()
    counter = itertools.count()
    ex = trace.explaining()
    # backend pruning hook: None for the plain M-tree (the exact
    # pre-protocol path).  The PM-tree returns hyper-ring bounds that
    # let an entry be discarded *before* its distance vector is
    # computed — ``m`` distance computations saved per pruned entry,
    # which is where the PM-tree's skyline-cell savings come from.
    flt = tree.skyline_filter(query_ids, source)
    obj_popped = obj_kept = obj_dominated = regions_pruned = 0
    ring_pruned = 0
    # Found-skyline vectors, tested set-at-a-time.  The node-pruning
    # test against a region's coordinate-wise *lower* bounds is the
    # same predicate as object dominance (<= everywhere, < somewhere),
    # which guarantees strict dominance of every actual object inside
    # the region — so one DominatorSet serves both checks.
    skyline = DominatorSet(len(query_ids))
    heap: List[tuple] = []

    def push_node(page_id: int, level: int) -> None:
        if ex is not None:
            node: MTreeNode = ex.get_page(
                tree.buffer, page_id, level
            ).payload
        else:
            node = tree.buffer.get(page_id).payload
        nonlocal ring_pruned
        node_ring_prunes = 0
        for entry in node.entries:
            if isinstance(entry, RoutingEntry):
                ring = (
                    flt.node_bounds(entry.child_page_id)
                    if flt is not None
                    else None
                )
                if ring is not None and skyline.dominates(ring):
                    # pruned before computing the router's distance
                    # vector (m distances saved) or visiting the
                    # subtree.
                    node_ring_prunes += 1
                    continue
                rvec = source.vector(entry.object_id)
                bounds = _node_lower_bounds(rvec, entry.covering_radius)
                if ring is not None:
                    # coordinate-wise max of two valid lower bounds is
                    # a valid (tighter) lower bound: better heap order
                    # and more pop-time region prunes.
                    bounds = tuple(
                        rb if rb > cb else cb
                        for rb, cb in zip(ring, bounds)
                    )
                heapq.heappush(
                    heap,
                    (sum(bounds), _KIND_NODE, next(counter),
                     entry.child_page_id, bounds, level + 1),
                )
            else:
                if entry.object_id in hidden:
                    continue
                ring = (
                    flt.object_bounds(entry.object_id)
                    if flt is not None
                    else None
                )
                if ring is not None and skyline.dominates(ring):
                    # a found skyline vector dominates the object's
                    # ring bounds, hence the object itself — dropped
                    # without computing its distance vector.
                    node_ring_prunes += 1
                    continue
                ovec = source.vector(entry.object_id)
                heapq.heappush(
                    heap,
                    (sum(ovec), _KIND_OBJECT, next(counter),
                     entry.object_id, ovec, level),
                )
        ring_pruned += node_ring_prunes
        if ex is not None:
            ex.node_visit(
                "skyline",
                level,
                entries=len(node.entries),
                hyper_ring_prunes=node_ring_prunes,
            )

    push_node(tree.root_page_id, 0)
    while heap:
        _key, kind, _tie, ident, vec, level = heapq.heappop(heap)
        if kind == _KIND_OBJECT:
            if skyline.dominates(vec):
                if ex is not None:
                    obj_popped += 1
                    obj_dominated += 1
                continue
            skyline.add(vec)
            if ex is not None:
                obj_popped += 1
                obj_kept += 1
            yield ident
            continue
        # node: prune if some skyline vector dominates its whole region.
        if skyline.dominates(vec):
            if ex is not None:
                regions_pruned += 1
                ex.node_pruned("skyline", level, covering_radius=1)
            continue
        push_node(ident, level)

    if ex is not None:
        explain.stage(
            "b2ms2.skyline",
            obj_popped,
            obj_kept,
            {"dominated by a found skyline object (Def. 3)": obj_dominated},
            note=(
                f"regions pruned={regions_pruned}, "
                f"hyper-ring pruned={ring_pruned}"
            ),
        )


def metric_skyline(
    tree: MTree,
    query_ids: Sequence[int],
    vectors: Optional[DistanceVectorSource] = None,
    skip: Optional[Set[int]] = None,
) -> List[int]:
    """The full metric skyline ``MSS(Q)`` as a list."""
    return list(
        metric_skyline_cursor(tree, query_ids, vectors=vectors, skip=skip)
    )
