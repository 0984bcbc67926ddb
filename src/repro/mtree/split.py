"""M-tree split policies: promotion and partitioning.

When a node overflows, two *promoted* routing objects are chosen among
the node's entries and the entries are *partitioned* between them
(Ciaccia et al., Section 4.3 of the M-tree paper).  The choice drives
both build cost and query performance, so the original paper studies
several policies; we implement the three most used and expose them for
the ablation benchmarks:

* ``RANDOM`` — promote two distinct random entries (cheapest build);
* ``SAMPLING`` — evaluate a sample of candidate pairs under the
  ``mM_RAD`` criterion and keep the best (the M-tree paper's
  recommended trade-off, and our default);
* ``MMRAD`` — full ``mM_RAD``: evaluate *all* pairs, minimizing the
  maximum of the two covering radii (best quality, quadratic build
  cost).

Partitioning uses the generalized-hyperplane rule (assign each entry to
the closer promoted object) with a balanced fallback that prevents
degenerate empty halves.

The tree supplies distances as a batch: ``distances(promoted_id, ids)``
returns ``d(i, promoted_id)`` for every ``i`` in ``ids``, entry first,
as one metric-kernel call (:meth:`MetricSpace.pairwise_reflected`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.mtree.node import Entry

#: ``(promoted_id, ids) -> [d(i, promoted_id) for i in ids]``, supplied
#: by the tree.
DistancesFn = Callable[[int, List[int]], Sequence[float]]


@dataclass
class PartitionResult:
    """Outcome of a split: two promoted ids, two entry groups and the
    covering radius of each group around its promoted object."""

    promoted_first: int
    promoted_second: int
    first_entries: List[Entry]
    second_entries: List[Entry]
    first_radius: float
    second_radius: float


def _partition(
    entries: Sequence[Entry],
    left_id: int,
    right_id: int,
    distances: DistancesFn,
) -> Tuple[List[Entry], List[Entry], float, float, Dict[int, float], Dict[int, float]]:
    """Generalized-hyperplane partition around two promoted objects.

    Returns the two groups, their covering radii and the per-entry
    distances to each promoted object (so callers can reuse them as the
    new parent distances without recomputation).
    """
    left: List[Entry] = []
    right: List[Entry] = []
    left_radius = 0.0
    right_radius = 0.0
    ids = [entry.object_id for entry in entries]
    to_left = distances(left_id, ids)
    to_right = distances(right_id, ids)
    left_dists: Dict[int, float] = dict(zip(ids, to_left))
    right_dists: Dict[int, float] = dict(zip(ids, to_right))
    for entry, d_left, d_right in zip(entries, to_left, to_right):
        # covering radius must include the subtree radius for routing
        # entries, not just the routing object itself.
        extra = getattr(entry, "covering_radius", 0.0)
        if d_left <= d_right:
            left.append(entry)
            left_radius = max(left_radius, d_left + extra)
        else:
            right.append(entry)
            right_radius = max(right_radius, d_right + extra)

    # balanced fallback: a hyperplane split can leave one side with a
    # single entry (the promoted object itself); move boundary entries
    # so both sides hold at least two.
    def rebalance(src: List[Entry], dst: List[Entry], dst_id: int) -> None:
        while len(dst) < 2 and len(src) > 2:
            # move the src entry closest to dst's promoted object.
            best = min(src, key=lambda e: (
                left_dists[e.object_id]
                if dst_id == left_id
                else right_dists[e.object_id]
            ))
            src.remove(best)
            dst.append(best)

    rebalance(right, left, left_id)
    rebalance(left, right, right_id)
    left_radius = max(
        (
            left_dists[e.object_id] + getattr(e, "covering_radius", 0.0)
            for e in left
        ),
        default=0.0,
    )
    right_radius = max(
        (
            right_dists[e.object_id] + getattr(e, "covering_radius", 0.0)
            for e in right
        ),
        default=0.0,
    )
    return left, right, left_radius, right_radius, left_dists, right_dists


def _evaluate_pair(
    entries: Sequence[Entry],
    pair: Tuple[int, int],
    distances: DistancesFn,
) -> Tuple[float, PartitionResult]:
    """Partition around a candidate pair; cost is the mM_RAD criterion
    (the larger of the two covering radii)."""
    left_id, right_id = pair
    left, right, lr, rr, _ld, _rd = _partition(
        entries, left_id, right_id, distances
    )
    result = PartitionResult(
        promoted_first=left_id,
        promoted_second=right_id,
        first_entries=left,
        second_entries=right,
        first_radius=lr,
        second_radius=rr,
    )
    return max(lr, rr), result


def _random_policy(
    entries: Sequence[Entry],
    distances: DistancesFn,
    rng: random.Random,
) -> PartitionResult:
    ids = [entry.object_id for entry in entries]
    left_id, right_id = rng.sample(ids, 2)
    _cost, result = _evaluate_pair(entries, (left_id, right_id), distances)
    return result


def _sampling_policy(
    entries: Sequence[Entry],
    distances: DistancesFn,
    rng: random.Random,
    num_candidates: int = 8,
) -> PartitionResult:
    ids = [entry.object_id for entry in entries]
    seen = set()
    best_cost = float("inf")
    best_result: PartitionResult | None = None
    attempts = 0
    while len(seen) < num_candidates and attempts < 4 * num_candidates:
        attempts += 1
        pair = tuple(sorted(rng.sample(ids, 2)))
        if pair in seen:
            continue
        seen.add(pair)
        cost, result = _evaluate_pair(entries, pair, distances)
        if cost < best_cost:
            best_cost = cost
            best_result = result
    assert best_result is not None
    return best_result


def _mmrad_policy(
    entries: Sequence[Entry],
    distances: DistancesFn,
    rng: random.Random,
) -> PartitionResult:
    ids = [entry.object_id for entry in entries]
    best_cost = float("inf")
    best_result: PartitionResult | None = None
    for pair in itertools.combinations(ids, 2):
        cost, result = _evaluate_pair(entries, pair, distances)
        if cost < best_cost:
            best_cost = cost
            best_result = result
    assert best_result is not None
    return best_result


PROMOTION_POLICIES: Dict[str, Callable[..., PartitionResult]] = {
    "random": _random_policy,
    "sampling": _sampling_policy,
    "mmrad": _mmrad_policy,
}


def promote_and_partition(
    entries: Sequence[Entry],
    distances: DistancesFn,
    policy: str = "sampling",
    rng: random.Random | None = None,
) -> PartitionResult:
    """Split an overflowing node's entries per the requested policy."""
    if len(entries) < 4:
        raise ValueError("cannot split a node with fewer than 4 entries")
    try:
        chosen = PROMOTION_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown promotion policy {policy!r}; "
            f"choose from {sorted(PROMOTION_POLICIES)}"
        ) from None
    return chosen(entries, distances, rng or random.Random(0))
