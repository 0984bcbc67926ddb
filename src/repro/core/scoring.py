"""Exact domination-score procedures for PBA (Section 4.4.1).

Both procedures compute ``dom(o)`` for a *common neighbor* ``o`` — an
object already retrieved from every query object's incremental-NN
stream — **without any further distance computations**, using only the
bookkeeping accumulated in the ``AuxB+``-tree.  This is the key to the
low distance-computation counts of PBA1/PBA2 in the paper's
Figures 7-8.

* :func:`exact_score_reverse_scan` — ``ExactScore-RS`` (Procedure 2,
  used by **PBA1**): Lemma 7 gives ``dom(o) = n - |U| - eq(o) - 1``
  where ``U`` is the set of objects retrieved strictly closer than
  ``o`` to at least one query object.  ``|U|`` is obtained by scanning
  each retrieval log *backwards* from its current position down to
  ``o``'s equal-distance group, decrementing per-object clone counters
  (``qc_counter``); an object whose clone counter reaches zero had all
  its retrievals in the scanned (non-closer) regions and leaves ``U``.
  The internal pruning heuristic ``IPH`` may abort the scan once the
  best achievable score cannot exceed the pruning value ``G``.

* :func:`exact_score_aux` — ``ExactScore-AUX`` (Procedure 3, used by
  **PBA2**): a single pass over the ``AuxB+``-tree comparing recorded
  ``Lpos`` rank positions.  ``o`` dominates a recorded object ``o_i``
  iff no recorded position of ``o_i`` is smaller than ``o``'s
  (``ff``), except when all positions are equal (equivalence, ``fe``);
  unrecorded objects are all dominated, so
  ``dom(o) = dom_in + n - |AUX|``.  The pass walks the leaves (charged
  one read per leaf) and compares the ``lpos`` table in one masked
  array expression.

Both list the dominated records in object-id order, so DH1 can mark
them in one leaf sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aux_index import AuxBPlusTree, AuxRecord


@dataclass
class ScoreOutcome:
    """Result of an exact-score procedure.

    ``score`` is ``None`` when IPH aborted the computation (the object
    is prunable).  ``dominated`` lists, in object-id order, the records
    the procedure proved dominated on the way — the raw material for
    the discard heuristic DH1.
    """

    score: Optional[int] = None
    dominated: List["AuxRecord"] = field(default_factory=list)


def exact_score_reverse_scan(
    aux: "AuxBPlusTree",
    rec: "AuxRecord",
    n: int,
    epoch: int,
    pruning_value: Optional[int] = None,
    use_iph: bool = True,
) -> ScoreOutcome:
    """``ExactScore-RS`` (Procedure 2) with the IPH abort.

    Parameters
    ----------
    aux:
        The run's ``AuxB+``-tree (records + retrieval logs).
    rec:
        The common neighbor being scored (``eq`` already resolved).
    n:
        Data set cardinality.
    epoch:
        Fresh epoch tag; clone counters are lazily re-initialised from
        ``q_counter`` when first touched under this epoch.
    pruning_value:
        The current ``G`` (or ``None`` before it exists).
    use_iph:
        Whether the internal pruning heuristic may abort the scan.
    """
    assert rec.is_common and rec.eq is not None
    m = aux.m
    outcome = ScoreOutcome()
    zeroed: List["AuxRecord"] = []
    aux_size = len(aux)
    removed = 0

    # total scan slots per query: ranks [Lpos_o(qj), pos_j] all hold
    # distances >= d(o, qj).
    remaining_per_query = [
        len(aux.logs[j]) - rec.lpos[j] + 1  # type: ignore[operator]
        for j in range(m)
    ]

    def clone_out(other: Optional["AuxRecord"]) -> "AuxRecord":
        assert other is not None
        if other.qc_epoch != epoch:
            other.qc_epoch = epoch
            other.qc_counter = other.q_counter
        other.qc_counter -= 1
        return other

    for j in range(m):
        log = aux.logs[j]
        target = rec.dists[j]
        assert target is not None
        for rank, object_id, distance in log.scan_backward():
            if distance < target:
                break
            remaining_per_query[j] -= 1
            other = aux.tree.upsert(object_id, clone_out)
            if other.qc_counter == 0:
                removed += 1
                zeroed.append(other)
            if use_iph and pruning_value is not None:
                max_future_removals = removed + sum(
                    remaining_per_query[jj] for jj in range(j, m)
                )
                best_possible = (
                    n - (aux_size - max_future_removals) - rec.eq - 1
                )
                if best_possible <= pruning_value:
                    return outcome  # IPH: score stays None
        remaining_per_query[j] = 0

    # Lemma 7: dom(o) = n - |U| - eq(o) - 1, with |U| = |AUX| minus the
    # objects whose every retrieval lay in the scanned regions.
    u_size = aux_size - removed
    outcome.score = n - u_size - rec.eq - 1

    # the zeroed records are exactly AUX minus U: o itself, o's
    # equivalents, and the objects o dominates (feeds DH1).
    zeroed.sort(key=attrgetter("object_id"))
    for other in zeroed:
        if other.object_id == rec.object_id:
            continue
        if other.is_complete and other.dists == rec.dists:
            continue  # equivalent, not dominated
        outcome.dominated.append(other)
    return outcome


def exact_score_aux(
    aux: "AuxBPlusTree",
    rec: "AuxRecord",
    n: int,
) -> ScoreOutcome:
    """``ExactScore-AUX`` (Procedure 3): Lpos-comparison full scan."""
    assert rec.is_common
    rows, records = aux.lpos_rows()
    own = np.array(rec.lpos, dtype=np.int64)
    # unrecorded positions hold UNRECORDED, above every rank: they pass
    # ``ff`` and fail ``fe``, and o's own row is its own equivalent.
    # The masks cover the whole array; the records pick their rows.
    ff = (aux.lpos >= own).all(axis=1)
    fe = (aux.lpos == own).all(axis=1)
    dominated = np.flatnonzero((ff & ~fe)[rows]).tolist()
    outcome = ScoreOutcome(
        score=len(dominated) + n - len(aux),
        dominated=[records[i] for i in dominated],
    )
    return outcome
