"""ABA — the Aggregation-Based Algorithm (paper Algorithm 2).

Built on Lemmas 2-3: dominance implies a strictly smaller sum-aggregate
distance, and the first sum-aggregate NN ``p`` of ``Q`` is a skyline
object.  Per round:

1. ``p <- ANN(Q, 1)`` via the MBM cursor over the M-tree;
2. collect candidates ``C`` with one range query per query object
   ``qj``, radius ``d(p, qj)`` — every object not dominated by ``p``
   (so every possible top-1) falls inside at least one of those balls;
3. compute exact domination scores for all of ``C``, report the best,
   remove it, repeat.

The paper's noted weaknesses — re-scoring overlapping candidate sets
every round, and candidate blow-up when ``|Q|`` grows or the query
objects spread out — come through directly in the Figure 4-6
benchmarks.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Set

from repro.anns.mbm import AggregateNNCursor
from repro.core.dominance import DistanceVectorSource, DominanceMatrix
from repro.core.progressive import QueryContext, ResultItem, TopKAlgorithm
from repro.mtree.queries import range_query
from repro.obs import explain, trace


class ABA(TopKAlgorithm):
    """Aggregation-Based Algorithm (Algorithm 2)."""

    name = "ABA"

    def __init__(
        self, context: QueryContext, remove_physically: bool = False
    ) -> None:
        super().__init__(context)
        self.remove_physically = remove_physically

    def run(
        self, query_ids: Sequence[int], k: int
    ) -> Iterator[ResultItem]:
        self._validate(query_ids, k)
        ctx = self.context
        ex = trace.explaining()
        vectors = DistanceVectorSource(ctx.space, query_ids)
        removed: Set[int] = set()
        universe: List[int] = list(ctx.tree.object_ids())
        # lines 11-14 of Algorithm 2 score each candidate against the
        # whole data set; evaluated vectorized (semantics unchanged).
        matrix: DominanceMatrix | None = None

        for _round in range(min(k, len(universe))):
            # every span closes before the yield: a ContextVar set in a
            # generator frame would otherwise leak into the consumer.
            with trace.span(
                "aba.round", category="algo", args={"round": _round}
            ) as round_span:
                # line 2: the 1st sum-aggregate nearest neighbor (MBM).
                with trace.span("aba.ann", category="algo"):
                    cursor = AggregateNNCursor(
                        ctx.tree, query_ids, vectors=vectors, skip=removed
                    )
                    try:
                        p, _adist = next(cursor)
                    except StopIteration:
                        return

                # lines 3-6: candidate collection by range queries.
                remaining = len(universe) - len(removed)
                with trace.span("aba.candidates", category="algo") as stage:
                    p_vector = vectors.vector(p)
                    candidates: Set[int] = {p}
                    for j, query_id in enumerate(query_ids):
                        hits = range_query(ctx.tree, query_id, p_vector[j])
                        for object_id, distance in hits:
                            if object_id in removed:
                                continue
                            candidates.add(object_id)
                    ctx.stats.objects_retrieved += len(candidates)
                    if ex is not None:
                        explain.close_stage(
                            stage,
                            remaining,
                            len(candidates),
                            {
                                "outside every candidate ball (Lemma 3)": (
                                    remaining - len(candidates)
                                )
                            },
                            round=_round,
                            note=f"ANN p={p}",
                        )
                round_span.set("candidates", len(candidates))

                # lines 8-17: exact scoring of every candidate.
                if matrix is None:
                    matrix = DominanceMatrix(vectors, universe)
                with trace.span("aba.score", category="algo") as stage:
                    # the winner is the first maximum in id order.
                    ranked = sorted(candidates)
                    scores = matrix.scores(ranked)
                    ctx.stats.exact_score_computations += len(ranked)
                    best = int(scores.argmax())
                    best_id, best_score = ranked[best], int(scores[best])
                    if ex is not None:
                        explain.close_stage(
                            stage,
                            len(candidates),
                            1,
                            {
                                "lower exact score than the round winner": (
                                    len(candidates) - 1
                                )
                            },
                            round=_round,
                        )
                if ex is not None:
                    explain.snapshot(
                        "aba.round",
                        round=_round,
                        ann=p,
                        candidates=len(candidates),
                        best_id=best_id,
                        best_score=best_score,
                    )
                removed.add(best_id)
                matrix.deactivate(best_id)
                if self.remove_physically:
                    ctx.tree.delete(best_id)
                ctx.stats.results_reported += 1
            yield ResultItem(best_id, best_score)

        if self.remove_physically:
            for object_id in removed:
                ctx.tree.insert(object_id)
