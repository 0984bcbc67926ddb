"""SBA — the Skyline-Based Algorithm (paper Algorithm 1).

Built on Lemma 1 (the top-1 dominating object is a metric skyline
object): per round, compute the metric skyline ``S`` of the remaining
data set with the B²MS²-style algorithm over the M-tree, compute the
exact domination score of every skyline object, report the best, remove
it, repeat ``k`` times.

The known limitations the paper calls out — and which the benchmarks
reproduce — are (i) scoring the whole skyline when only the best member
is needed and (ii) skylines that blow up with many / spread-out query
objects, making SBA the slowest algorithm at high coverage (Figure 6).

Reported objects are removed with a *skip set* passed to the skyline
cursor rather than physically deleted from the shared M-tree; with
``remove_physically=True`` the tree's leaf-entry deletion is used
instead (the ablation benchmark compares both).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Set

from repro.core.dominance import DistanceVectorSource, DominanceMatrix
from repro.core.progressive import QueryContext, ResultItem, TopKAlgorithm
from repro.obs import explain, trace
from repro.skyline.b2ms2 import metric_skyline


class SBA(TopKAlgorithm):
    """Skyline-Based Algorithm (Algorithm 1)."""

    name = "SBA"

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
        # lines 6-9 of Algorithm 1 score each skyline object against
        # the whole data set; the matrix evaluates those comparisons
        # vectorized (semantics unchanged, see DominanceMatrix).
        matrix: DominanceMatrix | None = None

        for _round in range(min(k, len(universe))):
            # every span closes before the yield: a ContextVar set in a
            # generator frame would otherwise leak into the consumer.
            with trace.span(
                "sba.round", category="algo", args={"round": _round}
            ) as round_span:
                remaining = len(universe) - len(removed)
                with trace.span("sba.skyline", category="algo") as stage:
                    skyline = metric_skyline(
                        ctx.tree, query_ids, vectors=vectors, skip=removed
                    )
                    if ex is not None:
                        explain.close_stage(
                            stage,
                            remaining,
                            len(skyline),
                            {
                                "dominated by a skyline object (Lemma 1)": (
                                    remaining - len(skyline)
                                )
                            },
                            round=_round,
                        )
                if not skyline:
                    return
                round_span.set("skyline_size", len(skyline))
                if matrix is None:
                    matrix = DominanceMatrix(vectors, universe)
                with trace.span("sba.score", category="algo") as stage:
                    # the winner is the first maximum in id order.
                    ranked = sorted(skyline)
                    scores = matrix.scores(ranked)
                    ctx.stats.exact_score_computations += len(ranked)
                    best = int(scores.argmax())
                    best_id, best_score = ranked[best], int(scores[best])
                    if ex is not None:
                        explain.close_stage(
                            stage,
                            len(skyline),
                            1,
                            {
                                "lower exact score than the round winner": (
                                    len(skyline) - 1
                                )
                            },
                            round=_round,
                        )
                if ex is not None:
                    explain.snapshot(
                        "sba.round",
                        round=_round,
                        skyline_size=len(skyline),
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
            # restore the tree for subsequent queries.
            for object_id in removed:
                ctx.tree.insert(object_id)
