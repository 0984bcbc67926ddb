"""Randomized approximate top-k dominating queries.

The paper's future-work section (Section 6) proposes "the study of
randomized techniques toward reducing computation time by sacrificing
the accuracy of the answer".  This module implements that direction:

1. **Candidate generation** — the first ``h`` objects of the
   sum-aggregate nearest-neighbor stream.  By Lemma 2 the exact answer
   ``MSD(Q, k)`` is contained in ``ANN(Q, h)`` for *some* ``h``;
   fixing ``h`` trades recall for speed (and is the first accuracy
   knob).
2. **Score estimation** — instead of exact scores, each candidate's
   domination score is estimated on a random sample ``S`` of the data
   set: ``est(p) = (n - 1) * |{x in S : p ≺ x}| / |S|``.  By
   Hoeffding's inequality the estimate of the *domination fraction* is
   within ``eps`` of truth with probability ``1 - 2 exp(-2 |S| eps²)``
   (the second knob).

With ``sample_size >= n`` and ``candidate_pool >= n`` the algorithm
degenerates to the exact answer; the benchmark suite sweeps both knobs
to chart the accuracy/cost trade-off.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, List, Optional, Sequence

from repro.anns.mbm import AggregateNNCursor
from repro.core.dominance import DistanceVectorSource, dominates_vectors
from repro.core.progressive import QueryContext, ResultItem, TopKAlgorithm


def hoeffding_confidence(sample_size: int, epsilon: float) -> float:
    """Probability that a sampled domination-fraction estimate lies
    within ``epsilon`` of the true fraction."""
    if sample_size <= 0:
        return 0.0
    return max(0.0, 1.0 - 2.0 * math.exp(-2.0 * sample_size * epsilon**2))


def sample_size_for(epsilon: float, delta: float) -> int:
    """Smallest sample size giving ``P(|est - true| > eps) <= delta``."""
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must be in (0, 1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2))


class ApproximateTopK(TopKAlgorithm):
    """Sampling-based approximate ``MSD(Q, k)`` (future work, §6).

    Parameters
    ----------
    candidate_pool:
        Number of aggregate-NN candidates considered; ``None`` derives
        ``max(8 * k, 64)`` at query time.
    sample_size:
        Objects sampled for each score estimate; ``None`` derives the
        Hoeffding size for ``epsilon``/``delta``.
    epsilon, delta:
        Accuracy target used when ``sample_size`` is None.
    seed:
        Sampling seed (per-run reproducibility).
    """

    name = "APX"

    def __init__(
        self,
        context: QueryContext,
        candidate_pool: Optional[int] = None,
        sample_size: Optional[int] = None,
        epsilon: float = 0.05,
        delta: float = 0.05,
        seed: int = 0,
    ) -> None:
        super().__init__(context)
        self.candidate_pool = candidate_pool
        self.sample_size = sample_size
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed

    def run(
        self, query_ids: Sequence[int], k: int
    ) -> Iterator[ResultItem]:
        self._validate(query_ids, k)
        ctx = self.context
        n = ctx.n
        if k == 0 or n == 0:
            return
        rng = random.Random(self.seed)
        pool = self.candidate_pool or max(8 * k, 64)
        pool = min(pool, n)
        samples = self.sample_size or sample_size_for(
            self.epsilon, self.delta
        )
        samples = min(samples, n)

        vectors = DistanceVectorSource(ctx.space, query_ids)
        # 1. candidates: prefix of the aggregate-NN stream (Lemma 2).
        #    On non-M-tree indexes, fall back to a Threshold-Algorithm
        #    style union of the per-query incremental-NN prefixes —
        #    low-adist objects appear early in those streams too.
        from repro.mtree.tree import MTree

        if isinstance(ctx.tree, MTree):
            cursor = AggregateNNCursor(ctx.tree, query_ids, vectors=vectors)
            candidates = [
                obj for obj, _d in itertools.islice(cursor, pool)
            ]
        else:
            candidates = self._round_robin_candidates(query_ids, pool)
        ctx.stats.objects_retrieved += len(candidates)

        # 2. a single shared sample keeps candidate estimates
        #    comparable (common random numbers).
        universe = list(ctx.tree.object_ids())
        sample = (
            universe
            if samples >= len(universe)
            else rng.sample(universe, samples)
        )
        sample_vectors = vectors.vectors(sample)

        estimates: List[ResultItem] = []
        for candidate in candidates:
            cvec = vectors.vector(candidate)
            hits = sum(
                1
                for x, xvec in zip(sample, sample_vectors)
                if x != candidate and dominates_vectors(cvec, xvec)
            )
            denominator = len(sample) - (1 if candidate in sample else 0)
            fraction = hits / denominator if denominator else 0.0
            estimates.append(
                ResultItem(candidate, round(fraction * (n - 1)))
            )
            ctx.stats.exact_score_computations += 1
        estimates.sort(key=lambda item: (-item.score, item.object_id))
        for item in estimates[:k]:
            ctx.stats.results_reported += 1
            yield item


    def _round_robin_candidates(
        self, query_ids: Sequence[int], pool: int
    ) -> List[int]:
        """TA-style candidate generation over incremental-NN streams."""
        cursors = [
            self.context.tree.incremental_cursor(q) for q in query_ids
        ]
        seen: List[int] = []
        seen_set = set()
        active = list(range(len(cursors)))
        while active and len(seen) < pool:
            for j in list(active):
                try:
                    object_id, _d = next(cursors[j])
                except StopIteration:
                    active.remove(j)
                    continue
                if object_id not in seen_set:
                    seen_set.add(object_id)
                    seen.append(object_id)
                    if len(seen) >= pool:
                        break
        return seen


def recall_against_exact(
    approximate: Sequence[ResultItem],
    exact_scores: dict,
    k: int,
) -> float:
    """Fraction of reported objects whose *true* score ties or beats
    the true k-th best — the standard top-k recall with ties."""
    if not approximate:
        return 0.0
    threshold = sorted(exact_scores.values(), reverse=True)[
        min(k, len(exact_scores)) - 1
    ]
    good = sum(
        1
        for item in approximate
        if exact_scores[item.object_id] >= threshold
    )
    return good / len(approximate)
