#!/usr/bin/env python3
"""Tour of the beyond-the-paper extensions.

The paper's conclusions sketch randomized approximation as a future
direction and claim the algorithms only need an index with incremental
nearest-neighbor search.  This example exercises both:

1. ``apx``   — sampling-based approximate answers with a Hoeffding
   accuracy knob;
2. ``index="vptree"`` — PBA running unchanged on a VP-tree.

Run::

    python examples/extensions_tour.py
"""

import numpy as np

from repro.api import EuclideanMetric, MetricSpace, open_engine
from repro.core.approximate import recall_against_exact, sample_size_for
from repro.core.brute_force import brute_force_scores


def main() -> None:
    rng = np.random.default_rng(17)
    points = list(rng.random((800, 3)))
    space = MetricSpace(points, EuclideanMetric(), name="tour")
    engine = open_engine(space, seed=0)
    queries = [11, 400, 777]
    truth = brute_force_scores(engine.space, queries)
    exact, exact_stats = engine.top_k_dominating(queries, 10)
    print("exact top-10 scores:", [r.score for r in exact])
    print(
        f"  exact cost: {exact_stats.distance_computations} distance "
        "computations"
    )

    # --- 1. randomized approximation -------------------------------
    print("\napproximate answers (accuracy knob = sample size):")
    print(
        f"  Hoeffding: eps=0.05, delta=0.05 needs "
        f"{sample_size_for(0.05, 0.05)} samples"
    )
    for sample_size in (25, 100, 400):
        from repro.core.approximate import ApproximateTopK

        algo = ApproximateTopK(
            engine.make_context(),
            candidate_pool=120,
            sample_size=sample_size,
            seed=1,
        )
        metric = engine.space.metric
        before = metric.snapshot()
        results = list(algo.run(queries, 10))
        cost = metric.delta_since(before)
        recall = recall_against_exact(results, truth, 10)
        print(
            f"  sample={sample_size:3d}: recall={recall:.2f}, "
            f"{cost} distance computations"
        )
    print(
        "  (the sampling budget is fixed and independent of n — at this "
        "small n exact PBA2 is already cheap, but SBA/ABA's floor here "
        f"is n*m = {len(points) * len(queries)} distances, and the "
        "approximate cost stays flat as n grows)"
    )

    # --- 2. index agnosticism ---------------------------------------
    print("\nPBA on a VP-tree instead of the M-tree:")
    vp_engine = open_engine(
        MetricSpace(points, EuclideanMetric(), name="tour-vp"),
        seed=3,
        index="vptree",
    )
    vp_results, vp_stats = vp_engine.top_k_dominating(
        queries, 10, algorithm="pba2"
    )
    print(
        f"  same answer? "
        f"{[r.score for r in vp_results] == [r.score for r in exact]}"
    )
    print(
        f"  vptree: {vp_stats.distance_computations} distance "
        f"computations vs mtree: {exact_stats.distance_computations}"
    )


if __name__ == "__main__":
    main()
