"""repro — Metric-Based Top-k Dominating Queries (EDBT 2014).

A from-scratch reproduction of Tiakas, Valkanas, Papadopoulos,
Manolopoulos and Gunopulos, *"Metric-Based Top-k Dominating Queries"*
(EDBT 2014): progressive top-k dominating query processing in general
metric spaces, where each object's attribute vector is generated
dynamically as its distances to a set of user-chosen query objects.

Public API highlights:

* :class:`~repro.core.engine.TopKDominatingEngine` — index a
  :class:`~repro.metric.base.MetricSpace` once, answer ``MSD(Q, k)``
  with any of ``SBA`` / ``ABA`` / ``PBA1`` / ``PBA2`` / brute force;
* metrics: Euclidean, Manhattan, general Lp, graph shortest-path,
  Levenshtein — or any callable satisfying the metric axioms;
* substrates usable on their own: the M-tree
  (:class:`~repro.mtree.tree.MTree`) with incremental NN, the
  disk-backed B+-tree, metric skylines, aggregate NN search and the
  simulated buffered-disk storage layer;
* :mod:`repro.datasets` — generators for the paper's four evaluation
  data sets (UNI, FC, ZIL, CAL) and coverage-controlled query sets;
* :mod:`repro.bench` — the harness regenerating the paper's
  Figures 4-8 and Tables 2-3;
* :mod:`repro.faults` — seeded storage fault injection (page
  checksums, retries with deterministic backoff, crash points); see
  ``docs/robustness.md``;
* :mod:`repro.obs` — end-to-end query tracing with paper-cost
  attribution, a unified metrics registry (JSON + Prometheus), and
  the ``repro-trace`` CLI; see ``docs/observability.md``.
"""

from repro.core import (
    ABA,
    ALGORITHMS,
    PBA1,
    PBA2,
    ApproximateTopK,
    BruteForce,
    PruningConfig,
    ResultItem,
    SBA,
    TopKDominatingEngine,
    brute_force_scores,
)
from repro.faults import ChaosConfig, FaultInjector
from repro.metric import (
    CountingMetric,
    EditDistanceMetric,
    EuclideanMetric,
    Graph,
    LpMetric,
    ManhattanMetric,
    MetricSpace,
    ShortestPathMetric,
)
from repro.mtree import MTree
from repro.obs import MetricsRegistry, Tracer

__version__ = "1.0.0"

__all__ = [
    "ABA",
    "ALGORITHMS",
    "ApproximateTopK",
    "BruteForce",
    "ChaosConfig",
    "CountingMetric",
    "EditDistanceMetric",
    "EuclideanMetric",
    "FaultInjector",
    "Graph",
    "LpMetric",
    "MTree",
    "ManhattanMetric",
    "MetricSpace",
    "MetricsRegistry",
    "PBA1",
    "PBA2",
    "PruningConfig",
    "ResultItem",
    "SBA",
    "ShortestPathMetric",
    "TopKDominatingEngine",
    "Tracer",
    "brute_force_scores",
    "__version__",
]
