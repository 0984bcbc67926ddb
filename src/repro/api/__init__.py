"""repro.api — the supported public surface.

Everything an application needs lives here: build an engine with the
paper's Section 5 cost-model defaults (:func:`open_engine`), describe a
query (:class:`Query`), execute it (:func:`run` or the engine's
``top_k_dominating``), and the metric toolbox re-exported from
:mod:`repro.metric`.  Examples, benchmarks and :mod:`repro.service`
import from this module instead of deep module paths; names listed in
``__all__`` are covered by the API-surface snapshot check
(``docs/api-surface.txt``, regenerated with
``python -m repro.api.surface``), so a change to the surface shows
up as a reviewed diff.

Each parameter has one spelling (see docs/api.md):

* ``k`` — the result count;
* ``algorithm`` — a registry name such as ``"pba2"``;
* ``index`` / ``index_options`` — a registered backend name such as
  ``"pmtree"`` and that backend's build options;
* ``seed`` — integer randomness seed for engine construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.core.brute_force import brute_force_scores
from repro.core.engine import (
    ALGORITHMS,
    TopKDominatingEngine,
    canonical_algorithm,
)
from repro.core.progressive import ResultItem
from repro.core.pruning import PruningConfig
from repro.index import (
    BackendSpec,
    IndexBackend,
    UnknownIndexError,
    available_backends,
    register_backend,
)
from repro.metric import (
    ChebyshevMetric,
    CountingMetric,
    EditDistanceMetric,
    EuclideanMetric,
    Graph,
    LpMetric,
    ManhattanMetric,
    Metric,
    MetricSpace,
    ShortestPathMetric,
    WeightedEuclideanMetric,
    check_metric_axioms,
    pairwise_distances,
)
from repro.obs.explain import QueryPlan
from repro.storage.buffer import BufferPool
from repro.storage.stats import QueryStats

__all__ = [
    "ALGORITHMS",
    "BackendSpec",
    "BufferPool",
    "ChebyshevMetric",
    "CountingMetric",
    "EditDistanceMetric",
    "EuclideanMetric",
    "Graph",
    "IndexBackend",
    "LpMetric",
    "ManhattanMetric",
    "Metric",
    "MetricSpace",
    "PruningConfig",
    "Query",
    "QueryPlan",
    "QueryStats",
    "Result",
    "ResultItem",
    "ShortestPathMetric",
    "TopKDominatingEngine",
    "UnknownIndexError",
    "WeightedEuclideanMetric",
    "available_backends",
    "brute_force_scores",
    "check_metric_axioms",
    "open_engine",
    "pairwise_distances",
    "register_backend",
    "run",
]


def open_engine(
    space: Optional[MetricSpace] = None,
    *,
    seed: Optional[int] = 0,
    index: str = "mtree",
    index_options: Optional[dict] = None,
    buffers: Optional[BufferPool] = None,
    durability: Optional[str] = None,
    recover_from: Optional[str] = None,
    fsync_policy: str = "commit",
) -> TopKDominatingEngine:
    """Index a metric space with the paper's Section 5 configuration.

    The returned engine wraps the space's metric in a
    :class:`CountingMetric`, builds the index through the simulated
    disk buffers (index buffer at 10 % of the tree, aux buffer at 20 %
    of the data set, 8 ms per page fault) and answers ``MSD(Q, k)``
    via ``top_k_dominating`` / ``stream`` — the one engine-construction
    recipe every entry point (examples, benchmarks, the service)
    shares.

    ``index`` selects a registered backend by canonical name
    (:func:`available_backends` — ``mtree``, ``pmtree``, ``vptree``
    ship built in) and ``index_options`` carries that backend's build
    knobs, e.g. ``open_engine(space, index="pmtree",
    index_options={"pivots": 8})``.

    ``seed`` (an int, default 0) seeds the randomness of index
    construction.

    Durability (see ``docs/robustness.md``):

    * ``durability=<dir>`` binds the fresh engine to a
      :class:`~repro.recovery.DurabilityController` rooted at ``dir``
      — every mutation is WAL-logged there and ``engine.checkpoint()``
      snapshots into it.  The directory must not already hold durable
      state (recover instead).
    * ``recover_from=<dir>`` rebuilds an engine from that directory's
      checkpoint + WAL tail instead of building from ``space`` (which
      must then be omitted).  The recovered engine is durable in the
      same directory and carries an ``engine.last_recovery`` report.
    * ``fsync_policy`` tunes WAL sync cadence for either mode
      (``"always"``, ``"commit"``, ``"batch"``, ``"never"``).
    """
    if recover_from is not None:
        if space is not None:
            raise ValueError(
                "open_engine: pass either space or recover_from, not both "
                "(recovery rebuilds the space from the checkpoint)"
            )
        if durability is not None:
            raise ValueError(
                "open_engine: recover_from already re-enables durability "
                "in the same directory; do not pass durability too"
            )
        from repro.recovery import recover_engine

        return recover_engine(
            recover_from, fsync_policy=fsync_policy, buffers=buffers
        )
    if space is None:
        raise TypeError(
            "open_engine: a MetricSpace is required unless recovering "
            "(recover_from=<dir>)"
        )
    engine = TopKDominatingEngine(
        space,
        rng=random.Random(seed),
        buffers=buffers,
        index=index,
        index_options=index_options,
    )
    if durability is not None:
        from repro.recovery import enable_durability

        enable_durability(engine, durability, fsync_policy=fsync_policy)
    return engine


@dataclass(frozen=True)
class Query:
    """One ``MSD(Q, k)`` request: query object ids, k, algorithm.

    Immutable and normalised on construction (ids to a tuple, the
    algorithm selector to its canonical lower-case registry name), so
    a ``Query`` can be hashed, cached and logged as-is.
    """

    query_ids: Tuple[int, ...]
    k: int
    algorithm: str = "pba2"
    pruning: Optional[PruningConfig] = None
    #: when True, :func:`run` executes through ``engine.explain`` and
    #: the returned :class:`Result` carries a :class:`QueryPlan`.
    explain: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "query_ids", tuple(self.query_ids))
        object.__setattr__(
            self,
            "algorithm",
            canonical_algorithm(self.algorithm, "Query"),
        )

    @property
    def m(self) -> int:
        """The number of query objects ``|Q|``."""
        return len(self.query_ids)


@dataclass(frozen=True)
class Result:
    """An answered query: the ranked items plus the paper's costs."""

    items: Tuple[ResultItem, ...]
    stats: QueryStats
    #: the explain artifact; ``None`` unless the query was explained.
    plan: Optional[QueryPlan] = None

    def __iter__(self) -> Iterator[ResultItem]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def object_ids(self) -> Tuple[int, ...]:
        """The reported object ids, best first."""
        return tuple(item.object_id for item in self.items)


def run(
    engine: TopKDominatingEngine,
    query: Query,
    *,
    explain: bool = False,
) -> Result:
    """Execute a :class:`Query` on an engine; returns a :class:`Result`.

    Thin sugar over ``engine.top_k_dominating`` for callers that keep
    queries as values (request logs, caches, test tables).  With
    ``explain=True`` (or ``query.explain``) the call routes through
    ``engine.explain`` and ``Result.plan`` carries the
    :class:`QueryPlan` — results and deterministic cost counters are
    bit-identical either way.
    """
    if explain or query.explain:
        items, stats, plan = engine.explain(
            list(query.query_ids),
            query.k,
            algorithm=query.algorithm,
            pruning=query.pruning,
        )
        return Result(items=tuple(items), stats=stats, plan=plan)
    items, stats = engine.top_k_dominating(
        list(query.query_ids),
        query.k,
        algorithm=query.algorithm,
        pruning=query.pruning,
    )
    return Result(items=tuple(items), stats=stats)
