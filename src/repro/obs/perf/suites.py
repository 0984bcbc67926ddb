"""Declarative benchmark suites for the performance observatory.

A **suite** is a named list of :class:`BenchCase` objects; a **case**
is one repeatable measurement that yields a wall-clock sample, the
paper's deterministic cost counters, and free-form metrics.  Three
suites ship:

* ``core`` — one case per (data set, algorithm, parameter) cell of the
  paper's Section 5 grid (m, k and c swept over UNI/FC/ZIL/CAL and
  SBA/ABA/PBA1/PBA2), scaled by the shared
  :data:`repro.bench.config.PROFILES`.  It is the only definition of
  that grid: ``repro-bench figures`` runs it filtered to the chosen
  exhibits, and EXPERIMENTS.md renders from a recorded run of it
  (:mod:`repro.bench.figures`).  A case sample averages
  ``profile.repeats`` seeded query sets, each run on a cold buffer and
  a cold metric, so its distance computations, page faults, buffer
  hits, exact-score computations and the shortest-path metric's
  Dijkstra runs (0 off CAL) are deterministic under the profile's
  seed — the property the gate's zero-tolerance counter comparison
  relies on.
* ``streaming`` — per-update cost of a standing ``MSD(Q, k)`` over an
  arrival-rate × window-size grid, incremental repair
  (:class:`repro.streaming.continuous.ContinuousTopK`) against
  recompute-per-update.  Single-threaded and fully seeded, so its
  distance/page counters are gate-exact like ``core``'s.
* ``backends`` — the paper's m-sweep plus a B²MS² skyline cell per
  registered index backend (``repro.index.available_backends``),
  capability-filtered.  Gate-exact counters, Dijkstra runs included;
  the skyline cells also
  pin each backend's hyper-ring prune count, the PM-tree's headline
  saving.

Case query sets are seeded through :func:`stable_seed` (CRC32, not
``hash``) because ``PYTHONHASHSEED`` randomises string hashing per
process — a per-process query set would destroy the cross-run counter
determinism the gate is built on.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.bench.config import PROFILES, BenchProfile, stable_seed

__all__ = [
    "BenchCase",
    "CaseSample",
    "SUITES",
    "build_suite",
    "stable_seed",
]


@dataclass
class CaseSample:
    """One measured repetition of a case."""

    wall_seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchCase:
    """One named, repeatable measurement.

    ``run`` executes a single repetition and returns a
    :class:`CaseSample`; the runner owns warmup and repetition policy.
    ``meta`` is recorded verbatim in the run document.
    """

    id: str
    run: Callable[[], CaseSample]
    meta: Dict[str, Any] = field(default_factory=dict)


def _dijkstra_runs(engine: Any) -> int:
    """Dijkstra runs of the engine's shortest-path metric so far (0 for
    every other metric).  The runs are what a CAL distance actually
    costs; the cold reset before each case makes the delta exact."""
    return getattr(engine.counting_metric.inner, "dijkstra_runs", 0)


# ----------------------------------------------------------------------
# core: the paper's figure/table grid, one case per cell
# ----------------------------------------------------------------------
def _core_cases(
    profile: BenchProfile, clock: Callable[[], float]
) -> List[BenchCase]:
    from repro.api import open_engine
    from repro.bench.config import DEFAULT_C, DEFAULT_K, DEFAULT_M
    from repro.datasets import PAPER_DATASETS, select_query_objects
    from repro.storage.stats import QueryStats

    engines: Dict[str, Any] = {}
    radius: Dict[str, float] = {}

    def engine_for(dataset: str):
        engine = engines.get(dataset)
        if engine is None:
            space = PAPER_DATASETS[dataset](profile.n, seed=profile.seed)
            engine = engines[dataset] = open_engine(space, seed=profile.seed)
            radius[dataset] = engine.space.approximate_radius(
                rng=random.Random(profile.seed)
            )
        return engine

    def make_case(
        dataset: str, algorithm: str, parameter: str, value: float,
        m: int, k: int, c: float,
    ) -> BenchCase:
        def run() -> CaseSample:
            engine = engine_for(dataset)
            seed_parts = ("core", profile.seed, dataset, m, k, round(c, 4))
            total = QueryStats()
            wall = 0.0
            dijkstra_runs = 0
            for rep in range(profile.repeats):
                # the first set keeps the seed of a single-set cell, so
                # a one-set profile (smoke) draws exactly that set.
                parts = seed_parts + (rep,) if rep else seed_parts
                rng = random.Random(stable_seed(*parts))
                query_ids = select_query_objects(
                    engine.space,
                    m=m,
                    coverage=c,
                    rng=rng,
                    dataset_radius=radius[dataset],
                )
                # cold, order-independent buffer state: page faults
                # then depend only on (data set, query, algorithm),
                # never on which cell ran before this one.
                engine.buffers.clear()
                engine.reset_cost_counters()
                runs_before = _dijkstra_runs(engine)
                started = clock()
                if os.environ.get("REPRO_BENCH_EXPLAIN"):
                    # CI's explain-enabled gate cell: the deterministic
                    # counters below must match the committed baselines
                    # bit-for-bit, which is exactly the
                    # explain-neutrality guarantee under test.
                    _results, stats, _plan = engine.explain(
                        query_ids, k, algorithm=algorithm
                    )
                else:
                    _results, stats = engine.top_k_dominating(
                        query_ids, k, algorithm=algorithm
                    )
                wall += clock() - started
                dijkstra_runs += _dijkstra_runs(engine) - runs_before
                total.merge(stats)
            # one sample is the average over the cell's query sets, as
            # the paper reports "averages from 20 different executions".
            stats = total.scaled(profile.repeats)
            return CaseSample(
                wall_seconds=wall / profile.repeats,
                counters={
                    "distance_computations": stats.distance_computations,
                    "page_faults": stats.io.page_faults,
                    "buffer_hits": stats.io.buffer_hits,
                    "exact_score_computations": (
                        stats.exact_score_computations
                    ),
                    "dijkstra_runs": round(dijkstra_runs / profile.repeats),
                },
                metrics={
                    "cpu_seconds": stats.cpu_seconds,
                    "io_seconds": stats.io_seconds,
                    "results": stats.results_reported,
                },
            )

        return BenchCase(
            id=f"{dataset}/{algorithm}/{parameter}={value:g}",
            run=run,
            meta={
                "dataset": dataset,
                "algorithm": algorithm,
                "parameter": parameter,
                "value": value,
                "m": m,
                "k": k,
                "c": c,
                "n": profile.n,
                "query_sets": profile.repeats,
            },
        )

    cases: List[BenchCase] = []
    grids: List[Tuple[str, Tuple[float, ...], Callable[[float], dict]]] = [
        ("m", profile.m_values,
         lambda v: dict(m=int(v), k=DEFAULT_K, c=DEFAULT_C)),
        ("k", profile.k_values,
         lambda v: dict(m=DEFAULT_M, k=int(v), c=DEFAULT_C)),
        ("c", profile.c_values,
         lambda v: dict(m=DEFAULT_M, k=DEFAULT_K, c=float(v))),
    ]
    for dataset in profile.datasets:
        for parameter, values, params_for in grids:
            for value in values:
                params = params_for(value)
                if params["m"] > profile.n:
                    continue
                for algorithm in profile.algorithms:
                    cases.append(
                        make_case(
                            dataset, algorithm, parameter, value, **params
                        )
                    )
    return cases


# ----------------------------------------------------------------------
# streaming: incremental repair vs recompute-per-update
# ----------------------------------------------------------------------
#: (window sizes, updates-per-measurement rates) per profile name.
_STREAMING_SCALE: Dict[str, Dict[str, Tuple[int, ...]]] = {
    "smoke": dict(windows=(300, 600), rates=(4, 8)),
    "quick": dict(windows=(1000, 2000), rates=(8, 16)),
    "full": dict(windows=(4000, 10000), rates=(8, 16)),
}


def _streaming_case(
    mode: str,
    window: int,
    rate: int,
    profile: BenchProfile,
    clock: Callable[[], float],
) -> BenchCase:
    from repro.bench.config import DEFAULT_K, DEFAULT_M

    def run() -> CaseSample:
        import numpy as np

        from repro.core.engine import TopKDominatingEngine
        from repro.datasets.synthetic import uniform
        from repro.streaming import ContinuousTopK

        space = uniform(n=window, seed=profile.seed, dims=4)
        engine = TopKDominatingEngine(
            space, rng=random.Random(profile.seed)
        )
        rng = random.Random(
            stable_seed("streaming", profile.seed, window, rate)
        )
        query_ids = sorted(rng.sample(range(window), DEFAULT_M))
        arrivals = [
            np.array([rng.random() for _ in range(4)])
            for _ in range(rate)
        ]
        # oldest-first expiry order, sparing the query objects (they
        # are the standing query's pinned reference points).
        victims = [
            obj for obj in range(window) if obj not in set(query_ids)
        ][:rate]
        maintainer = None
        if mode == "incremental":
            maintainer = ContinuousTopK(engine, query_ids, DEFAULT_K)
            maintainer.attach()
        engine.buffers.clear()
        metric = engine.counting_metric
        distances_before = metric.count
        io_before = engine.buffers.combined_io()
        started = clock()
        for arrival, victim in zip(arrivals, victims):
            engine.insert_object(arrival)
            engine.delete_object(victim)
            if mode == "recompute":
                engine.top_k_dominating(query_ids, DEFAULT_K)
        wall = clock() - started
        distances = metric.count - distances_before
        io = engine.buffers.combined_io().delta_since(io_before)
        metrics: Dict[str, Any] = {
            "per_update_wall_ms": wall / rate * 1e3,
            "per_update_distances": distances / rate,
        }
        if maintainer is not None:
            metrics["repairs"] = maintainer.counters["repairs"]
            metrics["recomputes"] = maintainer.counters["recomputes"]
            maintainer.close()
        return CaseSample(
            wall_seconds=wall,
            counters={
                "distance_computations": distances,
                "page_faults": io.page_faults,
                "buffer_hits": io.buffer_hits,
            },
            metrics=metrics,
        )

    return BenchCase(
        id=f"window/{mode}/w={window}/rate={rate}",
        run=run,
        meta={
            "mode": mode,
            "window": window,
            "updates": rate,
            "m": DEFAULT_M,
            "k": DEFAULT_K,
        },
    )


def _streaming_cases(
    profile: BenchProfile, clock: Callable[[], float]
) -> List[BenchCase]:
    scale = _STREAMING_SCALE.get(profile.name, _STREAMING_SCALE["smoke"])
    return [
        _streaming_case(mode, window, rate, profile, clock)
        for window in scale["windows"]
        for rate in scale["rates"]
        for mode in ("incremental", "recompute")
    ]


# ----------------------------------------------------------------------
# backends: the paper's grid per registered index backend
# ----------------------------------------------------------------------
def _backends_cases(
    profile: BenchProfile, clock: Callable[[], float]
) -> List[BenchCase]:
    """One figure-grid slice per registered index backend.

    Two case families:

    * ``<backend>/<dataset>/<algorithm>/m=<v>`` — the paper's m-sweep
      at the default ``k``/``c`` per backend, capability-filtered
      (skyline-driven algorithms skip backends without the ``skyline``
      capability).  Fully seeded with cold buffers, so the counters
      are gate-exact like the ``core`` suite's.
    * ``<backend>/<dataset>/skyline/m=<v>`` — one B²MS² metric-skyline
      call per skyline-capable backend, recording distance
      computations and the backend's hyper-ring prune count (read from
      the index profile of an explained run, a strict observer) — the cell
      family where the PM-tree's rings must beat the plain M-tree.
    """
    from repro.api import open_engine
    from repro.bench.config import DEFAULT_C, DEFAULT_K
    from repro.datasets import PAPER_DATASETS, select_query_objects
    from repro.index import available_backends, get_backend

    engines: Dict[Tuple[str, str], Any] = {}
    radius: Dict[str, float] = {}

    def engine_for(backend: str, dataset: str):
        key = (backend, dataset)
        engine = engines.get(key)
        if engine is None:
            space = PAPER_DATASETS[dataset](
                profile.n, seed=profile.seed
            )
            engine = open_engine(
                space, seed=profile.seed, index=backend
            )
            engines[key] = engine
            if dataset not in radius:
                radius[dataset] = engine.space.approximate_radius(
                    rng=random.Random(profile.seed)
                )
        return engine

    def query_ids_for(engine, dataset: str, m: int):
        from repro.datasets import select_query_objects

        rng = random.Random(
            stable_seed("backends", profile.seed, dataset, m)
        )
        return select_query_objects(
            engine.space,
            m=m,
            coverage=DEFAULT_C,
            rng=rng,
            dataset_radius=radius[dataset],
        )

    def make_topk_case(
        backend: str, dataset: str, algorithm: str, m: int
    ) -> BenchCase:
        def run() -> CaseSample:
            engine = engine_for(backend, dataset)
            query_ids = query_ids_for(engine, dataset, m)
            engine.buffers.clear()
            engine.reset_cost_counters()
            runs_before = _dijkstra_runs(engine)
            started = clock()
            results, stats = engine.top_k_dominating(
                query_ids, DEFAULT_K, algorithm=algorithm
            )
            wall = clock() - started
            dijkstra_runs = _dijkstra_runs(engine) - runs_before
            return CaseSample(
                wall_seconds=wall,
                counters={
                    "distance_computations": stats.distance_computations,
                    "page_faults": stats.io.page_faults,
                    "buffer_hits": stats.io.buffer_hits,
                    "exact_score_computations": (
                        stats.exact_score_computations
                    ),
                    "dijkstra_runs": dijkstra_runs,
                },
                metrics={
                    "cpu_seconds": stats.cpu_seconds,
                    "results": len(results),
                },
            )

        return BenchCase(
            id=f"{backend}/{dataset}/{algorithm}/m={m}",
            run=run,
            meta={
                "backend": backend,
                "dataset": dataset,
                "algorithm": algorithm,
                "m": m,
                "k": DEFAULT_K,
                "c": DEFAULT_C,
                "n": profile.n,
            },
        )

    def make_skyline_case(
        backend: str, dataset: str, m: int
    ) -> BenchCase:
        def run() -> CaseSample:
            from repro.obs import explain as explain_mod
            from repro.skyline.b2ms2 import metric_skyline

            engine = engine_for(backend, dataset)
            query_ids = query_ids_for(engine, dataset, m)
            engine.buffers.clear()
            engine.reset_cost_counters()
            metric = engine.counting_metric
            distances_before = metric.count
            runs_before = _dijkstra_runs(engine)
            io_before = engine.buffers.combined_io()

            def body():
                header = explain_mod.plan_header(
                    "b2ms2.skyline", query_ids, 0, len(engine.tree)
                )
                return metric_skyline(engine.tree, query_ids), header

            started = clock()
            skyline, plan = explain_mod.explained(
                "bench.skyline", "bench", None, body, backend=backend
            )
            wall = clock() - started
            distances = metric.count - distances_before
            io = engine.buffers.combined_io().delta_since(io_before)
            ring_prunes = sum(
                row.get("hyper_ring_prunes", 0)
                for row in plan.index_profile["levels"]
            )
            return CaseSample(
                wall_seconds=wall,
                counters={
                    "distance_computations": distances,
                    "page_faults": io.page_faults,
                    "buffer_hits": io.buffer_hits,
                    "hyper_ring_prunes": ring_prunes,
                    "dijkstra_runs": _dijkstra_runs(engine) - runs_before,
                },
                metrics={"skyline_size": len(skyline)},
            )

        return BenchCase(
            id=f"{backend}/{dataset}/skyline/m={m}",
            run=run,
            meta={
                "backend": backend,
                "dataset": dataset,
                "algorithm": "b2ms2",
                "m": m,
                "c": DEFAULT_C,
                "n": profile.n,
            },
        )

    cases: List[BenchCase] = []
    for backend in available_backends():
        capabilities = get_backend(backend).capabilities
        for dataset in profile.datasets:
            for m in profile.m_values:
                if m > profile.n:
                    continue
                for algorithm in profile.algorithms:
                    if (
                        algorithm in ("sba", "aba")
                        and "skyline" not in capabilities
                    ):
                        continue
                    cases.append(
                        make_topk_case(backend, dataset, algorithm, m)
                    )
                if "skyline" in capabilities:
                    cases.append(
                        make_skyline_case(backend, dataset, m)
                    )
    return cases


#: suite name -> builder(profile, clock) -> cases
SUITES: Dict[
    str, Callable[[BenchProfile, Callable[[], float]], List[BenchCase]]
] = {
    "core": _core_cases,
    "streaming": _streaming_cases,
    "backends": _backends_cases,
}


def build_suite(
    suite: str,
    profile: BenchProfile | str = "smoke",
    clock: Callable[[], float] = time.perf_counter,
) -> List[BenchCase]:
    """Instantiate a named suite's cases under a scale profile."""
    try:
        builder = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        ) from None
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; choose from "
                f"{sorted(PROFILES)}"
            ) from None
    return builder(profile, clock)
