"""The experiment runner.

One :class:`BenchHarness` owns the engines (one per data set, built
once and shared by every sweep) and produces :class:`CellResult` rows —
per (data set, algorithm, parameter value) averages over ``repeats``
random query sets, exactly how the paper reports "averages from 20
different executions ... using randomly chosen query objects".
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.bench.config import (
    DEFAULT_C,
    DEFAULT_K,
    DEFAULT_M,
    BenchProfile,
    stable_seed,
)
from repro.api import TopKDominatingEngine, open_engine
from repro.datasets import PAPER_DATASETS, select_query_objects
from repro.storage.stats import QueryStats


@dataclass
class CellResult:
    """One averaged measurement cell."""

    dataset: str
    algorithm: str
    parameter: str  # "m", "k" or "c"
    value: float
    m: int
    k: int
    c: float
    stats: QueryStats

    def as_dict(self) -> dict:
        """JSON-serializable form (for EXPERIMENTS.md regeneration)."""
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "parameter": self.parameter,
            "value": self.value,
            "m": self.m,
            "k": self.k,
            "c": self.c,
            "cpu_seconds": self.stats.cpu_seconds,
            "io_seconds": self.stats.io_seconds,
            "page_faults": self.stats.io.page_faults,
            "distance_computations": self.stats.distance_computations,
            "exact_score_computations": self.stats.exact_score_computations,
        }


class BenchHarness:
    """Builds engines lazily and runs averaged parameter sweeps."""

    def __init__(
        self,
        profile: BenchProfile,
        verbose: bool = True,
        dataset_factories: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.profile = profile
        self.verbose = verbose
        self.factories = dataset_factories or PAPER_DATASETS
        self._engines: Dict[str, TopKDominatingEngine] = {}
        self._radius: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # engines
    # ------------------------------------------------------------------
    def engine(self, dataset: str) -> TopKDominatingEngine:
        """The (cached) engine for a data set."""
        engine = self._engines.get(dataset)
        if engine is None:
            self._log(f"building {dataset} (n={self.profile.n}) ...")
            start = time.perf_counter()
            space = self.factories[dataset](
                self.profile.n, seed=self.profile.seed
            )
            engine = open_engine(space, seed=self.profile.seed)
            self._engines[dataset] = engine
            self._radius[dataset] = engine.space.approximate_radius(
                rng=random.Random(self.profile.seed)
            )
            self._log(
                f"  built in {time.perf_counter() - start:.1f}s "
                f"({engine.tree.num_pages} M-tree pages)"
            )
        return engine

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def measure(
        self,
        dataset: str,
        algorithm: str,
        m: int,
        k: int,
        c: float,
        parameter: str,
        value: float,
    ) -> CellResult:
        """Average ``repeats`` runs on fresh random query sets."""
        engine = self.engine(dataset)
        total = QueryStats()
        repeats = self.profile.repeats
        for rep in range(repeats):
            rng = random.Random(
                stable_seed(self.profile.seed, dataset, m, k, round(c, 4), rep)
            )
            query_ids = select_query_objects(
                engine.space,
                m=m,
                coverage=c,
                rng=rng,
                dataset_radius=self._radius[dataset],
            )
            _results, stats = engine.top_k_dominating(
                query_ids, k, algorithm=algorithm
            )
            total.merge(stats)
        return CellResult(
            dataset=dataset,
            algorithm=algorithm,
            parameter=parameter,
            value=value,
            m=m,
            k=k,
            c=c,
            stats=total.scaled(repeats),
        )

    # ------------------------------------------------------------------
    # sweeps (each returns a flat list of cells)
    # ------------------------------------------------------------------
    def sweep_m(
        self,
        datasets: Optional[Sequence[str]] = None,
        algorithms: Optional[Sequence[str]] = None,
    ) -> List[CellResult]:
        """Vary ``m``, defaults elsewhere (Figures 4 and 7-left)."""
        return self._sweep(
            "m",
            self.profile.m_values,
            lambda v: dict(m=int(v), k=DEFAULT_K, c=DEFAULT_C),
            datasets,
            algorithms,
        )

    def sweep_k(
        self,
        datasets: Optional[Sequence[str]] = None,
        algorithms: Optional[Sequence[str]] = None,
    ) -> List[CellResult]:
        """Vary ``k`` (Figures 5 and 7-right)."""
        return self._sweep(
            "k",
            self.profile.k_values,
            lambda v: dict(m=DEFAULT_M, k=int(v), c=DEFAULT_C),
            datasets,
            algorithms,
        )

    def sweep_c(
        self,
        datasets: Optional[Sequence[str]] = None,
        algorithms: Optional[Sequence[str]] = None,
    ) -> List[CellResult]:
        """Vary the coverage ``c`` (Figures 6 and 8)."""
        return self._sweep(
            "c",
            self.profile.c_values,
            lambda v: dict(m=DEFAULT_M, k=DEFAULT_K, c=float(v)),
            datasets,
            algorithms,
        )

    def _sweep(
        self,
        parameter: str,
        values: Iterable[float],
        params_for: Callable[[float], dict],
        datasets: Optional[Sequence[str]],
        algorithms: Optional[Sequence[str]],
    ) -> List[CellResult]:
        datasets = list(datasets or self.profile.datasets)
        algorithms = list(algorithms or self.profile.algorithms)
        cells: List[CellResult] = []
        for dataset in datasets:
            for value in values:
                params = params_for(value)
                if params["m"] > self.profile.n:
                    continue
                for algorithm in algorithms:
                    start = time.perf_counter()
                    cell = self.measure(
                        dataset,
                        algorithm,
                        parameter=parameter,
                        value=value,
                        **params,
                    )
                    cells.append(cell)
                    self._log(
                        f"  {dataset} {algorithm:5s} {parameter}={value:<5g}"
                        f" cpu={cell.stats.cpu_seconds:8.3f}s"
                        f" io={cell.stats.io_seconds:7.2f}s"
                        f" dists={cell.stats.distance_computations:9d}"
                        f" [{time.perf_counter() - start:5.1f}s wall]"
                    )
        return cells

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message, file=sys.stderr, flush=True)
