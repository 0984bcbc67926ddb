"""Lp-norm metrics over numeric vector payloads.

The paper's UNI data set uses the Manhattan (L1) distance and FC / ZIL
use the Euclidean (L2) distance.  Payloads are numpy arrays (or
anything convertible); distances are computed with numpy for speed but
one call still counts as *one* distance computation — the unit the
paper's Figures 7-8 report.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_FLOAT64 = np.dtype(np.float64)


class LpMetric:
    """The general Minkowski ``L_p`` metric, ``p >= 1``.

    ``p = 1`` is Manhattan, ``p = 2`` Euclidean and ``p = inf``
    Chebyshev; dedicated subclasses exist for the common cases so
    benchmark reports carry friendly names.
    """

    def __init__(self, p: float = 2.0) -> None:
        if not (p >= 1.0):
            raise ValueError("Lp metrics require p >= 1")
        self.p = p
        if math.isinf(p):
            self.name = "chebyshev"
        elif p == 1.0:
            self.name = "manhattan"
        elif p == 2.0:
            self.name = "euclidean"
        else:
            self.name = f"l{p:g}"

    def __call__(self, a: Sequence[float], b: Sequence[float]) -> float:
        # float64 ndarrays (the index payloads) are used as they are;
        # anything else is converted once.
        if type(a) is not np.ndarray or a.dtype is not _FLOAT64:
            a = np.asarray(a, dtype=float)
        if type(b) is not np.ndarray or b.dtype is not _FLOAT64:
            b = np.asarray(b, dtype=float)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        if not a.shape:  # ufuncs return 0-d results as scalars: no out=
            a = a.reshape(1)
            b = b.reshape(1)
        diff = np.subtract(a, b)
        np.absolute(diff, out=diff)
        p = self.p
        if p == 1.0:
            return float(np.add.reduce(diff, None))
        if p == 2.0:
            np.square(diff, out=diff)
            return float(np.sqrt(np.add.reduce(diff, None)))
        if math.isinf(p):
            return float(np.maximum.reduce(diff, None, initial=0.0))
        np.power(diff, p, out=diff)
        return float(np.power(np.add.reduce(diff, None), 1.0 / p))

    def pairwise(
        self,
        query: Sequence[float],
        candidates: Sequence[Sequence[float]],
        reflect: bool = False,
    ) -> np.ndarray:
        """Distances from ``query`` to every candidate, one broadcast.

        Bit-identical to ``[self(query, c) for c in candidates]``: the
        only argument-order-sensitive step is ``|a - b|``, which IEEE
        negation makes exact, so ``reflect`` is accepted and ignored;
        the axis reductions below run over the same contiguous
        per-row elements, in the same order, as the 1-D reductions in
        ``__call__``.  Ragged or non-numeric batches fall back to the
        per-pair loop (preserving its error behaviour).
        """
        batch = _stack_batch(query, candidates)
        if batch is None:
            return np.asarray([self(query, c) for c in candidates], dtype=float)
        av, stacked = batch
        diff = np.abs(av - stacked)
        if math.isinf(self.p):
            if diff.shape[-1] == 0:
                return np.zeros(len(stacked), dtype=float)
            return np.ascontiguousarray(diff).max(axis=-1)
        if self.p == 1.0:
            return np.ascontiguousarray(diff).sum(axis=-1)
        if self.p == 2.0:
            return np.sqrt(np.ascontiguousarray(np.square(diff)).sum(axis=-1))
        powered = np.ascontiguousarray(np.power(diff, self.p))
        return np.power(powered.sum(axis=-1), 1.0 / self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LpMetric(p={self.p})"


def _stack_batch(query, candidates):
    """Stack a candidate batch into ``(query_row, (n, d) matrix)``.

    Returns ``None`` when the batch cannot be expressed as one dense
    float matrix matching the query's shape — the caller then takes the
    per-pair loop, which raises the same errors ``__call__`` would.
    """
    try:
        av = np.asarray(query, dtype=float)
        stacked = np.asarray(
            candidates if isinstance(candidates, np.ndarray) else list(candidates),
            dtype=float,
        )
    except (TypeError, ValueError):
        return None
    if av.ndim != 1 or stacked.ndim != 2 or stacked.shape[1:] != av.shape:
        return None
    return av, stacked


class EuclideanMetric(LpMetric):
    """The ``L2`` metric (FOREST COVER and ZILLOW in the paper)."""

    def __init__(self) -> None:
        super().__init__(p=2.0)


class ManhattanMetric(LpMetric):
    """The ``L1`` metric (the UNI synthetic data set in the paper)."""

    def __init__(self) -> None:
        super().__init__(p=1.0)


class ChebyshevMetric(LpMetric):
    """The ``L_inf`` metric."""

    def __init__(self) -> None:
        super().__init__(p=float("inf"))


class WeightedEuclideanMetric:
    """Euclidean distance with non-negative per-dimension weights.

    Weighted L2 remains a metric as long as all weights are
    non-negative (it is the L2 norm after a diagonal linear map).
    Useful for normalising heterogeneous attribute scales, e.g. the
    ZILLOW price column versus the bedroom count.
    """

    def __init__(self, weights: Sequence[float]) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        self.weights = w
        self.name = "weighted-euclidean"

    def __call__(self, a: Sequence[float], b: Sequence[float]) -> float:
        av = np.asarray(a, dtype=float)
        bv = np.asarray(b, dtype=float)
        if av.shape != self.weights.shape or bv.shape != self.weights.shape:
            raise ValueError("payload dimensionality must match weights")
        diff = av - bv
        return float(np.sqrt((self.weights * diff * diff).sum()))

    def pairwise(
        self,
        query: Sequence[float],
        candidates: Sequence[Sequence[float]],
        reflect: bool = False,
    ) -> np.ndarray:
        """Batched form of ``__call__``; see :meth:`LpMetric.pairwise`.

        Order-insensitive bit-exactly: the signed difference is only
        ever squared, and ``(-x) * (-x)`` equals ``x * x`` in IEEE
        arithmetic, so ``reflect`` is accepted and ignored.
        """
        batch = _stack_batch(query, candidates)
        if batch is None or batch[0].shape != self.weights.shape:
            return np.asarray([self(query, c) for c in candidates], dtype=float)
        av, stacked = batch
        diff = av - stacked
        weighted = np.ascontiguousarray(self.weights * diff * diff)
        return np.sqrt(weighted.sum(axis=-1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedEuclideanMetric(dims={self.weights.size})"
