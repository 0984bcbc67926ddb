"""Dominance over dynamic distance vectors.

Definitions 3 and 4 of the paper: with query set ``Q = {q1..qm}``, the
*distance vector* of object ``p`` is ``(d(p,q1), ..., d(p,qm))``;
``p`` dominates ``r`` iff ``p``'s vector is coordinate-wise <= ``r``'s
with at least one strict coordinate; two objects are *equivalent* when
their vectors are identical.  ``dom(p)`` counts the objects ``p``
dominates.

The :class:`DistanceVectorSource` caches distance vectors per object so
each algorithm pays for a vector at most once per query execution —
mirroring how the C++ implementations memoize query-object distances in
the ``AuxB+``-tree.  :class:`DominanceMatrix` scores a whole candidate
set against the universe in one pass of :func:`dominance_rows`, the
kernel the standing-query maintainer's full rescore also runs on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.metric.base import MetricSpace


def dominates_vectors(
    a: Sequence[float],
    b: Sequence[float],
) -> bool:
    """True iff distance vector ``a`` dominates ``b`` (Definition 3)."""
    strict = False
    for da, db in zip(a, b):
        if da > db:
            return False
        if da < db:
            strict = True
    return strict


def equivalent_vectors(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff the two vectors are identical (Definition 4)."""
    return all(da == db for da, db in zip(a, b))


class DistanceVectorSource:
    """Caches each object's distance vector with respect to ``Q``.

    Every coordinate is evaluated as ``d(q_j, o)``: the query object is
    the source.  On the shortest-path metric a distance is a Dijkstra
    run from its first argument unless a cached row answers it, so a
    whole query set costs at most ``m`` runs, whose rows then stay
    cached for the rest of the query.  For the Lp family the values
    are bit-identical to ``d(o, q_j)``: ``|a - b|`` is exact under IEEE
    negation.

    Parameters
    ----------
    space:
        The metric space (its metric is typically a
        :class:`~repro.metric.counting.CountingMetric`, so the first
        computation of every coordinate is counted, and repeats are
        free).
    query_ids:
        The ids of the query objects ``q1..qm``.
    """

    def __init__(self, space: MetricSpace, query_ids: Sequence[int]) -> None:
        self.space = space
        self.query_ids = list(query_ids)
        self._cache: Dict[int, Tuple[float, ...]] = {}

    @property
    def m(self) -> int:
        return len(self.query_ids)

    def vector(self, object_id: int) -> Tuple[float, ...]:
        """The (cached) distance vector of one object.

        A cache miss evaluates the ``m`` coordinates per pair: a batch
        of one object is only ``m`` wide (2-8 in every paper workload),
        too narrow to amortise the batched kernel's dispatch cost.
        Callers holding a whole node or candidate set use
        :meth:`vectors` instead.
        """
        vec = self._cache.get(object_id)
        if vec is None:
            vec = tuple(
                self.space.distance(q, object_id) for q in self.query_ids
            )
            self._cache[object_id] = vec
        return vec

    def vectors(self, object_ids: Sequence[int]) -> List[Tuple[float, ...]]:
        """``[self.vector(i) for i in object_ids]``, set-at-a-time.

        The missing vectors are computed along the object axis: one
        ``space.pairwise(q_j, missing)`` call per query object, each as
        wide as the node or candidate set.  Distances and
        :class:`~repro.metric.counting.CountingMetric` counts are
        bit-identical to the per-object path; only the order of the
        evaluations (query-major instead of object-major) differs.
        """
        cache = self._cache
        missing = [i for i in dict.fromkeys(object_ids) if i not in cache]
        if missing:
            columns = [
                self.space.pairwise(q, missing).tolist()
                for q in self.query_ids
            ]
            rows = zip(*columns) if columns else [()] * len(missing)
            for object_id, vec in zip(missing, rows):
                cache[object_id] = vec
        return [cache[i] for i in object_ids]

    def put(self, object_id: int, vector: Tuple[float, ...]) -> None:
        """Install a vector computed elsewhere (e.g. by a NN cursor)."""
        self._cache[object_id] = vector

    def known(self, object_id: int) -> bool:
        """True if the vector is already cached (no computation needed)."""
        return object_id in self._cache

    def dominates(self, a: int, b: int) -> bool:
        """True iff object ``a`` dominates object ``b``."""
        if a == b:
            return False
        return dominates_vectors(self.vector(a), self.vector(b))

    def equivalent(self, a: int, b: int) -> bool:
        """True iff objects ``a`` and ``b`` are equivalent w.r.t. Q."""
        if a == b:
            return True
        return equivalent_vectors(self.vector(a), self.vector(b))

    def aggregate_distance(self, object_id: int) -> float:
        """Sum-aggregate distance ``adist(p, Q)`` (Definition 2)."""
        return sum(self.vector(object_id))

    def domination_score(
        self, object_id: int, universe: Iterable[int]
    ) -> int:
        """``dom(object_id)`` over the given universe of ids."""
        vec = self.vector(object_id)
        score = 0
        for other in universe:
            if other == object_id:
                continue
            if dominates_vectors(vec, self.vector(other)):
                score += 1
        return score


class DominatorSet:
    """A grow-only set of dominator vectors with a vectorized test.

    PBA's discard heuristics and the skyline cursor repeatedly ask
    "does *any* already-collected vector dominate this one?" against a
    set that only ever grows.  While the set is small the scan runs as
    a plain Python loop (numpy's fixed per-call overhead dwarfs a
    handful of tuple comparisons); past ``_VECTORIZE_FROM`` rows the
    vectors are packed into a contiguous row matrix and the scan
    becomes three numpy comparisons.  Both paths implement Definition 3
    per row with identical semantics for real (non-NaN) distance
    vectors — every vector that enters the set comes from an actual
    metric, so NaNs cannot occur in practice; under NaNs neither path
    reports dominance for the NaN coordinate's pair.

    Rows are stored in an amortised-doubling buffer so ``add`` is O(m).
    """

    #: below this many rows a scalar scan beats numpy's call overhead
    #: (the break-even sits around a few dozen rows for m <= 8).
    _VECTORIZE_FROM = 32

    def __init__(self, m: int) -> None:
        self.m = m
        self._vectors: List[Tuple[float, ...]] = []
        self._rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._vectors)

    def add(self, vector: Sequence[float]) -> None:
        """Insert one dominator vector."""
        count = len(self._vectors)
        self._vectors.append(tuple(vector))
        if self._rows is None:
            if count + 1 >= self._VECTORIZE_FROM:
                self._rows = np.empty(
                    (2 * (count + 1), self.m), dtype=float
                )
                self._rows[: count + 1] = self._vectors
            return
        if count == len(self._rows):
            grown = np.empty((2 * len(self._rows), self.m), dtype=float)
            grown[:count] = self._rows
            self._rows = grown
        self._rows[count] = vector

    def dominates(self, vector: Sequence[float]) -> bool:
        """True iff any stored vector dominates ``vector``.

        Equivalent to ``any(dominates_vectors(s, vector) for s in set)``
        (Definition 3 per row), evaluated as one vectorized pass once
        the set is large enough to pay for it.
        """
        count = len(self._vectors)
        if count == 0:
            return False
        if self._rows is None:
            return any(
                dominates_vectors(row, vector) for row in self._vectors
            )
        rows = self._rows[:count]
        vec = np.asarray(vector, dtype=float)
        le = (rows <= vec).all(axis=1)
        lt = (rows < vec).any(axis=1)
        return bool((le & lt).any())

    def vectors(self) -> List[Tuple[float, ...]]:
        """The stored vectors, in insertion order (for introspection)."""
        return list(self._vectors)


#: boolean cells per ``(rows, n)`` mask in :func:`dominance_rows`: 64 KiB
#: per mask at any universe size.  The chunk size does not change the
#: kernel's speed, but larger masks raised the benchmark's peak RSS:
#: cal-read read 64.6 MB with these, 69.6 MB with 256 KiB masks.
_MASK_CELLS = 1 << 16


def dominance_rows(
    rows: np.ndarray, matrix: np.ndarray
) -> Iterator[Tuple[int, np.ndarray]]:
    """Dominance of every row over every matrix row, chunk by chunk.

    Yields ``(start, dom)`` where ``dom[i, c]`` is True iff
    ``rows[start + i]`` dominates ``matrix[c]`` (Definition 3).  Both
    arguments are ``(count, m)`` float arrays.  Each chunk is evaluated
    one coordinate at a time on 2-D ``(chunk, n)`` masks instead of a
    ``(chunk, n, m)`` broadcast; the caller may modify ``dom`` in place.
    """
    n, m = matrix.shape
    step = max(1, _MASK_CELLS // max(n, 1))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        le = np.ones((len(chunk), n), dtype=bool)
        lt = np.zeros((len(chunk), n), dtype=bool)
        cmp = np.empty((len(chunk), n), dtype=bool)
        for j in range(m):
            mine, theirs = chunk[:, j, None], matrix[None, :, j]
            le &= np.less_equal(mine, theirs, out=cmp)
            lt |= np.less(mine, theirs, out=cmp)
        le &= lt
        yield start, le


class DominanceMatrix:
    """Vectorized domination-score evaluation over a fixed universe.

    SBA and ABA score candidates against the *whole* data set, round
    after round (Algorithm 1 lines 5-9, Algorithm 2 lines 10-17).  The
    semantics are plain pairwise comparisons; this helper evaluates
    them as numpy array operations over the universe's distance-vector
    matrix, a whole candidate set per call (:meth:`scores`), which
    keeps the pure-Python reproduction tractable at benchmark
    cardinalities without changing any count the paper reports
    (distance computations happen in the :class:`DistanceVectorSource`
    exactly as before).

    Rows for removed objects can be masked out; scores over the masked
    universe equal scores over the full one for the paper's algorithms
    (reported objects are never dominated, see DESIGN.md).
    """

    def __init__(
        self,
        source: DistanceVectorSource,
        universe: Sequence[int],
    ) -> None:
        self.source = source
        self.ids = list(universe)
        self._row_of = {obj: i for i, obj in enumerate(self.ids)}
        self._matrix = np.asarray(
            source.vectors(self.ids), dtype=float
        ).reshape(len(self.ids), source.m)
        self._active = np.ones(len(self.ids), dtype=bool)

    def deactivate(self, object_id: int) -> None:
        """Mask an object out of the universe (after it is reported)."""
        self._active[self._row_of[object_id]] = False

    def scores(self, object_ids: Sequence[int]) -> np.ndarray:
        """``dom(i)`` over the active universe for every id, in order.

        Ids outside the universe are scored against it too (their
        vectors come from the source).  An id never counts its own row:
        no vector dominates itself, since Definition 3 needs a strict
        coordinate.  Returns an int64 array as long as ``object_ids``.
        """
        ids = list(object_ids)
        rows = np.asarray(self.source.vectors(ids), dtype=float).reshape(
            len(ids), self.source.m
        )
        out = np.zeros(len(ids), dtype=np.int64)
        for start, dom in dominance_rows(rows, self._matrix):
            dom &= self._active
            out[start : start + len(dom)] = dom.sum(axis=1)
        return out

    def score(self, object_id: int) -> int:
        """``dom(object_id)`` over the active universe.

        One-id form of :meth:`scores`; the algorithms score whole
        candidate sets, and perfbench's layer tracer names this method.
        """
        return int(self.scores((object_id,))[0])


# ----------------------------------------------------------------------
# free-function conveniences over a space + query set
# ----------------------------------------------------------------------
def dominates(
    space: MetricSpace,
    query_ids: Sequence[int],
    a: int,
    b: int,
) -> bool:
    """One-shot dominance test ``a ≺ b`` (computes both vectors)."""
    return DistanceVectorSource(space, query_ids).dominates(a, b)


def equivalent(
    space: MetricSpace,
    query_ids: Sequence[int],
    a: int,
    b: int,
) -> bool:
    """One-shot equivalence test (computes both vectors)."""
    return DistanceVectorSource(space, query_ids).equivalent(a, b)


def domination_score(
    space: MetricSpace,
    query_ids: Sequence[int],
    object_id: int,
    universe: Iterable[int] | None = None,
) -> int:
    """One-shot ``dom(p)`` over ``universe`` (default: the whole space)."""
    source = DistanceVectorSource(space, query_ids)
    ids = universe if universe is not None else space.object_ids
    return source.domination_score(object_id, ids)
