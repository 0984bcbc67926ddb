"""Seeded inputs and the answer oracle, independent of the program.

Everything here is the benchmark's own: the data sets are generated
with NumPy and the standard library, distances are
computed by the benchmark's own kernels (NumPy L1, a heap Dijkstra over
its own adjacency lists), and answers are scored by brute force over
those distances.  The program only ever receives the generated
payloads (and, for CAL, the edge list) through ``repro.api``; nothing
here reads the engine's space, metric or caches, so checking answers
moves none of the program's counters.

A workload is one pass of operations that a run repeats: query sets,
each with its algorithm tag, repeat requests, and writes that insert
payloads and delete them again, all drawn with the data.  The seed
chooses where in the read cycle a run starts.  Two seeds therefore
send the same work with a different start, so a run's latency
distribution does not depend on which few query sets a seed happened
to draw (query sets drawn per seed gave quartile spreads of 0.15-0.3
over ten seeds on the same host).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: the paper's defaults (Section 5): |Q| = m, coverage c, result size k.
M, COVERAGE, K = 5, 0.20, 10
#: the data sets and each workload's pass of operations are fixed,
#: like a database under test with its query log.
DATA_SEED = 20140324


@dataclass(frozen=True)
class Op:
    """One client operation: a query, an insert or a delete.

    ``ids`` is the sorted query set, ``algorithm`` its tag; ``payload``
    is what an insert sends; ``target`` is the index (in insertion
    order) of the inserted object a delete removes.
    """

    kind: str
    ids: Tuple[int, ...] = ()
    algorithm: str = ""
    payload: object = None
    target: int = -1


# ----------------------------------------------------------------------
# data sets
# ----------------------------------------------------------------------
class UniData:
    """UNI: uniform independent points in [0, 1)^4 under L1."""

    name = "UNI"

    def __init__(self, n: int) -> None:
        self.points = np.random.default_rng([DATA_SEED, 1]).random((n, 4))

    def __len__(self) -> int:
        return len(self.points)

    def fresh_payloads(self, count: int) -> List[np.ndarray]:
        """Points for inserts, fixed with the data."""
        return list(np.random.default_rng([DATA_SEED, 2]).random((count, 4)))

    def covering_radius(self) -> float:
        """Max distance from the best of 256 sampled centres."""
        sample = random.Random(DATA_SEED).sample(range(len(self)), min(256, len(self)))
        return min(
            float(np.abs(self.points - self.points[c]).sum(axis=1).max())
            for c in sample
        )

    def row(self, i: int) -> np.ndarray:
        return np.abs(self.points - self.points[i]).sum(axis=1)


class CalData:
    """CAL: a road-like planar graph under shortest-path distance.

    A jittered grid with gaps, a few fast highway rows and bridging
    roads that make it connected (average degree about 2.5); objects
    are the graph's nodes.  Node ``i`` is object ``i``.
    """

    name = "CAL"

    def __init__(self, n: int) -> None:
        rng = np.random.default_rng([DATA_SEED, 3])
        side = max(2, math.isqrt(n))
        coords = np.empty((n, 2))
        for node in range(n):
            if node < side * side:
                gx, gy = node % side, node // side
            else:
                gx, gy = rng.integers(0, side, size=2)
            coords[node] = (gx + rng.uniform(-0.3, 0.3), gy + rng.uniform(-0.3, 0.3))
        edges: Dict[Tuple[int, int], float] = {}

        def road(u: int, v: int, factor: float = 1.0) -> None:
            if u == v:
                return
            length = float(np.hypot(*(coords[u] - coords[v])))
            key = (min(u, v), max(u, v))
            w = length * float(rng.lognormal(0.0, 0.25)) * factor
            edges[key] = min(w, edges.get(key, math.inf))

        for node in range(min(n, side * side)):
            gx, gy = node % side, node // side
            if gx + 1 < side and node + 1 < n and rng.random() < 0.62:
                road(node, node + 1)
            if gy + 1 < side and node + side < n and rng.random() < 0.62:
                road(node, node + side)
        for node in range(side * side, n):
            road(node, int(rng.integers(0, side * side)))
        for _ in range(max(1, side // 25)):
            start = int(rng.integers(0, side)) * side
            for gx in range(side - 1):
                if start + gx + 1 < n:
                    road(start + gx, start + gx + 1, factor=0.45)
        # bridge every component into the first one.
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        roots = sorted({find(x) for x in range(n)})
        main = [x for x in range(n) if find(x) == roots[0]]
        for r in roots[1:]:
            comp = [x for x in range(n) if find(x) == r]
            u = comp[int(rng.integers(0, len(comp)))]
            v = main[int(rng.integers(0, len(main)))]
            edges[(min(u, v), max(u, v))] = float(np.hypot(*(coords[u] - coords[v]))) + 0.1
            main.extend(comp)
        self.n = n
        self.edges: List[Tuple[int, int, float]] = sorted(
            (u, v, w) for (u, v), w in edges.items()
        )
        self._adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in self.edges:
            self._adj[u].append((v, w))
            self._adj[v].append((u, w))
        self._apsp: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.n

    def _dijkstra(self, source: int) -> np.ndarray:
        dist = np.full(self.n, math.inf)
        dist[source] = 0.0
        heap = [(0.0, source)]
        done = bytearray(self.n)
        adj = self._adj
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = 1
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    @property
    def apsp(self) -> np.ndarray:
        """All-pairs shortest paths (n x n, float64), built on first use."""
        if self._apsp is None:
            self._apsp = np.stack([self._dijkstra(s) for s in range(self.n)])
        return self._apsp

    def fresh_payloads(self, count: int) -> List[int]:
        """Nodes for inserts (a second object there), fixed with the data."""
        return random.Random(DATA_SEED).sample(range(self.n), count)

    def covering_radius(self) -> float:
        """The graph radius: min over nodes of the farthest node."""
        return float(self.apsp.max(axis=1).min())

    def row(self, i: int) -> np.ndarray:
        return self.apsp[i]


# ----------------------------------------------------------------------
# query sets
# ----------------------------------------------------------------------
def query_set(data, radius: float, rng: random.Random) -> Tuple[int, ...]:
    """``m`` objects whose spread tracks coverage ``c`` of the radius.

    An anchor plus ``m - 1`` objects drawn from the outer half of the
    ball of radius ``c * R`` around it (the paper's coverage model).
    """
    n = len(data)
    for _attempt in range(64):
        anchor = rng.randrange(n)
        dist = data.row(anchor)
        ball = [
            (float(dist[o]), o)
            for o in np.flatnonzero((dist <= COVERAGE * radius) & (dist > 0))
        ]
        if len(ball) >= M - 1:
            ball.sort(reverse=True)
            outer = [o for _d, o in ball[: max(M - 1, len(ball) // 2)]]
            return tuple(sorted([anchor] + [int(o) for o in rng.sample(outer, M - 1)]))
    raise RuntimeError("no anchor with a populated coverage ball")


def standing_sets(data, radius: float) -> List[Tuple[int, ...]]:
    """The 4 standing subscriptions' query sets, fixed with the data:
    their geometry sets the repair cost of every write."""
    fixed = random.Random(DATA_SEED)
    standing: List[Tuple[int, ...]] = []
    while len(standing) < 4:
        ids = query_set(data, radius, fixed)
        if ids not in standing:
            standing.append(ids)
    return standing


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """One workload's inputs: the data copies and its passes of operations.

    A run repeats the pass of ``reads`` until its time is up and stops
    only at a pass boundary.  They go to the engine under read load,
    which stays read-only and whose result cache is flushed between
    passes.  After each read, ``writes_per_read`` writes go to a second
    engine, the write probe, built from ``probe_data``, with the
    ``standing`` subscriptions and, when ``durable``, a WAL.  Pass ``i``
    sends the writes ``writes[i % len(writes)]``.
    """

    name: str
    data: object
    reads: List[Op]
    probe_data: object
    writes: List[List[Op]]
    writes_per_read: int
    standing: List[Tuple[int, ...]] = field(default_factory=list)
    durable: bool = False
    sizes: Dict[str, object] = field(default_factory=dict)


#: workload name -> (data set, n, the algorithm tag of each distinct
#: query set of a pass, repeat requests per pass).
PASSES = {
    "uni-read": ("UNI", 3000, ["pba2"] * 14 + ["pba1", "sba", "aba"] * 2, 8),
    "cal-read": ("CAL", 1000, ["pba2"] * 9 + ["aba"] * 3, 0),
}
#: writes after each read (an even number: a uni-read pass inserts half
#: and deletes them); uni-read's write probe holds the first
#: ``PROBE_N`` UNI points (a write there costs a third of one at
#: n = 3000, so a run gets a few hundred of them).
WRITES_PER_READ, PROBE_N = 2, 1000


def make_workload(name: str, seed: int) -> Workload:
    """Build ``name``'s data copies and its pass of operations.

    The pass is fixed with the data; ``seed`` only chooses where in the
    read cycle the run starts.
    """
    kind, n, tags, repeats = PASSES[name]
    data = UniData(n) if kind == "UNI" else CalData(n)
    radius = data.covering_radius()
    fixed = random.Random(f"{name}:{DATA_SEED}")
    fresh: List[Op] = []
    while len(fresh) < len(tags):
        ids = query_set(data, radius, fixed)
        if all(ids != op.ids for op in fresh):
            fresh.append(Op("query", ids, tags[len(fresh)]))
    fixed.shuffle(fresh)
    # a repeat names an earlier set of the pass, Zipf-skewed (1/rank)
    # over the sets seen so far.
    slots = ["repeat"] * repeats + ["fresh"] * (len(fresh) - 1)
    fixed.shuffle(slots)
    reads: List[Op] = []
    seen: List[Op] = []
    cum: List[float] = []  # cumulative 1/rank weights over ``seen``
    pool = iter(fresh)
    for slot in ["fresh"] + slots:
        if slot == "repeat":
            reads.append(fixed.choices(seen, cum_weights=cum)[0])
            continue
        seen.append(next(pool))
        cum.append(cum[-1] + 1.0 / len(seen) if cum else 1.0)
        reads.append(seen[-1])
    # a rotated pass reads the same sets, misses each distinct one once
    # and hits as often, so every pass has the same latency multiset.
    start = random.Random(f"{name}:{seed}").randrange(len(reads))
    reads = reads[start:] + reads[:start]
    sizes = {"dataset": kind, "n": n, "m": M, "k": K, "coverage": COVERAGE,
             "reads_per_pass": len(reads), "fresh_per_pass": len(fresh), "start": start}
    per_pass = len(reads) * WRITES_PER_READ
    sizes.update(writes_per_read=WRITES_PER_READ)
    if kind == "CAL":
        # inserts of a second object at nodes taken in turn from a fixed
        # order, so no pass repeats a node before all have had one.  (A
        # pass of inserts and deletes put the median between the cheap
        # deletes and the dear inserts, where it flipped from run to run.)
        nodes = data.fresh_payloads(n)
        writes = [[Op("insert", payload=nodes[(i * per_pass + j) % n]) for j in range(per_pass)]
                  for i in range(math.ceil(n / per_pass))]
        return Workload(name, data, reads, data, writes, WRITES_PER_READ, sizes=sizes)
    # the churn path: a durable engine with 4 standing pba2
    # subscriptions; every pass inserts the same points and deletes them
    # again, so each pass starts from the same live set.
    probe_data = UniData(PROBE_N)
    standing = standing_sets(probe_data, probe_data.covering_radius())
    sizes.update(probe_n=PROBE_N, standing_queries=len(standing), durable=True)
    writes = [churn(probe_data.fresh_payloads(per_pass // 2), fixed)]
    return Workload(name, data, reads, probe_data, writes, WRITES_PER_READ,
                    standing=standing, durable=True, sizes=sizes)


def churn(payloads: Sequence[object], rng: random.Random) -> List[Op]:
    """Insert every payload and delete every insert again, in an order
    drawn from ``rng`` in which the live inserts random-walk up and back to none.
    A delete's ``target`` is the index of its victim among the pass's
    inserts."""
    ops: List[Op] = []
    todo = list(payloads)
    live: List[int] = []
    inserted = 0
    while todo or live:
        if todo and (not live or rng.random() < len(todo) / (len(todo) + len(live))):
            ops.append(Op("insert", payload=todo.pop()))
            live.append(inserted)
            inserted += 1
        else:
            ops.append(Op("delete", target=live.pop(rng.randrange(len(live)))))
    return ops


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def _scores(vectors: np.ndarray, rows: Sequence[int]) -> List[int]:
    """Exact domination scores of ``rows`` (Definition 3), row by row."""
    out = []
    for r in rows:
        v = vectors[r]
        dominated = (v <= vectors).all(axis=1) & (v < vectors).any(axis=1)
        out.append(int(dominated.sum()))
    return out


def check_answer(
    vectors: np.ndarray,
    ids: np.ndarray,
    k: int,
    served: Sequence[Tuple[int, int]],
) -> Optional[str]:
    """``None`` if ``served`` is a correct top-k, else what is wrong.

    ``vectors`` holds each live object's distances to the query set
    (one row per entry of ``ids``).  The top-k score multiset is found
    with the per-coordinate upper bound ``min_j #{p: v_j(p) >= v_j(o)}``,
    scoring candidates exactly in descending bound order until the
    k-th best exact score meets the next bound.
    """
    n = len(ids)
    row_of = {int(o): r for r, o in enumerate(ids)}
    if len(served) != min(k, n):
        return f"{len(served)} items for k={k}, n={n}"
    served_ids = [o for o, _s in served]
    if len(set(served_ids)) != len(served_ids):
        return f"duplicate ids in {served_ids}"
    missing = [o for o in served_ids if o not in row_of]
    if missing:
        return f"served objects {missing} are not live"
    exact = _scores(vectors, [row_of[o] for o in served_ids])
    for (o, s), e in zip(served, exact):
        if s != e:
            return f"object {o} served with score {s}, oracle says {e}"
    bound = np.full(n, n - 1)
    for j in range(vectors.shape[1]):
        col = np.sort(vectors[:, j])
        ge = n - np.searchsorted(col, vectors[:, j], side="left") - 1
        bound = np.minimum(bound, ge)
    order = np.argsort(-bound, kind="stable")
    best: List[int] = []
    for start in range(0, n, 64):
        chunk = order[start : start + 64]
        if len(best) >= k and best[k - 1] >= bound[chunk[0]]:
            break
        best = sorted(best + _scores(vectors, chunk), reverse=True)[: max(k, 1)]
    top = best[: len(served)]
    if sorted((s for _o, s in served), reverse=True) != top:
        return f"served scores {[s for _o, s in served]} are not the top scores {top}"
    return None
