"""The host-speed reference: benchmark-owned work timed around every
operation, so that latencies can be stated at a fixed host speed.

The shared host this benchmark runs on changes speed by up to 2x
between runs and by 1.6x within seconds, and a pure-Python program
slows with it in CPU time as much as in wall time.  The reference
round below mixes the kinds of work the program does (interpreted
loops, heap and dict operations, small NumPy reductions, a Dijkstra);
it never calls the program, so a change to the program cannot change
its cost, only the host can.  :class:`HostSpeed` turns a raw time into
the time it would have taken on a host where one reference round takes
``REF_NOMINAL_MS``.
"""

from __future__ import annotations

import heapq
import time
from typing import Sequence, Tuple

import numpy as np

#: the nominal cost of one reference round (about its cost on a quiet
#: stretch of a 2-vCPU Xeon host); scaled times are in milliseconds of
#: a host on which a round takes exactly this long.
REF_NOMINAL_MS = 1.3
_POINTS = np.random.default_rng(20140324).random((256, 4))


def _graph(n: int = 1000) -> list:
    """A fixed sparse random graph (adjacency lists of (node, weight))."""
    rng = np.random.default_rng(20140325)
    adj: list = [[] for _ in range(n)]
    for u in range(n):
        for v in rng.integers(0, n, size=2):
            w = float(rng.random()) + 0.1
            adj[u].append((int(v), w))
            adj[int(v)].append((u, w))
    return adj


_ADJ = _graph()


def _round() -> float:
    """One reference round: a heap-and-dict loop over small NumPy
    reductions, then a dict-based Dijkstra over a fixed graph (the
    program's two kinds of work: UNI's index search and CAL's metric)."""
    heap: list = []
    best: dict = {}
    acc = 0.0
    for i in range(16):
        row = np.abs(_POINTS - _POINTS[i]).sum(axis=1)
        acc += float(row.min())
        for j in range(0, 256, 4):
            d = float(row[j]) + acc * 1e-9
            if len(heap) < 10:
                heapq.heappush(heap, (-d, j))
            elif -heap[0][0] > d:
                heapq.heapreplace(heap, (-d, j))
            best[j & 63] = max(best.get(j & 63, 0.0), d)
    dist = {0: 0.0}
    settled: dict = {}
    heap = [(0.0, 0)]
    while heap and len(settled) < 400:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        for v, w in _ADJ[u]:
            if v not in settled and d + w < dist.get(v, float("inf")):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return acc + sum(best.values()) + len(settled)


def reference_ms() -> float:
    """Milliseconds of one reference round: the cheaper of two, so a
    single interrupt does not count as a slow host."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        _round()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


class HostSpeed:
    """The host's speed over one run, from the reference rounds timed
    in it: ``samples`` are (perf_counter seconds, reference ms) pairs.

    An operation is scaled by the median reference time within
    ``WINDOW_S`` seconds of its midpoint.  One round is too noisy an
    estimate: scaling each operation by its own rounds before and after
    it spread the runs' 90th percentiles by up to 0.27 on a busy host,
    against 0.15 with this window.
    """

    #: half-width of the window of reference rounds around an operation.
    WINDOW_S = 5.0

    def __init__(self, samples: Sequence[Tuple[float, float]]) -> None:
        ordered = sorted(samples)
        self._t = np.array([t for t, _ms in ordered])
        self._ms = np.array([ms for _t, ms in ordered])

    def ref_ms(self, t: float) -> float:
        lo, hi = np.searchsorted(self._t, [t - self.WINDOW_S, t + self.WINDOW_S])
        return float(np.median(self._ms[lo:hi]))

    def scaled(self, raw: float, t: float) -> float:
        """``raw`` at the nominal host speed, for an operation around
        time ``t``."""
        return raw * REF_NOMINAL_MS / self.ref_ms(t)

    def median_ms(self) -> float:
        return float(np.median(self._ms))
