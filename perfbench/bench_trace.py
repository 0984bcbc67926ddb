"""The traced run: spans around calls into each layer, from outside.

:class:`LayerTracer` patches the public entry points of each layer's
module (class methods, and module functions at the module that imports
them by name) with wrappers that record a span per call: its layer,
its name, its duration and the part of it its child spans cover.  A
layer's self time is its spans' durations minus their children's.
Spans live in memory, per client operation, and are folded into
metrics when the run ends.  The wrappers only observe: the run's
exact-counter fingerprint must equal the untraced run's.

At most one thread is busy at any time (one client, one service
worker, and the client waits for each operation), so one span stack
serves both the client thread and the worker thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: the layers of the ledger, in report order ("client" is the
#: benchmark's own loop and everything not inside a traced layer,
#: "tracer" the wrappers' own calibrated cost).
LAYERS = (
    "client", "service", "core", "dominance", "skyline", "anns", "mtree",
    "metric", "storage", "aux", "scoring", "streaming", "recovery", "tracer",
)

#: (module, owner or None for a module function, attributes, layer, span name)
TARGETS = [
    ("repro.service.server", "QueryService", ["query"], "service", "service.query"),
    ("repro.service.server", "QueryService", ["insert", "delete"], "service", "service.write"),
    ("repro.service.server", "QueryService", ["poll_sync"], "service", "service.poll"),
    ("repro.service.cache", "ResultCache", ["get", "put", "refresh", "flush"], "service", "service.cache"),
    ("repro.core.engine", "TopKDominatingEngine", ["top_k_dominating"], "core", "core.query"),
    ("repro.core.engine", "TopKDominatingEngine", ["insert_object", "delete_object"], "core", "core.write"),
    ("repro.core.dominance", "DistanceVectorSource",
     ["vector", "dominates", "equivalent", "aggregate_distance", "domination_score"],
     "dominance", "dominance.vectors"),
    ("repro.core.dominance", "DominatorSet", ["add", "dominates"], "dominance", "dominance.set"),
    ("repro.core.dominance", "DominanceMatrix", ["__init__", "score", "deactivate"], "dominance", "dominance.matrix"),
    ("repro.core.pruning", None, ["dominates_vectors"], "dominance", "dominance.vectors"),
    ("repro.core.sba", None, ["metric_skyline"], "skyline", "skyline.mss"),
    ("repro.anns.mbm", "AggregateNNCursor", ["__next__"], "anns", "anns.next"),
    ("repro.mtree.queries", "IncrementalNNCursor", ["__next__"], "mtree", "mtree.nn_step"),
    ("repro.core.aba", None, ["range_query"], "mtree", "mtree.range"),
    ("repro.mtree.tree", "MTree", ["insert"], "mtree", "mtree.insert"),
    ("repro.mtree.tree", "MTree", ["delete"], "mtree", "mtree.delete"),
    ("repro.mtree.tree", "MTree",
     ["query_distance", "query_distance_batch", "knn", "range_query", "query_filter",
      "skyline_filter", "incremental_cursor"],
     "mtree", "mtree.access"),
    ("repro.metric.counting", "CountingMetric", ["__call__", "pairwise"], "metric", "metric.distance"),
    ("repro.metric.graph", "ShortestPathMetric", ["__call__"], "metric", "metric.graph_call"),
    ("repro.metric.graph", None, ["dijkstra"], "metric", "metric.dijkstra"),
    ("repro.storage.buffer", "LRUBuffer", ["get", "put", "new_page", "free_page", "flush"],
     "storage", "storage.buffer"),
    ("repro.storage.pages", "PageManager", ["read_page", "write_page", "allocate_page", "free"],
     "storage", "storage.disk"),
    ("repro.core.aux_index", "AuxBPlusTree",
     ["get", "record", "update", "remove", "note_retrieval", "records", "snapshot_records", "drop"],
     "aux", "aux.tree"),
    ("repro.core.aux_index", "RetrievalLog", ["append", "entry", "scan_backward", "drop"], "aux", "aux.log"),
    ("repro.btree.bplustree", "BPlusTree", ["get", "insert", "update", "delete", "items", "keys", "drop"],
     "aux", "aux.btree"),
    ("repro.core.pba", None, ["exact_score_aux", "exact_score_reverse_scan"], "scoring", "scoring.exact"),
    ("repro.streaming.continuous", "ContinuousTopK", ["add_object", "remove_object"],
     "streaming", "streaming.repair"),
    ("repro.recovery.controller", "DurabilityController", ["commit_mutation"], "recovery", "recovery.commit"),
    ("repro.recovery.controller", "DurabilityController", ["page_event"], "recovery", "recovery.capture"),
    ("repro.recovery.wal", "WriteAheadLog", ["append", "flush"], "recovery", "recovery.wal"),
]


#: no-op calls per calibration round (two rounds at each operation).
CALIBRATE_CALLS = 64


def _noop(_owner, _arg):
    return None


class OpRecord:
    """One client operation's spans, folded: per-layer self time,
    per-name outermost inclusive time and per-name call counts.

    ``spans[layer]`` counts the layer's spans and ``children[layer]``
    the spans opened directly inside them; with the wrapper cost
    calibrated at this operation (``inner_s`` inside a span, ``outer_s``
    around it, in the caller's span) :meth:`settle` moves that cost out
    of the layers into the "tracer" row.
    """

    __slots__ = ("op", "tag", "self_s", "incl", "calls", "spans", "children",
                 "inner_s", "outer_s")

    def __init__(self, op, tag: str) -> None:
        self.op = op
        self.tag = tag
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: Dict[str, int] = defaultdict(int)
        self.children: Dict[str, int] = defaultdict(int)
        self.inner_s = self.outer_s = 0.0

    def settle(self) -> None:
        for layer in list(self.spans):
            cost = self.spans[layer] * self.inner_s + self.children[layer] * self.outer_s
            self.self_s[layer] -= cost
            self.self_s["tracer"] += cost


class LayerTracer:
    """Installs the span wrappers and folds spans into per-op records.

    A wrapper costs time inside its own span (``inner``: the call into
    the wrapped function and back) and outside it, in its caller's span
    (``outer``: entering the wrapper, the bookkeeping).  Both are
    measured on a no-op at the start of every operation, so they track
    the host's speed at that moment; the calibration's own time and the
    wrappers' cost go to the "tracer" row, and the rows still sum to the
    wall clock.
    """

    def __init__(self) -> None:
        self.records: List[OpRecord] = []
        self.missing: List[str] = []
        self._current: Optional[OpRecord] = None
        # frames: [layer, name, start, child_seconds]
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patched: List[Tuple[object, str, object, bool]] = []
        self._noop = self._wrap(_noop, "client", "tracer.calibrate")

    # -- spans ---------------------------------------------------------
    def push(self, layer: str, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([layer, name, time.perf_counter(), 0.0])

    def pop(self) -> None:
        end = time.perf_counter()
        layer, name, start, child = self._stack.pop()
        duration = end - start
        self._depth[name] -= 1
        rec = self._current
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            if rec is not None:
                rec.children[parent[0]] += 1
        if rec is not None:
            rec.self_s[layer] += duration - child
            rec.spans[layer] += 1
            rec.calls[name] += 1
            if self._depth[name] == 0:
                rec.incl[name] += duration

    def _calibrate(self) -> Tuple[float, float]:
        """(inner, outer) seconds of one wrapper, on a no-op called like
        a method with one argument: the cheaper of two rounds, so an
        interruption does not count."""
        bare, traced = _noop, self._noop
        saved, self._current = self._current, OpRecord(None, "calibrate")
        inner = total = float("inf")
        for _round in range(2):
            t0 = time.perf_counter()
            for _i in range(CALIBRATE_CALLS):
                bare(self, _i)
            plain = time.perf_counter() - t0
            self._stack.append(["client", "tracer.calibrate.parent", 0.0, 0.0])
            t0 = time.perf_counter()
            for _i in range(CALIBRATE_CALLS):
                traced(self, _i)
            wrapped = time.perf_counter() - t0
            covered = self._stack.pop()[3]
            inner = min(inner, (covered - plain) / CALIBRATE_CALLS)
            total = min(total, (wrapped - plain) / CALIBRATE_CALLS)
        self._current = saved
        inner = max(0.0, inner)
        return inner, max(0.0, total - inner)

    def begin_op(self, op, tag: str) -> None:
        rec = self._current = OpRecord(op, tag)
        self.push("client", "client.op")
        t0 = time.perf_counter()
        rec.inner_s, rec.outer_s = self._calibrate()
        spent = time.perf_counter() - t0
        self._stack[-1][3] += spent
        rec.self_s["tracer"] += spent

    def end_op(self) -> None:
        self.pop()
        self._current.settle()
        self.records.append(self._current)
        self._current = None

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        push, pop = self.push, self.pop
        if inspect.isgeneratorfunction(fn):
            # span each step, so iteration time lands in this layer.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        push(layer, name)
                        try:
                            item = next(gen)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            pop()
                        yield item
                finally:
                    gen.close()
            return traced_gen
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                push(layer, name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    pop()
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            push(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
        return traced

    def install(self) -> None:
        for module_name, owner_name, attrs, layer, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            for attr in attrs:
                if not hasattr(owner, attr):
                    self.missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                    continue
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, layer, name))
                self._patched.append((owner, attr, original, own))
        if self.missing:
            print("trace: targets not found: " + ", ".join(self.missing), file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()


# ----------------------------------------------------------------------
# folding records into metrics
# ----------------------------------------------------------------------
def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def ledger(records: List[OpRecord], wall_s: float) -> Dict[str, float]:
    """Per-layer self-time shares of ``wall_s`` (the traced phase's
    summed operation times).

    ``gaps`` is the part of that time outside every operation span; all
    rows together sum to 1 up to rounding.
    """
    totals = defaultdict(float)
    for rec in records:
        for layer, seconds in rec.self_s.items():
            totals[layer] += seconds
    shares = {layer: totals[layer] / wall_s for layer in LAYERS}
    shares["gaps"] = 1.0 - sum(shares.values())
    return shares


def layer_metrics(
    records: List[OpRecord],
    counters: Dict[str, int],
    write_counters: Dict[str, int],
    setup: Dict[str, float],
    overhead_ratio: float,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics (name -> (value, unit)) of a traced run.

    ``records`` cover the reads ("main") and the write probe;
    ``counters`` and ``write_counters`` are their exact counter deltas.
    "per query" means per query the engine executed (cache misses),
    "per op" per timed read, "per write" per probe insert or delete.
    """
    main = [r for r in records if r.tag == "main"]
    queries = [r for r in main if r.op.kind == "query"]
    cold = [r for r in queries if r.incl.get("core.query", 0.0) > 0.0]
    writes = [r for r in records if r.tag == "probe"]
    ms = 1e3

    def per(total: float, group: list) -> float:
        return total / len(group) if group else 0.0

    def self_sum(group, layer):
        return sum(r.self_s.get(layer, 0.0) for r in group)

    def incl_sum(group, name):
        return sum(r.incl.get(name, 0.0) for r in group)

    def by_algo(algo):
        return [r for r in cold if r.op.algorithm == algo]

    out: Dict[str, Tuple[float, str]] = {}
    out["service.overhead_ms_p50"] = (
        _p50([(r.incl["service.query"] - r.incl.get("core.query", 0.0)) * ms for r in queries]), "ms")
    out["service.cache_hit_ratio"] = (per(len(queries) - len(cold), queries), "ratio")
    out["core.self_ms_per_query"] = (per(self_sum(cold, "core") * ms, cold), "ms")
    for algo in ("pba1", "pba2", "aba", "sba"):
        out[f"core.{algo}.ms_p50"] = (_p50([r.incl["core.query"] * ms for r in by_algo(algo)]), "ms")
    out["core.exact_scores_per_query"] = (per(counters["exact_scores"], cold), "count")
    retrieved = counters["retrieved"]
    out["core.pruned_ratio"] = (counters["pruned"] / retrieved if retrieved else 0.0, "ratio")
    out["dominance.self_ms_per_query"] = (per(self_sum(cold, "dominance") * ms, cold), "ms")
    out["skyline.ms_per_sba_query"] = (per(incl_sum(cold, "skyline.mss") * ms, by_algo("sba")), "ms")
    out["anns.ms_per_aba_query"] = (per(incl_sum(cold, "anns.next") * ms, by_algo("aba")), "ms")
    distances = counters["distances"]
    metric_s = self_sum(main, "metric")
    out["metric.distances_per_op"] = (per(distances, main), "count")
    out["metric.self_ms_per_op"] = (per(metric_s * ms, main), "ms")
    out["metric.us_per_distance"] = (metric_s * 1e6 / distances if distances else 0.0, "us")
    runs = counters["dijkstra_runs"]
    calls = sum(r.calls.get("metric.graph_call", 0) for r in main)
    out["metric.dijkstra_runs_per_op"] = (per(runs, main), "count")
    out["metric.dijkstra_hit_ratio"] = (1.0 - runs / calls if calls else 0.0, "ratio")
    out["metric.dijkstra_ms_per_op"] = (per(incl_sum(main, "metric.dijkstra") * ms, main), "ms")
    out["mtree.self_ms_per_query"] = (per(self_sum(cold, "mtree") * ms, cold), "ms")
    out["mtree.nn_steps_per_query"] = (per(sum(r.calls.get("mtree.nn_step", 0) for r in cold), cold), "count")
    for kind in ("insert", "delete"):
        out[f"mtree.{kind}_ms_p50"] = (
            _p50([r.incl.get(f"mtree.{kind}", 0.0) * ms for r in writes if r.op.kind == kind]), "ms")
    gets, faults = counters["page_gets"], counters["page_faults"]
    out["storage.page_gets_per_op"] = (per(gets, main), "count")
    out["storage.buffer_hit_ratio"] = (1.0 - faults / gets if gets else 0.0, "ratio")
    out["storage.page_faults_per_op"] = (per(faults, main), "count")
    out["storage.sim_io_ms_per_op"] = (per(faults * 8.0, main), "ms")
    out["storage.self_ms_per_op"] = (per(self_sum(main, "storage") * ms, main), "ms")
    out["aux.self_ms_per_query"] = (per(self_sum(cold, "aux") * ms, cold), "ms")
    out["aux.self_ms_per_write"] = (per(self_sum(writes, "aux") * ms, writes), "ms")
    out["scoring.self_ms_per_query"] = (per(self_sum(cold, "scoring") * ms, cold), "ms")
    out["streaming.repair_ms_per_write"] = (per(incl_sum(writes, "streaming.repair") * ms, writes), "ms")
    universe = write_counters["universe_size"]
    out["streaming.repair_ball_ratio"] = (
        write_counters["repair_size"] / universe if universe else 0.0, "ratio")
    out["streaming.recomputes_per_write"] = (per(write_counters["recomputes"], writes), "count")
    out["recovery.commit_ms_per_write"] = (per(incl_sum(writes, "recovery.commit") * ms, writes), "ms")
    out["recovery.wal_bytes_per_write"] = (per(write_counters["wal_bytes"], writes), "bytes")
    out["setup.build_ms"] = (setup["build_s"] * ms, "ms")
    out["setup.build_distances"] = (setup["build_distances"], "count")
    out["setup.subscribe_ms"] = (setup["subscribe_s"] * ms, "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
