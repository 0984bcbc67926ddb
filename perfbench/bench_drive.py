"""Set up the system under test and drive it with one closed-loop client.

The client sends its next operation only after the previous one has
completed, through the public surface: ``repro.api.open_engine`` and
``repro.service.QueryService`` with one worker, no simulated-I/O sleep,
no monitor and no tracer.  A write is timed from the call until every
standing subscription's queued deltas have been polled by the client
itself, so write latency is the subscriber's freshness.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from bench_inputs import K, CalData, Op, UniData, Workload, check_answer
from bench_speed import reference_ms
from repro.api import Graph, ManhattanMetric, MetricSpace, ShortestPathMetric, open_engine
from repro.service import QueryService, Rejected, ServiceConfig


@dataclass
class Rig:
    """One freshly set-up engine + service (+ standing subscriptions)."""

    engine: object
    service: QueryService
    subscriptions: list
    #: the program's shortest-path metric (CAL), for its Dijkstra count.
    graph_metric: Optional[ShortestPathMetric]
    workdir: Optional[str]
    #: seconds spent in open_engine, QueryService() and subscribing.
    build_s: float = 0.0
    service_s: float = 0.0
    subscribe_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.build_s + self.service_s + self.subscribe_s

    def close(self) -> None:
        self.service.close()
        if self.engine.durability is not None:
            self.engine.durability.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def program_graph(data: CalData) -> Graph:
    """The program's copy of the road network (an input, not set-up)."""
    graph = Graph(data.n)
    for u, v, w in data.edges:
        graph.add_edge(u, v, w)
    return graph


def set_up(work: Workload, graph: Optional[Graph], workroot: str, tag: str, probe: bool) -> Rig:
    """Build a fresh engine and service; time each part.  The probe
    engine also gets the workload's WAL and standing subscriptions."""
    data = work.probe_data if probe else work.data
    graph_metric = None
    if isinstance(data, UniData):
        space = MetricSpace(list(data.points.copy()), ManhattanMetric(), name="UNI")
    else:
        graph_metric = ShortestPathMetric(graph, cache_sources=128)
        space = MetricSpace(list(range(data.n)), graph_metric, name="CAL")
    workdir = None
    if probe and work.durable:
        workdir = os.path.join(workroot, tag)
        os.makedirs(workdir)
    t0 = time.perf_counter()
    engine = open_engine(
        space, seed=0, durability=workdir, fsync_policy="commit"
    )
    t1 = time.perf_counter()
    service = QueryService(engine, ServiceConfig(workers=1, io_model=False))
    t2 = time.perf_counter()
    subs = [service.subscribe_sync(ids, K, "pba2") for ids in work.standing if probe]
    t3 = time.perf_counter()
    if probe and graph_metric is not None:
        # the CAL write probe computes every distance afresh, so a
        # write's latency follows its distance computations (the paper's
        # cost): with cached rows an insert cost one Dijkstra or none,
        # too uniform a cost for its median to average over the host's
        # fast and slow phases.
        graph_metric.cache_sources = 0
        graph_metric.clear_cache()
    return Rig(engine, service, subs, graph_metric, workdir, t1 - t0, t2 - t1, t3 - t2)


@dataclass
class Phase:
    """What one client phase did and saw (the check runs afterwards)."""

    query_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    #: each query's / write's / operation's midpoint (perf_counter s).
    query_t: List[float] = field(default_factory=list)
    write_t: List[float] = field(default_factory=list)
    op_t: List[float] = field(default_factory=list)
    #: each operation's seconds.
    op_s: List[float] = field(default_factory=list)
    #: (perf_counter s, ms) of the reference round before each operation.
    refs: List[Tuple[float, float]] = field(default_factory=list)
    #: (op, outcome) in execution order, outcome None if the op failed:
    #: (served ((id, score), ...), cached, (exact scores, retrieved,
    #: pruned)) for a query, (returned id or flag, (repair size,
    #: universe size), deleted id or None) for a write.
    log: List[Tuple[Op, object]] = field(default_factory=list)
    #: per write: each subscription's client-side view after polling.
    views: List[List[Tuple[Tuple[int, int], ...]]] = field(default_factory=list)
    inserted: List[int] = field(default_factory=list)
    #: ``len(inserted)`` when the current pass began: a delete's target
    #: indexes the pass's inserts.
    pass_base: int = 0
    failed: int = 0
    rejected: int = 0
    wall_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def done(self) -> int:
        return len(self.log)

    def drop_samples(self) -> None:
        """Forget the timings so far (the warm-up), keep the log."""
        for samples in (self.query_ms, self.write_ms, self.query_t, self.write_t,
                        self.op_t, self.op_s, self.refs):
            samples.clear()
        self.wall_s = 0.0


def _counters(rig: Rig) -> Dict[str, int]:
    io = rig.engine.buffers.combined_io()
    durability = rig.engine.durability
    return {
        "distances": rig.engine.counting_metric.count,
        "dijkstra_runs": rig.graph_metric.dijkstra_runs if rig.graph_metric else 0,
        "page_gets": io.logical_accesses,
        "page_faults": io.page_faults,
        "wal_bytes": durability.wal.size_bytes if durability is not None else 0,
        "recomputes": sum(
            s.snapshot()["maintainer"]["recomputes"] for s in rig.subscriptions
        ),
    }


async def _step(rig: Rig, op: Op, phase: Phase, views: list, tracer, tag: str) -> float:
    """Run one operation, record it in ``phase``; return its seconds
    (with the tracer's per-operation bookkeeping, when tracing)."""
    service = rig.service
    if tracer is None:
        phase.refs.append((time.perf_counter(), reference_ms()))
    started = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(op, tag)
    outcome: object = None
    t0 = time.perf_counter()
    try:
        if op.kind == "query":
            resp = await service.query(list(op.ids), K, algorithm=op.algorithm)
            t1 = time.perf_counter()
            stats = resp.stats
            outcome = (
                tuple((it.object_id, it.score) for it in resp.results),
                resp.cached,
                (0, 0, 0) if resp.cached else (
                    stats.exact_score_computations,
                    stats.objects_retrieved,
                    stats.objects_pruned,
                ),
            )
            phase.query_ms.append((t1 - t0) * 1e3)
        else:
            victim = None
            if op.kind == "insert":
                result = await service.insert(op.payload)
                phase.inserted.append(result)
            else:
                victim = phase.inserted[phase.pass_base + op.target]
                result = await service.delete(victim)
            repairs = [0, 0]
            for i, sub in enumerate(rig.subscriptions):
                for delta in service.poll_sync(sub):
                    views[i] = tuple((it.object_id, it.score) for it in delta.result)
                    repairs[0] += delta.repair_size
                    repairs[1] += delta.universe_size
            t1 = time.perf_counter()
            phase.write_ms.append((t1 - t0) * 1e3)
            phase.views.append(list(views))
            outcome = (result, tuple(repairs), victim)
    except Rejected as exc:
        phase.rejected += 1
        print(f"rejected: op={op.kind} {type(exc).__name__}: {exc}", file=sys.stderr)
    except Exception as exc:  # a failed operation is counted, not fatal
        phase.failed += 1
        print(f"failed: op={op.kind} {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.end_op()
    elapsed = time.perf_counter() - started
    phase.log.append((op, outcome))
    if tracer is None:
        mid = started + elapsed / 2
        phase.op_s.append(elapsed)
        phase.op_t.append(mid)
        for samples, times in ((phase.query_ms, phase.query_t), (phase.write_ms, phase.write_t)):
            if len(times) < len(samples):
                times.append(mid)
    return elapsed


def _views(rig: Rig) -> list:
    return [tuple((it.object_id, it.score) for it in s.result) for s in rig.subscriptions]


async def _client(rig, work, seconds, reads, warm_up, main, tracer, probe_rig, probe) -> None:
    views, probe_views = _views(rig), _views(probe_rig)
    deadline = None if seconds is None or warm_up else time.perf_counter() + seconds
    passes = 0
    while reads is None or main.done < reads:
        if main.done:
            if warm_up and main.done == len(work.reads):
                # the first pass warmed the caches: time from here on.
                for phase in (main, probe):
                    phase.drop_samples()
                if seconds is not None:
                    deadline = time.perf_counter() + seconds
            elif deadline is not None and time.perf_counter() >= deadline:
                # a run stops only at a pass boundary, so that every
                # run does whole passes of the same work.
                break
            rig.service.cache.flush()
        probe.pass_base = len(probe.inserted)
        writes = iter(work.writes[passes % len(work.writes)])
        passes += 1
        for op in work.reads[: None if reads is None else reads - main.done]:
            main.wall_s += await _step(rig, op, main, views, tracer, "main")
            for _w in range(work.writes_per_read):
                probe.wall_s += await _step(
                    probe_rig, next(writes), probe, probe_views, tracer, "probe")


def run_phase(
    rig: Rig, probe_rig: Rig, work: Workload, seconds: Optional[float],
    reads: Optional[int], warm_up: bool, tracer,
) -> Tuple[Phase, Phase]:
    """Drive passes of ``work`` until ``seconds`` have passed, or for
    exactly ``reads`` reads; fingerprint them.

    The read engine's result cache is flushed between passes, so every
    pass sees the same hits.  ``work.writes_per_read`` probe operations
    on ``probe_rig`` follow each read.  Every operation is logged and
    later checked.  With ``warm_up`` the first pass is not timed: the
    samples and ``wall_s`` (the sum of the operations' times) leave it
    out, and ``seconds`` count from its end.
    """
    gc.collect()
    main, probe = Phase(), Phase()
    rigs = [(rig, main), (probe_rig, probe)]
    before = [_counters(r) for r, _p in rigs]
    asyncio.run(_client(rig, work, seconds, reads, warm_up, main, tracer, probe_rig, probe))
    for (r, phase), old in zip(rigs, before):
        new = _counters(r)
        phase.counters = {key: new[key] - old[key] for key in new}
    return main, probe


def fingerprint(phases: List[Phase]) -> Dict[str, int]:
    """Exact counters of the phases, plus a digest of every answer."""
    keys = ("exact_scores", "retrieved", "pruned", "cache_hits", "repair_size", "universe_size")
    out: Dict[str, int] = dict.fromkeys(keys, 0)
    digest = 0

    def add(key: str, value: int) -> None:
        out[key] = out.get(key, 0) + value

    for phase in phases:
        for key, value in phase.counters.items():
            add(key, value)
        for op, outcome in phase.log:
            if op.kind == "query" and outcome is not None:
                _served, cached, (exact, retrieved, pruned) = outcome
                add("exact_scores", exact)
                add("retrieved", retrieved)
                add("pruned", pruned)
                add("cache_hits", int(cached))
            elif outcome is not None:
                add("repair_size", outcome[1][0])
                add("universe_size", outcome[1][1])
            digest = zlib.crc32(repr((op.kind, op.ids, outcome)).encode(), digest)
        add("ops", phase.done)
    out["answers_crc32"] = digest
    return out


def check_phase(data, standing, phase: Phase) -> List[str]:
    """Replay the phase against ``data``, the benchmark's own copy of the
    data set its engine was built from, and list the errors.

    ``standing`` are the query sets of the engine's subscriptions.
    Queries are checked at the data-set state they were served at;
    after each write, every subscription's client-side view is checked
    too.  Writes must return the next object id (insert) or True
    (delete).
    """
    errors: List[str] = []
    uni = isinstance(data, UniData)
    # each object's payload: a UNI point or a CAL node.
    payloads = list(data.points) if uni else list(range(len(data)))
    live = np.ones(len(data), dtype=bool)
    next_id = len(data)
    state = 0  # bumped by every applied write; keys the memo
    memo: Dict[tuple, Optional[str]] = {}
    writes = iter(phase.views)

    def vectors_for(ids):
        idx = np.flatnonzero(live)
        if uni:
            pts = np.asarray([payloads[i] for i in idx])
            vec = np.stack([np.abs(pts - payloads[q]).sum(axis=1) for q in ids], axis=1)
        else:
            nodes = [payloads[i] for i in idx]
            vec = data.apsp[[payloads[q] for q in ids]][:, nodes].T
        return vec, idx

    def check(ids, served) -> Optional[str]:
        key = (ids, served, state)
        if key not in memo:
            vec, idx = vectors_for(ids)
            memo[key] = check_answer(vec, idx, K, served)
        return None if memo[key] is None else f"Q={ids}: {memo[key]}"

    for op, outcome in phase.log:
        if outcome is None:
            continue
        if op.kind == "query":
            wrong = check(op.ids, outcome[0])
            if wrong:
                errors.append(f"wrong answer: op=query/{op.algorithm} {wrong}")
            continue
        result = outcome[0]
        if op.kind == "insert":
            if result != next_id:
                errors.append(f"wrong answer: op=insert returned id {result}, expected {next_id}")
            payloads.append(np.asarray(op.payload) if uni else op.payload)
            live = np.append(live, True)
            next_id += 1
        elif result is not True:
            errors.append(f"wrong answer: op=delete of {outcome[2]} returned {result}")
        else:
            live[outcome[2]] = False
        state += 1
        view = next(writes)
        wrong = [e for ids, served in zip(standing, view) if (e := check(ids, served))]
        if wrong:
            errors.append(f"wrong answer: op=subscription after {op.kind}: {wrong[0]}")
    return errors
