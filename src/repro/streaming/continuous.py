"""Incremental maintenance of a standing ``MSD(Q, k)`` result.

The paper's algorithms answer one ``MSD(Q, k)`` from scratch; a
monitoring deployment keeps the *same* query alive while the data set
churns underneath it.  Recomputing per update costs a full query
(tens of thousands of distance computations at realistic windows);
:class:`ContinuousTopK` instead *repairs* the result, following the
observation behind dynamic top-k dominating maintenance (Kosmatopoulos
& Tsichlas): a single insert or delete can only change ``dom(p)`` for
objects *comparable* with the moved point — the set of its dominators
and dominated objects, the Lemma-1 style ball around it.

Per update the maintainer

* computes the arrival's ``m`` distances to ``Q`` **once** (a delete
  needs none — its vector is already cached),
* adjusts ``dom``/dominated-by counts for exactly the comparable ball
  via one vectorized pass over the cached distance-vector matrix,
* mirrors the touched counters into a disk-charged ``AuxB+``-tree
  (``q_counter`` = domination score, ``qc_counter`` = dominated-by
  count — the same record fields the batch algorithms use) as one
  ascending-id leaf sweep: one descent, then one page get per leaf
  walked and one put per leaf holding a touched record
  (:meth:`~repro.btree.bplustree.BPlusTree.update_many`); a new
  member's record is inserted once with its final counters and its
  distance vector, which never changes,
* re-ranks, and emits a typed :class:`ResultDelta` describing exactly
  which results entered, left or changed score.

When the comparable ball exceeds ``recompute_threshold`` of the
universe the maintainer falls back to a full score recompute over the
cached matrix (still zero new distance computations); ``repairs`` vs
``recomputes`` are counted as diagnostic counters, deliberately *not*
part of the paper's gated cost model.

Correctness anchor: after every update ``maintainer.result`` equals a
from-scratch ``engine.top_k_dominating`` over the same universe —
pinned by ``tests/test_streaming_incremental.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aux_index import AuxBPlusTree, AuxRecord
from repro.core.dominance import dominance_rows
from repro.core.engine import ChangeEvent, TopKDominatingEngine
from repro.core.progressive import ResultItem
from repro.obs import explain as explain_mod
from repro.obs import trace
from repro.storage.stats import QueryStats, Stopwatch

#: distinct aux-index namespaces for concurrently-live maintainers.
_MAINTAINER_IDS = itertools.count()


@dataclass(frozen=True)
class StandingQuery:
    """A registered continuous query ``(Q, k, algorithm)``.

    ``algorithm`` names the batch algorithm used for resyncs and for
    equivalence checks; the incremental repair path itself is
    algorithm-agnostic (it maintains exact scores directly).
    """

    query_ids: Tuple[int, ...]
    k: int
    algorithm: str = "pba2"

    def __post_init__(self) -> None:
        if not self.query_ids:
            raise ValueError("a standing query needs >= 1 query object")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def m(self) -> int:
        return len(self.query_ids)


@dataclass(frozen=True)
class ResultDelta:
    """One maintained-result transition, emitted after an update.

    ``kind`` is ``"repair"`` (ball-local fix-up), ``"recompute"``
    (threshold fallback over the cached matrix) or ``"resync"`` (full
    rebuild, e.g. after a subscription queue overflowed).  ``entered``
    / ``left`` / ``rescored`` describe the transition; ``result`` is
    the complete post-update top-k so a consumer that missed deltas
    can always re-anchor.  ``stats`` carries the exact per-update cost
    (thread-local counter deltas, same accounting as
    ``engine.top_k_dominating``).
    """

    epoch: int
    kind: str
    op: str
    object_id: Optional[int]
    entered: Tuple[ResultItem, ...]
    left: Tuple[ResultItem, ...]
    rescored: Tuple[ResultItem, ...]
    result: Tuple[ResultItem, ...]
    stats: QueryStats = field(compare=False, default_factory=QueryStats)
    repair_size: int = 0
    universe_size: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.entered or self.left or self.rescored)


class ContinuousTopK:
    """Maintains ``MSD(Q, k)`` incrementally under inserts and deletes.

    Parameters
    ----------
    engine:
        The engine whose space holds the objects.  The maintainer does
        not touch the M-tree; it keeps its own distance-vector matrix
        and score arrays, plus a disk-charged aux-index mirror.
    query_ids, k, algorithm:
        The standing query.  Query payloads must be in the space
        (indexed or registered via ``register_query_payload``).
    universe:
        Initial member ids (default: the engine's indexed objects).
        Membership then follows :meth:`add_object` /
        :meth:`remove_object` — wired to engine change events by
        :meth:`attach`.
    recompute_threshold:
        When the comparable ball exceeds this fraction of the universe
        the update falls back to a full rescore of the cached matrix.
        The vectorized repair applies count deltas in one masked array
        operation, so the fallback only wins when nearly *every*
        member's aux record would be rewritten anyway — hence the high
        default; lower it when running without the aux mirror is not
        an option and updates land in dense comparable regions.
    aux_mirror:
        Mirror per-member ``q_counter``/``qc_counter``/``dists`` into
        an ``AuxB+``-tree on the aux buffer (charged I/O).  Disable for
        pure in-memory maintenance.
    """

    def __init__(
        self,
        engine: TopKDominatingEngine,
        query_ids: Sequence[int],
        k: int,
        algorithm: str = "pba2",
        *,
        universe: Optional[Sequence[int]] = None,
        recompute_threshold: float = 0.95,
        aux_mirror: bool = True,
    ) -> None:
        if not 0.0 < recompute_threshold <= 1.0:
            raise ValueError("recompute_threshold must be in (0, 1]")
        self.engine = engine
        self.space = engine.space
        self.query = StandingQuery(
            tuple(query_ids), k, algorithm.lower()
        )
        self.recompute_threshold = recompute_threshold
        self._listeners: List[Callable[[ResultDelta], None]] = []
        self._detach: Optional[Callable[[], None]] = None
        #: durability-manifest id while attached to a durable engine.
        self._standing_sid: Optional[int] = None
        self.counters: Dict[str, int] = {
            "updates": 0,
            "repairs": 0,
            "recomputes": 0,
            "resyncs": 0,
            "deltas": 0,
        }
        self.aux: Optional[AuxBPlusTree] = None
        if aux_mirror:
            self.aux = AuxBPlusTree(
                engine.buffers.aux_buffer,
                self.query.m,
                name=f"standing-{next(_MAINTAINER_IDS)}",
            )
        self.epoch = engine.epoch
        self.last_stats = QueryStats()
        self._exact_total = 0
        ids = (
            sorted(universe)
            if universe is not None
            else sorted(engine.tree.object_ids())
        )
        self.bootstrap_stats = self._measured(
            "bootstrap", None, lambda: self._bootstrap(ids)
        )

    # ------------------------------------------------------------------
    # bootstrap / resync
    # ------------------------------------------------------------------
    def _bootstrap(self, ids: Sequence[int]) -> Tuple[str, int]:
        n = len(ids)
        m = self.query.m
        capacity = max(16, n)
        self._ids: List[int] = list(ids)
        self._row_of: Dict[int, int] = {
            obj: row for row, obj in enumerate(ids)
        }
        self._n = n
        self._matrix = np.zeros((capacity, m), dtype=float)
        self._id_arr = np.zeros(capacity, dtype=np.int64)
        self._scores = np.zeros(capacity, dtype=np.int64)
        self._dominated_by = np.zeros(capacity, dtype=np.int64)
        if n:
            self._id_arr[:n] = ids
            # one kernel call per query object: d(q_j, i) for every
            # member, bit-identical to the per-pair loop for the
            # (symmetric) metrics the engine admits.
            for j, q in enumerate(self.query.query_ids):
                self._matrix[:n, j] = self.space.pairwise(q, ids)
            self._rescore_all()
        self._result: List[ResultItem] = self._rank()
        if self.aux is not None:
            if len(self.aux):
                # a resync: every member already has its record.
                self._mirror(np.arange(n))
            else:
                for row in range(n):
                    self._add_record(row)
        return "bootstrap", n

    def resync(self) -> ResultDelta:
        """Rebuild from scratch and emit a full-state ``resync`` delta.

        The recovery path for consumers that lost deltas (bounded
        subscription queues overflowing, see ``repro.service``) and the
        escape hatch when external state may have diverged.
        """
        ids = sorted(self._ids)
        old = list(self._result)
        stats = self._measured("resync", None, lambda: self._bootstrap(ids))
        self.counters["updates"] += 1
        self.counters["resyncs"] += 1
        self.epoch = self.engine.epoch
        delta = self._make_delta(
            "resync", "resync", None, old, stats, 0, force=True
        )
        return delta

    def emit_resync_snapshot(self) -> ResultDelta:
        """Emit a full-state ``resync`` delta *without* recomputing.

        The warm-restart path: a maintainer freshly bootstrapped after
        recovery already holds the correct state, so subscribers just
        need one delta saying "replace your state with this".  An
        empty ``old`` makes every current item ``entered``.
        """
        self.counters["resyncs"] += 1
        self.counters["updates"] += 1
        self.epoch = self.engine.epoch
        delta = self._make_delta(
            "resync", "resync", None, [], self.last_stats, 0, force=True
        )
        assert delta is not None  # force=True always emits
        return delta

    def aux_snapshot(self):
        """The aux mirror's records as plain types (None if disabled).

        Embedded into checkpoints so a recovery can verify the
        re-bootstrapped mirror against the durable counters.
        """
        if self.aux is None:
            return None
        return self.aux.snapshot_records()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Follow the engine's change feed (idempotent).

        On a durable engine the standing query is also registered in
        the durability manifest, so it survives process death: after
        ``open_engine(recover_from=...)`` the recovered manifest lists
        it and the service layer re-subscribes it (emitting a
        ``resync`` delta) — see ``QueryService.restore_subscriptions``.
        """
        if self._detach is None:
            self._detach = self.engine.subscribe_changes(self._on_change)
            durability = getattr(self.engine, "durability", None)
            if durability is not None:
                self._standing_sid = durability.record_standing(self)

    def detach(self, *, forget: bool = True) -> None:
        """Stop following engine changes (idempotent).

        ``forget=False`` keeps the durable-manifest registration alive:
        the shutdown path uses it so a standing query survives a clean
        process stop exactly like a crash — either way the next
        ``recover_from`` restart re-registers and resyncs it.
        """
        if self._detach is not None:
            self._detach()
            self._detach = None
        if self._standing_sid is not None:
            if forget:
                durability = getattr(self.engine, "durability", None)
                if durability is not None:
                    durability.forget_standing(self._standing_sid)
            self._standing_sid = None

    def close(self, *, forget: bool = True) -> None:
        """Detach and release the aux-index mirror's pages."""
        self.detach(forget=forget)
        if self.aux is not None:
            self.aux.drop()

    def subscribe(
        self, listener: Callable[[ResultDelta], None]
    ) -> Callable[[], None]:
        """Call ``listener(delta)`` whenever the result set changes.

        Listeners run synchronously inside the update; returns an
        unsubscribe callable.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _on_change(self, event: ChangeEvent) -> None:
        if event.op == "insert":
            self.add_object(event.object_id, epoch=event.epoch)
        else:
            self.remove_object(event.object_id, epoch=event.epoch)

    # ------------------------------------------------------------------
    # the maintained state
    # ------------------------------------------------------------------
    @property
    def result(self) -> List[ResultItem]:
        """The current top-k, best first, ties broken by object id."""
        return list(self._result)

    @property
    def member_ids(self) -> List[int]:
        """The maintained universe (insertion order)."""
        return list(self._ids)

    def score_of(self, object_id: int) -> Optional[int]:
        """``dom(object_id)`` over the universe, or None if not a member."""
        row = self._row_of.get(object_id)
        if row is None:
            return None
        return int(self._scores[row])

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add_object(
        self, object_id: int, epoch: Optional[int] = None
    ) -> Optional[ResultDelta]:
        """Admit one object into the universe (no-op if present).

        Costs exactly ``m`` distance computations (one batched kernel
        call); everything else is vectorized arithmetic over the
        cached matrix plus aux-record writes for the comparable ball.
        """
        if object_id in self._row_of:
            return None
        old = list(self._result)
        holder: Dict[str, Tuple[str, int]] = {}

        def work() -> Tuple[str, int]:
            holder["out"] = self._apply_insert(object_id)
            return holder["out"]

        stats = self._measured("insert", object_id, work)
        kind, repair = holder["out"]
        return self._finish_update(
            kind, "insert", object_id, old, stats, repair, epoch
        )

    def remove_object(
        self, object_id: int, epoch: Optional[int] = None
    ) -> Optional[ResultDelta]:
        """Expel one object from the universe (no-op if absent).

        Costs **zero** distance computations — the victim's distance
        vector is already cached, so the comparable ball is found by
        pure array comparison.
        """
        if object_id not in self._row_of:
            return None
        old = list(self._result)
        holder: Dict[str, Tuple[str, int]] = {}

        def work() -> Tuple[str, int]:
            holder["out"] = self._apply_delete(object_id)
            return holder["out"]

        stats = self._measured("delete", object_id, work)
        kind, repair = holder["out"]
        return self._finish_update(
            kind, "delete", object_id, old, stats, repair, epoch
        )

    def explain_update(
        self, op: str, object_id: int
    ) -> Tuple[Optional[ResultDelta], "explain_mod.QueryPlan"]:
        """Apply one update and return ``(delta, plan)``.

        Runs :meth:`add_object` / :meth:`remove_object` as one explain
        scope (:func:`repro.obs.explain.explained`), so the plan
        carries the repair funnel — comparable ball vs incomparable
        remainder — plus the update's cost counters (``last_stats`` of
        every applied update; zero for a no-op).  The update itself is
        applied exactly as without explain.
        """
        if op not in ("insert", "delete"):
            raise ValueError("op must be 'insert' or 'delete'")
        apply = self.add_object if op == "insert" else self.remove_object

        def body():
            updates = self.counters["updates"]
            delta = apply(object_id)
            # an applied update may leave the top-k unchanged (delta is
            # None) yet still costs what last_stats measured.
            applied = self.counters["updates"] != updates
            stats = self.last_stats if applied else QueryStats()
            header = explain_mod.plan_header(
                f"stream.{op}",
                self.query.query_ids,
                self.query.k,
                self._n,
                stats,
            )
            return delta, header

        return explain_mod.explained(
            "stream.explain", "stream", self._probe, body
        )

    # ------------------------------------------------------------------
    # repair internals
    # ------------------------------------------------------------------
    def _explain_repair(
        self, op: str, kind: str, n_before: int, repair: int
    ) -> None:
        """One conserving funnel stage per update when explain is on.

        The universe entering the repair splits exactly into the
        comparable ball (whose counters are touched) and the
        incomparable remainder (untouched by Definition 3's pairwise
        locality) — the stage's conservation law checks that split.
        """
        explain_mod.stage(
            f"stream.{op}",
            n_before,
            repair,
            {"incomparable with the update": n_before - repair},
            note="recompute fallback" if kind == "recompute" else None,
        )
        explain_mod.snapshot(
            "stream.update",
            op=op,
            kind=kind,
            repair=repair,
            universe=self._n,
        )

    def _apply_insert(self, object_id: int) -> Tuple[str, int]:
        ex = trace.explaining()
        n = self._n
        vec = np.asarray(
            self.space.pairwise(object_id, self.query.query_ids),
            dtype=float,
        )
        mat = self._matrix[:n]
        # the comparable ball: rows dominating the arrival and rows it
        # dominates.  Only their dom counts can change (Definition 3 is
        # pairwise — every other pair's comparison is untouched).
        le = mat <= vec
        lt = mat < vec
        dominators = le.all(axis=1) & lt.any(axis=1)
        ge = mat >= vec
        gt = mat > vec
        dominated = ge.all(axis=1) & gt.any(axis=1)
        repair = int(dominators.sum() + dominated.sum())
        self._grow_to(n + 1)
        row = n
        self._matrix[row] = vec
        self._id_arr[row] = object_id
        self._ids.append(object_id)
        self._row_of[object_id] = row
        self._n = n + 1
        if repair > self.recompute_threshold * self._n:
            self._rescore_all()
            if self.aux is not None:
                self._mirror(np.arange(n))
                self._add_record(row)
            if ex is not None:
                self._explain_repair("insert", "recompute", n, repair)
            return "recompute", repair
        self._scores[:n][dominators] += 1
        self._dominated_by[:n][dominated] += 1
        self._scores[row] = int(dominated.sum())
        self._dominated_by[row] = int(dominators.sum())
        self._exact_total += repair + 1
        if self.aux is not None:
            self._mirror(np.nonzero(dominators | dominated)[0])
            self._add_record(row)
        if ex is not None:
            self._explain_repair("insert", "repair", n, repair)
        return "repair", repair

    def _apply_delete(self, object_id: int) -> Tuple[str, int]:
        ex = trace.explaining()
        n = self._n
        row = self._row_of.pop(object_id)
        vec = self._matrix[row]
        mat = self._matrix[:n]
        le = mat <= vec
        lt = mat < vec
        dominators = le.all(axis=1) & lt.any(axis=1)
        ge = mat >= vec
        gt = mat > vec
        dominated = ge.all(axis=1) & gt.any(axis=1)
        dominators[row] = False
        dominated[row] = False
        repair = int(dominators.sum() + dominated.sum())
        last = n - 1
        recompute = repair > self.recompute_threshold * max(1, last)
        if not recompute:
            # a dominator of the victim loses one dominated object; a
            # dominated object loses one dominator.
            self._scores[:n][dominators] -= 1
            self._dominated_by[:n][dominated] -= 1
        # swap-delete the victim's row (the touched mask moves with it).
        touched = dominators | dominated
        if row != last:
            moved = int(self._id_arr[last])
            self._matrix[row] = self._matrix[last]
            self._id_arr[row] = moved
            self._scores[row] = self._scores[last]
            self._dominated_by[row] = self._dominated_by[last]
            self._row_of[moved] = row
            touched[row] = touched[last]
        self._ids.remove(object_id)
        self._n = last
        if self.aux is not None:
            self.aux.remove(object_id)
        if recompute:
            self._rescore_all()
            if self.aux is not None:
                self._mirror(np.arange(last))
            if ex is not None:
                self._explain_repair("delete", "recompute", n, repair)
            return "recompute", repair
        self._exact_total += repair
        if self.aux is not None:
            self._mirror(np.nonzero(touched[:last])[0])
        if ex is not None:
            self._explain_repair("delete", "repair", n, repair)
        return "repair", repair

    def _rescore_all(self) -> None:
        n = self._n
        mat = self._matrix[:n]
        scores = np.zeros(n, dtype=np.int64)
        dominated_by = np.zeros(n, dtype=np.int64)
        for start, dom in dominance_rows(mat, mat):
            scores[start : start + len(dom)] = dom.sum(axis=1)
            dominated_by += dom.sum(axis=0)
        self._scores[:n] = scores
        self._dominated_by[:n] = dominated_by
        self._exact_total += n

    def _grow_to(self, needed: int) -> None:
        capacity = len(self._id_arr)
        if needed <= capacity:
            return
        new_cap = max(needed, 2 * capacity)
        for name in ("_matrix", "_id_arr", "_scores", "_dominated_by"):
            old = getattr(self, name)
            shape = (new_cap,) + old.shape[1:]
            grown = np.zeros(shape, dtype=old.dtype)
            grown[:capacity] = old
            setattr(self, name, grown)

    def _rank(self) -> List[ResultItem]:
        n = self._n
        k = min(self.query.k, n)
        if k == 0:
            return []
        scores = self._scores[:n]
        order = np.lexsort((self._id_arr[:n], -scores))[:k]
        return [
            ResultItem(int(self._id_arr[r]), int(scores[r]))
            for r in order
        ]

    def _add_record(self, row: int) -> None:
        """Insert a new member's aux record, built with its final
        counters and its (never changing) distance vector."""
        assert self.aux is not None
        self.aux.add(
            AuxRecord(
                object_id=int(self._id_arr[row]),
                m=self.query.m,
                q_counter=int(self._scores[row]),
                qc_counter=int(self._dominated_by[row]),
                dists=self._matrix[row].tolist(),
            )
        )

    def _mirror(self, rows: np.ndarray) -> None:
        """Write the counters of existing members' records in one
        ascending-id leaf sweep of the aux tree."""
        assert self.aux is not None
        ids = self._id_arr[rows]
        order = np.argsort(ids)
        rows = rows[order]
        counters = iter(
            zip(
                self._scores[rows].tolist(),
                self._dominated_by[rows].tolist(),
            )
        )

        def apply(_object_id: int, rec: AuxRecord) -> None:
            rec.q_counter, rec.qc_counter = next(counters)

        self.aux.tree.update_many(ids[order].tolist(), apply)

    # ------------------------------------------------------------------
    # delta emission / accounting
    # ------------------------------------------------------------------
    def _finish_update(
        self,
        kind: str,
        op: str,
        object_id: Optional[int],
        old: List[ResultItem],
        stats: QueryStats,
        repair: int,
        epoch: Optional[int],
    ) -> Optional[ResultDelta]:
        self._result = self._rank()
        self.counters["updates"] += 1
        self.counters["repairs" if kind == "repair" else "recomputes"] += 1
        self.epoch = self.engine.epoch if epoch is None else epoch
        return self._make_delta(
            kind, op, object_id, old, stats, repair, force=False
        )

    def _make_delta(
        self,
        kind: str,
        op: str,
        object_id: Optional[int],
        old: List[ResultItem],
        stats: QueryStats,
        repair: int,
        force: bool,
    ) -> Optional[ResultDelta]:
        new = self._result
        old_scores = {item.object_id: item.score for item in old}
        new_ids = {item.object_id for item in new}
        entered = tuple(
            item for item in new if item.object_id not in old_scores
        )
        left = tuple(
            item for item in old if item.object_id not in new_ids
        )
        rescored = tuple(
            item
            for item in new
            if item.object_id in old_scores
            and old_scores[item.object_id] != item.score
        )
        if not (entered or left or rescored or force):
            return None
        delta = ResultDelta(
            epoch=self.epoch,
            kind=kind,
            op=op,
            object_id=object_id,
            entered=entered,
            left=left,
            rescored=rescored,
            result=tuple(new),
            stats=stats,
            repair_size=repair,
            universe_size=self._n,
        )
        self.counters["deltas"] += 1
        if trace.active():
            trace.event(
                "stream.delta",
                category="stream",
                args={
                    "kind": kind,
                    "op": op,
                    "entered": len(entered),
                    "left": len(left),
                    "rescored": len(rescored),
                },
            )
        for listener in list(self._listeners):
            listener(delta)
        return delta

    def _probe(self) -> trace.CostSnapshot:
        """This thread's paper-cost counters (the tracing probe)."""
        io = self.engine.buffers.local_io()
        return trace.CostSnapshot(
            page_faults=io.page_faults,
            buffer_hits=io.buffer_hits,
            distance_computations=self.engine.counting_metric.local_count(),
            exact_score_computations=self._exact_total,
        )

    def _measured(
        self,
        op: str,
        object_id: Optional[int],
        work: Callable[[], Tuple[str, int]],
    ) -> QueryStats:
        buffers = self.engine.buffers
        metric = self.engine.counting_metric
        stats = QueryStats()
        io_before = buffers.local_io()
        dist_before = metric.local_count()
        batches_before = metric.local_batches()
        exact_before = self._exact_total
        watch = Stopwatch()
        with trace.span(
            "stream.update",
            category="stream",
            probe=self._probe if trace.active() else None,
            args={
                "op": op,
                "object_id": object_id,
                "m": self.query.m,
                "k": self.query.k,
            },
        ):
            with watch:
                work()
        stats.cpu_seconds = watch.elapsed
        stats.io = buffers.local_io().delta_since(io_before)
        stats.distance_computations = metric.local_count() - dist_before
        stats.distance_batches = metric.local_batches() - batches_before
        stats.exact_score_computations = self._exact_total - exact_before
        self.last_stats = stats
        return stats
