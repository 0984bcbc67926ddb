"""PBA — the Pruning-Based Algorithms PBA1 / PBA2 (paper Section 4.4).

The core idea (Algorithm 3): retrieve the nearest neighbors of every
query object **incrementally and round-robin** (the Threshold-Algorithm
access pattern of Fagin et al.); whenever an object has been seen in
*all* ``m`` streams it becomes a *common neighbor* and enters a
max-heap keyed by the estimated score of Lemma 5::

    estdom(o) = n - max_j rank(o, qj) + eq(o)

The heap top is confirmed via Lemma 6 — once its *exact* score is at
least the next candidate's (estimated or exact) score, no future
common neighbor can beat it and it is reported immediately, giving PBA
its progressive behaviour.  PBA1 and PBA2 differ only in the
exact-score procedure (reverse scanning vs ``AuxB+``-tree positional
comparison — see :mod:`repro.core.scoring`); both use the pruning
heuristics of :mod:`repro.core.pruning`.

Implementation notes (documented deviations):

* *Tie draining.*  When a common neighbor ``o`` is registered we first
  advance every cursor past the distances equal to ``o``'s (Procedure 1
  line 6 — "compute number of equivalent objects") so ``eq(o)`` is
  exact and Lemma 5's bound is never understated.
* *Future bound.*  The paper guarantees the heap always contains an
  estimate at least as large as any future candidate's by fetching one
  extra common neighbor per iteration.  We additionally maintain an
  explicit safe bound on every not-yet-common object,
  ``n - 1 - min_j strict_j`` (``strict_j`` = objects retrieved from
  ``qj`` strictly closer than its current stream tail): an unseen
  object is missing from at least one stream, so it cannot dominate
  the objects provably ahead of it there.  This closes a tie-related
  edge case in the paper's argument (a future common neighbor with
  many equivalents can carry a *larger* estimate than the current heap
  top) at the cost of occasionally confirming slightly later.
* *Discards keep their bookkeeping.*  Objects eliminated by DH1-DH3
  are never registered as candidates and never exactly scored, but
  their retrievals are still recorded in the ``AuxB+``-tree, because
  the exact-score formulas (Lemma 7 and Procedure 3) count ``|AUX|``
  and rank positions over the *complete* retrieval history.  The big
  saving survives: once every remaining unseen object is discardable
  and no partially-seen candidate is left, retrieval stops entirely.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.btree.bplustree import BPlusTree
from repro.core.aux_index import AuxBPlusTree, AuxRecord
from repro.core.dominance import DominatorSet
from repro.core.progressive import QueryContext, ResultItem, TopKAlgorithm
from repro.obs import explain as explain_mod
from repro.obs import trace
from repro.core.pruning import (
    ExactScoreInfo,
    PruningConfig,
    eph3_bound,
    eph4_bound,
    eph5_bound,
)
from repro.core.scoring import (
    ScoreOutcome,
    exact_score_aux,
    exact_score_reverse_scan,
)


class _PushbackCursor:
    """An incremental-NN cursor with one-item lookahead (for draining
    equal-distance groups without consuming past them).  Works with
    any iterator of ``(object_id, distance)`` pairs — the M-tree's
    cursor, the VP-tree's, or any other index honoring the contract."""

    def __init__(self, cursor) -> None:
        self._cursor = cursor
        self._pending: Optional[Tuple[int, float]] = None
        self.done = False

    def peek(self) -> Optional[Tuple[int, float]]:
        if self._pending is None and not self.done:
            try:
                self._pending = next(self._cursor)
            except StopIteration:
                self.done = True
        return self._pending

    def next(self) -> Optional[Tuple[int, float]]:
        item = self.peek()
        self._pending = None
        return item


def _mark_discarded(_object_id: int, rec: AuxRecord) -> None:
    rec.discarded = True


def discard_all(tree: BPlusTree, recs: Sequence[AuxRecord]) -> None:
    """DH1: mark ``recs`` (ascending ids, all stored) discarded.

    One leaf sweep (:meth:`~repro.btree.bplustree.BPlusTree.update_many`)
    reads one page per level, then one per further leaf up to the last
    record's, so at most ``tree.num_pages`` pages; one descent per
    record reads ``height`` pages each.  The sweep runs only when its
    bound is no more than the descents' reads, so marking never charges
    more logical reads, or more writes, than one descent per record.
    """
    if tree.num_pages <= len(recs) * tree.height:
        tree.update_many([rec.object_id for rec in recs], _mark_discarded)
        return
    for rec in recs:
        rec.discarded = True
        tree.insert(rec.object_id, rec)


class _PBARun:
    """Mutable state of one PBA query execution."""

    def __init__(
        self,
        context: QueryContext,
        query_ids: Sequence[int],
        k: int,
        config: PruningConfig,
        use_reverse_scan: bool,
    ) -> None:
        self.ctx = context
        self.query_ids = list(query_ids)
        self.m = len(query_ids)
        self.n = context.n
        self.k = k
        self.config = config
        self.use_reverse_scan = use_reverse_scan
        self.stats = context.stats

        self.aux = AuxBPlusTree(context.buffers.aux_buffer, self.m)
        self.cursors = [
            _PushbackCursor(context.tree.incremental_cursor(q))
            for q in query_ids
        ]
        self._rr = 0  # round-robin pointer
        self._seq = itertools.count()
        self._heap: List[Tuple[int, int, int, bool]] = []
        self._newly_common: Deque[AuxRecord] = deque()
        self._credits = 0
        self._strict = [0] * self.m  # strictly-closer counts per stream
        self._incomplete: Set[int] = set()
        self._exact_info: Dict[int, ExactScoreInfo] = {}
        self._top_exact: List[int] = []  # min-heap of the k best scores
        self.G: Optional[int] = None
        # DH2/EPH1/EPH2 dominator vectors, tested set-at-a-time.
        self._dominators = DominatorSet(self.m)
        self._discard_unseen = False
        self._reported: Set[int] = set()
        self._epoch = itertools.count()
        # explain funnel accounting — pure in-memory counters, only
        # maintained under an explain scope; every hook below is
        # guarded by ``self.explain is not None`` so the unexplained
        # path pays nothing.
        self.explain = trace.explaining()
        if self.explain is not None:
            self._ex_seen = 0  # objects with >= 1 retrieval
            self._ex_common = 0  # objects seen in all m streams
            self._ex_register: Dict[str, int] = {}  # candidacy discards
            self._ex_candidates = 0  # enheaped candidates
            self._ex_candidate_ids: Set[int] = set()
            self._ex_confirm: Dict[str, int] = {}  # candidate discards
            self._ex_scored = 0  # exact scores computed
            self._ex_scored_ids: Set[int] = set()

    # ------------------------------------------------------------------
    # retrieval (Procedure 1)
    # ------------------------------------------------------------------
    def _note(self, query_index: int, object_id: int, distance: float) -> None:
        """Record one incremental-NN retrieval."""
        # DH1 / DH3: an object first seen once G exists is discarded
        # in the same record write.
        rec = self.aux.note_retrieval(
            query_index, object_id, distance, discard=self._discard_unseen
        )
        self.stats.objects_retrieved += 1
        self._strict[query_index] = rec.lpos[query_index] - 1  # type: ignore
        if rec.q_counter == 1:
            if self.explain is not None:
                self._ex_seen += 1
            if not self._discard_unseen:
                self._incomplete.add(object_id)
        if rec.is_common:
            if self.explain is not None:
                self._ex_common += 1
            self._incomplete.discard(object_id)
            self._newly_common.append(rec)

    def _process_pending(self) -> None:
        while self._newly_common:
            rec = self._newly_common.popleft()
            if self._register(rec):
                self._credits += 1

    def _register(self, rec: AuxRecord) -> bool:
        """Procedure 1 lines 6-8: drain ties, resolve ``eq``, enheap."""
        # drain equal-distance groups so eq(o) is exact.
        for j in range(self.m):
            cursor = self.cursors[j]
            target = rec.dists[j]
            while True:
                item = cursor.peek()
                if item is None or item[1] != target:
                    break
                cursor.next()
                self._note(j, item[0], item[1])
        # count equivalents via the (now complete) query-0 tie group.
        eq = 0
        log0 = self.aux.logs[0]
        rank = rec.lpos[0]
        assert rank is not None
        while rank <= len(log0):
            other_id, other_dist = log0.entry(rank)
            if other_dist != rec.dists[0]:
                break
            if other_id != rec.object_id:
                other = self.aux.get(other_id)
                assert other is not None
                if other.is_complete and other.dists == rec.dists:
                    eq += 1
            rank += 1
        rec.eq = eq
        self.aux.add(rec)

        if rec.discarded:
            if self.explain is not None:
                self._ex_bucket(
                    self._ex_register,
                    "DH1/DH3: discarded before all streams completed",
                )
            return False
        if self.config.dh2 and self._dominators.dominates(rec.vector()):
            self._discard(rec)
            if self.explain is not None:
                self._ex_bucket(
                    self._ex_register,
                    "DH2: dominated by a result-class vector",
                )
            return False
        # Lemma 5 estimate, tie-safe variant.  The paper's
        # ``n - max_j rank(o,qj) + eq(o)`` can *understate* dom(o) when
        # an object tied with o (but not equivalent) precedes it in one
        # NN order — such an object can still be dominated by o.  Using
        # the equal-distance group's leftmost position instead is a
        # provable upper bound: the Lpos_j - 1 strictly-closer objects,
        # o itself and o's eq(o) equivalents are never dominated by o.
        max_lpos = max(rec.lpos)  # type: ignore[type-var]
        estdom = self.n - max_lpos - eq
        heapq.heappush(
            self._heap, (-estdom, next(self._seq), rec.object_id, False)
        )
        if self.explain is not None:
            self._ex_candidates += 1
            self._ex_candidate_ids.add(rec.object_id)
        return True

    def _retrieve_one(self) -> bool:
        """Advance retrieval by one step; False when nothing remains."""
        self._process_pending()
        if self._credits > 0:
            return True
        if self._discard_unseen and not self._incomplete:
            return False  # no object can still become a candidate
        item: Optional[Tuple[int, float]] = None
        query_index = -1
        for _attempt in range(self.m):
            query_index = self._rr
            self._rr = (self._rr + 1) % self.m
            item = self.cursors[query_index].next()
            if item is not None:
                break
        if item is None:
            return False
        self._note(query_index, item[0], item[1])
        self._process_pending()
        return True

    def fetch_next_common(self) -> bool:
        """NextCommonNeighbor: ensure one new candidate got enheaped."""
        while self._credits == 0:
            if not self._retrieve_one():
                return False
        self._credits -= 1
        return True

    # ------------------------------------------------------------------
    # bounds and pruning
    # ------------------------------------------------------------------
    def _future_bound(self) -> Optional[int]:
        """Safe upper bound on the score of any not-yet-common object."""
        if self._discard_unseen and not self._incomplete:
            return None
        active = [
            self._strict[j]
            for j in range(self.m)
            if self.cursors[j].peek() is not None
        ]
        if not active:
            return None
        return self.n - 1 - min(active)

    def _discard(self, rec: AuxRecord) -> None:
        rec.discarded = True
        self.aux.add(rec)
        self.stats.objects_pruned += 1
        if rec.is_common and self.config.dh2:
            self._dominators.add(rec.vector())

    def _ex_bucket(self, buckets: Dict[str, int], rule: str) -> None:
        """Count one explain discard under ``rule`` (explain on only)."""
        buckets[rule] = buckets.get(rule, 0) + 1

    def _eph_prune(self, rec: AuxRecord) -> bool:
        """EPH1-EPH5 on a candidate about to be exactly scored."""
        if self.G is None:
            return False
        g = self.G
        if self.config.eph3 and eph3_bound(self.n, rec.lpos) <= g:
            self._discard(rec)
            if self.explain is not None:
                self._ex_bucket(self._ex_confirm, "EPH3: rank bound <= G")
            return True
        if self.config.eph4:
            positions = [len(log) for log in self.aux.logs]
            if eph4_bound(self.n, len(self.aux), positions, rec.lpos) <= g:
                self._discard(rec)
                if self.explain is not None:
                    self._ex_bucket(
                        self._ex_confirm, "EPH4: retrieval bound <= G"
                    )
                return True
        if (self.config.eph1 or self.config.eph2) and self._dominators.dominates(
            rec.vector()
        ):
            self._discard(rec)
            if self.explain is not None:
                self._ex_bucket(
                    self._ex_confirm,
                    "EPH1/EPH2: dominated by a result-class vector",
                )
            return True
        if self.config.eph5:
            for info in self._exact_info.values():
                if eph5_bound(info, rec.lpos) <= g:
                    self._discard(rec)
                    if self.explain is not None:
                        self._ex_bucket(
                            self._ex_confirm,
                            "EPH5: bound from an exact score <= G",
                        )
                    return True
        return False

    # ------------------------------------------------------------------
    # exact scoring
    # ------------------------------------------------------------------
    def _compute_exact(self, rec: AuxRecord) -> Optional[int]:
        if self.use_reverse_scan:
            outcome = exact_score_reverse_scan(
                self.aux,
                rec,
                self.n,
                epoch=next(self._epoch),
                pruning_value=self.G,
                use_iph=self.config.iph,
            )
        else:
            outcome = exact_score_aux(self.aux, rec, self.n)
        if outcome.score is None:
            # IPH abort: the object is prunable.
            self._discard(rec)
            if self.explain is not None:
                self._ex_bucket(
                    self._ex_confirm, "IPH: incremental scoring abort"
                )
            return None
        self.stats.exact_score_computations += 1
        if self.explain is not None:
            self._ex_scored += 1
            self._ex_scored_ids.add(rec.object_id)
        self._record_exact(rec, outcome)
        return outcome.score

    def _record_exact(self, rec: AuxRecord, outcome: ScoreOutcome) -> None:
        score = outcome.score
        assert score is not None and rec.eq is not None
        self._exact_info[rec.object_id] = ExactScoreInfo(
            object_id=rec.object_id,
            score=score,
            vector=rec.vector(),
            lpos=tuple(rec.lpos),  # type: ignore[arg-type]
            eq=rec.eq,
        )
        heapq.heappush(self._top_exact, score)
        if len(self._top_exact) > self.k:
            heapq.heappop(self._top_exact)
        if len(self._top_exact) == self.k:
            new_g = self._top_exact[0] - 1
            if self.G is None or new_g > self.G:
                self.G = new_g
                if self.explain is not None:
                    explain_mod.snapshot(
                        "pba.G",
                        G=self.G,
                        exact_scores=len(self._exact_info),
                    )
            if self.config.dh3 or self.config.dh1:
                self._discard_unseen = True  # DH3 (and DH1's unseen part)
        if self.G is not None:
            # vectors of objects at or below the k-th best score prune
            # whatever they dominate (EPH1/EPH2).
            if score <= self.G + 1 and (
                self.config.eph1 or self.config.eph2 or self.config.dh2
            ):
                self._dominators.add(rec.vector())
            # DH1: objects this computation proved dominated are out.
            if self.config.dh1 and score <= self.G + 1:
                fresh = [
                    other
                    for other in outcome.dominated
                    if not other.discarded
                    and other.object_id not in self._reported
                ]
                discard_all(self.aux.tree, fresh)
                self.stats.objects_pruned += len(fresh)
                for other in fresh:
                    object_id = other.object_id
                    self._incomplete.discard(object_id)
                    if self.explain is not None and (
                        object_id in self._ex_candidate_ids
                        and object_id not in self._ex_scored_ids
                    ):
                        self._ex_bucket(
                            self._ex_confirm,
                            "DH1: proved dominated by an exact score",
                        )

    # ------------------------------------------------------------------
    # heap maintenance
    # ------------------------------------------------------------------
    def _entry_alive(self, object_id: int) -> bool:
        if object_id in self._reported:
            return False
        rec = self.aux.get(object_id)
        return rec is not None and not rec.discarded

    def _pop_valid(self) -> Optional[Tuple[int, int, bool]]:
        """Pop ``(score, object_id, is_exact)`` skipping dead entries."""
        while self._heap:
            neg_score, _seq, object_id, is_exact = heapq.heappop(self._heap)
            if self._entry_alive(object_id):
                return -neg_score, object_id, is_exact
        return None

    def _peek_valid_score(self) -> Optional[int]:
        while self._heap:
            neg_score, _seq, object_id, _is_exact = self._heap[0]
            if self._entry_alive(object_id):
                return -neg_score
            heapq.heappop(self._heap)
        return None

    # ------------------------------------------------------------------
    # the main loop (Algorithm 3)
    # ------------------------------------------------------------------
    def execute(self) -> Iterator[ResultItem]:
        reported = 0
        with trace.span("pba.seed", category="algo"):
            self.fetch_next_common()  # line 4-5: seed the heap
        while reported < self.k:
            # the round span closes before the yield: a ContextVar set
            # in a generator frame must not leak into the consumer.
            with trace.span(
                "pba.round", category="algo", args={"round": reported}
            ) as round_span:
                pruned_before = self.stats.objects_pruned
                retrieved_before = self.stats.objects_retrieved
                confirmed = self._confirm_next()
                if round_span:
                    round_span.set(
                        "pruned", self.stats.objects_pruned - pruned_before
                    )
                    round_span.set(
                        "retrieved",
                        self.stats.objects_retrieved - retrieved_before,
                    )
            if confirmed is None:
                return  # data set exhausted
            object_id, score = confirmed
            self._reported.add(object_id)
            self.stats.results_reported += 1
            reported += 1
            yield ResultItem(object_id, score)

    def _confirm_next(self) -> Optional[Tuple[int, int]]:
        """Algorithm 3 inner loop: the next confirmed (id, score)."""
        while True:
            self.fetch_next_common()  # line 6
            candidate = self._pop_valid()
            if candidate is None:
                if self.fetch_next_common():
                    continue
                return None  # data set exhausted
            score, object_id, is_exact = candidate
            rec = self.aux.get(object_id)
            assert rec is not None
            if not is_exact:
                if self._eph_prune(rec):
                    continue
                with trace.span(
                    "pba.exact_score",
                    category="algo",
                    args={"object_id": object_id},
                ):
                    exact = self._compute_exact(rec)
                if exact is None:
                    continue  # IPH pruned
                score = exact
            next_best = self._peek_valid_score()
            future = self._future_bound()
            threshold = max(
                (b for b in (next_best, future) if b is not None),
                default=None,
            )
            confirmed = threshold is None or score >= threshold
            if self.explain is not None:
                explain_mod.snapshot(
                    "pba.confirm",
                    object_id=object_id,
                    score=score,
                    heap_size=len(self._heap),
                    next_best=next_best,
                    future_bound=future,
                    confirmed=confirmed,
                )
            if confirmed:
                return object_id, score  # Lemma 6: confirmed
            heapq.heappush(
                self._heap,
                (-score, next(self._seq), object_id, True),
            )

    def finalize_explain(self) -> None:
        """Record the run-level funnel stages as explain instants.

        Every stage conserves by construction: each of the ``n``
        objects lands in exactly one bucket per stage (see the
        counters' maintenance sites above).  Stage costs are not
        attached here — per-phase distance deltas live in the plan's
        span-attributed ``phases`` section.
        """
        if self.explain is None:
            return
        stage = explain_mod.stage
        stage(
            "pba.retrieval",
            self.n,
            self._ex_common,
            {
                "never retrieved (streams stopped early)": (
                    self.n - self._ex_seen
                ),
                "partially retrieved, never common": (
                    self._ex_seen - self._ex_common
                ),
            },
        )
        stage(
            "pba.candidacy",
            self._ex_common,
            self._ex_candidates,
            self._ex_register,
        )
        confirm = dict(self._ex_confirm)
        leftover = (
            self._ex_candidates
            - self._ex_scored
            - sum(confirm.values())
        )
        if leftover:
            confirm["unconfirmed at termination (work avoided)"] = leftover
        stage("pba.confirmation", self._ex_candidates, self._ex_scored, confirm)
        stage(
            "pba.report",
            self._ex_scored,
            len(self._reported),
            {
                "exactly scored but outside the final top-k": (
                    self._ex_scored - len(self._reported)
                )
            },
        )

    def close(self) -> None:
        self.aux.drop()


class _PBABase(TopKAlgorithm):
    """Shared driver for PBA1/PBA2."""

    use_reverse_scan = True

    def __init__(
        self,
        context: QueryContext,
        pruning: Optional[PruningConfig] = None,
    ) -> None:
        super().__init__(context)
        self.pruning = pruning if pruning is not None else PruningConfig()

    def run(
        self, query_ids: Sequence[int], k: int
    ) -> Iterator[ResultItem]:
        self._validate(query_ids, k)
        run = _PBARun(
            self.context,
            query_ids,
            k,
            config=self.pruning,
            use_reverse_scan=self.use_reverse_scan,
        )
        try:
            yield from run.execute()
        finally:
            run.finalize_explain()
            run.close()


class PBA1(_PBABase):
    """PBA with reverse-scanning exact scores (``ExactScore-RS``)."""

    name = "PBA1"
    use_reverse_scan = True


class PBA2(_PBABase):
    """PBA with ``AuxB+``-tree positional exact scores
    (``ExactScore-AUX``)."""

    name = "PBA2"
    use_reverse_scan = False
