"""Exact-score procedures (ExactScore-RS / ExactScore-AUX) vs brute force.

These tests drive the AuxB+-tree with a faithful round-robin retrieval
simulation (sorted distance lists play the incremental-NN streams) and
check Lemma 7 / Procedure 3 against the quadratic oracle, including the
tie-heavy cases the procedures' equivalence corrections exist for.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.aux_index import _LPOS_ROWS, AuxBPlusTree, AuxRecord
from repro.core.dominance import DistanceVectorSource
from repro.core.scoring import exact_score_aux, exact_score_reverse_scan
from repro.core.brute_force import brute_force_scores
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager

from tests.conftest import make_vector_space


class _SimulatedRun:
    """Round-robin retrieval over sorted distance lists, with the same
    tie-draining PBA performs when an object becomes common."""

    def __init__(self, space, query_ids):
        self.space = space
        self.m = len(query_ids)
        self.query_ids = query_ids
        self.source = DistanceVectorSource(space, query_ids)
        buf = LRUBuffer(PageManager(), capacity=256)
        self.aux = AuxBPlusTree(buf, m=self.m)
        self.orders = [
            sorted(
                space.object_ids,
                key=lambda i, q=q: (space.distance(i, q), i),
            )
            for q in query_ids
        ]
        self.positions = [0] * self.m
        self.common = []

    def _note(self, j):
        object_id = self.orders[j][self.positions[j]]
        self.positions[j] += 1
        distance = self.space.distance(object_id, self.query_ids[j])
        rec = self.aux.note_retrieval(j, object_id, distance)
        if rec.is_common:
            self.common.append(rec)

    def advance_until_common(self):
        """Retrieve round-robin until a new common neighbor appears,
        then drain its ties and resolve eq (PBA's Procedure 1)."""
        start = len(self.common)
        for j in itertools.cycle(range(self.m)):
            if all(p >= len(self.orders[0]) for p in self.positions):
                return None
            if self.positions[j] < len(self.orders[j]):
                self._note(j)
            if len(self.common) > start:
                break
        rec = self.common[-1]
        self._drain_ties(rec)
        self._resolve_eq(rec)
        return rec

    def _drain_ties(self, rec):
        for j in range(self.m):
            target = rec.dists[j]
            while self.positions[j] < len(self.orders[j]):
                nxt = self.orders[j][self.positions[j]]
                if self.space.distance(nxt, self.query_ids[j]) != target:
                    break
                self._note(j)

    def _resolve_eq(self, rec):
        eq = 0
        log0 = self.aux.logs[0]
        rank = rec.lpos[0]
        while rank <= len(log0):
            other_id, other_dist = log0.entry(rank)
            if other_dist != rec.dists[0]:
                break
            if other_id != rec.object_id:
                other = self.aux.get(other_id)
                if other.is_complete and other.dists == rec.dists:
                    eq += 1
            rank += 1
        rec.eq = eq
        self.aux.add(rec)


@pytest.fixture(params=[(30, None, 0), (40, 3, 1), (25, 2, 2), (35, None, 3)])
def run(request):
    n, grid, seed = request.param
    space = make_vector_space(n=n, dims=2, seed=seed, grid=grid)
    query_ids = [0, n // 2]
    return _SimulatedRun(space, query_ids), space, query_ids


class TestReverseScanScore:
    def test_matches_brute_force_for_all_commons(self, run):
        sim, space, queries = run
        truth = brute_force_scores(space, queries)
        epoch = itertools.count()
        while True:
            rec = sim.advance_until_common()
            if rec is None:
                break
            outcome = exact_score_reverse_scan(
                sim.aux, rec, len(space), epoch=next(epoch), use_iph=False
            )
            assert outcome.score == truth[rec.object_id], rec.object_id

    def test_dominated_list_is_exact(self, run):
        sim, space, queries = run
        source = DistanceVectorSource(space, queries)
        rec = sim.advance_until_common()
        outcome = exact_score_reverse_scan(
            sim.aux, rec, len(space), epoch=0, use_iph=False
        )
        ids = [other.object_id for other in outcome.dominated]
        assert ids == sorted(ids)  # DH1 sweeps them in id order
        for other in outcome.dominated:
            assert source.dominates(rec.object_id, other.object_id)

    def test_iph_aborts_when_bound_met(self, run):
        sim, space, queries = run
        rec = sim.advance_until_common()
        # an absurdly high pruning value forces an immediate abort.
        outcome = exact_score_reverse_scan(
            sim.aux,
            rec,
            len(space),
            epoch=0,
            pruning_value=len(space) * 10,
            use_iph=True,
        )
        assert outcome.score is None

    def test_iph_disabled_ignores_pruning_value(self, run):
        sim, space, queries = run
        truth = brute_force_scores(space, queries)
        rec = sim.advance_until_common()
        outcome = exact_score_reverse_scan(
            sim.aux,
            rec,
            len(space),
            epoch=0,
            pruning_value=len(space) * 10,
            use_iph=False,
        )
        assert outcome.score == truth[rec.object_id]


class TestAuxScore:
    def test_matches_brute_force_for_all_commons(self, run):
        sim, space, queries = run
        truth = brute_force_scores(space, queries)
        while True:
            rec = sim.advance_until_common()
            if rec is None:
                break
            outcome = exact_score_aux(sim.aux, rec, len(space))
            assert outcome.score == truth[rec.object_id], rec.object_id

    def test_agrees_with_reverse_scan(self, run):
        sim, space, queries = run
        epoch = itertools.count()
        while True:
            rec = sim.advance_until_common()
            if rec is None:
                break
            rs = exact_score_reverse_scan(
                sim.aux, rec, len(space), epoch=next(epoch), use_iph=False
            )
            aux = exact_score_aux(sim.aux, rec, len(space))
            assert rs.score == aux.score

    def test_dominated_list_is_exact(self, run):
        sim, space, queries = run
        source = DistanceVectorSource(space, queries)
        rec = sim.advance_until_common()
        outcome = exact_score_aux(sim.aux, rec, len(space))
        ids = [other.object_id for other in outcome.dominated]
        assert ids == sorted(ids)  # DH1 sweeps them in id order
        for other in outcome.dominated:
            if other.is_complete:
                assert source.dominates(rec.object_id, other.object_id)

    def test_matches_record_loop_for_all_commons(self, run):
        sim, space, _queries = run
        while True:
            rec = sim.advance_until_common()
            if rec is None:
                break
            outcome = exact_score_aux(sim.aux, rec, len(space))
            score, dominated = procedure3_loop(sim.aux, rec, len(space))
            assert outcome.score == score
            assert outcome.dominated == dominated


def procedure3_loop(aux, rec, n):
    """Procedure 3 record by record: the oracle of the array version.

    ``o`` dominates a recorded ``o_i`` iff no recorded position of
    ``o_i`` is smaller than ``o``'s, unless every position is recorded
    and equal (an equivalent); unrecorded objects are all dominated.
    """
    m = aux.m
    dominated = []
    for other in aux.records():
        if other.object_id == rec.object_id:
            continue
        ff = True
        for j in range(m):
            lp = other.lpos[j]
            if lp is not None and lp < rec.lpos[j]:
                ff = False
                break
        if ff:
            fe = all(
                other.lpos[j] is not None and other.lpos[j] == rec.lpos[j]
                for j in range(m)
            )
            if fe:
                ff = False
        if ff:
            dominated.append(other)
    return len(dominated) + n - len(aux), dominated


# one lpos entry: unrecorded, or a rank from a small range so ties and
# equal rows (equivalents) are common.
_position = st.one_of(st.none(), st.integers(min_value=1, max_value=5))


@st.composite
def _lpos_tables(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    rows = [draw(st.lists(_position, min_size=m, max_size=m)) for _ in ids]
    own = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=m, max_size=m)
    )
    equivalents = draw(st.lists(st.booleans(), max_size=len(ids)))
    for i, same in enumerate(equivalents):
        if same:
            rows[i] = list(own)
    rewrites = draw(st.lists(st.booleans(), max_size=len(ids)))
    return m, ids, rows, own, rewrites


@settings(max_examples=80, deadline=None)
@given(
    table=_lpos_tables(),
    extra=st.integers(min_value=0, max_value=20),
    removals=st.lists(st.booleans(), max_size=40),
    filler=st.booleans(),
)
def test_array_procedure3_matches_record_loop(table, extra, removals, filler):
    """Random lpos tables — unrecorded positions, ties, equivalents,
    large ids, rows rewritten after insertion, rows left by removed
    records, and more records than the array's first rows."""
    m, ids, rows, own, rewrites = table
    aux = AuxBPlusTree(LRUBuffer(PageManager(), capacity=16), m=m)
    scored, *others = ids
    rec = AuxRecord(object_id=scored, m=m, q_counter=m, lpos=list(own))
    rec.is_common = True
    aux.add(rec)
    for object_id, lpos in zip(others, rows):
        aux.add(AuxRecord(object_id=object_id, m=m, lpos=list(lpos)))
    for object_id, rewrite in zip(others, rewrites):
        if rewrite:  # a stored record's lpos moves through add()
            other = aux.get(object_id)
            other.lpos = [None if p is None else p + 1 for p in other.lpos]
            aux.add(other)
    for object_id, remove in zip(others, removals):
        if remove:
            assert aux.remove(object_id)
    if filler:  # past the array's first rows
        for i in range(_LPOS_ROWS + 10):
            lpos = [None if (i + j) % 7 == 0 else 1 + (i + j) % 6
                    for j in range(m)]
            aux.add(AuxRecord(object_id=2 * 10**6 + i, m=m, lpos=lpos))
    n = len(aux) + extra

    outcome = exact_score_aux(aux, rec, n)
    score, dominated = procedure3_loop(aux, rec, n)
    assert outcome.score == score
    assert outcome.dominated == dominated
