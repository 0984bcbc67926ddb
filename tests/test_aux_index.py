"""The AuxB+-tree: records, retrieval logs, Lpos/tie bookkeeping."""

import pytest

from repro.core.aux_index import (
    UNRECORDED,
    AuxBPlusTree,
    AuxRecord,
    RetrievalLog,
)
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager


def make_aux(m=3, capacity=64):
    buf = LRUBuffer(PageManager(), capacity=capacity)
    return AuxBPlusTree(buf, m=m), buf


class TestAuxRecord:
    def test_fresh_record_shape(self):
        rec = AuxRecord(object_id=7, m=4)
        assert rec.dists == [None] * 4
        assert rec.lpos == [None] * 4
        assert not rec.is_complete
        assert not rec.is_common

    def test_vector_requires_completion(self):
        rec = AuxRecord(object_id=1, m=2)
        with pytest.raises(AssertionError):
            rec.vector()


class TestRetrievalLog:
    def test_append_returns_one_based_rank(self):
        aux, _ = make_aux()
        log = aux.logs[0]
        assert log.append(10, 0.5) == 1
        assert log.append(11, 0.6) == 2
        assert len(log) == 2

    def test_entry_random_access(self):
        aux, _ = make_aux()
        log = aux.logs[0]
        for i in range(500):
            log.append(i, float(i))
        assert log.entry(1) == (0, 0.0)
        assert log.entry(500) == (499, 499.0)
        assert log.entry(254) == (253, 253.0)

    def test_entry_out_of_range(self):
        aux, _ = make_aux()
        log = aux.logs[0]
        log.append(1, 1.0)
        with pytest.raises(IndexError):
            log.entry(0)
        with pytest.raises(IndexError):
            log.entry(2)

    def test_scan_backward_order(self):
        aux, _ = make_aux()
        log = aux.logs[0]
        for i in range(5):
            log.append(i, float(i))
        scanned = list(log.scan_backward())
        assert [rank for rank, _o, _d in scanned] == [5, 4, 3, 2, 1]

    def test_scan_backward_from_rank(self):
        aux, _ = make_aux()
        log = aux.logs[0]
        for i in range(5):
            log.append(i, float(i))
        scanned = list(log.scan_backward(from_rank=3))
        assert [o for _r, o, _d in scanned] == [2, 1, 0]

    def test_spans_multiple_pages(self):
        aux, buf = make_aux()
        log = aux.logs[0]
        for i in range(1000):
            log.append(i, float(i))
        assert len(log.file) > 1

    def test_drop_releases_pages(self):
        aux, buf = make_aux()
        log = aux.logs[1]
        for i in range(600):
            log.append(i, float(i))
        log.drop()
        assert len(log.file) == 0
        assert len(log) == 0


class TestNoteRetrieval:
    def test_basic_bookkeeping(self):
        aux, _ = make_aux(m=2)
        rec = aux.note_retrieval(0, 42, 1.5)
        assert rec.q_counter == 1
        assert rec.dists == [1.5, None]
        assert rec.lpos == [1, None]
        assert rec.max_rank == 1
        assert not rec.is_common
        assert len(aux) == 1

    def test_completion_marks_common(self):
        aux, _ = make_aux(m=2)
        aux.note_retrieval(0, 42, 1.5)
        rec = aux.note_retrieval(1, 42, 2.5)
        assert rec.is_common
        assert rec.vector() == (1.5, 2.5)

    def test_lpos_groups_equal_distances(self):
        aux, _ = make_aux(m=1)
        aux.note_retrieval(0, 1, 0.5)   # rank 1, lpos 1
        aux.note_retrieval(0, 2, 0.7)   # rank 2, lpos 2
        aux.note_retrieval(0, 3, 0.7)   # rank 3, lpos 2 (tie)
        aux.note_retrieval(0, 4, 0.7)   # rank 4, lpos 2 (tie)
        aux.note_retrieval(0, 5, 0.9)   # rank 5, lpos 5
        assert aux.get(2).lpos[0] == 2
        assert aux.get(3).lpos[0] == 2
        assert aux.get(4).lpos[0] == 2
        assert aux.get(5).lpos[0] == 5

    def test_max_rank_across_queries(self):
        aux, _ = make_aux(m=2)
        aux.note_retrieval(0, 9, 1.0)
        aux.note_retrieval(0, 8, 2.0)
        aux.note_retrieval(1, 9, 3.0)  # rank 1 from q1
        assert aux.get(9).max_rank == 1
        aux.note_retrieval(1, 7, 4.0)
        rec = aux.note_retrieval(0, 7, 5.0)  # rank 3 from q0
        assert rec.max_rank == 3

    def test_double_retrieval_same_query_rejected(self):
        aux, _ = make_aux(m=2)
        aux.note_retrieval(0, 1, 1.0)
        with pytest.raises(AssertionError):
            aux.note_retrieval(0, 1, 1.0)

    def test_unique_count_is_objects_not_retrievals(self):
        aux, _ = make_aux(m=3)
        aux.note_retrieval(0, 1, 1.0)
        aux.note_retrieval(1, 1, 1.0)
        aux.note_retrieval(2, 1, 1.0)
        aux.note_retrieval(0, 2, 2.0)
        assert len(aux) == 2


class TestRecords:
    def test_record_creates_once(self):
        aux, _ = make_aux()
        first = aux.note_retrieval(0, 5, 1.0)
        second = aux.note_retrieval(1, 5, 2.0)
        assert first is second is aux.get(5)
        assert len(aux) == 1

    def test_get_missing_is_none(self):
        aux, _ = make_aux()
        assert aux.get(999) is None
        assert 999 not in aux

    def test_records_iterates_in_id_order(self):
        aux, _ = make_aux()
        for object_id in [5, 1, 9, 3]:
            aux.add(AuxRecord(object_id=object_id, m=3))
        assert [rec.object_id for rec in aux.records()] == [1, 3, 5, 9]

    def test_update_persists_mutation(self):
        aux, _ = make_aux()
        aux.add(AuxRecord(object_id=4, m=3))
        rec = aux.get(4)
        rec.q_counter = 7
        aux.add(rec)
        assert aux.get(4).q_counter == 7

    def test_drop_clears_everything(self):
        aux, buf = make_aux()
        for i in range(50):
            aux.note_retrieval(0, i, float(i))
        aux.drop()
        assert len(aux.logs[0]) == 0


class TestLposArray:
    @staticmethod
    def table(aux):
        rows, recs = aux.lpos_rows()
        return aux.lpos[rows].tolist(), recs

    def assert_mirrors(self, aux):
        table, recs = self.table(aux)
        for row, rec in zip(table, recs):
            assert row == [UNRECORDED if p is None else p for p in rec.lpos]

    def test_rows_follow_every_store(self):
        aux, _ = make_aux(m=2)
        aux.note_retrieval(0, 3, 1.0)
        aux.note_retrieval(0, 5, 1.0)  # tie: lpos 1
        aux.note_retrieval(1, 5, 2.0)
        far = 10**9
        aux.add(AuxRecord(object_id=far, m=2, lpos=[4, None]))
        rec = aux.get(3)
        rec.lpos[1] = 9
        aux.add(rec)
        self.assert_mirrors(aux)
        table, recs = self.table(aux)
        assert [r.object_id for r in recs] == [3, 5, far]
        assert table == [[1, 9], [1, 1], [4, UNRECORDED]]
        assert aux.remove(far)
        self.assert_mirrors(aux)
        aux.drop()
        assert (aux.lpos == UNRECORDED).all()
        assert len(aux) == 0

    def test_rows_grow_with_records_not_ids(self):
        aux, _ = make_aux(m=2)
        rows = len(aux.lpos)
        for i in range(rows - 1):  # row 0 is the shared unrecorded row
            aux.note_retrieval(0, 10**9 + 7 * i, float(i))
        aux.add(AuxRecord(object_id=5 * 10**9, m=2))  # records nothing
        assert len(aux.lpos) == rows
        aux.note_retrieval(1, 3, 0.5)  # one record past the first rows
        assert len(aux.lpos) == 2 * rows
        self.assert_mirrors(aux)

    def test_lpos_rows_are_id_ordered(self):
        aux, _ = make_aux(m=1)
        for object_id in [9, 2, 5]:
            aux.note_retrieval(0, object_id, float(object_id))
        table, recs = self.table(aux)
        assert [rec.object_id for rec in recs] == [2, 5, 9]
        assert table == [[2], [3], [1]]


class TestIOAccounting:
    def test_operations_charge_buffer(self):
        aux, buf = make_aux(capacity=4)
        before = buf.stats.logical_accesses
        for i in range(100):
            aux.note_retrieval(0, i, float(i))
        assert buf.stats.logical_accesses > before
