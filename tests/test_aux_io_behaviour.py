"""Disk behaviour of the AuxB+-tree and retrieval logs, and cleanup
semantics of PBA's per-query temporary state."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.aux_index import AuxBPlusTree
from repro.core.pba import PBA2, discard_all
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager

from tests.conftest import make_engine
from tests.test_btree import leaf_chain, leaf_index


class TestLogPaging:
    def test_sequential_appends_localize_io(self):
        buf = LRUBuffer(PageManager(), capacity=4)
        aux = AuxBPlusTree(buf, m=1)
        log = aux.logs[0]
        before = buf.stats.page_faults
        for i in range(1000):
            log.append(i, float(i))
        appended_faults = buf.stats.page_faults - before
        # appends touch one tail page at a time: faults stay near the
        # number of pages, far below the number of appends.
        assert appended_faults < 1000 / 10

    def test_backward_scan_is_sequential(self):
        buf = LRUBuffer(PageManager(), capacity=4)
        aux = AuxBPlusTree(buf, m=1)
        log = aux.logs[0]
        for i in range(800):
            log.append(i, float(i))
        before = buf.stats.page_faults
        consumed = sum(1 for _ in log.scan_backward())
        assert consumed == 800
        scan_faults = buf.stats.page_faults - before
        assert scan_faults <= len(log.file) + 1


class TestRetrievalCharge:
    """One retrieval reads the log's previous entry, appends to the
    log, and touches its record in exactly one root-to-leaf descent —
    plus one descent for the previous record when the two tie."""

    @staticmethod
    def populated():
        buf = LRUBuffer(PageManager(), capacity=64)
        aux = AuxBPlusTree(buf, m=2)
        for i in range(300):
            aux.note_retrieval(0, i, float(i))
        aux.note_retrieval(1, 3, 0.1)
        assert aux.tree.height >= 2
        return aux, buf

    @staticmethod
    def charge(buf, retrieve):
        stats = buf.stats
        reads, writes = stats.logical_reads, stats.logical_writes
        retrieve()
        return stats.logical_reads - reads, stats.logical_writes - writes

    def test_new_position_is_log_gets_plus_one_descent(self):
        aux, buf = self.populated()
        reads, writes = self.charge(
            buf, lambda: aux.note_retrieval(1, 7, 0.5)
        )
        # log: previous entry + tail page read, tail page write;
        # record: one descent and one leaf write.
        assert reads == 2 + aux.tree.height
        assert writes == 1 + 1

    def test_tie_adds_the_previous_record_descent(self):
        aux, buf = self.populated()
        reads, writes = self.charge(
            buf, lambda: aux.note_retrieval(1, 7, 0.1)
        )
        assert reads == 2 + 2 * aux.tree.height
        assert writes == 1 + 1
        assert aux.get(7).lpos[1] == 1

    def test_discard_flag_rides_the_same_write(self):
        aux, buf = self.populated()
        pages = aux.tree.num_pages
        reads, writes = self.charge(
            buf, lambda: aux.note_retrieval(1, 500, 0.5, discard=True)
        )
        assert aux.tree.num_pages == pages  # no split
        assert reads == 2 + aux.tree.height
        assert writes == 1 + 1
        assert aux.get(500).discarded
        # only a first sighting is discarded.
        aux.note_retrieval(1, 8, 0.7, discard=True)
        assert not aux.get(8).discarded


class TestDH1Charge:
    """DH1 marks the records an exact score proved dominated with no
    more logical reads or writes than one descent per record."""

    @staticmethod
    def populated(n=600):
        buf = LRUBuffer(PageManager(), capacity=64)
        aux = AuxBPlusTree(buf, m=1)
        for i in range(n):
            aux.note_retrieval(0, i, float(i))
        return aux, buf

    @staticmethod
    def mark(aux, buf, ids):
        recs = [aux.get(i) for i in ids]
        stats = buf.stats
        reads, writes = stats.logical_reads, stats.logical_writes
        discard_all(aux.tree, recs)
        charge = stats.logical_reads - reads, stats.logical_writes - writes
        assert [i for i in range(len(aux)) if aux.get(i).discarded] == ids
        return charge

    def test_sparse_list_on_a_multi_leaf_tree_descends_per_record(self):
        aux, buf = self.populated()
        height = aux.tree.height
        assert height == 2 and len(leaf_chain(aux.tree)) >= 8
        # a sweep from the first leaf to the last would read them all.
        assert self.mark(aux, buf, [0, 599]) == (2 * height, 2)

    def test_dense_list_sweeps_the_leaves_between(self):
        aux, buf = self.populated()
        leaves = leaf_chain(aux.tree)
        ids = list(range(100, 300, 4))
        first, last = leaf_index(leaves, ids[0]), leaf_index(leaves, ids[-1])
        reads, writes = self.mark(aux, buf, ids)
        assert reads == aux.tree.height + last - first
        assert writes == last - first + 1

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=700),
        picks=st.lists(st.integers(min_value=0, max_value=699), max_size=60),
    )
    def test_never_charges_more_than_one_descent_per_record(self, n, picks):
        aux, buf = self.populated(n)
        ids = sorted({i for i in picks if i < n})
        reads, writes = self.mark(aux, buf, ids)
        assert reads <= len(ids) * aux.tree.height
        assert writes <= len(ids)


class TestPerQueryCleanup:
    def test_full_run_releases_aux_pages(self):
        engine = make_engine(n=120, seed=141)
        manager = engine.buffers.aux_manager
        before_pages = len(manager)
        list(
            PBA2(engine.make_context()).run([0, 60, 110], 5)
        )
        assert len(manager) == before_pages  # all temp pages freed

    def test_early_stop_releases_aux_pages(self):
        engine = make_engine(n=120, seed=142)
        manager = engine.buffers.aux_manager
        before_pages = len(manager)
        gen = PBA2(engine.make_context()).run([1, 61], 8)
        next(gen)
        gen.close()
        assert len(manager) == before_pages

    def test_exception_path_releases_aux_pages(self):
        engine = make_engine(n=80, seed=143)
        manager = engine.buffers.aux_manager
        before_pages = len(manager)
        gen = PBA2(engine.make_context()).run([2, 40], 5)
        next(gen)
        with pytest.raises(RuntimeError):
            gen.throw(RuntimeError("simulated consumer failure"))
        assert len(manager) == before_pages

    def test_repeated_queries_do_not_leak(self):
        engine = make_engine(n=100, seed=144)
        manager = engine.buffers.aux_manager
        baseline = len(manager)
        for _ in range(5):
            engine.top_k_dominating([0, 50], 4, algorithm="pba1")
            engine.top_k_dominating([0, 50], 4, algorithm="pba2")
        assert len(manager) == baseline
