"""Unit tests for the LRU buffer pools."""

import pytest

from repro.storage.buffer import BufferPool, LRUBuffer
from repro.storage.pages import PageManager

from tests.conftest import run_threads


def make_buffer(capacity=3):
    mgr = PageManager()
    return mgr, LRUBuffer(mgr, capacity=capacity)


class TestLRUBasics:
    def test_first_read_is_fault(self):
        mgr, buf = make_buffer()
        page_id = mgr.allocate()
        buf.get(page_id)
        assert buf.stats.page_faults == 1
        assert buf.stats.buffer_hits == 0

    def test_second_read_is_hit(self):
        mgr, buf = make_buffer()
        page_id = mgr.allocate()
        buf.get(page_id)
        buf.get(page_id)
        assert buf.stats.page_faults == 1
        assert buf.stats.buffer_hits == 1

    def test_lru_eviction_order(self):
        mgr, buf = make_buffer(capacity=2)
        a, b, c = (mgr.allocate() for _ in range(3))
        buf.get(a)
        buf.get(b)
        buf.get(c)  # evicts a
        assert a not in buf
        assert b in buf and c in buf

    def test_access_refreshes_recency(self):
        mgr, buf = make_buffer(capacity=2)
        a, b, c = (mgr.allocate() for _ in range(3))
        buf.get(a)
        buf.get(b)
        buf.get(a)  # a is now most recent
        buf.get(c)  # evicts b
        assert b not in buf
        assert a in buf

    def test_dirty_page_written_back_on_eviction(self):
        mgr, buf = make_buffer(capacity=1)
        a, b = mgr.allocate(payload=[]), mgr.allocate()
        page = buf.get(a)
        page.payload.append("x")
        buf.put(page)
        buf.get(b)  # evicts a, must flush
        assert mgr.read_page(a).payload == ["x"]
        assert not mgr.read_page(a).dirty

    def test_put_marks_dirty_and_counts_write(self):
        mgr, buf = make_buffer()
        page = buf.get(mgr.allocate())
        buf.put(page)
        assert page.dirty
        assert buf.stats.logical_writes == 1

    def test_zero_capacity_disables_caching(self):
        mgr, buf = make_buffer(capacity=0)
        page_id = mgr.allocate()
        buf.get(page_id)
        buf.get(page_id)
        assert buf.stats.page_faults == 2
        assert buf.stats.buffer_hits == 0

    def test_negative_capacity_rejected(self):
        mgr = PageManager()
        with pytest.raises(ValueError):
            LRUBuffer(mgr, capacity=-1)

    def test_new_page_is_resident_and_dirty(self):
        mgr, buf = make_buffer()
        page = buf.new_page(payload="p")
        assert page.page_id in buf
        assert page.dirty

    def test_free_page_removes_everywhere(self):
        mgr, buf = make_buffer()
        page = buf.new_page()
        buf.free_page(page.page_id)
        assert page.page_id not in buf
        assert page.page_id not in mgr

    def test_invalidate_keeps_disk_copy(self):
        mgr, buf = make_buffer()
        page = buf.new_page()
        buf.invalidate(page.page_id)
        assert page.page_id not in buf
        assert page.page_id in mgr

    def test_flush_writes_dirty_frames(self):
        mgr, buf = make_buffer()
        page = buf.new_page(payload=[1])
        buf.flush()
        assert not mgr.read_page(page.page_id).dirty

    def test_resize_shrink_evicts(self):
        mgr, buf = make_buffer(capacity=4)
        ids = [mgr.allocate() for _ in range(4)]
        for page_id in ids:
            buf.get(page_id)
        buf.resize(1)
        assert len(buf) == 1
        assert ids[-1] in buf

    def test_hit_ratio(self):
        mgr, buf = make_buffer()
        page_id = mgr.allocate()
        buf.get(page_id)
        buf.get(page_id)
        buf.get(page_id)
        assert buf.stats.hit_ratio == pytest.approx(2 / 3)


class TestBufferPool:
    def test_sizing_rule_applies_fractions(self):
        pool = BufferPool()
        pool.size_for(index_pages=1000, dataset_pages=10_000)
        assert pool.index_buffer.capacity == 100
        assert pool.aux_buffer.capacity == 2000

    def test_sizing_rule_floors(self):
        pool = BufferPool()
        pool.size_for(index_pages=10, dataset_pages=20)
        assert pool.index_buffer.capacity == BufferPool.MIN_INDEX_FRAMES
        assert pool.aux_buffer.capacity == BufferPool.MIN_AUX_FRAMES

    def test_combined_io_merges_both(self):
        pool = BufferPool()
        a = pool.index_manager.allocate()
        b = pool.aux_manager.allocate()
        pool.index_buffer.get(a)
        pool.aux_buffer.get(b)
        assert pool.combined_io().page_faults == 2
        assert pool.combined_io().logical_reads == 2

    def test_reset_stats(self):
        pool = BufferPool()
        pool.index_buffer.get(pool.index_manager.allocate())
        pool.reset_stats()
        assert pool.combined_io().page_faults == 0

    def test_clear_empties_buffers(self):
        pool = BufferPool()
        page = pool.aux_buffer.new_page()
        pool.clear()
        assert page.page_id not in pool.aux_buffer


class TestThreadLocalAttribution:
    def test_local_stats_alias_global_single_threaded(self):
        mgr, buf = make_buffer()
        buf.get(mgr.allocate())
        assert buf.local_stats() is buf.stats

    def test_local_stats_partition_global_across_threads(self):
        import threading

        mgr, buf = make_buffer(capacity=8)
        buf.make_thread_safe()
        pages = [mgr.allocate() for _ in range(6)]
        per_thread = {}

        def worker(tag, my_pages, repeats):
            before = buf.local_stats().snapshot()
            for _ in range(repeats):
                for page_id in my_pages:
                    buf.get(page_id)
            per_thread[tag] = buf.local_stats().delta_since(before)

        threads = [
            threading.Thread(target=worker, args=("x", pages[:3], 2)),
            threading.Thread(target=worker, args=("y", pages[3:], 3)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # each thread is charged exactly its own accesses...
        assert per_thread["x"].logical_reads == 6
        assert per_thread["y"].logical_reads == 9
        # ...and fault/hit attribution partitions the global counters
        # exactly (each access increments both views once).
        total = buf.stats
        assert (
            per_thread["x"].page_faults + per_thread["y"].page_faults
            == total.page_faults
        )
        assert (
            per_thread["x"].buffer_hits + per_thread["y"].buffer_hits
            == total.buffer_hits
        )
        assert total.logical_reads == 15

    def test_pool_local_io_merges_thread_views(self):
        pool = BufferPool()
        pool.make_thread_safe()
        pool.index_buffer.get(pool.index_manager.allocate())
        pool.aux_buffer.get(pool.aux_manager.allocate())
        local = pool.local_io()
        assert local.page_faults == 2
        assert local.logical_reads == 2


class TestPerThreadTallies:
    """Thread-safe mode charges each access to one tally, the calling
    thread's; ``stats`` sums the tallies since ``reset_stats``."""

    def test_accesses_split_into_hits_and_faults_under_concurrency(self):
        import random

        mgr, buf = make_buffer(capacity=4)
        buf.make_thread_safe()
        pages = [mgr.allocate() for _ in range(10)]
        per_thread = []

        def worker(seed):
            rng = random.Random(seed)
            mine = buf.local_stats()
            before = mine.snapshot()
            for _ in range(400):
                page_id = rng.choice(pages)
                page = buf.get(page_id)
                if rng.random() < 0.4:
                    buf.put(page)
            per_thread.append(mine.delta_since(before))

        run_threads(*(lambda s=s: worker(s) for s in range(6)))
        total = buf.stats
        assert total.logical_accesses == (
            total.buffer_hits + total.page_faults
        )
        assert total.logical_reads == 6 * 400
        for field in ("logical_reads", "logical_writes", "page_faults",
                      "buffer_hits"):
            assert sum(getattr(s, field) for s in per_thread) == getattr(
                total, field
            )
        for stats in per_thread:
            assert stats.logical_accesses == (
                stats.buffer_hits + stats.page_faults
            )

    def test_reset_stats_zeroes_globals_and_leaves_locals(self):
        mgr, buf = make_buffer(capacity=2)
        buf.make_thread_safe()
        pages = [mgr.allocate() for _ in range(3)]
        run_threads(lambda: [buf.get(p) for p in pages])
        buf.get(pages[0])
        local = buf.local_stats().snapshot()
        assert buf.stats.logical_reads == 4
        buf.reset_stats()
        assert buf.stats == type(local)()
        assert buf.local_stats() == local
        buf.new_page()
        assert buf.stats.logical_writes == buf.stats.buffer_hits == 1

    def test_exited_threads_stay_counted(self):
        mgr, buf = make_buffer(capacity=2)
        pages = [mgr.allocate() for _ in range(3)]
        buf.get(pages[0])  # charged before going multi-threaded
        buf.make_thread_safe()
        run_threads(lambda: [buf.get(p) for p in pages])
        # a later thread registers after the first exited.
        run_threads(lambda: buf.get(pages[2]))
        stats = buf.stats
        assert stats.logical_reads == 5
        assert stats.page_faults + stats.buffer_hits == 5

    def test_pool_reset_resets_each_buffer(self):
        pool = BufferPool()
        pool.make_thread_safe()
        pool.index_buffer.get(pool.index_manager.allocate())
        pool.aux_buffer.get(pool.aux_manager.allocate())
        local = pool.local_io()
        pool.reset_stats()
        assert pool.combined_io().logical_accesses == 0
        assert pool.local_io() == local
