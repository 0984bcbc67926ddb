"""Sliding-window continuous top-k dominating queries."""

import numpy as np
import pytest

from repro.core.brute_force import brute_force_scores
from repro.streaming import SlidingWindowTopK, WindowEvent

from tests.conftest import make_engine


def make_window(n=40, window_size=40, seed=121):
    engine = make_engine(n=n, seed=seed)
    return engine, SlidingWindowTopK(engine, window_size=window_size)


class TestMaintenance:
    def test_append_without_expiry(self):
        engine, window = make_window(n=10, window_size=20)
        event = window.append(np.array([0.5, 0.5, 0.5]))
        assert event.arrived == 10
        assert event.expired is None
        assert len(window) == 11

    def test_append_with_expiry(self):
        engine, window = make_window(n=20, window_size=20)
        event = window.append(np.array([0.1, 0.2, 0.3]))
        assert event.expired == 0  # oldest id expires
        assert 0 not in engine.tree
        assert len(window) == 20

    def test_fifo_expiry_order(self):
        engine, window = make_window(n=5, window_size=5)
        rng = np.random.default_rng(1)
        expired = [window.append(rng.random(3)).expired for _ in range(3)]
        assert expired == [0, 1, 2]

    def test_window_size_validation(self):
        engine, _ = make_window(n=5, window_size=5)
        with pytest.raises(ValueError):
            SlidingWindowTopK(engine, window_size=0)
        with pytest.raises(ValueError):
            SlidingWindowTopK(engine, window_size=3)  # engine too full


class TestQuerying:
    def test_results_match_oracle_on_window(self):
        engine, window = make_window(n=30, window_size=30, seed=122)
        rng = np.random.default_rng(2)
        for _ in range(10):
            window.append(rng.random(3))
        queries = window.live_ids[:2]
        results, _ = window.top_k(queries, 5)
        truth = brute_force_scores(
            engine.space, queries, universe=window.live_ids
        )
        assert [r.score for r in results] == sorted(
            truth.values(), reverse=True
        )[:5]

    def test_expired_objects_never_reported(self):
        engine, window = make_window(n=20, window_size=20, seed=123)
        rng = np.random.default_rng(3)
        expired = set()
        for _ in range(8):
            event = window.append(rng.random(3))
            expired.add(event.expired)
        queries = window.live_ids[-2:]
        results, _ = window.top_k(queries, 10)
        assert not ({r.object_id for r in results} & expired)

    def test_expired_query_object_rejected(self):
        engine, window = make_window(n=10, window_size=10, seed=124)
        rng = np.random.default_rng(4)
        window.append(rng.random(3))  # expires id 0
        with pytest.raises(ValueError):
            window.top_k([0, 5], 3)


class TestPinning:
    def test_pinned_query_object_survives_expiry(self):
        engine, window = make_window(n=10, window_size=10, seed=125)
        window.pin(0)
        rng = np.random.default_rng(5)
        event = window.append(rng.random(3))
        assert event.expired == 0
        assert 0 in engine.tree  # still physically present
        results, _ = window.top_k([0, 5], 3)
        assert all(r.object_id != 0 for r in results)

    def test_pinned_ghost_excluded_from_scores(self):
        engine, window = make_window(n=12, window_size=12, seed=126)
        window.pin(0)
        rng = np.random.default_rng(6)
        window.append(rng.random(3))  # 0 expires but stays pinned
        queries = window.live_ids[:2]
        results, _ = window.top_k(queries, 4)
        truth = brute_force_scores(
            engine.space, queries, universe=window.live_ids
        )
        assert [r.score for r in results] == sorted(
            truth.values(), reverse=True
        )[:4]

    def test_unpin_deletes_departed_ghost(self):
        engine, window = make_window(n=8, window_size=8, seed=127)
        window.pin(0)
        rng = np.random.default_rng(7)
        window.append(rng.random(3))
        assert 0 in engine.tree
        window.unpin(0)
        assert 0 not in engine.tree

    def test_index_restored_after_query(self):
        engine, window = make_window(n=10, window_size=10, seed=128)
        window.pin(0)
        rng = np.random.default_rng(8)
        window.append(rng.random(3))
        before = len(engine.tree)
        window.top_k(window.live_ids[:2], 3)
        assert len(engine.tree) == before
        engine.tree.check_invariants()


class TestGhostQueryIsReadOnly:
    """Regression: ghost handling must not churn the index.

    The original implementation answered queries over a window holding
    pinned ghosts by deleting each ghost, running the query, and
    re-inserting — every query rewrote tree pages.  Ghosts are now
    excluded arithmetically at scoring time, so a query must leave the
    tree's write/allocation counters exactly where they were.
    """

    def test_ghost_query_leaves_page_write_counters_untouched(self):
        engine, window = make_window(n=12, window_size=12, seed=131)
        window.pin(0)
        rng = np.random.default_rng(10)
        window.append(rng.random(3))  # 0 expires, stays pinned (ghost)
        assert 0 in engine.tree and 0 not in window.live_ids
        buffer = engine.buffers.index_buffer
        writes = buffer.stats.logical_writes
        allocated = buffer.stats.pages_allocated
        tree_size = len(engine.tree)
        window.top_k(window.live_ids[:2], 4)
        assert buffer.stats.logical_writes == writes
        assert buffer.stats.pages_allocated == allocated
        assert len(engine.tree) == tree_size

    def test_ghost_query_reads_but_never_writes_many_times(self):
        engine, window = make_window(n=10, window_size=10, seed=132)
        window.pin(0)
        window.pin(1)
        rng = np.random.default_rng(11)
        window.append(rng.random(3))
        window.append(rng.random(3))  # both 0 and 1 are ghosts now
        buffer = engine.buffers.index_buffer
        writes = buffer.stats.logical_writes
        for _ in range(5):
            window.top_k(window.live_ids[:2], 3)
        assert buffer.stats.logical_writes == writes
        engine.tree.check_invariants()


class TestUnpinEdgeCases:
    def test_double_unpin_is_a_noop(self):
        engine, window = make_window(n=8, window_size=8, seed=133)
        window.pin(0)
        rng = np.random.default_rng(12)
        window.append(rng.random(3))  # 0 expires as a pinned ghost
        window.unpin(0)
        assert 0 not in engine.tree
        # second unpin: ghost already deleted — must not raise.
        window.unpin(0)
        assert 0 not in engine.tree

    def test_unpin_never_pinned_is_a_noop(self):
        engine, window = make_window(n=8, window_size=8, seed=134)
        window.unpin(3)  # live, never pinned
        assert 3 in engine.tree
        assert 3 in window.live_ids
        window.unpin(999)  # nonexistent id

    def test_unpin_live_object_keeps_it_in_window(self):
        engine, window = make_window(n=8, window_size=8, seed=135)
        window.pin(2)
        window.unpin(2)  # still inside the window: must not delete
        assert 2 in engine.tree
        assert 2 in window.live_ids
        results, _ = window.top_k([2, 3], 4)
        assert {r.object_id for r in results} <= set(window.live_ids)


class TestTimeBasedWindow:
    def make_timed(self, n=10, horizon=10.0, seed=136):
        engine = make_engine(n=n, seed=seed)
        clock = {"now": 0.0}
        window = SlidingWindowTopK(
            engine, horizon=horizon, clock=lambda: clock["now"]
        )
        return engine, window, clock

    def test_nothing_expires_inside_horizon(self):
        engine, window, clock = self.make_timed()
        clock["now"] = 5.0
        event = window.append(np.full(3, 0.5))
        assert event.expired is None and event.expired_ids == ()
        assert len(window) == 11

    def test_everything_stale_expires_at_once(self):
        engine, window, clock = self.make_timed(n=6, horizon=10.0)
        clock["now"] = 11.0  # initial batch (t=0) is now stale
        event = window.append(np.full(3, 0.5))
        assert event.expired_ids == (0, 1, 2, 3, 4, 5)
        assert event.expired == 0  # oldest first
        assert window.live_ids == [event.arrived]
        for victim in event.expired_ids:
            assert victim not in engine.tree

    def test_explicit_timestamps_drive_expiry(self):
        engine, window, clock = self.make_timed(n=4, horizon=2.0)
        first = window.append(np.full(3, 0.2), timestamp=1.0)
        assert first.expired is None
        second = window.append(np.full(3, 0.8), timestamp=3.5)
        # horizon 2.0: deadline 1.5 → initial four (t=0) expire,
        # the t=1.0 arrival expires too, the new arrival survives.
        assert set(second.expired_ids) == {0, 1, 2, 3, first.arrived}
        assert window.live_ids == [second.arrived]

    def test_pinned_ghosts_respected_in_time_windows(self):
        engine, window, clock = self.make_timed(n=6, horizon=5.0)
        window.pin(0)
        clock["now"] = 6.0
        event = window.append(np.full(3, 0.4))
        assert 0 in event.expired_ids
        assert 0 in engine.tree  # pinned: physically retained
        results, _ = window.top_k([0], 3)
        assert all(r.object_id != 0 for r in results)
        truth = brute_force_scores(
            engine.space, [0], universe=window.live_ids
        )
        assert [r.score for r in results] == sorted(
            truth.values(), reverse=True
        )[:3]

    def test_window_shape_validation(self):
        engine = make_engine(n=5, seed=137)
        with pytest.raises(ValueError):
            SlidingWindowTopK(engine)  # neither shape
        with pytest.raises(ValueError):
            SlidingWindowTopK(engine, window_size=8, horizon=3.0)  # both
        with pytest.raises(ValueError):
            SlidingWindowTopK(engine, horizon=0.0)
        with pytest.raises(ValueError):
            SlidingWindowTopK(engine, horizon=-1.0)


class TestStandingQueryDelegation:
    def test_registered_query_tracks_oracle_through_churn(self):
        engine, window = make_window(n=20, window_size=20, seed=138)
        window.pin(0)
        window.pin(5)
        maintainer = window.register([0, 5], 4)
        rng = np.random.default_rng(13)
        for _ in range(15):
            window.append(rng.random(3))
            truth = brute_force_scores(
                engine.space, [0, 5], universe=window.live_ids
            )
            expected = sorted(truth.values(), reverse=True)[:4]
            assert [r.score for r in maintainer.result] == expected
        # top_k with the matching (Q, k) answers from the maintainer.
        results, stats = window.top_k([5, 0], 4)
        assert [
            (r.object_id, r.score) for r in results
        ] == [(r.object_id, r.score) for r in maintainer.result]
        assert stats is maintainer.last_stats
        window.unregister(maintainer)
        assert window.standing_queries == []

    def test_pinned_ghost_expiry_reaches_maintainer(self):
        engine, window = make_window(n=10, window_size=10, seed=139)
        window.pin(0)
        maintainer = window.register([0], 5)
        assert 0 in maintainer.member_ids
        rng = np.random.default_rng(14)
        window.append(rng.random(3))  # 0 expires logically, stays in tree
        assert 0 in engine.tree
        assert 0 not in maintainer.member_ids
        truth = brute_force_scores(
            engine.space, [0], universe=window.live_ids
        )
        assert [r.score for r in maintainer.result] == sorted(
            truth.values(), reverse=True
        )[:5]


class TestContinuousScenario:
    def test_long_stream_stays_consistent(self):
        engine, window = make_window(n=25, window_size=25, seed=129)
        rng = np.random.default_rng(9)
        for step in range(30):
            window.append(rng.random(3))
            if step % 10 == 9:
                queries = window.live_ids[:2]
                results, _ = window.top_k(queries, 3)
                truth = brute_force_scores(
                    engine.space, queries, universe=window.live_ids
                )
                assert [r.score for r in results] == sorted(
                    truth.values(), reverse=True
                )[:3]
        engine.tree.check_invariants()
