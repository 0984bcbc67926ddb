"""White-box tests of PBA's internal machinery."""

import pytest

from repro import PruningConfig
from repro.core.pba import _PBARun, _PushbackCursor

from tests.conftest import make_engine


def make_run(n=120, seed=111, grid=None, m=3, k=5, config=None):
    engine = make_engine(n=n, seed=seed, grid=grid)
    queries = list(range(0, n, max(1, n // m)))[:m]
    run = _PBARun(
        engine.make_context(),
        queries,
        k,
        config=config or PruningConfig(),
        use_reverse_scan=True,
    )
    return engine, run


class TestPushbackCursor:
    def test_peek_does_not_consume(self):
        cursor = _PushbackCursor(iter([(1, 0.1), (2, 0.2)]))
        assert cursor.peek() == (1, 0.1)
        assert cursor.peek() == (1, 0.1)
        assert cursor.next() == (1, 0.1)
        assert cursor.next() == (2, 0.2)

    def test_exhaustion(self):
        cursor = _PushbackCursor(iter([(1, 0.1)]))
        cursor.next()
        assert cursor.peek() is None
        assert cursor.next() is None
        assert cursor.done

    def test_peek_on_empty(self):
        cursor = _PushbackCursor(iter([]))
        assert cursor.peek() is None
        assert cursor.done


class TestRetrievalMachinery:
    def test_fetch_registers_common_neighbors(self):
        _engine, run = make_run()
        assert run.fetch_next_common()
        assert len(run._heap) >= 1
        assert run.stats.objects_retrieved > 0

    def test_strict_counts_track_stream_tails(self):
        _engine, run = make_run(grid=3)
        for _ in range(5):
            run.fetch_next_common()
        for j in range(run.m):
            log = run.aux.logs[j]
            if len(log) == 0:
                continue
            # strict[j] must equal the number of entries strictly
            # closer than the last group's distance.
            _last_obj, last_dist = log.entry(len(log))
            strictly_closer = sum(
                1
                for rank in range(1, len(log) + 1)
                if log.entry(rank)[1] < last_dist
            )
            assert run._strict[j] == strictly_closer

    def test_future_bound_decreases_with_retrieval(self):
        _engine, run = make_run(n=200)
        run.fetch_next_common()
        early = run._future_bound()
        for _ in range(30):
            if not run.fetch_next_common():
                break
        late = run._future_bound()
        if early is not None and late is not None:
            assert late <= early

    def test_future_bound_none_when_exhausted(self):
        _engine, run = make_run(n=30, m=2, k=30)
        while run.fetch_next_common():
            pass
        assert run._future_bound() is None


class TestHeapMaintenance:
    def test_pop_valid_skips_discarded(self):
        _engine, run = make_run()
        run.fetch_next_common()
        run.fetch_next_common()
        # discard whatever is on top.
        entry = run._pop_valid()
        assert entry is not None
        _score, object_id, _exact = entry
        rec = run.aux.get(object_id)
        rec.discarded = True
        run.aux.add(rec)
        import heapq

        heapq.heappush(run._heap, (-999, 0, object_id, False))
        nxt = run._pop_valid()
        assert nxt is None or nxt[1] != object_id

    def test_estimates_never_understate_final_scores(self):
        """Every heap estimate must upper-bound the exact score later
        computed for the same object (the Lemma 5/6 contract)."""
        engine, run = make_run(n=150, grid=4, k=10)
        estimates = {}
        original_register = run._register

        def capture(rec):
            out = original_register(rec)
            if out:
                # the entry just pushed is (-estdom, ..., oid, False)
                for neg, _seq, oid, exact in run._heap:
                    if oid == rec.object_id and not exact:
                        estimates[oid] = -neg
            return out

        run._register = capture
        results = list(run.execute())
        run.close()
        from repro.core.brute_force import brute_force_scores

        truth = brute_force_scores(engine.space, run.query_ids)
        for object_id, estimate in estimates.items():
            assert truth[object_id] <= estimate, object_id

    def test_reported_objects_marked(self):
        _engine, run = make_run(k=3)
        results = list(run.execute())
        run.close()
        assert len(results) == 3
        assert {r.object_id for r in results} == run._reported


class TestGlobalPruningValue:
    def test_g_is_kth_best_minus_one(self):
        engine, run = make_run(n=150, k=5)
        results = list(run.execute())
        run.close()
        from repro.core.brute_force import brute_force_scores

        truth = brute_force_scores(engine.space, run.query_ids)
        kth_best_exact = sorted(
            (info.score for info in run._exact_info.values()),
            reverse=True,
        )[4]
        assert run.G == kth_best_exact - 1
        # and no reported score may fall at or below G.
        assert all(r.score > run.G for r in results)

    def test_g_monotone_during_run(self):
        _engine, run = make_run(n=150, k=4)
        history = []
        original = run._record_exact

        def spy(rec, outcome):
            original(rec, outcome)
            history.append(run.G)

        run._record_exact = spy
        list(run.execute())
        run.close()
        defined = [g for g in history if g is not None]
        assert defined == sorted(defined)
