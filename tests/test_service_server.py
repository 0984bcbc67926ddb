"""End-to-end tests of :class:`repro.service.QueryService`."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.brute_force import brute_force_scores
from repro.service import (
    Overloaded,
    QueryRequest,
    QueryService,
    ReadWriteLock,
    ServiceConfig,
    StaleResultError,
)

QUERY = [3, 17, 42]
K = 5


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def service(small_engine):
    with QueryService(small_engine, ServiceConfig(workers=2)) as svc:
        yield svc


class TestQueryPath:
    def test_matches_direct_engine_execution(self, small_engine, service):
        response = run(service.query(QUERY, K))
        expected, _stats = small_engine.top_k_dominating(sorted(QUERY), K)
        assert response.results == expected
        assert not response.cached and not response.coalesced
        assert response.epoch == 0
        assert response.latency_seconds > 0.0
        assert response.stats.distance_computations > 0

    def test_query_order_is_normalized(self, service):
        first = run(service.query([42, 3, 17], K))
        second = run(service.query([17, 42, 3], K))
        assert second.cached, "permuted Q must hit the same cache entry"
        assert second.results == first.results

    def test_repeat_query_is_a_cache_hit(self, service):
        cold = run(service.query(QUERY, K))
        warm = run(service.query(QUERY, K))
        assert not cold.cached and warm.cached
        assert warm.results == cold.results
        assert warm.epoch == cold.epoch
        assert service.metrics.cold_executions == 1

    def test_different_k_is_not_a_cache_hit(self, service):
        run(service.query(QUERY, K))
        other = run(service.query(QUERY, K + 1))
        assert not other.cached
        assert len(other.results) == K + 1

    def test_concurrent_identical_queries_execute_once(self, service):
        async def burst():
            return await asyncio.gather(
                *(service.query(QUERY, K) for _ in range(6))
            )

        responses = run(burst())
        assert service.metrics.cold_executions == 1
        baseline = responses[0].results
        assert all(r.results == baseline for r in responses)
        # everyone but the leader was served for free, one way or the
        # other (follower of the flight, or cache once it landed).
        assert (
            sum(r.cached or r.coalesced for r in responses)
            == len(responses) - 1
        )

    def test_query_sync_equivalent(self, small_engine, service):
        response = service.query_sync(QUERY, K)
        expected, _stats = small_engine.top_k_dominating(sorted(QUERY), K)
        assert response.results == expected
        assert service.query_sync(QUERY, K).cached

    def test_unknown_algorithm_raises_and_counts_failure(self, service):
        with pytest.raises(ValueError):
            run(service.query(QUERY, K, algorithm="nope"))
        assert service.metrics.failures == 1


class TestWritesInvalidate:
    def test_insert_bumps_epoch_and_flushes(self, small_engine, service):
        cold = run(service.query(QUERY, K))
        payload = small_engine.space.payload(0) * 0.5
        run(service.insert(payload))
        after = run(service.query(QUERY, K))
        assert not after.cached, "cache must not survive an insert"
        assert after.epoch == cold.epoch + 1
        expected = brute_force_scores(
            small_engine.space,
            sorted(QUERY),
            universe=list(small_engine.tree.object_ids()),
        )
        for item in after.results:
            assert expected[item.object_id] == item.score

    def test_delete_bumps_epoch_and_flushes(self, small_engine, service):
        cold = run(service.query(QUERY, K))
        victim = cold.results[0].object_id
        assert run(service.delete(victim))
        after = run(service.query(QUERY, K))
        assert not after.cached
        assert all(item.object_id != victim for item in after.results)

    def test_failed_delete_does_not_invalidate(self, small_engine, service):
        run(service.query(QUERY, K))
        epoch_before = small_engine.epoch
        assert not run(service.delete(10_000))  # no such object
        assert small_engine.epoch == epoch_before
        assert run(service.query(QUERY, K)).cached

    def test_writes_are_counted(self, small_engine, service):
        run(service.insert(small_engine.space.payload(1)))
        assert service.metrics.writes == 1


class TestOverload:
    def test_overload_is_a_typed_rejection(self, small_engine, monkeypatch):
        import threading

        config = ServiceConfig(workers=1, max_inflight=1, max_queue=0)
        release = threading.Event()
        original = small_engine.top_k_dominating

        def held_open(*args, **kwargs):
            release.wait(timeout=10)
            return original(*args, **kwargs)

        monkeypatch.setattr(small_engine, "top_k_dominating", held_open)

        async def scenario(svc):
            first = asyncio.create_task(svc.query([1, 2, 3], K))
            await asyncio.sleep(0.05)  # the slot is now provably held
            with pytest.raises(Overloaded):
                await svc.query([4, 5, 6], K)
            release.set()
            await first

        with QueryService(small_engine, config) as svc:
            run(scenario(svc))
            assert svc.metrics.rejected_overloaded == 1
            assert svc.metrics.completed == 1


class TestCoalesceFreshness:
    def test_write_during_io_stall_does_not_feed_a_late_query(
        self, small_engine
    ):
        # regression: a query arriving after a write commits
        # (epoch bumped, cache flushed) must not join a flight whose
        # leader computed at the pre-write epoch.  The leader closes
        # its flight under the engine read lock, so by the time the
        # write can land the key is un-joinable and the late query
        # recomputes fresh.  With the flight left joinable through the
        # io_model stall (the old behaviour), the inner query below
        # joins it and blocks on a future the stalled leader has not
        # completed — a deadlock caught by the join timeout — and with
        # any other timing it would be handed the stale answer.
        import threading

        config = ServiceConfig(workers=2, io_model=True, io_cost_scale=0.01)
        inner = {}

        with QueryService(small_engine, config) as service:
            original_stall = service._io_stall
            interleaved = threading.Event()

            def stall_with_interleaved_write(stats):
                if not interleaved.is_set():
                    interleaved.set()
                    service.insert_sync(small_engine.space.payload(0) * 0.25)

                    def late_query():
                        inner["response"] = service.query_sync(QUERY, K)

                    thread = threading.Thread(target=late_query)
                    thread.start()
                    thread.join(timeout=10)
                    assert not thread.is_alive(), (
                        "post-write query joined the pre-write flight"
                    )
                original_stall(stats)

            service._io_stall = stall_with_interleaved_write
            leader = service.query_sync(QUERY, K)

        assert interleaved.is_set()
        response = inner["response"]
        assert response.epoch == small_engine.epoch
        assert not response.coalesced and not response.cached
        assert service.verify_response(QUERY, K, response) is True
        # the leader itself is not stale: its request predates the
        # write, and its epoch stamp says so.
        assert leader.epoch == response.epoch - 1


class TestVerification:
    def test_verify_response_confirms_fresh_results(self, service):
        response = run(service.query(QUERY, K))
        assert service.verify_response(QUERY, K, response) is True

    def test_verify_response_unverifiable_after_write(
        self, small_engine, service
    ):
        response = run(service.query(QUERY, K))
        run(service.insert(small_engine.space.payload(2)))
        assert service.verify_response(QUERY, K, response) is None

    def test_verify_detects_fabricated_stale_entry(
        self, small_engine, service
    ):
        # simulate a broken invalidation protocol: plant a wrong answer
        # in the cache at the *current* epoch, so the service serves it.
        honest = run(service.query(QUERY, K))
        forged = [
            type(item)(item.object_id, item.score + 1)
            for item in honest.results
        ]
        request = QueryRequest.make(QUERY, K)
        service.cache.put(
            request.key,
            small_engine.epoch,
            (forged, honest.stats, small_engine.epoch),
        )
        served = run(service.query(QUERY, K))
        assert served.cached and served.results == forged
        with pytest.raises(StaleResultError):
            service.verify_response(QUERY, K, served)

    def test_verify_mode_audits_cold_executions(self, small_engine):
        config = ServiceConfig(workers=1, verify=True)
        with QueryService(small_engine, config) as svc:
            response = run(svc.query(QUERY, K))
            assert response.results


class TestLifecycleAndSnapshot:
    def test_snapshot_is_json_serialisable(self, service):
        import json

        run(service.query(QUERY, K))
        run(service.query(QUERY, K))
        snap = service.snapshot()
        assert json.dumps(snap)
        assert snap["requests"]["completed"] == 2
        assert snap["requests"]["cache_hits"] == 1
        assert snap["cache"]["hits"] == 1
        assert snap["engine"]["epoch"] == 0
        assert snap["latency"]["all"]["count"] == 2

    def test_close_is_idempotent(self, small_engine):
        svc = QueryService(small_engine, ServiceConfig(workers=1))
        svc.close()
        svc.close()

    def test_workers_validated(self, small_engine):
        with pytest.raises(ValueError):
            QueryService(small_engine, ServiceConfig(workers=0))

    def test_explicit_zero_max_inflight_rejected(self, small_engine):
        # max_inflight=0 must surface as a config error, not be
        # silently coerced to the workers default by truthiness.
        with pytest.raises(ValueError):
            QueryService(
                small_engine, ServiceConfig(workers=2, max_inflight=0)
            )


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        import threading
        import time

        lock = ReadWriteLock()
        timeline = []

        def reader(tag):
            with lock.read():
                timeline.append(("r-in", tag))
                time.sleep(0.05)
                timeline.append(("r-out", tag))

        def writer():
            with lock.write():
                timeline.append(("w-in", None))
                timeline.append(("w-out", None))

        readers = [
            threading.Thread(target=reader, args=(i,)) for i in range(3)
        ]
        for thread in readers:
            thread.start()
        time.sleep(0.01)
        writing = threading.Thread(target=writer)
        writing.start()
        for thread in readers + [writing]:
            thread.join()

        max_concurrent_readers = 0
        in_count = 0
        for event, _tag in timeline:
            if event == "r-in":
                in_count += 1
                max_concurrent_readers = max(max_concurrent_readers, in_count)
            elif event == "r-out":
                in_count -= 1
        assert max_concurrent_readers >= 2, "readers must overlap"
        # at the instant the writer entered, no reader was inside
        readers_inside = 0
        for event, _tag in timeline:
            if event == "w-in":
                assert readers_inside == 0, "writer overlapped a reader"
            elif event == "r-in":
                readers_inside += 1
            elif event == "r-out":
                readers_inside -= 1


class TestMonitoredService:
    """config.monitor wires the self-monitoring pipeline end to end."""

    @pytest.fixture
    def monitored(self, small_engine):
        config = ServiceConfig(
            workers=2, monitor=True, monitor_interval=60.0
        )
        with QueryService(small_engine, config) as svc:
            yield svc

    def test_monitor_sections_in_snapshot(self, monitored):
        run(monitored.query(QUERY, K))
        monitored.monitor.tick()
        snapshot = monitored.snapshot()
        assert snapshot["monitor"]["ticks"] == 1
        assert snapshot["monitor"]["alerts"]["evaluations"] > 0
        assert snapshot["health"]["status"] in (
            "ok", "degraded", "unhealthy"
        )

    def test_request_latency_histogram_fills(self, monitored):
        run(monitored.query(QUERY, K))
        run(monitored.query(QUERY, K))
        hist = monitored.snapshot()["instruments"][
            "request_latency_seconds"
        ]
        assert hist["count"] == 2

    def test_health_method_answers(self, monitored):
        health = monitored.health()
        assert set(health["checks"]) == {
            "alerts", "durability", "subscriptions", "faults"
        }

    def test_custom_rules_and_forced_breach(self, small_engine):
        from repro.obs.slo import ThresholdRule

        config = ServiceConfig(
            workers=1,
            monitor=True,
            monitor_interval=60.0,
            monitor_rules=[
                ThresholdRule(
                    "requests.received", ">=", 1.0,
                    name="any-traffic", severity="warn",
                )
            ],
        )
        with QueryService(small_engine, config) as svc:
            run(svc.query(QUERY, K))
            svc.monitor.tick()
            [alert] = svc.monitor.alerts.active()
            assert alert["rule"] == "any-traffic"
            assert alert["state"] == "firing"
            assert svc.health()["status"] == "degraded"
            assert svc.monitor.alerts.fired == 1

    def test_monitor_out_publishes_document(self, small_engine, tmp_path):
        from repro.obs.monitor import load_monitor_document

        out = tmp_path / "live.json"
        config = ServiceConfig(
            workers=1, monitor=True, monitor_interval=60.0,
            monitor_out=str(out),
        )
        with QueryService(small_engine, config) as svc:
            run(svc.query(QUERY, K))
            svc.monitor.tick()
            document = load_monitor_document(str(out))
            assert document["health"]["status"] in (
                "ok", "degraded", "unhealthy"
            )
            assert "requests.received" in document["series"]
