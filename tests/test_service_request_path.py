"""Pins of the service's request path shared by every entry point.

``QueryService.query`` (async, admitted) and ``query_sync`` serve a
request through the same cache-or-flight decision, execution and
outcome accounting; every write goes through the same exclusive-write
prologue.  These tests fix what that shared path must keep: explained
requests stay off the cache and the coalescer, admission rejections
are counted as rejections (not failures), and each traced write is one
``service.write`` root with one ``service.write_lock_wait`` child.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.obs.trace import Tracer
from repro.service import DeadlineExceeded, QueryService, ServiceConfig

QUERY = [3, 17, 42]
K = 5


def run(coro):
    return asyncio.run(coro)


def flight_counters(service):
    snap = service.coalescer.snapshot()
    return snap["flights"], snap["inflight"]


class TestExplainedFailure:
    """An explained request that fails leaves the coalescer untouched."""

    def test_async_unknown_algorithm(self, small_engine):
        with QueryService(small_engine, ServiceConfig(workers=2)) as service:
            before = flight_counters(service)
            with pytest.raises(ValueError):
                run(service.query(QUERY, K, algorithm="nope", explain=True))
            assert service.metrics.failures == 1
            assert flight_counters(service) == before

    def test_sync_unknown_algorithm(self, small_engine):
        with QueryService(small_engine, ServiceConfig(workers=2)) as service:
            before = flight_counters(service)
            with pytest.raises(ValueError):
                service.query_sync(QUERY, K, algorithm="nope", explain=True)
            assert service.metrics.failures == 1
            assert flight_counters(service) == before


def test_explained_request_inside_a_plain_burst(small_engine):
    async def burst(service):
        plain = [service.query(QUERY, K) for _ in range(4)]
        explained = service.query(QUERY, K, explain=True)
        responses = await asyncio.gather(*plain, explained)
        return responses[:-1], responses[-1]

    with QueryService(small_engine, ServiceConfig(workers=2)) as service:
        plain, explained = run(burst(service))
        assert explained.plan is not None
        assert not explained.coalesced and not explained.cached
        assert all(response.plan is None for response in plain)
        assert all(
            response.results == explained.results for response in plain
        )


def test_async_deadline_rejection_is_not_a_failure(
    small_engine, monkeypatch
):
    release = threading.Event()
    original = small_engine.top_k_dominating

    def held_open(*args, **kwargs):
        release.wait(timeout=10)
        return original(*args, **kwargs)

    monkeypatch.setattr(small_engine, "top_k_dominating", held_open)

    async def scenario(service):
        first = asyncio.create_task(service.query([1, 2, 3], K))
        await asyncio.sleep(0.05)  # the only slot is now held
        with pytest.raises(DeadlineExceeded):
            await service.query([4, 5, 6], K, deadline=0.01)
        release.set()
        await first

    config = ServiceConfig(workers=1, max_inflight=1, max_queue=4)
    with QueryService(small_engine, config) as service:
        run(scenario(service))
        requests = service.snapshot()["requests"]
        assert requests["rejected_deadline"] == 1
        assert requests["rejected_overloaded"] == 0
        assert requests["failures"] == 0
        assert requests["completed"] == 1


@pytest.mark.parametrize("op", ["insert", "delete", "subscribe"])
def test_traced_write_has_one_root_and_one_lock_wait(small_engine, op):
    tracer = Tracer()
    config = ServiceConfig(workers=2, tracer=tracer)
    with QueryService(small_engine, config) as service:
        if op == "insert":
            service.insert_sync(small_engine.space.payload(0) * 0.5)
        elif op == "delete":
            assert service.delete_sync(7)
        else:
            service.subscribe_sync(QUERY, K)
        spans = tracer.spans()
    roots = [span for span in spans if span.name == "service.write"]
    assert len(roots) == 1
    (root,) = roots
    assert root.parent_id is None
    assert root.args["op"] == op
    waits = [span for span in spans if span.name == "service.write_lock_wait"]
    assert len(waits) == 1
    assert waits[0].parent_id == root.span_id
    assert waits[0].trace_id == root.trace_id
