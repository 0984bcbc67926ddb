"""Unit tests of single-flight request coalescing (thread semantics)."""

from __future__ import annotations

import threading
import time

from repro.service.coalesce import SingleFlight


def run_once(flight, key, fn):
    """Drive one call through the flight protocol: ``(value, shared)``.

    The leader runs ``fn``, closes the flight and completes its future
    with the value or the exception; a follower waits on the future.
    """
    future, leader = flight.begin(key)
    if not leader:
        return future.result(), True
    try:
        value = fn()
    except BaseException as exc:
        flight.close(key).set_exception(exc)
        raise
    flight.close(key).set_result(value)
    return value, False


class TestProtocol:
    def test_leader_then_follower(self):
        flight = SingleFlight()
        future, leader = flight.begin("key")
        assert leader
        follower_future, follower_leader = flight.begin("key")
        assert not follower_leader
        assert follower_future is future
        flight.close("key").set_result(42)
        assert future.result(timeout=1) == 42
        assert flight.saved == 1 and flight.flights == 1

    def test_new_flight_after_landing(self):
        flight = SingleFlight()
        _, leader = flight.begin("key")
        flight.close("key").set_result(1)
        _, leader_again = flight.begin("key")
        assert leader and leader_again
        assert flight.flights == 2
        flight.close("key").set_result(2)
        assert flight.inflight == 0

    def test_distinct_keys_fly_separately(self):
        flight = SingleFlight()
        _, a = flight.begin("a")
        _, b = flight.begin("b")
        assert a and b
        assert flight.inflight == 2
        flight.close("a").set_result(None)
        flight.close("b").set_result(None)


class TestClose:
    def test_close_bars_new_joiners_before_completion(self):
        # the two-phase landing: after close() the key flies fresh even
        # though the old flight's future is not yet completed — this is
        # what lets the service bar joiners at its linearization point
        # (under the engine read lock) and deliver after the I/O stall.
        flight = SingleFlight()
        future, leader = flight.begin("key")
        assert leader
        closed = flight.close("key")
        assert closed is future
        assert flight.inflight == 0
        fresh_future, fresh_leader = flight.begin("key")
        assert fresh_leader, "a post-close request must start a new flight"
        assert fresh_future is not future
        # completing the old flight later still wakes its followers
        future.set_result("old answer")
        assert future.result(timeout=1) == "old answer"
        flight.close("key").set_result("new answer")
        assert fresh_future.result(timeout=1) == "new answer"

    def test_follower_joined_before_close_still_served(self):
        flight = SingleFlight()
        future, _ = flight.begin("key")
        follower_future, follower_leader = flight.begin("key")
        assert not follower_leader
        flight.close("key")
        future.set_result(7)
        assert follower_future.result(timeout=1) == 7
        assert flight.saved == 1


class TestExecute:
    """Leaders execute once per concurrent key; followers share it."""

    def test_concurrent_identical_calls_share_one_execution(self):
        flight = SingleFlight()
        executions = []
        barrier = threading.Barrier(4)
        results = []

        def work():
            executions.append(threading.get_ident())
            time.sleep(0.05)  # hold the flight open for the followers
            return "value"

        def caller():
            barrier.wait()
            results.append(run_once(flight, "key", work))

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(executions) == 1, "exactly one caller may execute"
        assert [value for value, _shared in results] == ["value"] * 4
        assert sum(shared for _value, shared in results) == 3
        assert flight.saved == 3

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        barrier = threading.Barrier(2)
        errors = []

        def exploding():
            time.sleep(0.05)
            raise RuntimeError("boom")

        def leader():
            barrier.wait()
            try:
                run_once(flight, "key", exploding)
            except RuntimeError as exc:
                errors.append(exc)

        def follower():
            barrier.wait()
            time.sleep(0.01)  # ensure the leader begins first
            try:
                run_once(flight, "key", lambda: "never runs")
            except RuntimeError as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=leader),
            threading.Thread(target=follower),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 2
        assert all(str(exc) == "boom" for exc in errors)
        # the failed flight is gone; the key flies fresh next time
        assert run_once(flight, "key", lambda: "recovered") == (
            "recovered",
            False,
        )

    def test_sequential_calls_never_share(self):
        flight = SingleFlight()
        first = run_once(flight, "key", lambda: 1)
        second = run_once(flight, "key", lambda: 2)
        assert first == (1, False)
        assert second == (2, False), "sequential calls each execute"


def test_snapshot_shape():
    flight = SingleFlight()
    run_once(flight, "key", lambda: None)
    snap = flight.snapshot()
    assert snap == {"flights": 1, "saved": 0, "inflight": 0}
