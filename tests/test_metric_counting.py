"""Unit tests for the distance-computation counter."""

import numpy as np
import pytest

from repro.metric.counting import CountingMetric
from repro.metric.vector import EuclideanMetric

from tests.conftest import run_threads


@pytest.fixture
def metric():
    return CountingMetric(EuclideanMetric())


class TestCounting:
    def test_counts_each_call(self, metric):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        metric(a, b)
        metric(a, b)
        assert metric.count == 2

    def test_identity_shortcircuit_not_counted(self, metric):
        a = np.array([1.0, 2.0])
        assert metric(a, a) == 0.0
        assert metric.count == 0

    def test_equal_but_distinct_payloads_counted(self, metric):
        a, b = np.array([1.0]), np.array([1.0])
        assert metric(a, b) == 0.0
        assert metric.count == 1

    def test_returns_inner_value(self, metric):
        assert metric(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == (
            pytest.approx(5.0)
        )

    def test_reset(self, metric):
        metric(np.array([0.0]), np.array([1.0]))
        metric.reset()
        assert metric.count == 0

    def test_snapshot_delta(self, metric):
        a, b = np.array([0.0]), np.array([1.0])
        metric(a, b)
        snap = metric.snapshot()
        metric(a, b)
        metric(a, b)
        assert metric.delta_since(snap) == 2

    def test_inherits_name(self, metric):
        assert metric.name == "euclidean"


class TestThreadLocalAttribution:
    def test_local_count_tracks_global_single_threaded(self, metric):
        a, b = np.array([0.0]), np.array([1.0])
        metric(a, b)
        assert metric.local_count() == metric.count == 1
        metric.make_thread_safe()
        before = metric.local_count()
        metric(a, b)
        assert metric.local_count() - before == 1

    def test_local_counts_partition_global_across_threads(self, metric):
        import threading

        metric.make_thread_safe()
        a, b = np.array([0.0]), np.array([1.0])
        per_thread = {}

        def worker(tag, evaluations):
            before = metric.local_count()
            for _ in range(evaluations):
                metric(a, b)
            per_thread[tag] = metric.local_count() - before

        threads = [
            threading.Thread(target=worker, args=(tag, n))
            for tag, n in (("x", 7), ("y", 13))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # each thread saw exactly its own evaluations, and the shared
        # counter remained exact in aggregate.
        assert per_thread == {"x": 7, "y": 13}
        assert metric.count == 20


class TestPerThreadTallies:
    """Thread-safe mode keeps one ``[count, batches]`` tally per
    thread; ``count`` and ``batches`` are their sums since ``reset``."""

    def test_local_counts_and_batches_partition_the_globals(self, metric):
        metric.make_thread_safe()
        a, b = np.array([0.0]), np.array([1.0])
        per_thread = {}

        def worker(tag, calls, batches):
            count0, batch0 = metric.local_count(), metric.local_batches()
            for _ in range(calls):
                metric(a, b)
            for _ in range(batches):
                metric.pairwise(a, [b, a, b])  # a is free: 2 each
            per_thread[tag] = (
                metric.local_count() - count0,
                metric.local_batches() - batch0,
            )

        run_threads(*(
            (lambda t=tag, c=c, k=k: worker(t, c, k))
            for tag, c, k in (
                ("x", 500, 3), ("y", 800, 5), ("z", 0, 7),
                ("u", 300, 0), ("v", 700, 1), ("w", 200, 2),
            )
        ))
        assert per_thread == {
            "x": (506, 3), "y": (810, 5), "z": (14, 7),
            "u": (300, 0), "v": (702, 1), "w": (204, 2),
        }
        assert metric.count == 506 + 810 + 14 + 300 + 702 + 204
        assert metric.batches == 18

    def test_reset_zeroes_globals_and_leaves_locals(self, metric):
        metric.make_thread_safe()
        a, b = np.array([0.0]), np.array([1.0])
        run_threads(lambda: [metric(a, b) for _ in range(4)])
        metric(a, b)
        metric.pairwise(a, [b, b])
        local = (metric.local_count(), metric.local_batches())
        assert (metric.count, metric.batches) == (7, 1)
        metric.reset()
        assert (metric.count, metric.batches) == (0, 0)
        assert (metric.local_count(), metric.local_batches()) == local
        metric(a, b)
        assert metric.count == 1
        assert metric.local_count() == local[0] + 1

    def test_exited_threads_stay_counted(self, metric):
        a, b = np.array([0.0]), np.array([1.0])
        metric(a, b)  # counted before going multi-threaded
        metric.make_thread_safe()
        run_threads(lambda: [metric(a, b) for _ in range(5)])
        # a later thread registers after the first exited, folding its
        # tally away; the total must not change.
        run_threads(lambda: metric.pairwise(a, [b, b, b]))
        assert metric.count == 1 + 5 + 3
        assert metric.batches == 1
        metric.reset()
        run_threads(lambda: metric(a, b))
        assert metric.count == 1
