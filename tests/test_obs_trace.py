"""Unit tests for the span tracer core (repro.obs.trace)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import trace
from repro.obs.trace import NOOP_SPAN, CostSnapshot, Tracer
from repro.storage.stats import PAGE_FAULT_COST_SECONDS


class FakeClock:
    """Deterministic monotonically advancing clock."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestNoOpPath:
    def test_span_without_trace_is_noop(self):
        with trace.span("anything") as span_obj:
            assert span_obj is NOOP_SPAN
            assert not span_obj  # falsy: call sites guard with `if`
            span_obj.set("key", "value")  # accepted, discarded

    def test_event_without_trace_is_noop(self):
        trace.event("nothing.happens")  # must not raise

    def test_active_false_by_default(self):
        assert not trace.active()
        assert trace.capture() is None

    def test_noop_context_reusable(self):
        ctx = trace.span("a")
        with ctx:
            pass
        with ctx:  # the shared singleton must be re-enterable
            pass


class TestSpanRecording:
    def test_root_and_child_nesting(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("root") as root:
            assert trace.active()
            with trace.span("child") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
        assert not trace.active()
        spans = tracer.spans()
        assert [s.name for s in spans] == ["child", "root"]  # finish order
        assert spans[0].end is not None

    def test_fake_clock_durations(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.trace("root"):
            with trace.span("inner"):
                pass
        inner, root = tracer.spans()
        # clock reads: root start=0, inner start=1, inner end=2, root end=3
        assert (root.start, root.end) == (0.0, 3.0)
        assert (inner.start, inner.end) == (1.0, 2.0)
        assert inner.duration == 1.0

    def test_separate_traces_get_distinct_trace_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("a"):
            pass
        with tracer.trace("b"):
            pass
        a, b = tracer.spans()
        assert a.trace_id != b.trace_id

    def test_args_and_set(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("root", args={"k": 10}) as root:
            root.set("cached", False)
        (span_obj,) = tracer.spans()
        assert span_obj.args == {"k": 10, "cached": False}

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.trace("root"):
                raise RuntimeError("boom")
        (span_obj,) = tracer.spans()
        assert span_obj.args["error"] == "RuntimeError"

    def test_event_is_instant(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("root") as root:
            trace.event("fault.storage.transient", args={"target": "d:1"})
        instant = next(s for s in tracer.spans() if s.phase == "i")
        assert instant.parent_id == root.span_id
        assert instant.start == instant.end
        assert instant.args["target"] == "d:1"

    def test_capacity_bound_counts_drops(self):
        tracer = Tracer(clock=FakeClock(), capacity=2)
        for _ in range(4):
            with tracer.trace("r"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 2
        snap = tracer.snapshot()
        assert snap == {"spans": 2, "dropped": 2, "capacity": 2}

    def test_clear_keeps_dropped_counter(self):
        tracer = Tracer(clock=FakeClock(), capacity=1)
        for _ in range(2):
            with tracer.trace("r"):
                pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestCostProbes:
    def test_probe_deltas(self):
        counters = {"faults": 0, "dist": 0}

        def probe() -> CostSnapshot:
            return CostSnapshot(
                page_faults=counters["faults"],
                distance_computations=counters["dist"],
            )

        tracer = Tracer(clock=FakeClock())
        with tracer.trace("root", probe=probe):
            counters["faults"] += 2
            with trace.span("inner"):  # inherits the ambient probe
                counters["faults"] += 3
                counters["dist"] += 7
        inner, root = tracer.spans()
        assert root.costs.page_faults == 5
        assert root.costs.distance_computations == 7
        assert inner.costs.page_faults == 3
        assert inner.costs.distance_computations == 7

    def test_span_probe_overrides_ambient(self):
        def zero_probe() -> CostSnapshot:
            return CostSnapshot()

        counters = {"dist": 0}

        def live_probe() -> CostSnapshot:
            return CostSnapshot(distance_computations=counters["dist"])

        tracer = Tracer(clock=FakeClock())
        with tracer.trace("root", probe=zero_probe):
            with trace.span("inner", probe=live_probe):
                counters["dist"] += 4
        inner, root = tracer.spans()
        assert inner.costs.distance_computations == 4
        assert root.costs.distance_computations == 0

    def test_no_probe_means_no_costs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.trace("root"):
            pass
        (root,) = tracer.spans()
        assert root.costs is None

    def test_io_seconds_convention(self):
        snap = CostSnapshot(page_faults=3)
        assert snap.io_seconds == pytest.approx(3 * PAGE_FAULT_COST_SECONDS)
        assert snap.as_dict()["io_seconds"] == snap.io_seconds


class TestThreadPropagation:
    def test_attach_carries_scope_to_thread(self):
        tracer = Tracer(clock=FakeClock())
        recorded = {}

        def worker(scope):
            with trace.attach(scope):
                with trace.span("worker.task") as span_obj:
                    recorded["parent"] = span_obj.parent_id
                    recorded["trace"] = span_obj.trace_id

        with tracer.trace("root") as root:
            scope = trace.capture()
            thread = threading.Thread(target=worker, args=(scope,))
            thread.start()
            thread.join()
        assert recorded["parent"] == root.span_id
        assert recorded["trace"] == root.trace_id

    def test_attach_none_is_noop(self):
        with trace.attach(None):
            assert not trace.active()

    def test_plain_thread_sees_no_scope(self):
        tracer = Tracer(clock=FakeClock())
        seen = {}

        def worker():
            seen["active"] = trace.active()

        with tracer.trace("root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["active"] is False


def test_as_dict_shape():
    tracer = Tracer(clock=FakeClock())
    with tracer.trace("root", category="request", args={"k": 1}):
        pass
    (root,) = tracer.spans()
    data = root.as_dict()
    assert data["name"] == "root"
    assert data["cat"] == "request"
    assert data["ph"] == "X"
    assert data["parent_id"] is None
    assert data["args"] == {"k": 1}
    assert data["costs"] is None
    assert isinstance(data["thread"], int)
