"""Tracing must be provably free when disabled — and invisible when on.

The acceptance bar for permanently compiled-in instrumentation: with no
tracer configured, every algorithm must produce byte-identical results
and *identical* cost counters (distance computations, page faults) to a
build that never heard of tracing.  We can't diff against the pre-
instrumentation build, but we can assert the next-best property: the
counters of an untraced run equal those of a traced run of the same
fresh engine — the instrumentation itself never touches a page, a
metric or an RNG on either path.
"""

from __future__ import annotations

import pytest

from repro.obs.trace import Tracer
from tests.conftest import make_engine

ALGORITHMS = ["sba", "aba", "pba1", "pba2"]
QUERY = [3, 17, 42]
K = 8


def _run(traced: bool):
    """One cold query on a freshly built engine; returns comparables."""
    engine = make_engine(n=140, dims=3, seed=9)
    tracer = Tracer() if traced else None
    outcomes = {}
    for algorithm in ALGORITHMS:
        engine.buffers.clear()  # identical cold-cache start per algorithm
        if tracer is not None:
            with tracer.trace("neutrality"):
                results, stats = engine.top_k_dominating(
                    QUERY, K, algorithm=algorithm
                )
        else:
            results, stats = engine.top_k_dominating(
                QUERY, K, algorithm=algorithm
            )
        outcomes[algorithm] = {
            "results": [(r.object_id, r.score) for r in results],
            "distance_computations": stats.distance_computations,
            "page_faults": stats.io.page_faults,
            "buffer_hits": stats.io.buffer_hits,
            "exact_score_computations": stats.exact_score_computations,
        }
    return outcomes, tracer


def test_traced_equals_untraced_for_every_algorithm():
    untraced, _ = _run(traced=False)
    traced, tracer = _run(traced=True)
    assert traced == untraced
    assert len(tracer) > 0, "the traced run must actually record spans"


def test_profiler_off_by_default_is_inert():
    """An unstarted profiler is provably nothing: no thread, no samples."""
    import threading

    from repro.obs.perf.profiler import SamplingProfiler

    before = set(threading.enumerate())
    profiler = SamplingProfiler()
    assert not profiler.running
    assert set(threading.enumerate()) == before
    assert profiler.folded() == {}
    assert profiler.timeline() == []
    assert profiler.snapshot()["samples"] == 0


def test_profiler_neutrality_for_every_algorithm():
    """Results and cost counters are identical with the sampler running.

    The profiler only *reads* interpreter frames from its own thread;
    it must never touch a page, a metric or an RNG of the measured
    query — same bar as the tracer above.
    """
    from repro.obs.perf.profiler import SamplingProfiler

    unprofiled, _ = _run(traced=False)
    profiler = SamplingProfiler(interval=0.001)
    with profiler:
        profiled, _ = _run(traced=False)
    assert profiled == unprofiled
    assert not profiler.running


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_results_deterministic_under_tracer_reuse(algorithm):
    """One tracer across repeated queries must not perturb answers."""
    engine = make_engine(n=100, dims=3, seed=2)
    baseline, _ = engine.top_k_dominating(QUERY, K, algorithm=algorithm)
    tracer = Tracer()
    for _ in range(2):
        with tracer.trace("again"):
            results, _stats = engine.top_k_dominating(
                QUERY, K, algorithm=algorithm
            )
        assert [(r.object_id, r.score) for r in results] == [
            (r.object_id, r.score) for r in baseline
        ]
