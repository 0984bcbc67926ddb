"""Structure and plumbing of the explain subsystem.

Covers the ``QueryPlan`` artifact itself (schema, round-trip, funnel
and index-profile content), the facade and service surfaces that carry
it, the ``repro-trace explain`` renderer, and the phase-latency
histograms fed by the tracer listener.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import explain
from repro.obs.explain import (
    TIMELINE_CAPACITY,
    QueryPlan,
    format_plan,
    load_plan,
    validate_plan,
)
from repro.obs.trace import Tracer
from tests.conftest import make_engine

QUERY = [0, 1, 2]
K = 5


@pytest.fixture(scope="module")
def explained():
    engine = make_engine(n=100, dims=3, seed=0)
    results, stats, plan = engine.explain(QUERY, K, algorithm="pba2")
    return engine, results, stats, plan


class TestQueryPlan:
    def test_document_shape(self, explained):
        _engine, results, stats, plan = explained
        document = plan.as_dict()
        validate_plan(document)
        assert document["format"] == "repro-plan/1"
        assert document["algorithm"] == "pba2"
        assert document["k"] == K
        assert document["m"] == len(QUERY)
        assert document["counters"]["distance_computations"] == (
            stats.distance_computations
        )
        phases = [stage["phase"] for stage in document["funnel"]]
        assert phases == [
            "pba.retrieval",
            "pba.candidacy",
            "pba.confirmation",
            "pba.report",
        ]
        report = document["funnel"][-1]
        assert report["survivors"] == len(results)

    def test_index_profile_levels(self, explained):
        _engine, _results, _stats, plan = explained
        profile = plan.as_dict()["index_profile"]
        levels = profile["levels"]
        assert levels, "an M-tree query must visit at least the root"
        assert [row["level"] for row in levels] == sorted(
            row["level"] for row in levels
        )
        root = levels[0]
        assert root["level"] == 0
        assert root["nodes_visited"] >= 1
        # per-level I/O flows through the existing buffer accounting:
        # the visited pages' faults+hits must all land on some level.
        total_io = sum(
            row["page_faults"] + row["buffer_hits"] for row in levels
        )
        assert total_io >= sum(row["nodes_visited"] for row in levels)
        assert "incremental_nn" in profile["ops"]

    def test_timeline_and_rules(self, explained):
        _engine, _results, _stats, plan = explained
        document = plan.as_dict()
        assert document["timeline"], "PBA must snapshot G/heap evolution"
        kinds = {entry["phase"] for entry in document["timeline"]}
        assert "pba.confirm" in kinds
        assert document["discard_rules"], "discards must aggregate"

    def test_round_trip(self, explained, tmp_path):
        _engine, _results, _stats, plan = explained
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        loaded = load_plan(str(path))
        validate_plan(loaded)
        assert loaded == plan.as_dict()
        rebuilt = QueryPlan.from_dict(loaded)
        assert rebuilt.as_dict() == plan.as_dict()

    def test_summary_digest(self, explained):
        _engine, _results, stats, plan = explained
        digest = plan.summary()
        assert digest["algorithm"] == "pba2"
        assert digest["distance_computations"] == (
            stats.distance_computations
        )

    def test_validate_rejects_nonconserving_funnel(self, explained):
        _engine, _results, _stats, plan = explained
        document = plan.as_dict()
        document["funnel"][0]["survivors"] += 1
        with pytest.raises(ValueError, match="conserv"):
            validate_plan(document)

    def test_load_plan_diagnostics(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty or corrupt"):
            load_plan(str(empty))
        truncated = tmp_path / "trunc.json"
        truncated.write_text('{"format": "repro-plan/1", "funnel": [')
        with pytest.raises(ValueError, match="empty or corrupt"):
            load_plan(str(truncated))

    def test_format_plan_renders_funnel(self, explained):
        _engine, _results, _stats, plan = explained
        text = format_plan(plan.as_dict())
        assert "pruning funnel" in text
        assert "pba.confirmation" in text
        assert "index visit profile" in text


class TestCollectorCaps:
    def test_timeline_is_bounded(self):
        def body():
            for i in range(TIMELINE_CAPACITY + 5_000):
                explain.snapshot("tick", i=i)
            return None, explain.plan_header("ticks", [0], 1, 1)

        _value, plan = explain.explained("ticks", "test", None, body)
        assert len(plan.timeline) == TIMELINE_CAPACITY
        assert plan.timeline_dropped == 5_000
        assert plan.timeline[-1] == {
            "phase": "tick", "i": TIMELINE_CAPACITY - 1
        }

    def test_ambient_tracer_capacity_drops_nothing_from_the_plan(self):
        """The plan captures its own subtree, so an ambient tracer whose
        capacity bound drops spans still yields a complete plan."""
        from repro.api import open_engine
        from repro.datasets.synthetic import uniform

        def run(tracer):
            engine = open_engine(uniform(n=200, seed=7, dims=4), seed=7)
            if tracer is None:
                return engine.explain((0, 1, 2, 3), 10, algorithm="sba")
            with tracer.trace("request"):
                return engine.explain((0, 1, 2, 3), 10, algorithm="sba")

        tracer = Tracer(capacity=5)
        _results, stats, plan = run(tracer)
        assert tracer.dropped > 0
        attributed = sum(
            row["self_costs"]["distance_computations"] for row in plan.phases
        )
        assert stats.distance_computations == 796
        assert attributed == stats.distance_computations
        _r, _s, private = run(None)
        # sba/b2ms2.skyline/sba.score per round, k=10 rounds
        assert len(plan.funnel) == 30
        assert plan.funnel == private.funnel
        assert plan.timeline == private.timeline
        assert plan.index_profile == private.index_profile
        validate_plan(plan.as_dict())

    def test_funnel_and_timeline_are_span_data(self, explained):
        _engine, _results, _stats, plan = explained
        instants = [s for s in plan.spans if s["ph"] == "i"]
        assert {s["cat"] for s in instants} == {"funnel", "timeline"}
        (root,) = [s for s in plan.spans if s["name"] == "engine.explain"]
        assert root["args"]["index_profile"] == plan.index_profile
        assert root["args"]["counters"] == plan.counters

    def test_plain_trace_carries_no_explain_data(self):
        engine = make_engine(n=100, dims=3, seed=0)
        tracer = Tracer()
        with tracer.trace("request"):
            engine.top_k_dominating(QUERY, K, algorithm="sba")
        spans = tracer.export()
        assert all(s["ph"] == "X" for s in spans)
        assert not any("survivors" in s["args"] for s in spans)


class TestFacade:
    def test_run_explain_flag(self):
        import repro.api as api

        engine = make_engine(n=80, dims=3, seed=1)
        plain = api.run(engine, api.Query(QUERY, K))
        assert plain.plan is None
        explained = api.run(engine, api.Query(QUERY, K), explain=True)
        assert explained.plan is not None
        assert explained.object_ids == plain.object_ids
        assert explained.stats.distance_computations == (
            plain.stats.distance_computations
        )
        via_query = api.run(
            engine, api.Query(QUERY, K, explain=True)
        )
        assert via_query.plan is not None


class TestService:
    def test_query_sync_explain(self):
        from repro.service.server import QueryService, ServiceConfig

        engine = make_engine(n=80, dims=3, seed=1)
        with QueryService(engine, ServiceConfig(workers=2)) as service:
            explained = service.query_sync(QUERY, K, explain=True)
            assert explained.plan is not None
            assert not explained.cached and not explained.coalesced
            validate_plan(explained.plan.as_dict())
            # the explained execution warms the cache for plain calls
            plain = service.query_sync(QUERY, K)
            assert plain.cached
            assert plain.plan is None
            assert [
                (i.object_id, i.score) for i in plain.results
            ] == [(i.object_id, i.score) for i in explained.results]
            # and an explained request never serves from the cache
            again = service.query_sync(QUERY, K, explain=True)
            assert again.plan is not None and not again.cached
            snapshot = service.snapshot()
            assert snapshot["explain"]["requests"] == 2
            assert snapshot["explain"]["last_plan"]["algorithm"] == "pba2"

    def test_query_async_explain(self):
        import asyncio

        from repro.service.server import QueryService, ServiceConfig

        async def drive(service):
            return await service.query(QUERY, K, explain=True)

        engine = make_engine(n=80, dims=3, seed=1)
        with QueryService(engine, ServiceConfig(workers=2)) as service:
            response = asyncio.run(drive(service))
            assert response.plan is not None
            validate_plan(response.plan.as_dict())

    def test_phase_latency_histograms(self):
        from repro.obs.trace import Tracer
        from repro.service.server import QueryService, ServiceConfig

        engine = make_engine(n=80, dims=3, seed=1)
        config = ServiceConfig(workers=2, tracer=Tracer())
        with QueryService(engine, config) as service:
            service.query_sync(QUERY, K, algorithm="sba")
            service.query_sync([4, 9], 3, algorithm="pba2")
            instruments = service.snapshot()["instruments"]
            phase_names = [
                name
                for name in instruments
                if name.startswith("phase_") and name.endswith("_seconds")
            ]
            assert any("sba" in name for name in phase_names)
            assert any("pba" in name for name in phase_names)
            for name in phase_names:
                histogram = instruments[name]
                assert histogram["count"] >= 1
                assert histogram["sum"] >= 0.0
            exposition = service.metrics_prometheus()
            assert "repro_phase_" in exposition
            assert "_seconds_bucket" in exposition


class TestCli:
    def test_explain_subcommand(self, tmp_path, capsys):
        from repro.obs.cli import main

        engine = make_engine(n=80, dims=3, seed=1)
        _r, _s, plan = engine.explain(QUERY, K, algorithm="sba")
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        chrome = tmp_path / "plan.chrome.json"
        assert main(["explain", str(path), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "pruning funnel" in out
        assert "sba.skyline" in out
        document = json.loads(chrome.read_text())
        assert document["traceEvents"]

    def test_explain_subcommand_bad_file(self, tmp_path, capsys):
        from repro.obs.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["explain", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-trace: error:")
        assert err.count("\n") == 1


class TestStreaming:
    def test_explain_update_plan(self):
        from repro.streaming.continuous import ContinuousTopK

        engine = make_engine(n=80, dims=3, seed=1)
        maintainer = ContinuousTopK(engine, QUERY, K, aux_mirror=False)
        delta, plan = maintainer.explain_update("delete", 40)
        assert delta is not None or plan is not None
        document = plan.as_dict()
        validate_plan(document)
        assert document["algorithm"] == "stream.delete"
        stage = document["funnel"][0]
        assert stage["phase"] == "stream.delete"
        assert stage["entering"] == 80
        assert document["timeline"]

    def test_explain_update_rejects_bad_op(self):
        from repro.streaming.continuous import ContinuousTopK

        engine = make_engine(n=40, dims=3, seed=1)
        maintainer = ContinuousTopK(engine, QUERY, K, aux_mirror=False)
        with pytest.raises(ValueError, match="op must be"):
            maintainer.explain_update("upsert", 3)
