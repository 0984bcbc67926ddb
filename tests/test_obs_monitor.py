"""Tests for repro.obs.monitor: store, scrape loop, health report."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.monitor import (
    HealthLimits,
    MONITOR_FORMAT,
    Monitor,
    TimeSeriesStore,
    compute_health,
    load_monitor_document,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import ThresholdRule


def make_store(capacity=512):
    registry = MetricsRegistry()
    counter = registry.counter("events")
    gauge = registry.gauge("depth")
    hist = registry.histogram("lat", bounds=(0.01, 0.1, 1.0))
    store = TimeSeriesStore(registry, capacity=capacity, clock=lambda: 0.0)
    return registry, counter, gauge, hist, store


class TestTimeSeriesStore:
    def test_scrape_retains_scalar_leaves(self):
        registry, counter, gauge, hist, store = make_store()
        counter.inc(3)
        gauge.set(7)
        store.scrape(now=1.0)
        counter.inc(2)
        store.scrape(now=2.0)
        assert store.series("instruments.events") == [(1.0, 3.0), (2.0, 5.0)]
        assert store.latest("instruments.depth") == 7.0
        assert "instruments.events" in store.paths()

    def test_collector_sections_are_retained(self):
        registry, *_, store = make_store()
        registry.register_collector("svc", lambda: {"requests": {"n": 4}})
        store.scrape(now=1.0)
        assert store.latest("svc.requests.n") == 4.0

    def test_strings_and_lists_are_skipped(self):
        registry, *_, store = make_store()
        registry.register_collector(
            "svc", lambda: {"name": "x", "items": [1, 2], "ok": True}
        )
        store.scrape(now=1.0)
        assert store.latest("svc.ok") == 1.0  # bools retained as 0/1
        assert store.latest("svc.name") is None
        assert store.latest("svc.items") is None

    def test_nan_and_inf_are_skipped(self):
        registry, *_, store = make_store()
        registry.register_collector(
            "svc", lambda: {"nan": float("nan"), "inf": math.inf, "v": 1}
        )
        store.scrape(now=1.0)
        assert store.latest("svc.nan") is None
        assert store.latest("svc.inf") is None
        assert store.latest("svc.v") == 1.0

    def test_capacity_bounds_history(self):
        registry, counter, *_, store = make_store(capacity=4)
        for i in range(10):
            counter.inc()
            store.scrape(now=float(i))
        points = store.series("instruments.events")
        assert len(points) == 4
        assert points[0] == (6.0, 7.0)

    def test_capacity_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            TimeSeriesStore(registry, capacity=1)

    def test_delta_and_rate_exact_over_window(self):
        registry, counter, *_, store = make_store()
        # 10 events/s for 10 s
        for i in range(1, 11):
            counter.inc(10)
            store.scrape(now=float(i))
        assert store.delta("instruments.events", 5.0, now=10.0) == 50.0
        assert store.rate(
            "instruments.events", 5.0, now=10.0
        ) == pytest.approx(10.0)

    def test_window_falls_back_to_earliest_point(self):
        registry, counter, *_, store = make_store()
        counter.inc(5)
        store.scrape(now=1.0)
        counter.inc(5)
        store.scrape(now=2.0)
        # a 100 s window only has 1 s of history: use what exists
        assert store.delta("instruments.events", 100.0, now=2.0) == 5.0

    def test_single_point_has_no_delta(self):
        registry, counter, *_, store = make_store()
        counter.inc()
        store.scrape(now=1.0)
        assert store.delta("instruments.events", 10.0, now=1.0) is None
        assert store.rate("instruments.events", 10.0, now=1.0) is None

    def test_unknown_series(self):
        *_, store = make_store()
        assert store.latest("nope") is None
        assert store.delta("nope", 1.0, now=1.0) is None
        assert store.series("nope") == []

    def test_mean_over_window(self):
        registry, _, gauge, _, store = make_store()
        for i, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            gauge.set(value)
            store.scrape(now=float(i))
        assert store.mean("instruments.depth", 1.5, now=3.0) == 3.5
        assert store.mean("instruments.depth", 10.0, now=3.0) == 2.5

    def test_fraction_over_from_bucket_deltas(self):
        registry, counter, gauge, hist, store = make_store()
        store.scrape(now=0.0)
        for _ in range(8):
            hist.observe(0.005)
        for _ in range(2):
            hist.observe(0.5)
        store.scrape(now=1.0)
        for _ in range(10):
            hist.observe(0.005)
        store.scrape(now=2.0)
        # whole run: 2 bad of 20
        assert store.fraction_over(
            "instruments.lat", 0.1, 100.0, now=2.0
        ) == pytest.approx(0.1)
        # last second only: all good
        assert store.fraction_over(
            "instruments.lat", 0.1, 1.0, now=2.0
        ) == pytest.approx(0.0)

    def test_fraction_over_no_observations_is_none(self):
        registry, counter, gauge, hist, store = make_store()
        store.scrape(now=1.0)
        store.scrape(now=2.0)
        assert store.fraction_over(
            "instruments.lat", 0.1, 10.0, now=2.0
        ) is None

    def test_rolling_quantile_interpolates(self):
        registry, counter, gauge, hist, store = make_store()
        store.scrape(now=0.0)
        for _ in range(100):
            hist.observe(0.05)  # all in the (0.01, 0.1] bucket
        store.scrape(now=1.0)
        q50 = store.rolling_quantile("instruments.lat", 0.5, 10.0, now=1.0)
        assert 0.01 < q50 <= 0.1

    def test_rolling_quantile_inf_bucket_clamps(self):
        registry, counter, gauge, hist, store = make_store()
        store.scrape(now=0.0)
        for _ in range(10):
            hist.observe(50.0)  # beyond every finite bound
        store.scrape(now=1.0)
        assert store.rolling_quantile(
            "instruments.lat", 0.99, 10.0, now=1.0
        ) == 1.0

    def test_rolling_quantile_validation(self):
        *_, store = make_store()
        with pytest.raises(ValueError):
            store.rolling_quantile("instruments.lat", 0.0, 1.0)

    def test_histogram_exports_also_scalarised(self):
        registry, counter, gauge, hist, store = make_store()
        hist.observe(0.05)
        store.scrape(now=1.0)
        assert store.latest("instruments.lat.count") == 1.0
        assert store.latest("instruments.lat.sum") == pytest.approx(0.05)
        assert "instruments.lat" in store.histogram_paths()

    def test_snapshot_plain_types(self):
        registry, counter, gauge, hist, store = make_store()
        store.scrape(now=1.0)
        snap = store.snapshot()
        assert snap["scrapes"] == 1
        json.dumps(snap)


class TestMonitor:
    def make_monitor(self, **kwargs):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        clock = {"t": 0.0}
        monitor = Monitor(
            registry,
            rules=[ThresholdRule("instruments.events", ">", 5.0)],
            interval=1.0,
            clock=lambda: clock["t"],
            **kwargs,
        )
        return registry, counter, clock, monitor

    def test_tick_scrapes_and_evaluates(self):
        registry, counter, clock, monitor = self.make_monitor()
        counter.inc(3)
        monitor.tick(now=1.0)
        assert monitor.ticks == 1
        assert monitor.alerts.active() == []
        counter.inc(10)
        monitor.tick(now=2.0)
        [alert] = monitor.alerts.active()
        assert alert["state"] == "firing"

    def test_export_document_shape(self):
        registry, counter, clock, monitor = self.make_monitor()
        counter.inc()
        monitor.tick(now=1.0)
        document = monitor.export()
        assert document["format"] == MONITOR_FORMAT
        assert document["ticks"] == 1
        assert document["series"]["instruments.events"] == [[1.0, 1.0]]
        assert "alerts" in document
        json.dumps(document)

    def test_export_points_bound(self):
        registry, counter, clock, monitor = self.make_monitor()
        monitor.export_points = 3
        for i in range(1, 9):
            counter.inc()
            monitor.tick(now=float(i))
        points = monitor.export()["series"]["instruments.events"]
        assert len(points) == 3

    def test_write_and_load_round_trip(self, tmp_path):
        registry, counter, clock, monitor = self.make_monitor()
        counter.inc()
        monitor.tick(now=1.0)
        path = tmp_path / "mon.json"
        monitor.write(str(path))
        document = load_monitor_document(str(path))
        assert document["format"] == MONITOR_FORMAT
        assert not (tmp_path / "mon.json.tmp").exists()  # atomic publish

    def test_out_path_published_every_tick(self, tmp_path):
        path = tmp_path / "live.json"
        registry, counter, clock, monitor = self.make_monitor(
            out_path=str(path)
        )
        monitor.tick(now=1.0)
        first = load_monitor_document(str(path))
        monitor.tick(now=2.0)
        second = load_monitor_document(str(path))
        assert (first["ticks"], second["ticks"]) == (1, 2)

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="repro-monitor/1"):
            load_monitor_document(str(path))

    def test_health_source_lands_in_export(self):
        registry, counter, clock, monitor = self.make_monitor()
        monitor.health_source = lambda: {"status": "ok", "checks": {}}
        monitor.tick(now=1.0)
        assert monitor.export()["health"]["status"] == "ok"

    def test_broken_health_source_is_contained(self):
        registry, counter, clock, monitor = self.make_monitor()

        def broken():
            raise RuntimeError("nope")

        monitor.health_source = broken
        monitor.tick(now=1.0)
        assert monitor.export()["health"] is None

    def test_thread_start_stop(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        monitor = Monitor(registry, interval=0.01)
        monitor.start()
        assert monitor.running
        monitor.start()  # idempotent
        import time

        time.sleep(0.05)
        monitor.stop()
        assert not monitor.running
        assert monitor.ticks >= 1

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Monitor(MetricsRegistry(), interval=0.0)


class TestComputeHealth:
    def test_everything_absent_is_ok(self):
        health = compute_health()
        assert health["status"] == "ok"
        assert set(health["checks"]) == {
            "alerts", "durability", "subscriptions", "faults"
        }

    def test_firing_warn_degrades(self):
        health = compute_health(
            alerts=[{"rule": "r", "severity": "warn", "state": "firing"}]
        )
        assert health["status"] == "degraded"
        assert "r" in health["checks"]["alerts"]["detail"]

    def test_firing_critical_is_unhealthy(self):
        health = compute_health(
            alerts=[
                {"rule": "a", "severity": "warn", "state": "firing"},
                {"rule": "b", "severity": "critical", "state": "firing"},
            ]
        )
        assert health["status"] == "unhealthy"

    def test_pending_alert_stays_ok(self):
        health = compute_health(
            alerts=[{"rule": "r", "severity": "critical", "state": "pending"}]
        )
        assert health["status"] == "ok"

    def test_wal_growth_degrades(self):
        health = compute_health(
            recovery={"gauges": {"wal_bytes": 100.0,
                                 "seconds_since_checkpoint": 1.0}},
            limits=HealthLimits(max_wal_bytes=50),
        )
        assert health["status"] == "degraded"
        assert "WAL" in health["checks"]["durability"]["detail"]

    def test_stale_checkpoint_degrades(self):
        health = compute_health(
            recovery={"gauges": {"wal_bytes": 1.0,
                                 "seconds_since_checkpoint": 1000.0}},
            limits=HealthLimits(max_checkpoint_age=600.0),
        )
        assert health["status"] == "degraded"

    def test_healthy_durability(self):
        health = compute_health(
            recovery={"gauges": {"wal_bytes": 10.0,
                                 "seconds_since_checkpoint": 1.0}},
        )
        assert health["checks"]["durability"]["status"] == "ok"

    def test_subscription_backlog_degrades(self):
        health = compute_health(
            subscriptions={"active": 1, "pending_deltas": 500,
                           "per_subscription": []},
            limits=HealthLimits(max_pending_deltas=256),
        )
        assert health["status"] == "degraded"

    def test_pending_resync_degrades(self):
        health = compute_health(
            subscriptions={"active": 1, "pending_deltas": 0,
                           "per_subscription": [{"resync_pending": True}]},
        )
        assert health["status"] == "degraded"
        assert "resync" in health["checks"]["subscriptions"]["detail"]

    def test_fatal_faults_degrade(self):
        health = compute_health(requests={"faults_fatal": 2})
        assert health["status"] == "degraded"

    def test_verdict_is_worst_check(self):
        health = compute_health(
            alerts=[{"rule": "x", "severity": "critical", "state": "firing"}],
            requests={"faults_fatal": 1},
        )
        assert health["status"] == "unhealthy"
        json.dumps(health)
