"""Unit tests for the unified metrics registry (repro.obs.registry)."""

from __future__ import annotations

import json

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_help_text,
    escape_label_value,
    sanitize_metric_name,
)


class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_up_and_down(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4.0

    def test_histogram_observe_and_export(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        exported = histogram.export()
        assert exported["count"] == 3
        assert exported["sum"] == pytest.approx(55.5)
        assert exported["buckets"] == {"1.0": 1, "10.0": 1, "+Inf": 1}

    def test_histogram_nan_skipped(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(float("nan"))
        assert histogram.export()["count"] == 0
        assert histogram.dropped == 1

    def test_histogram_negative_clamps_to_zero(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(-5.0)
        exported = histogram.export()
        assert exported["sum"] == 0.0
        assert exported["buckets"] == {"1.0": 1, "+Inf": 0}
        assert histogram.min == histogram.max == 0.0

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_histogram_prometheus_cumulative(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        lines = histogram.prometheus_lines("ns_h")
        assert 'ns_h_bucket{le="1.0"} 2' in lines
        assert 'ns_h_bucket{le="10.0"} 3' in lines
        assert 'ns_h_bucket{le="+Inf"} 4' in lines
        assert "ns_h_count 4" in lines


class TestRegistryInstruments:
    def test_get_or_create_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("requests")
        b = registry.counter("requests")
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_instruments_in_collect(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2)
        document = registry.collect()
        assert document["instruments"]["hits"] == 3.0
        assert document["instruments"]["depth"] == 2.0


class TestCollectors:
    def test_sections_and_root_merge(self):
        registry = MetricsRegistry()
        registry.register_collector("engine", lambda: {"epoch": 4})
        registry.register_collector(None, lambda: {"requests": {"total": 9}})
        document = registry.collect()
        assert document["engine"] == {"epoch": 4}
        assert document["requests"] == {"total": 9}

    def test_duplicate_section_rejected(self):
        registry = MetricsRegistry()
        registry.register_collector("a", dict)
        with pytest.raises(ValueError):
            registry.register_collector("a", dict)

    def test_unregister(self):
        registry = MetricsRegistry()
        unregister = registry.register_collector("a", lambda: {"x": 1})
        unregister()
        assert "a" not in registry.collect()

    def test_collect_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "mix", lambda: {"s": "text", "b": True, "f": 1.5, "n": None}
        )
        json.dumps(registry.collect())


class TestPrometheus:
    def test_numeric_bool_and_string_leaves(self):
        registry = MetricsRegistry(namespace="repro")
        registry.register_collector(
            "svc",
            lambda: {
                "count": 3,
                "enabled": True,
                "state": "closed",
                "nested": {"ratio": 0.5},
                "ignored": [1, 2],
                "missing": None,
            },
        )
        text = registry.to_prometheus()
        assert "repro_svc_count 3" in text
        assert "repro_svc_enabled 1" in text
        assert 'repro_svc_state{value="closed"} 1' in text
        assert "repro_svc_nested_ratio 0.5" in text
        assert "ignored" not in text
        assert "missing" not in text
        assert text.endswith("\n")

    def test_instrument_type_lines(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("reqs", help="total requests").inc()
        registry.histogram("lat", bounds=(0.1,)).observe(0.05)
        text = registry.to_prometheus()
        assert "# HELP repro_reqs total requests" in text
        assert "# TYPE repro_reqs counter" in text
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{le="0.1"} 1' in text

    def test_none_section_skipped(self):
        registry = MetricsRegistry()
        registry.register_collector("faults", lambda: None)
        assert "faults" not in registry.to_prometheus()
        # ...but present (as null) in the JSON document.
        assert registry.collect()["faults"] is None

    def test_string_label_escaping(self):
        registry = MetricsRegistry()
        registry.register_collector("s", lambda: {"v": 'say "hi"\\'})
        text = registry.to_prometheus()
        assert '{value="say \\"hi\\"\\\\"} 1' in text


class TestExpositionConformance:
    """Text-format 0.0.4 escaping rules, checked character-for-character.

    Label values escape backslash, double-quote and newline; HELP text
    escapes backslash and newline only (quotes are legal there).  An
    unescaped newline splits a sample line in two and breaks every
    scraper, so these are conformance requirements, not cosmetics.
    """

    @pytest.mark.parametrize(
        ("raw", "escaped"),
        [
            ("plain", "plain"),
            ("back\\slash", "back\\\\slash"),
            ('quo"te', 'quo\\"te'),
            ("new\nline", "new\\nline"),
            ('all\\"\n', 'all\\\\\\"\\n'),
        ],
    )
    def test_escape_label_value(self, raw, escaped):
        assert escape_label_value(raw) == escaped

    @pytest.mark.parametrize(
        ("raw", "escaped"),
        [
            ("plain help", "plain help"),
            ("back\\slash", "back\\\\slash"),
            ("new\nline", "new\\nline"),
            ('quotes "stay"', 'quotes "stay"'),  # legal in HELP
        ],
    )
    def test_escape_help_text(self, raw, escaped):
        assert escape_help_text(raw) == escaped

    def test_newline_in_label_value_keeps_exposition_line_based(self):
        registry = MetricsRegistry(namespace="repro")
        registry.register_collector("s", lambda: {"state": "a\nb"})
        text = registry.to_prometheus()
        assert 'repro_s_state{value="a\\nb"} 1' in text
        # every physical line is a comment or a complete sample
        for line in text.strip().split("\n"):
            assert line.startswith("#") or line.count('"') % 2 == 0

    def test_help_with_newline_and_backslash(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("c", help="line1\nline2 C:\\path").inc()
        text = registry.to_prometheus()
        assert "# HELP repro_c line1\\nline2 C:\\\\path" in text
        assert "\nline2" not in text  # no raw newline leaked

    def test_help_and_type_precede_samples(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("reqs", help="requests served").inc(2)
        registry.gauge("depth", help="queue depth").set(1)
        registry.histogram("lat", bounds=(0.5,), help="latency").observe(0.1)
        lines = registry.to_prometheus().strip().split("\n")
        for metric, kind in (
            ("repro_reqs", "counter"),
            ("repro_depth", "gauge"),
            ("repro_lat", "histogram"),
        ):
            help_at = lines.index(
                next(l for l in lines if l.startswith(f"# HELP {metric} "))
            )
            assert lines[help_at + 1] == f"# TYPE {metric} {kind}"
            sample = lines[help_at + 2]
            assert sample.startswith(metric)
            # samples are "name[{labels}] value" — exactly 2 fields
            assert len(sample.rsplit(" ", 1)) == 2


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("plain", "plain"),
        ("dots.and-dashes", "dots_and_dashes"),
        ("9starts_with_digit", "_9starts_with_digit"),
        ("", "_"),
        ("ok:colon", "ok:colon"),
    ],
)
def test_sanitize_metric_name(raw, expected):
    assert sanitize_metric_name(raw) == expected


class TestCollectorHardening:
    """A broken collector must not abort a scrape."""

    def make_registry(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("good", help="healthy instrument").inc(3)
        registry.register_collector("healthy", lambda: {"value": 7})
        return registry

    def test_raising_collector_skipped_in_collect(self):
        registry = self.make_registry()

        def broken():
            raise RuntimeError("collector down")

        registry.register_collector("broken", broken)
        document = registry.collect()
        assert document["healthy"]["value"] == 7
        assert document["instruments"]["good"] == 3.0
        assert "broken" not in document
        assert registry.collector_errors == 1

    def test_raising_collector_skipped_in_prometheus(self):
        registry = self.make_registry()
        registry.register_collector(
            "broken", lambda: (_ for _ in ()).throw(RuntimeError("x"))
        )
        text = registry.to_prometheus()
        assert "repro_healthy_value 7" in text
        assert "repro_good 3.0" in text
        assert registry.collector_errors == 1

    def test_errors_accumulate_per_scrape(self):
        registry = self.make_registry()
        registry.register_collector(
            "broken", lambda: (_ for _ in ()).throw(RuntimeError("x"))
        )
        registry.collect()
        registry.collect()
        registry.to_prometheus()
        assert registry.collector_errors == 3

    def test_error_counter_visible_in_same_scrape(self):
        registry = self.make_registry()
        registry.register_collector(
            "broken", lambda: (_ for _ in ()).throw(RuntimeError("x"))
        )
        document = registry.collect()
        # the failing scrape itself reports the error count
        assert document["instruments"]["collector_errors"] == 1.0

    def test_clean_registry_reports_no_error_counter(self):
        registry = self.make_registry()
        document = registry.collect()
        assert "collector_errors" not in document.get("instruments", {})
        assert registry.collector_errors == 0


class TestCallbackGauges:
    def test_gauge_dec(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value == 3.0


class TestLabeledInstruments:
    def test_labels_render_sorted_and_escaped(self):
        from repro.obs.registry import render_labels

        assert render_labels({"b": "2", "a": "1"}) == '{a="1",b="2"}'
        assert render_labels(None) == ""
        assert render_labels({"s": 'say "hi"\n'}) == '{s="say \\"hi\\"\\n"}'

    def test_labeled_counters_are_distinct_instruments(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("hits", labels={"site": "0"}).inc()
        registry.counter("hits", labels={"site": "1"}).inc(2)
        instruments = registry.collect()["instruments"]
        assert instruments['hits{site="0"}'] == 1.0
        assert instruments['hits{site="1"}'] == 2.0

    def test_labeled_family_help_and_type_emitted_once(self):
        registry = MetricsRegistry(namespace="repro")
        registry.counter("hits", help="per-site hits",
                         labels={"site": "0"}).inc()
        registry.counter("hits", help="per-site hits",
                         labels={"site": "1"}).inc()
        text = registry.to_prometheus()
        assert text.count("# HELP repro_hits ") == 1
        assert text.count("# TYPE repro_hits counter") == 1
        assert 'repro_hits{site="0"} 1.0' in text
        assert 'repro_hits{site="1"} 1.0' in text
