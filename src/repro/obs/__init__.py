"""repro.obs — observability: span tracing, metrics registry, export.

* :mod:`repro.obs.trace` — ambient span tracer with per-span deltas of
  the paper's cost counters (page faults, distance computations,
  exact-score computations) and a free no-op path when disabled.
* :mod:`repro.obs.registry` — unified Counter/Gauge/Histogram registry
  plus pull collectors; JSON and Prometheus text exposition.
* :mod:`repro.obs.export` — native trace files and Chrome trace-event
  JSON (Perfetto-loadable), with schema validation.
* :mod:`repro.obs.summary` — per-phase cost shares and top-N analysis.
* :mod:`repro.obs.explain` — structured ``QueryPlan`` explain
  artifacts, built from one captured trace scope: pruning funnels,
  index visit profiles, heap/threshold timelines; strictly
  observational (explain off is a no-op, explain on changes no result
  or deterministic counter).
* :mod:`repro.obs.logging` — stdlib-``logging`` JSON formatter that
  stamps records with the active trace/span id.
* :mod:`repro.obs.monitor` — self-monitoring: the ring-buffer
  :class:`TimeSeriesStore` scraped from the registry, the
  :class:`Monitor` scrape loop, and the ``ok/degraded/unhealthy``
  health verdict.
* :mod:`repro.obs.slo` — declarative :class:`SLO` objects,
  multi-window burn-rate / threshold / cost-drift alert rules, and the
  :class:`AlertManager` with pluggable sinks.
* :mod:`repro.obs.dashboard` — the ``repro-top`` live terminal
  dashboard over published monitor documents.
* :mod:`repro.obs.cli` — the ``repro-trace`` console script.
* :mod:`repro.obs.perf` — the performance observatory: benchmark
  suites, ``BENCH_<suite>.json`` trajectories, the regression gate and
  the sampling profiler (imported on demand, not re-exported here, so
  ``import repro.obs`` stays light).
"""

from repro.obs.explain import (
    QueryPlan,
    build_plan,
    format_plan,
    load_plan,
    validate_plan,
)
from repro.obs.export import (
    TRACE_EVENT_SCHEMA,
    load_trace,
    spans_to_chrome,
    trace_document,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace,
)
from repro.obs.logging import JsonLogFormatter, configure_json_logging
from repro.obs.monitor import (
    HealthLimits,
    Monitor,
    TimeSeriesStore,
    compute_health,
    load_monitor_document,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import (
    SLO,
    AlertManager,
    BurnRateRule,
    CounterRatioSource,
    DriftRule,
    LatencySource,
    ThresholdRule,
    default_rules,
    load_slo_config,
)
from repro.obs.trace import (
    CostSnapshot,
    Span,
    TraceScope,
    Tracer,
    active,
    attach,
    capture,
    event,
    span,
)

__all__ = [
    "AlertManager",
    "BurnRateRule",
    "CostSnapshot",
    "Counter",
    "CounterRatioSource",
    "DriftRule",
    "Gauge",
    "HealthLimits",
    "Histogram",
    "JsonLogFormatter",
    "LatencySource",
    "MetricsRegistry",
    "Monitor",
    "QueryPlan",
    "SLO",
    "Span",
    "TRACE_EVENT_SCHEMA",
    "ThresholdRule",
    "TimeSeriesStore",
    "TraceScope",
    "Tracer",
    "active",
    "attach",
    "build_plan",
    "capture",
    "compute_health",
    "configure_json_logging",
    "default_rules",
    "event",
    "format_plan",
    "load_monitor_document",
    "load_plan",
    "load_slo_config",
    "load_trace",
    "span",
    "spans_to_chrome",
    "trace_document",
    "validate_chrome_trace",
    "validate_plan",
    "write_chrome_trace",
    "write_trace",
]
