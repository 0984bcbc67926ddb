"""Self-monitoring: retained time series, scrape loop, health report.

Every number the system exposes today is a *point-in-time* snapshot —
:meth:`~repro.service.server.QueryService.snapshot` and the Prometheus
exposition can say what the counters are now, but nothing can say
whether distance-computations-per-query has been drifting for the last
minute or whether a standing query is falling behind its window.  This
module closes that gap in-process:

* :class:`TimeSeriesStore` — a bounded ring-buffer store that scrapes
  a :class:`~repro.obs.registry.MetricsRegistry` on demand, retains
  per-series history, and derives **rates** from counters, **deltas**
  over windows, and **rolling quantiles** from histogram instruments
  (bucket-count differences over a window, the same estimator
  Prometheus' ``histogram_quantile`` uses).
* :class:`Monitor` — the scrape scheduler: ticks the store on a
  configurable interval (a daemon thread in production, explicit
  :meth:`Monitor.tick` calls under an injectable clock in tests),
  evaluates the attached :mod:`repro.obs.slo` rules, and can export /
  atomically publish a ``repro-monitor/1`` JSON document that the
  ``repro-top`` dashboard renders live.
* :func:`compute_health` — folds alert state, WAL size / checkpoint
  age, subscription backlog and fatal faults into one
  ``ok`` / ``degraded`` / ``unhealthy`` verdict (the
  ``service.snapshot()["health"]`` section).

Neutrality: monitoring only ever *reads* — collectors, snapshots and
instrument exports.  With the monitor off nothing here is constructed
and no instrumentation point exists on the query path, so results and
the paper's deterministic cost counters are bit-identical
(``tests/test_monitor_neutrality.py`` pins this).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.registry import MetricsRegistry, bucket_quantile

__all__ = [
    "HealthLimits",
    "Monitor",
    "MONITOR_FORMAT",
    "TimeSeriesStore",
    "compute_health",
    "load_monitor_document",
]

#: format tag stamped into every exported monitor document.
MONITOR_FORMAT = "repro-monitor/1"

_Point = Tuple[float, float]


def _is_histogram_export(value: Any) -> bool:
    """Whether a dict is a registry ``Histogram.export()`` payload."""
    return (
        isinstance(value, dict)
        and "buckets" in value
        and "count" in value
        and "sum" in value
        and isinstance(value["buckets"], dict)
    )


def _bound_of(key: str) -> float:
    """Parse a bucket key (``repr(bound)`` or ``"+Inf"``) to a float."""
    if key == "+Inf":
        return math.inf
    return float(key)


class TimeSeriesStore:
    """Bounded per-series history scraped from a metrics registry.

    Each scalar numeric leaf of :meth:`MetricsRegistry.collect` (dotted
    path, e.g. ``requests.received`` or ``recovery.gauges.wal_bytes``)
    becomes one ring-buffered series of ``(t, value)`` points;
    histogram instruments additionally retain their full bucket-count
    vectors so rolling quantiles and threshold fractions can be
    derived over any window.  ``capacity`` bounds every series;
    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        capacity: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (deltas need 2 points)")
        self.registry = registry
        self.capacity = capacity
        self.clock = clock
        self._lock = threading.Lock()
        self._series: Dict[str, Deque[_Point]] = {}
        self._buckets: Dict[
            str, Tuple[Tuple[str, ...], Deque[Tuple[float, Tuple[int, ...]]]]
        ] = {}
        self.scrapes = 0

    # ------------------------------------------------------------------
    # scraping
    # ------------------------------------------------------------------
    def scrape(self, now: Optional[float] = None) -> float:
        """Pull one sample of every numeric leaf; returns its timestamp."""
        t = self.clock() if now is None else now
        document = self.registry.collect()
        flat: List[Tuple[str, float]] = []
        buckets: List[Tuple[str, Tuple[str, ...], Tuple[int, ...]]] = []
        self._walk("", document, flat, buckets)
        with self._lock:
            for path, value in flat:
                series = self._series.get(path)
                if series is None:
                    series = self._series[path] = deque(maxlen=self.capacity)
                series.append((t, value))
            for path, keys, counts in buckets:
                entry = self._buckets.get(path)
                if entry is None or entry[0] != keys:
                    entry = (keys, deque(maxlen=self.capacity))
                    self._buckets[path] = entry
                entry[1].append((t, counts))
            self.scrapes += 1
        return t

    def _walk(
        self,
        prefix: str,
        value: Any,
        flat: List[Tuple[str, float]],
        buckets: List[Tuple[str, Tuple[str, ...], Tuple[int, ...]]],
    ) -> None:
        if _is_histogram_export(value):
            flat.append((f"{prefix}.count", float(value["count"])))
            flat.append((f"{prefix}.sum", float(value["sum"])))
            raw = value["buckets"]
            keys = tuple(sorted(raw, key=_bound_of))
            buckets.append(
                (prefix, keys, tuple(int(raw[key]) for key in keys))
            )
            return
        if isinstance(value, dict):
            for key, sub in value.items():
                path = f"{prefix}.{key}" if prefix else str(key)
                self._walk(path, sub, flat, buckets)
            return
        if isinstance(value, bool):
            flat.append((prefix, 1.0 if value else 0.0))
        elif isinstance(value, (int, float)):
            if value == value and not math.isinf(value):
                flat.append((prefix, float(value)))
        # strings / lists / None: not retainable as a time series.

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def paths(self) -> List[str]:
        """Every retained scalar series path, sorted."""
        with self._lock:
            return sorted(self._series)

    def series(self, path: str) -> List[_Point]:
        """All retained points of one series (empty when unknown)."""
        with self._lock:
            dq = self._series.get(path)
            return list(dq) if dq is not None else []

    def latest(self, path: str) -> Optional[float]:
        """The newest retained value of a series, or ``None``."""
        with self._lock:
            dq = self._series.get(path)
            return dq[-1][1] if dq else None

    def _window_pair(
        self, dq: Sequence[_Point], window: float, now: float
    ) -> Optional[Tuple[_Point, _Point]]:
        """Baseline and latest points bracketing ``[now - window, now]``.

        The baseline is the last point at or before the window start
        (counter deltas then cover exactly the window), falling back to
        the earliest retained point inside it.
        """
        if len(dq) < 2:
            return None
        start = now - window
        baseline = None
        for point in dq:
            if point[0] <= start:
                baseline = point
            else:
                break
        if baseline is None:
            baseline = dq[0]
        last = dq[-1]
        if last[0] <= baseline[0]:
            return None
        return baseline, last

    def delta(
        self, path: str, window: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Value change over the trailing window (``None`` if unknown)."""
        with self._lock:
            dq = self._series.get(path)
            if not dq:
                return None
            t = now if now is not None else dq[-1][0]
            pair = self._window_pair(dq, window, t)
        if pair is None:
            return None
        (_, v0), (_, v1) = pair
        return v1 - v0

    def rate(
        self, path: str, window: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Per-second increase of a counter series over the window."""
        with self._lock:
            dq = self._series.get(path)
            if not dq:
                return None
            t = now if now is not None else dq[-1][0]
            pair = self._window_pair(dq, window, t)
        if pair is None:
            return None
        (t0, v0), (t1, v1) = pair
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0)

    def mean(
        self, path: str, window: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Arithmetic mean of the points inside the trailing window."""
        with self._lock:
            dq = self._series.get(path)
            if not dq:
                return None
            t = now if now is not None else dq[-1][0]
            values = [v for (pt, v) in dq if pt >= t - window]
        if not values:
            return None
        return sum(values) / len(values)

    # ------------------------------------------------------------------
    # histogram-derived reads
    # ------------------------------------------------------------------
    def _bucket_deltas(
        self, path: str, window: float, now: Optional[float]
    ) -> Optional[Tuple[Tuple[str, ...], List[int]]]:
        with self._lock:
            entry = self._buckets.get(path)
            if entry is None:
                return None
            keys, dq = entry
            if not dq:
                return None
            t = now if now is not None else dq[-1][0]
            pair = self._window_pair(dq, window, t)
        if pair is None:
            return None
        (_, counts0), (_, counts1) = pair
        if len(counts0) != len(counts1):
            return None
        return keys, [c1 - c0 for c0, c1 in zip(counts0, counts1)]

    def histogram_paths(self) -> List[str]:
        """Every retained histogram series path, sorted."""
        with self._lock:
            return sorted(self._buckets)

    def fraction_over(
        self,
        path: str,
        threshold: float,
        window: float,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Fraction of window observations above ``threshold``.

        The histogram's bucket layout quantises the threshold: every
        observation in a bucket whose upper bound is ≤ ``threshold``
        counts as good, everything else as bad — so pick SLO
        thresholds on bucket boundaries for exact accounting.  Returns
        ``None`` when no observation landed in the window (no signal
        is not the same as a good signal).
        """
        deltas = self._bucket_deltas(path, window, now)
        if deltas is None:
            return None
        keys, diffs = deltas
        total = sum(diffs)
        if total <= 0:
            return None
        good = sum(
            diff
            for key, diff in zip(keys, diffs)
            if _bound_of(key) <= threshold
        )
        bad = total - good
        return min(1.0, max(0.0, bad / total))

    def rolling_quantile(
        self,
        path: str,
        q: float,
        window: float,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Estimated ``q``-quantile of the window's observations.

        :func:`~repro.obs.registry.bucket_quantile` over the window's
        bucket-count deltas: linear interpolation inside the winning
        bucket, and the ``+Inf`` bucket reads as the largest finite
        bound (no upper sample exists to interpolate toward).
        """
        keys, diffs = self._bucket_deltas(path, window, now) or ((), [])
        bounds = [_bound_of(key) for key in keys if key != "+Inf"]
        return bucket_quantile(bounds, diffs, q)

    def snapshot(self) -> dict:
        """Store-level counters (for the monitor's own metrics)."""
        with self._lock:
            return {
                "scrapes": self.scrapes,
                "series": len(self._series),
                "histograms": len(self._buckets),
                "capacity": self.capacity,
            }


class Monitor:
    """The scrape scheduler binding a store to SLO rules and sinks.

    Production use runs :meth:`start`'s daemon thread on ``interval``;
    deterministic tests call :meth:`tick` directly under an injected
    clock.  Each tick scrapes the registry into the store, evaluates
    every rule through the :class:`~repro.obs.slo.AlertManager`, and —
    when ``out_path`` is set — atomically republishes the exported
    document so a separate ``repro-top`` process can tail it live.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        rules: Sequence[Any] = (),
        interval: float = 1.0,
        capacity: int = 512,
        clock: Callable[[], float] = time.monotonic,
        sinks: Sequence[Callable[[Any], None]] = (),
        out_path: Optional[str] = None,
        export_points: int = 120,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        from repro.obs.slo import AlertManager

        self.registry = registry
        self.interval = interval
        self.store = TimeSeriesStore(registry, capacity=capacity, clock=clock)
        self.alerts = AlertManager(rules, sinks=sinks)
        self.out_path = out_path
        self.export_points = export_points
        self.meta = dict(meta) if meta else {}
        self.ticks = 0
        self.health_source: Optional[Callable[[], dict]] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_tick: Optional[float] = None

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> float:
        """One scrape + rule evaluation (+ optional publish)."""
        t = self.store.scrape(now)
        self.alerts.evaluate(self.store, t)
        self.ticks += 1
        self._last_tick = t
        if self.out_path is not None:
            try:
                self.write(self.out_path)
            except OSError:
                pass  # a full disk must not kill the scrape loop
        return t

    # ------------------------------------------------------------------
    # the scheduler thread
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run :meth:`tick` every ``interval`` s on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                self.tick()

        self._thread = threading.Thread(
            target=loop, name="repro-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the scheduler thread (one final tick is taken)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        # a closing tick so short runs still retain a final sample.
        self.tick()

    @property
    def running(self) -> bool:
        return self._thread is not None

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """The full monitor state as one plain-type document.

        ``series`` carries the last ``export_points`` points of every
        retained scalar series; ``alerts``/``rules`` the alert
        manager's state; ``health`` the bound health source's verdict
        (when a service attached one).  ``repro-top`` and ``repro-trace
        dash`` render exactly this document.
        """
        series: Dict[str, List[List[float]]] = {}
        for path in self.store.paths():
            points = self.store.series(path)[-self.export_points:]
            series[path] = [[t, v] for t, v in points]
        document: Dict[str, Any] = {
            "format": MONITOR_FORMAT,
            "interval": self.interval,
            "ticks": self.ticks,
            "time": self._last_tick,
            "meta": dict(self.meta),
            "store": self.store.snapshot(),
            "alerts": self.alerts.snapshot(),
            "series": series,
        }
        if self.health_source is not None:
            try:
                document["health"] = self.health_source()
            except Exception:
                document["health"] = None
        return document

    def write(self, path: str) -> None:
        """Atomically publish :meth:`export` as JSON (temp + rename)."""
        blob = json.dumps(self.export())
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp, path)

    def snapshot(self) -> dict:
        """Monitor counters for the service metrics document."""
        return {
            "ticks": self.ticks,
            "interval": self.interval,
            "running": self.running,
            "store": self.store.snapshot(),
            "alerts": self.alerts.snapshot(),
        }


def load_monitor_document(path: str) -> dict:
    """Read and validate a published monitor document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or (
        document.get("format") != MONITOR_FORMAT
    ):
        raise ValueError(
            f"{path} is not a {MONITOR_FORMAT} document (was it written "
            "by repro-serve --monitor-out or Monitor.write?)"
        )
    return document


# ----------------------------------------------------------------------
# health
# ----------------------------------------------------------------------
class HealthLimits:
    """Operator thresholds the health verdict is judged against."""

    def __init__(
        self,
        max_wal_bytes: float = 64 * 1024 * 1024,
        max_checkpoint_age: float = 600.0,
        max_pending_deltas: float = 256.0,
    ) -> None:
        self.max_wal_bytes = max_wal_bytes
        self.max_checkpoint_age = max_checkpoint_age
        self.max_pending_deltas = max_pending_deltas


_VERDICT_RANK = {"ok": 0, "degraded": 1, "unhealthy": 2}


def compute_health(
    alerts: Optional[List[dict]] = None,
    recovery: Optional[dict] = None,
    subscriptions: Optional[dict] = None,
    requests: Optional[dict] = None,
    limits: Optional[HealthLimits] = None,
) -> dict:
    """Fold subsystem snapshots into one overall health verdict.

    Each input is that subsystem's snapshot dict (or ``None`` when the
    subsystem is absent — an absent subsystem is healthy by
    definition).  The result is ``{"status": ..., "checks": {...}}``
    where ``status`` is the worst of its checks: ``ok`` < ``degraded``
    < ``unhealthy``.  Rules:

    * any **firing** alert → ``degraded``; a firing ``critical`` alert
      → ``unhealthy``;
    * WAL bytes or checkpoint age past their limit → ``degraded``;
    * subscription backlog past its limit, or a pending resync →
      ``degraded``;
    * any fatal (non-retryable) fault served → ``degraded``.
    """
    limits = limits or HealthLimits()
    checks: Dict[str, dict] = {}

    def check(name: str, status: str, detail: str) -> None:
        checks[name] = {"status": status, "detail": detail}

    # --- alert state ---------------------------------------------------
    if alerts is None:
        check("alerts", "ok", "monitor not attached")
    else:
        firing = [a for a in alerts if a.get("state") == "firing"]
        critical = [a for a in firing if a.get("severity") == "critical"]
        if critical:
            names = ", ".join(sorted(a["rule"] for a in critical))
            check("alerts", "unhealthy", f"critical alert firing: {names}")
        elif firing:
            names = ", ".join(sorted(a["rule"] for a in firing))
            check("alerts", "degraded", f"alert firing: {names}")
        else:
            check("alerts", "ok", f"{len(alerts)} active, none firing")

    # --- durability ----------------------------------------------------
    if recovery is None:
        check("durability", "ok", "volatile engine (no WAL)")
    else:
        gauges = recovery.get("gauges") or {}
        wal_bytes = gauges.get("wal_bytes")
        age = gauges.get("seconds_since_checkpoint")
        problems = []
        if wal_bytes is not None and wal_bytes > limits.max_wal_bytes:
            problems.append(
                f"WAL at {wal_bytes:.0f} B > {limits.max_wal_bytes:.0f} B"
            )
        if age is not None and age > limits.max_checkpoint_age:
            problems.append(
                f"last checkpoint {age:.0f} s ago "
                f"(> {limits.max_checkpoint_age:.0f} s)"
            )
        if problems:
            check("durability", "degraded", "; ".join(problems))
        else:
            detail = "WAL"
            if wal_bytes is not None:
                detail = f"WAL {wal_bytes:.0f} B"
                if age is not None:
                    detail += f", checkpoint {age:.1f} s ago"
            check("durability", "ok", detail)

    # --- standing-query backlog ----------------------------------------
    if subscriptions is None or not subscriptions.get("active"):
        check("subscriptions", "ok", "no standing queries")
    else:
        pending = subscriptions.get("pending_deltas", 0)
        resyncs = sum(
            1
            for sub in subscriptions.get("per_subscription", [])
            if sub.get("resync_pending")
        )
        if pending > limits.max_pending_deltas or resyncs:
            detail = f"{pending} deltas queued"
            if resyncs:
                detail += f", {resyncs} resync(s) pending"
            check("subscriptions", "degraded", detail)
        else:
            check(
                "subscriptions",
                "ok",
                f"{subscriptions['active']} standing, {pending} queued",
            )

    # --- fault budget ---------------------------------------------------
    if requests is None:
        check("faults", "ok", "no request counters")
    else:
        fatal = requests.get("faults_fatal", 0)
        if fatal:
            check("faults", "degraded", f"{fatal} fatal fault(s) served")
        else:
            check("faults", "ok", "no fatal faults")

    worst = max(
        (c["status"] for c in checks.values()),
        key=lambda status: _VERDICT_RANK[status],
    )
    return {"status": worst, "checks": checks}
