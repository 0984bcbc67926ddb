"""Unified metrics registry with JSON and Prometheus exposition.

One place where every operational number of the system meets:

* **instruments** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` created through the registry by name; cheap,
  thread-safe, and exported with proper ``# TYPE`` lines;
* **collectors** — pull-style callables registered per section that
  return nested plain-type dicts at scrape time.  Existing snapshot
  providers (``ServiceMetrics``, ``FaultInjector``, ``BufferPool``,
  admission/cache/coalescer) plug in unchanged, so the registry
  *absorbs* them instead of duplicating their state.

:meth:`MetricsRegistry.collect` produces one JSON document (what
``repro-serve --stats`` prints); :meth:`MetricsRegistry.to_prometheus`
flattens the same tree into Prometheus text exposition format 0.0.4,
mapping numeric leaves to untyped samples, booleans to 0/1, and string
leaves (algorithm names, fault profiles) to info-style samples with
the value as a label.
"""

from __future__ import annotations

import bisect
import re
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "escape_help_text",
    "escape_label_value",
    "render_labels",
    "sanitize_metric_name",
]

_ROOT = ""  # section name under which a collector merges into the top level

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map an arbitrary dotted/nested path to a legal Prometheus name."""
    cleaned = _NAME_OK.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the text-format spec (0.0.4).

    Inside double-quoted label values, backslash, double quote and
    line feed must appear as ``\\\\``, ``\\"`` and ``\\n`` — a raw
    newline would terminate the sample line mid-way and corrupt the
    whole exposition.
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help_text(text: str) -> str:
    """Escape ``# HELP`` text: backslash and line feed only (the spec
    does not escape quotes outside label values)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def export(self) -> Any:
        return self.value


class Gauge:
    """A value that can go up and down.

    A gauge may instead be *callback-backed* (``callback=...``): its
    value is read from the callable at export time, which is how live
    state owned elsewhere becomes a scrapeable sample without double
    bookkeeping.  A callback that raises is isolated by the registry —
    the sample is skipped and counted in ``collector_errors``, never
    letting one bad source abort a whole exposition.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.callback = callback
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if self.callback is not None:
            raise TypeError(
                f"gauge {self.name!r} is callback-backed; it cannot be set"
            )
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self.callback is not None:
            raise TypeError(
                f"gauge {self.name!r} is callback-backed; it cannot be set"
            )
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        with self._lock:
            return self._value

    def export(self) -> Any:
        return self.value


DEFAULT_BOUNDS: Sequence[float] = tuple(0.001 * 4**i for i in range(10))


def bucket_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    q: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> Optional[float]:
    """Estimated ``q``-quantile (``0 < q <= 1``) from bucket counts.

    ``counts`` has one entry per upper bound in ``bounds`` plus the
    overflow (``+Inf``) bucket.  The estimate interpolates linearly
    inside the bucket holding the ``q * total``-th observation (the
    first bucket's lower edge is 0), the Prometheus
    ``histogram_quantile`` approximation, good to one bucket width.
    An overflow-bucket estimate interpolates toward ``high`` when
    given, else it is the largest finite bound.  ``low``/``high``
    (the observed min/max, when known) clamp the estimate.  Returns
    ``None`` when the buckets hold no observation.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    total = sum(counts)
    if total <= 0:
        return None
    rank = q * total
    # float rounding can land rank an epsilon off an integer (e.g.
    # 0.9 * 10 == 9.000000000000002), which would push a boundary
    # quantile into the *next* bucket; snap it back.
    nearest = round(rank)
    if abs(rank - nearest) <= 1e-9 * total:
        rank = float(nearest)
    top = high if high is not None else (bounds[-1] if bounds else 0.0)
    uppers = list(bounds) + [top]
    estimate = top
    seen = 0
    for i, count in enumerate(counts):
        if count <= 0:
            continue
        if seen + count >= rank:
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = uppers[i]
            fraction = (rank - seen) / count
            if fraction >= 1.0:
                # exact at the bucket's upper boundary: lower +
                # (upper - lower) * 1.0 need not round to `upper`.
                estimate = upper
            else:
                estimate = lower + (upper - lower) * fraction
            break
        seen += count
    if high is not None:
        estimate = min(estimate, high)
    if low is not None:
        estimate = max(estimate, low)
    return estimate


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative exposition.

    Thread-safe.  A NaN observation is dropped and counted in
    ``dropped``: it would otherwise poison the sum and, through
    ``min``/``max``, every quantile clamp.  A negative one, possible
    when a caller diffs timestamps from a non-monotonic clock, clamps
    to 0.0 so the sum and the quantiles stay monotone.  Besides the
    registry payload (:meth:`export`) it keeps the exact min/max and
    summarises itself as the service's latency snapshot
    (:meth:`snapshot`).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> None:
        if list(bounds) != sorted(bounds) or len(bounds) != len(set(bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self.count = 0
        self.dropped = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        if value != value:  # NaN
            with self._lock:
                self.dropped += 1
            return
        if value < 0.0:
            value = 0.0
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self.count += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations."""
        with self._lock:
            return self._sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``); 0.0 when empty.

        See :func:`bucket_quantile`; the estimate never leaves the
        observed ``[min, max]`` range.
        """
        with self._lock:
            counts = list(self._counts)
            low, high = self.min, self.max
        estimate = bucket_quantile(self.bounds, counts, q, low, high)
        return 0.0 if estimate is None else estimate

    def snapshot(self) -> dict:
        """Count, mean, p50/p90/p99, min and max as plain types."""
        return {
            "count": self.count,
            "dropped": self.dropped,
            "mean_seconds": self.mean,
            "p50_seconds": self.quantile(0.50),
            "p90_seconds": self.quantile(0.90),
            "p99_seconds": self.quantile(0.99),
            "min_seconds": self.min or 0.0,
            "max_seconds": self.max or 0.0,
        }

    def export(self) -> Any:
        with self._lock:
            return {
                "count": self.count,
                "sum": self._sum,
                "buckets": {
                    ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])): c
                    for i, c in enumerate(self._counts)
                },
            }

    def prometheus_lines(self, prefix: str) -> List[str]:
        with self._lock:
            counts = list(self._counts)
            total = self.count
            acc_sum = self._sum
        lines = []
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            cumulative += counts[i]
            lines.append(f'{prefix}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += counts[-1]
        lines.append(f'{prefix}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prefix}_sum {acc_sum}")
        lines.append(f"{prefix}_count {total}")
        return lines


def render_labels(labels: Optional[Dict[str, str]]) -> str:
    """Render a label set as the Prometheus sample suffix.

    ``{"site": "0"}`` becomes ``{site="0"}``; an empty/absent set
    renders as ``""``.  Keys are sorted so the same label set always
    produces the same instrument identity.
    """
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(key)}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Named instruments plus pull collectors, exported as one surface.

    Fault isolation: a collector or callback-backed gauge that raises
    at scrape time is *skipped* — its section/sample is omitted from
    that scrape and the failure is counted in the ``collector_errors``
    counter (created lazily on the first failure, so clean registries
    keep their historical snapshot shape).  One misbehaving source can
    therefore never abort :meth:`collect` or the Prometheus exposition
    for everyone else.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._instruments: "OrderedDict[str, Any]" = OrderedDict()
        self._collectors: "OrderedDict[str, Callable[[], Any]]" = OrderedDict()

    # ------------------------------------------------------------------
    # instruments (get-or-create by name + labels)
    # ------------------------------------------------------------------
    def _instrument(
        self,
        cls,
        name: str,
        help: str,
        labels: Optional[Dict[str, str]] = None,
        **kwargs,
    ):
        key = name + render_labels(labels)
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {key!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            instrument.labels = dict(labels) if labels else None
            self._instruments[key] = instrument
            return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Counter:
        return self._instrument(Counter, name, help, labels=labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self._instrument(
            Gauge, name, help, labels=labels, callback=callback
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> Histogram:
        return self._instrument(Histogram, name, help, bounds=bounds)

    @property
    def collector_errors(self) -> int:
        """Total collector / gauge-callback failures isolated so far."""
        with self._lock:
            counter = self._instruments.get("collector_errors")
        return int(counter.value) if counter is not None else 0

    def _count_collector_error(self) -> None:
        self.counter(
            "collector_errors",
            help="collector or gauge-callback failures isolated at "
            "scrape time (the failing source was skipped)",
        ).inc()

    # ------------------------------------------------------------------
    # collectors
    # ------------------------------------------------------------------
    def register_collector(
        self, section: Optional[str], collect: Callable[[], Any]
    ) -> Callable[[], None]:
        """Attach a pull collector under ``section`` of the JSON document.

        ``section=None`` merges the collector's returned mapping into
        the top level (used for legacy snapshots whose keys are already
        sections of their own).  Returns an unregister callable.
        """
        key = _ROOT if section is None else section
        with self._lock:
            if key in self._collectors:
                raise ValueError(f"collector {section!r} already registered")
            self._collectors[key] = collect

        def unregister() -> None:
            with self._lock:
                self._collectors.pop(key, None)

        return unregister

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """One nested plain-type document covering every source.

        A collector (or callback gauge) that raises is skipped for
        this scrape and counted in ``collector_errors``; every other
        section still lands in the document.
        """
        with self._lock:
            collectors = list(self._collectors.items())
            instruments = list(self._instruments.items())
        document: Dict[str, Any] = {}
        errors = 0
        for section, fn in collectors:
            try:
                value = fn()
            except Exception:
                errors += 1
                continue
            if section == _ROOT:
                if value:
                    document.update(value)
            else:
                document[section] = value
        if instruments:
            exported: Dict[str, Any] = {}
            for key, inst in instruments:
                try:
                    exported[key] = inst.export()
                except Exception:
                    errors += 1
            document["instruments"] = exported
        for _ in range(errors):
            self._count_collector_error()
        if errors:
            # the increments above may have *created* the counter; make
            # this scrape's document reflect them instead of lagging one.
            document.setdefault("instruments", {})["collector_errors"] = (
                float(self.collector_errors)
            )
        return document

    def to_prometheus(self) -> str:
        """Prometheus text exposition 0.0.4 of the full document.

        Mirrors :meth:`collect`'s fault isolation: a raising collector
        or gauge callback loses only its own samples.
        """
        with self._lock:
            instruments = list(self._instruments.items())
        lines: List[str] = []
        errors = 0
        families_seen = set()
        for _key, inst in instruments:
            full = sanitize_metric_name(f"{self.namespace}_{inst.name}")
            suffix = render_labels(getattr(inst, "labels", None))
            try:
                value = inst.export()
            except Exception:
                errors += 1
                continue
            if full not in families_seen:
                families_seen.add(full)
                if inst.help:
                    lines.append(
                        f"# HELP {full} {escape_help_text(inst.help)}"
                    )
                lines.append(f"# TYPE {full} {inst.kind}")
            if isinstance(inst, Histogram):
                lines.extend(inst.prometheus_lines(full))
            else:
                lines.append(f"{full}{suffix} {value}")
        with self._lock:
            collectors = list(self._collectors.items())
        for section, fn in collectors:
            try:
                value = fn()
            except Exception:
                errors += 1
                continue
            if value is None:
                continue
            prefix = self.namespace if section == _ROOT else (
                f"{self.namespace}_{section}"
            )
            self._flatten(prefix, value, lines)
        for _ in range(errors):
            self._count_collector_error()
        return "\n".join(lines) + "\n"

    def _flatten(self, prefix: str, value: Any, lines: List[str]) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                self._flatten(f"{prefix}_{key}", sub, lines)
            return
        name = sanitize_metric_name(prefix)
        if isinstance(value, bool):
            lines.append(f"{name} {int(value)}")
        elif isinstance(value, (int, float)):
            lines.append(f"{name} {value}")
        elif isinstance(value, str):
            # info-style: the string becomes a label, the value is 1.
            lines.append(f'{name}{{value="{escape_label_value(value)}"}} 1')
        # lists / None / other types carry no scalar sample; they stay
        # available in the JSON document.
