"""Declarative SLOs, burn-rate alert rules, and the alert manager.

The paper's deterministic cost model gives this system an unusually
crisp misbehaviour signal — mean distance computations per query is a
*property of the index*, not of the machine — so alongside the classic
serving objectives (latency, error rate, staleness) this module can
alert on **cost drift**: the index degrading under writes shows up as
a rising distance-computation rate long before wall-clock does.

Vocabulary (the multi-window burn-rate method from the Google SRE
workbook, scaled down to in-process windows):

* an :class:`SLO` states an objective — "99 % of requests are good";
  its **error budget** is ``1 - objective``;
* a **bad-fraction source** measures the fraction of bad events over a
  trailing window from the retained time series
  (:class:`LatencySource` over histogram buckets,
  :class:`CounterRatioSource` over counter deltas);
* the **burn rate** over a window is ``bad_fraction / error_budget``
  — burn 1.0 spends the budget exactly on time, burn 14.4 exhausts a
  30-day budget in 2 days;
* a :class:`BurnRateRule` fires when *both* a long and a short window
  burn above the rule's factor (the short window makes alerts reset
  fast once the problem stops; the long window keeps them from
  flapping on blips).

Alert lifecycle (:class:`AlertManager`): a breached rule goes
**pending**; breached continuously for ``for_seconds`` it transitions
to **firing** (deduplicated — one alert per rule until it resolves);
when the rule stops breaching a firing alert becomes **resolved**.
Transitions are delivered to pluggable sinks: a JSON log line
(:func:`logging_sink`), a metrics counter (:func:`counter_sink`), or
any callable.

Everything evaluates against an injected ``now`` and a
:class:`~repro.obs.monitor.TimeSeriesStore`, so tests drive the whole
lifecycle deterministically with a fake clock.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Alert",
    "AlertManager",
    "BurnRateRule",
    "CounterRatioSource",
    "DriftRule",
    "LatencySource",
    "SEVERITIES",
    "SLO",
    "ThresholdRule",
    "counter_sink",
    "default_rules",
    "load_slo_config",
    "logging_sink",
]

#: recognised severities, mildest first.  ``critical`` drives the
#: health verdict to ``unhealthy``; everything else degrades it.
SEVERITIES = ("info", "warn", "critical")


@dataclass(frozen=True)
class SLO:
    """One service-level objective: a named good-event fraction."""

    name: str
    objective: float
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")

    @property
    def error_budget(self) -> float:
        """The tolerated bad-event fraction (``1 - objective``)."""
        return 1.0 - self.objective


# ----------------------------------------------------------------------
# bad-fraction sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencySource:
    """Bad fraction from a histogram instrument: observations above a
    latency threshold.  ``histogram`` names a registry *instrument*
    (e.g. ``request_latency_seconds``); the threshold is quantised to
    the histogram's bucket bounds."""

    histogram: str
    threshold_seconds: float

    @property
    def path(self) -> str:
        return f"instruments.{self.histogram}"

    def bad_fraction(
        self, store: Any, window: float, now: float
    ) -> Optional[float]:
        return store.fraction_over(
            self.path, self.threshold_seconds, window, now
        )

    def describe(self) -> str:
        return f"{self.histogram} > {self.threshold_seconds}s"


@dataclass(frozen=True)
class CounterRatioSource:
    """Bad fraction from counter deltas: ``Σ Δbad / Δtotal``.

    ``bad`` and ``total`` are dotted series paths of the scraped
    document (e.g. ``requests.failures`` over ``requests.received``).
    """

    bad: Tuple[str, ...]
    total: str

    def bad_fraction(
        self, store: Any, window: float, now: float
    ) -> Optional[float]:
        total_delta = store.delta(self.total, window, now)
        if total_delta is None or total_delta <= 0:
            return None
        bad_delta = 0.0
        for path in self.bad:
            delta = store.delta(path, window, now)
            if delta is not None:
                bad_delta += max(0.0, delta)
        return min(1.0, max(0.0, bad_delta / total_delta))

    def describe(self) -> str:
        return f"{'+'.join(self.bad)} / {self.total}"


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleResult:
    """One evaluation outcome of one rule."""

    breached: bool
    value: Optional[float] = None
    detail: str = ""


class Rule:
    """Base class: a named, severity-tagged breach predicate."""

    def __init__(
        self, name: str, severity: str = "warn", for_seconds: float = 0.0
    ) -> None:
        if severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, not {severity!r}"
            )
        if for_seconds < 0:
            raise ValueError("for_seconds must be >= 0")
        self.name = name
        self.severity = severity
        self.for_seconds = for_seconds

    def evaluate(self, store: Any, now: float) -> RuleResult:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class BurnRateRule(Rule):
    """Multi-window error-budget burn-rate rule over one SLO.

    ``windows`` is a sequence of ``(long_s, short_s, factor)`` tuples;
    the rule breaches when any tuple has **both** windows burning
    above its factor.  An unknown bad fraction (no events in the
    window) never breaches — absence of traffic is not an outage.
    """

    def __init__(
        self,
        slo: SLO,
        source: Any,
        windows: Sequence[Tuple[float, float, float]],
        name: Optional[str] = None,
        severity: str = "critical",
        for_seconds: float = 0.0,
    ) -> None:
        super().__init__(
            name if name is not None else f"{slo.name}-burn-rate",
            severity,
            for_seconds,
        )
        if not windows:
            raise ValueError("at least one (long, short, factor) window")
        for long_s, short_s, factor in windows:
            if short_s > long_s:
                raise ValueError("short window must not exceed the long one")
            if factor <= 0:
                raise ValueError("burn factor must be > 0")
        self.slo = slo
        self.source = source
        self.windows = tuple(
            (float(a), float(b), float(c)) for a, b, c in windows
        )

    def evaluate(self, store: Any, now: float) -> RuleResult:
        budget = self.slo.error_budget
        worst: Optional[float] = None
        for long_s, short_s, factor in self.windows:
            long_bad = self.source.bad_fraction(store, long_s, now)
            short_bad = self.source.bad_fraction(store, short_s, now)
            if long_bad is None or short_bad is None:
                continue
            long_burn = long_bad / budget
            short_burn = short_bad / budget
            observed = min(long_burn, short_burn)
            if worst is None or observed > worst:
                worst = observed
            if long_burn > factor and short_burn > factor:
                return RuleResult(
                    True,
                    observed,
                    f"burn {long_burn:.2f}x over {long_s:.0f}s and "
                    f"{short_burn:.2f}x over {short_s:.0f}s "
                    f"(> {factor:g}x budget of {budget:g})",
                )
        return RuleResult(False, worst, "within budget")

    def describe(self) -> str:
        return (
            f"{self.name}: {self.source.describe()} vs "
            f"{self.slo.objective:.4g} objective"
        )


class ThresholdRule(Rule):
    """A plain bound on one retained series (gauge semantics).

    ``window == 0`` compares the latest sample; otherwise the mean
    over the trailing window (smoother against scrape jitter).
    """

    OPS: Dict[str, Callable[[float, float], bool]] = {
        ">": lambda observed, bound: observed > bound,
        "<": lambda observed, bound: observed < bound,
        ">=": lambda observed, bound: observed >= bound,
        "<=": lambda observed, bound: observed <= bound,
    }

    def __init__(
        self,
        path: str,
        op: str,
        value: float,
        name: Optional[str] = None,
        severity: str = "warn",
        for_seconds: float = 0.0,
        window: float = 0.0,
    ) -> None:
        super().__init__(
            name if name is not None else f"{path}{op}{value:g}",
            severity,
            for_seconds,
        )
        if op not in self.OPS:
            raise ValueError(f"op must be one of {sorted(self.OPS)}")
        if window < 0:
            raise ValueError("window must be >= 0")
        self.path = path
        self.op = op
        self.value = float(value)
        self.window = float(window)

    def evaluate(self, store: Any, now: float) -> RuleResult:
        if self.window > 0:
            observed = store.mean(self.path, self.window, now)
        else:
            observed = store.latest(self.path)
        if observed is None:
            return RuleResult(False, None, f"no samples for {self.path}")
        if self.OPS[self.op](observed, self.value):
            return RuleResult(
                True,
                observed,
                f"{self.path} = {observed:g} {self.op} {self.value:g}",
            )
        return RuleResult(False, observed, f"{self.path} = {observed:g}")


class DriftRule(Rule):
    """Cost-drift rule: a per-event counter ratio leaving its baseline.

    The recent mean of ``Δnumerator / Δdenominator`` (e.g. distance
    computations per cold execution — the paper's deterministic cost
    signal) is compared against the same ratio over a much longer
    baseline window.  A recent mean above ``max_ratio`` × baseline is
    the "index degradation" alert: each query is *paying more* than
    this workload's established norm, which no wall-clock metric can
    say as cleanly.
    """

    def __init__(
        self,
        numerator: str,
        denominator: str,
        baseline_window: float,
        recent_window: float,
        max_ratio: float = 1.5,
        min_events: float = 1.0,
        name: Optional[str] = None,
        severity: str = "warn",
        for_seconds: float = 0.0,
    ) -> None:
        super().__init__(
            name if name is not None else f"drift:{numerator}",
            severity,
            for_seconds,
        )
        if recent_window >= baseline_window:
            raise ValueError("recent window must be shorter than baseline")
        if max_ratio <= 1.0:
            raise ValueError("max_ratio must be > 1")
        self.numerator = numerator
        self.denominator = denominator
        self.baseline_window = float(baseline_window)
        self.recent_window = float(recent_window)
        self.max_ratio = float(max_ratio)
        self.min_events = float(min_events)

    def _ratio(
        self, store: Any, window: float, now: float
    ) -> Optional[float]:
        den = store.delta(self.denominator, window, now)
        if den is None or den < self.min_events:
            return None
        num = store.delta(self.numerator, window, now)
        if num is None:
            return None
        return num / den

    def evaluate(self, store: Any, now: float) -> RuleResult:
        baseline = self._ratio(store, self.baseline_window, now)
        recent = self._ratio(store, self.recent_window, now)
        if baseline is None or recent is None or baseline <= 0:
            return RuleResult(False, None, "insufficient events")
        ratio = recent / baseline
        if ratio > self.max_ratio:
            return RuleResult(
                True,
                ratio,
                f"{self.numerator} per {self.denominator}: recent "
                f"{recent:.1f} vs baseline {baseline:.1f} "
                f"({ratio:.2f}x > {self.max_ratio:g}x)",
            )
        return RuleResult(
            False, ratio, f"recent/baseline ratio {ratio:.2f}x"
        )


# ----------------------------------------------------------------------
# alerts
# ----------------------------------------------------------------------
@dataclass
class Alert:
    """One rule's alert instance across its lifecycle."""

    rule: str
    severity: str
    state: str  # "pending" | "firing" | "resolved"
    since: float
    fired_at: Optional[float] = None
    resolved_at: Optional[float] = None
    value: Optional[float] = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            "since": self.since,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "value": self.value,
            "detail": self.detail,
        }


@dataclass
class _Tracker:
    """Per-rule lifecycle state inside the manager."""

    alert: Optional[Alert] = None
    last_result: Optional[RuleResult] = None
    breaches: int = 0
    evaluations: int = 0
    history: List[Alert] = field(default_factory=list)


class AlertManager:
    """Evaluates rules each tick and owns alert state transitions.

    Deduplication is structural: one :class:`Alert` object exists per
    rule while it is pending/firing, and a new one is created only
    after the previous resolved.  Sinks receive the alert on the
    ``firing`` and ``resolved`` transitions (not on every tick); a
    sink that raises is dropped so a broken sink cannot poison the
    scrape loop.
    """

    MAX_HISTORY = 64

    def __init__(
        self,
        rules: Sequence[Rule] = (),
        sinks: Sequence[Callable[[Alert], None]] = (),
    ) -> None:
        names = [rule.name for rule in rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule names: {sorted(duplicates)}")
        self.rules: List[Rule] = list(rules)
        self._sinks: List[Callable[[Alert], None]] = list(sinks)
        self._trackers: Dict[str, _Tracker] = {
            rule.name: _Tracker() for rule in self.rules
        }
        self.evaluations = 0
        self.fired = 0
        self.resolved = 0

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, store: Any, now: float) -> List[Alert]:
        """Evaluate every rule; returns this tick's transitions."""
        transitions: List[Alert] = []
        for rule in self.rules:
            tracker = self._trackers[rule.name]
            tracker.evaluations += 1
            self.evaluations += 1
            try:
                result = rule.evaluate(store, now)
            except Exception:
                # a rule that cannot evaluate (series vanished, bad
                # config) must not take down the loop; treat as clear.
                result = RuleResult(False, None, "rule evaluation failed")
            tracker.last_result = result
            alert = tracker.alert
            if result.breached:
                tracker.breaches += 1
                if alert is None:
                    alert = Alert(
                        rule=rule.name,
                        severity=rule.severity,
                        state="pending",
                        since=now,
                        value=result.value,
                        detail=result.detail,
                    )
                    tracker.alert = alert
                alert.value = result.value
                alert.detail = result.detail
                if (
                    alert.state == "pending"
                    and now - alert.since >= rule.for_seconds
                ):
                    alert.state = "firing"
                    alert.fired_at = now
                    self.fired += 1
                    transitions.append(alert)
                    self._emit(alert)
            elif alert is not None:
                if alert.state == "firing":
                    alert.state = "resolved"
                    alert.resolved_at = now
                    self.resolved += 1
                    transitions.append(alert)
                    self._record_history(tracker, alert)
                    self._emit(alert)
                tracker.alert = None
        return transitions

    def _record_history(self, tracker: _Tracker, alert: Alert) -> None:
        tracker.history.append(alert)
        if len(tracker.history) > self.MAX_HISTORY:
            del tracker.history[0]

    def _emit(self, alert: Alert) -> None:
        # sinks get a copy: the live Alert keeps mutating through its
        # lifecycle, and a sink that stores what it saw must see the
        # transition it was delivered, not the final state.
        frozen = replace(alert)
        for sink in list(self._sinks):
            try:
                sink(frozen)
            except Exception:
                try:
                    self._sinks.remove(sink)
                except ValueError:
                    pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def active(self) -> List[dict]:
        """Current pending/firing alerts as plain dicts."""
        return [
            tracker.alert.as_dict()
            for tracker in self._trackers.values()
            if tracker.alert is not None
        ]

    def firing(self) -> List[dict]:
        return [a for a in self.active() if a["state"] == "firing"]

    def snapshot(self) -> dict:
        """Manager counters + per-rule state as plain types."""
        rules = []
        for rule in self.rules:
            tracker = self._trackers[rule.name]
            result = tracker.last_result
            rules.append(
                {
                    "name": rule.name,
                    "severity": rule.severity,
                    "for_seconds": rule.for_seconds,
                    "evaluations": tracker.evaluations,
                    "breaches": tracker.breaches,
                    "state": (
                        tracker.alert.state
                        if tracker.alert is not None
                        else "inactive"
                    ),
                    "value": result.value if result is not None else None,
                    "detail": result.detail if result is not None else "",
                }
            )
        return {
            "evaluations": self.evaluations,
            "fired": self.fired,
            "resolved": self.resolved,
            "active": self.active(),
            "rules": rules,
        }


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def logging_sink(
    logger: Optional[logging.Logger] = None,
) -> Callable[[Alert], None]:
    """A sink that emits one structured log line per transition.

    Pairs with :func:`repro.obs.logging.configure_json_logging`: the
    record's extras become JSON fields, so alert transitions land in
    the same machine-readable stream as everything else.
    """
    log = logger if logger is not None else logging.getLogger(
        "repro.obs.monitor"
    )

    def sink(alert: Alert) -> None:
        level = (
            logging.ERROR
            if alert.severity == "critical" and alert.state == "firing"
            else logging.WARNING
            if alert.state == "firing"
            else logging.INFO
        )
        log.log(
            level,
            "alert %s: %s",
            alert.state,
            alert.rule,
            extra={
                "alert": alert.rule,
                "alert_state": alert.state,
                "severity": alert.severity,
                "value": alert.value,
                "detail": alert.detail,
            },
        )

    return sink


def counter_sink(registry: Any) -> Callable[[Alert], None]:
    """A sink that counts transitions in the metrics registry itself
    (``monitor_alerts_total{severity=...,state=...}``) — alerting
    that is itself observable."""

    def sink(alert: Alert) -> None:
        registry.counter(
            "monitor_alerts_total",
            help="alert lifecycle transitions by severity and state",
            labels={"severity": alert.severity, "state": alert.state},
        ).inc()

    return sink


# ----------------------------------------------------------------------
# defaults & config loading
# ----------------------------------------------------------------------
def default_rules(
    algorithm: str = "pba2",
    latency_threshold: float = 0.25,
    latency_objective: float = 0.95,
    error_objective: float = 0.99,
    staleness_seconds: float = 1.0,
    scale: float = 1.0,
) -> List[Rule]:
    """The stock rule set ``repro-serve --monitor`` ships with.

    ``scale`` multiplies every window so short demo runs (seconds, not
    hours) still accumulate enough samples — production would keep the
    SRE-workbook hour-scale windows.
    """

    def s(seconds: float) -> float:
        return max(seconds * scale, 1e-9)

    return [
        BurnRateRule(
            SLO(
                "latency",
                latency_objective,
                f"{latency_objective:.0%} of requests under "
                f"{latency_threshold}s",
            ),
            LatencySource("request_latency_seconds", latency_threshold),
            windows=[(s(60.0), s(5.0), 6.0), (s(300.0), s(30.0), 3.0)],
            name="latency-burn-rate",
            severity="critical",
        ),
        BurnRateRule(
            SLO("errors", error_objective, "non-failing request fraction"),
            CounterRatioSource(
                bad=(
                    "requests.failures",
                    "requests.faults_transient",
                    "requests.faults_fatal",
                ),
                total="requests.received",
            ),
            windows=[(s(60.0), s(5.0), 6.0)],
            name="error-burn-rate",
            severity="critical",
        ),
        ThresholdRule(
            "subscriptions.delta_lag.p99_seconds",
            ">",
            staleness_seconds,
            name="subscription-staleness",
            severity="warn",
            for_seconds=s(5.0),
        ),
        ThresholdRule(
            "subscriptions.pending_deltas",
            ">",
            128,
            name="subscription-backlog",
            severity="warn",
            for_seconds=s(5.0),
        ),
        DriftRule(
            numerator=f"per_algorithm.{algorithm}.distance_computations",
            denominator=f"per_algorithm.{algorithm}.executions",
            baseline_window=s(300.0),
            recent_window=s(30.0),
            max_ratio=1.5,
            name="index-degradation",
            severity="warn",
        ),
    ]


def _build_source(spec: Dict[str, Any]) -> Any:
    kind = spec.get("kind")
    if kind == "latency":
        return LatencySource(
            histogram=spec["histogram"],
            threshold_seconds=float(spec["threshold_seconds"]),
        )
    if kind == "counter_ratio":
        bad = spec["bad"]
        if isinstance(bad, str):
            bad = [bad]
        return CounterRatioSource(
            bad=tuple(str(p) for p in bad), total=str(spec["total"])
        )
    raise ValueError(
        f"unknown source kind {kind!r} (expected latency / counter_ratio)"
    )


def _build_rule(spec: Dict[str, Any]) -> Rule:
    kind = spec.get("type")
    common = {
        "name": spec.get("name"),
        "severity": spec.get("severity", "warn"),
        "for_seconds": float(spec.get("for_seconds", 0.0)),
    }
    if kind == "burn_rate":
        slo_spec = spec["slo"]
        return BurnRateRule(
            SLO(
                name=slo_spec["name"],
                objective=float(slo_spec["objective"]),
                description=slo_spec.get("description", ""),
            ),
            _build_source(spec["source"]),
            windows=[tuple(window) for window in spec["windows"]],
            **{**common, "severity": spec.get("severity", "critical")},
        )
    if kind == "threshold":
        return ThresholdRule(
            path=spec["path"],
            op=spec.get("op", ">"),
            value=float(spec["value"]),
            window=float(spec.get("window", 0.0)),
            **common,
        )
    if kind == "drift":
        return DriftRule(
            numerator=spec["numerator"],
            denominator=spec["denominator"],
            baseline_window=float(spec["baseline_window"]),
            recent_window=float(spec["recent_window"]),
            max_ratio=float(spec.get("max_ratio", 1.5)),
            min_events=float(spec.get("min_events", 1.0)),
            **common,
        )
    raise ValueError(
        f"unknown rule type {kind!r} "
        "(expected burn_rate / threshold / drift)"
    )


def load_slo_config(path: str) -> List[Rule]:
    """Parse a JSON SLO/rule config file (``repro-serve --slo-config``).

    Schema::

        {"rules": [
          {"type": "burn_rate", "name": "...", "severity": "critical",
           "slo": {"name": "latency", "objective": 0.99},
           "source": {"kind": "latency",
                      "histogram": "request_latency_seconds",
                      "threshold_seconds": 0.1},
           "windows": [[60, 5, 6.0]], "for_seconds": 0},
          {"type": "threshold", "path": "subscriptions.pending_deltas",
           "op": ">", "value": 100, "for_seconds": 5},
          {"type": "drift",
           "numerator": "per_algorithm.pba2.distance_computations",
           "denominator": "per_algorithm.pba2.executions",
           "baseline_window": 300, "recent_window": 30,
           "max_ratio": 1.5}
        ]}

    Raises :class:`ValueError` with the failing rule's index on any
    malformed entry — a config typo should fail at startup, not be
    silently skipped at 3 a.m.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict) or not isinstance(
        document.get("rules"), list
    ):
        raise ValueError(
            f"{path}: expected a JSON object with a top-level "
            '"rules" list'
        )
    rules: List[Rule] = []
    for index, spec in enumerate(document["rules"]):
        try:
            rules.append(_build_rule(spec))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: rules[{index}]: {exc}") from exc
    if not rules:
        raise ValueError(f"{path}: no rules defined")
    return rules
