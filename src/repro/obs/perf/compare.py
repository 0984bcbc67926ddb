"""Run comparison and the regression gate.

The comparator exploits a split the paper's cost model hands us for
free: the evaluation's three cost axes (Section 5) divide into

* **deterministic counters** — distance computations, page faults,
  buffer hits, exact-score computations (and, on the shortest-path
  metric, Dijkstra runs).  Under fixed seeds and a cold per-case
  buffer and metric these are pure functions of the code, so the
  gate compares them **exactly, zero tolerance**: a single extra
  distance computation is a real behavioural change (a pruning bound
  loosened, a traversal order regressed) and must either be fixed or
  deliberately re-baselined;
* **wall-clock samples** — noisy on shared CI hardware, so gated with
  robust statistics: medians compared under a relative threshold, and
  a delta must also clear a MAD-derived noise floor before it counts.
  Identical code therefore passes arbitrarily many consecutive runs,
  while a genuine 2x slowdown is far outside any plausible noise band.

Counter *decreases* fail the gate too: an improvement is a behaviour
change the baseline no longer describes, and silently absorbing it
would let a later regression back to the old value pass unnoticed.
The failure message says exactly that and points at ``--rebaseline``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "CompareOptions",
    "CompareReport",
    "Finding",
    "compare_runs",
    "mad",
    "median",
]


def median(values: Sequence[float]) -> float:
    """The sample median (average-of-two for even lengths)."""
    if not values:
        raise ValueError("median of empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation — a robust spread estimate."""
    center = median(values)
    return median([abs(value - center) for value in values])


@dataclass(frozen=True)
class CompareOptions:
    """Gate thresholds (defaults tuned to be CI-noise-proof)."""

    #: relative wall-clock slowdown tolerated before a case can fail.
    wall_threshold: float = 0.40
    #: how many MADs of spread a wall delta must additionally exceed.
    mad_scale: float = 3.0
    #: absolute wall floor (seconds): deltas under this never fail,
    #: whatever the ratio — sub-millisecond cases are all jitter.
    min_wall_delta: float = 0.001
    #: gate the deterministic counters (exact, zero tolerance).
    check_counters: bool = True
    #: gate wall-clock medians (robust).  CI gating across *machines*
    #: turns this off (``repro-bench gate --counters-only``): a laptop
    #: baseline says nothing about a CI runner's wall clock.
    check_wall: bool = True
    #: record wall exceedances as ``"warn"`` instead of ``"fail"``.
    #: Shared/containerised machines show sustained 1.5-2x load shifts
    #: between runs that no per-run MAD floor can see, so the ``gate``
    #: CLI defaults to advisory wall (``--wall`` enforces); the
    #: comparator API itself defaults to enforcing.
    wall_advisory: bool = False


@dataclass
class Finding:
    """One comparison outcome for one benchmark/metric pair."""

    benchmark: str
    kind: str  # "counter" | "wall" | "coverage" | "determinism"
    severity: str  # "fail" | "warn" | "info"
    metric: str = ""
    baseline: Optional[float] = None
    current: Optional[float] = None
    message: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "kind": self.kind,
            "severity": self.severity,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "message": self.message,
        }


@dataclass
class CompareReport:
    """Everything one baseline-vs-current comparison concluded."""

    baseline_env: Dict[str, Any] = field(default_factory=dict)
    current_env: Dict[str, Any] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    compared: int = 0

    @property
    def failures(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """Human-readable report (one line per finding + verdict)."""
        lines = [
            f"compared {self.compared} benchmarks "
            f"(baseline sha={_short_sha(self.baseline_env)}, "
            f"current sha={_short_sha(self.current_env)})"
        ]
        for finding in self.findings:
            marker = {"fail": "FAIL", "warn": "WARN"}.get(
                finding.severity, "info"
            )
            lines.append(
                f"  [{marker}] {finding.benchmark}: {finding.message}"
            )
        verdict = (
            "gate: PASS"
            if self.ok
            else f"gate: FAIL ({len(self.failures)} regression(s))"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _short_sha(env: Dict[str, Any]) -> str:
    """The run's short SHA, ``+dirty`` when it measured uncommitted code."""
    sha = env.get("git_sha")
    short = sha[:10] if isinstance(sha, str) else "?"
    return short + "+dirty" if env.get("git_dirty") else short


def _index_benchmarks(run: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {bench["id"]: bench for bench in run.get("benchmarks", [])}


def compare_runs(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    options: Optional[CompareOptions] = None,
) -> CompareReport:
    """Compare two run documents benchmark-by-benchmark."""
    options = options or CompareOptions()
    report = CompareReport(
        baseline_env=baseline.get("env", {}),
        current_env=current.get("env", {}),
    )
    base_index = _index_benchmarks(baseline)
    cur_index = _index_benchmarks(current)

    for bench_id in base_index:
        if bench_id not in cur_index:
            report.findings.append(
                Finding(
                    benchmark=bench_id,
                    kind="coverage",
                    severity="fail",
                    message=(
                        "present in baseline but missing from the "
                        "current run — suite coverage shrank"
                    ),
                )
            )
    for bench_id in cur_index:
        if bench_id not in base_index:
            report.findings.append(
                Finding(
                    benchmark=bench_id,
                    kind="coverage",
                    severity="info",
                    message="new benchmark (no baseline yet)",
                )
            )

    for bench_id, base in base_index.items():
        cur = cur_index.get(bench_id)
        if cur is None:
            continue
        report.compared += 1
        if options.check_counters:
            _compare_counters(bench_id, base, cur, report)
        if options.check_wall:
            _compare_wall(bench_id, base, cur, options, report)
    return report


def _compare_counters(
    bench_id: str,
    base: Dict[str, Any],
    cur: Dict[str, Any],
    report: CompareReport,
) -> None:
    base_counters: Dict[str, int] = base.get("counters", {})
    cur_counters: Dict[str, int] = cur.get("counters", {})
    cur_nondet = set(cur.get("nondeterministic_counters", []))
    for name, base_value in base_counters.items():
        if name in cur_nondet:
            report.findings.append(
                Finding(
                    benchmark=bench_id,
                    kind="determinism",
                    severity="fail",
                    metric=name,
                    baseline=base_value,
                    message=(
                        f"{name} was deterministic at baseline but "
                        "varies between repetitions now — "
                        "seed-determinism regression"
                    ),
                )
            )
            continue
        if name not in cur_counters:
            report.findings.append(
                Finding(
                    benchmark=bench_id,
                    kind="counter",
                    severity="fail",
                    metric=name,
                    baseline=base_value,
                    message=f"counter {name} disappeared from the run",
                )
            )
            continue
        cur_value = cur_counters[name]
        if cur_value != base_value:
            delta = cur_value - base_value
            direction = "regression" if delta > 0 else "improvement"
            report.findings.append(
                Finding(
                    benchmark=bench_id,
                    kind="counter",
                    severity="fail",
                    metric=name,
                    baseline=base_value,
                    current=cur_value,
                    message=(
                        f"{name} {base_value} -> {cur_value} "
                        f"({delta:+d}): deterministic-counter "
                        f"{direction}; fix it or re-baseline "
                        "deliberately (repro-bench run --rebaseline)"
                    ),
                )
            )


def _compare_wall(
    bench_id: str,
    base: Dict[str, Any],
    cur: Dict[str, Any],
    options: CompareOptions,
    report: CompareReport,
) -> None:
    base_samples = base.get("wall_seconds") or []
    cur_samples = cur.get("wall_seconds") or []
    if not base_samples or not cur_samples:
        return
    base_med = median(base_samples)
    cur_med = median(cur_samples)
    if base_med <= 0.0:
        return
    noise_floor = max(
        options.mad_scale * max(mad(base_samples), mad(cur_samples)),
        options.min_wall_delta,
    )
    delta = cur_med - base_med
    ratio = cur_med / base_med
    if ratio > 1.0 + options.wall_threshold and delta > noise_floor:
        report.findings.append(
            Finding(
                benchmark=bench_id,
                kind="wall",
                severity="warn" if options.wall_advisory else "fail",
                metric="wall_seconds",
                baseline=base_med,
                current=cur_med,
                message=(
                    f"wall median {base_med * 1e3:.2f} ms -> "
                    f"{cur_med * 1e3:.2f} ms ({ratio:.2f}x, "
                    f"threshold {1 + options.wall_threshold:.2f}x, "
                    f"noise floor {noise_floor * 1e3:.2f} ms)"
                ),
            )
        )
    elif ratio < 1.0 - options.wall_threshold and -delta > noise_floor:
        report.findings.append(
            Finding(
                benchmark=bench_id,
                kind="wall",
                severity="info",
                metric="wall_seconds",
                baseline=base_med,
                current=cur_med,
                message=(
                    f"wall median improved {base_med * 1e3:.2f} ms -> "
                    f"{cur_med * 1e3:.2f} ms ({ratio:.2f}x); consider "
                    "re-baselining to lock it in"
                ),
            )
        )
