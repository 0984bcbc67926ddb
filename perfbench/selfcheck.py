"""Self-checks of the benchmark, and the "where the time goes" ledger.

Each check runs ``perfbench/run.py`` in fresh processes:

* fingerprint: two untraced runs with one seed report identical
  exact-counter fingerprints, and the traced run's fingerprint equals
  the untraced one's (tracing is a strict observer);
* contrast: on the default seed and on a held-out seed, the traced
  runs of the two read workloads differ the way the workloads are
  designed to — the metric kernel holds the largest share of the
  program's self time on cal-read (at least ``CAL_METRIC_MIN_SHARE``)
  and a small one on uni-read (at most ``UNI_METRIC_MAX_SHARE`` and
  1.5 times below cal-read's), uni-read hits the result cache
  and cal-read never does, and neither spends any time in streaming or
  recovery;
* ledger: per-layer self-time shares of each workload's traced reads
  and of its traced write probe, which must each sum to their wall
  clock within ``LEDGER_TOLERANCE``, leave at most that share to no
  layer, and give time to every layer the part is meant to exercise
  (``EXPECTED_LAYERS``: the uni-read write probe, the churn path, must
  spend time in streaming and recovery).

Usage::

    python3 perfbench/selfcheck.py                 # every check
    python3 perfbench/selfcheck.py --ledger-out perfbench/LEDGER.md
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
DEFAULT_SEED, HELD_OUT_SEED = 1, 2027
#: operations per fingerprint and contrast run; the ledger's runs are
#: timed like the benchmark's (``BENCHMARK.json`` run_seconds).
CHECK_OPS, LEDGER_SECONDS = 36, 30.0
#: the ledger's rows must cover the traced wall clock this closely.
LEDGER_TOLERANCE = 0.02
#: contrast thresholds on the metric kernel's share of the program's
#: self time (the ledger rows without client, tracer and gaps).
CAL_METRIC_MIN_SHARE, UNI_METRIC_MAX_SHARE = 0.40, 0.33
#: rows of the ledger that are not the program's own layers.
NOT_PROGRAM = ("client", "tracer", "gaps")


def run(workload: str, seed: int, trace: int, ops: Optional[int] = None,
        seconds: Optional[float] = None) -> Tuple[dict, Dict[str, dict]]:
    """One run in a fresh process: (result JSON, tagged JSON lines)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    cmd += ["--ops", str(ops)] if ops else ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("fingerprint", "fingerprint_traced", "ledger", "ledger_writes", "trace_missing"):
            tagged[tag] = json.loads(rest)
    return json.loads(lines[-1]), tagged


def check_fingerprints(workload: str, seed: int, ops: int) -> List[str]:
    """Problems found (empty when the fingerprints agree)."""
    problems = []
    first, a = run(workload, seed, 0, ops=ops)
    second, b = run(workload, seed, 0, ops=ops)
    traced, t = run(workload, seed, 1, ops=ops)
    for name, result in (("untraced", first), ("repeat", second), ("traced", traced)):
        if not result["correct"]:
            problems.append(f"{workload}: {name} run reported incorrect answers")
    if a["fingerprint"] != b["fingerprint"]:
        problems.append(f"{workload}: same seed, different fingerprints {a} vs {b}")
    if not (t["fingerprint"] == t["fingerprint_traced"] == a["fingerprint"]):
        problems.append(f"{workload}: traced fingerprint differs: {t} vs {a}")
    return problems


def program_shares(shares: Dict[str, float]) -> Dict[str, float]:
    """Each program layer's share of the program layers' self time."""
    program = {k: v for k, v in shares.items() if k not in NOT_PROGRAM}
    total = sum(program.values())
    return {k: v / total for k, v in program.items()}


def check_contrast(seed: int, ops: int) -> Tuple[List[str], Dict[str, dict]]:
    """Problems found on ``seed``, and each read workload's traced run."""
    problems = []
    runs = {w: run(w, seed, 1, ops=ops) for w in ("uni-read", "cal-read")}
    shares = {w: t["ledger"] for w, (_r, t) in runs.items()}
    hits = {w: r["metrics"]["service.cache_hit_ratio"]["value"] for w, (r, _t) in runs.items()}
    cal, uni = (program_shares(shares[w]) for w in ("cal-read", "uni-read"))
    if max(cal, key=cal.get) != "metric" or cal["metric"] < CAL_METRIC_MIN_SHARE:
        problems.append(f"seed {seed}: metric share on cal-read is {cal['metric']:.3f}, "
                        f"not the largest or below {CAL_METRIC_MIN_SHARE}")
    if uni["metric"] > UNI_METRIC_MAX_SHARE or uni["metric"] > cal["metric"] / 1.5:
        problems.append(f"seed {seed}: metric share on uni-read is {uni['metric']:.3f}, "
                        f"above {UNI_METRIC_MAX_SHARE} or not 1.5 times below cal-read's")
    if not hits["uni-read"] > 0:
        problems.append(f"seed {seed}: no cache hits on uni-read")
    if hits["cal-read"] != 0:
        problems.append(f"seed {seed}: cache hits on cal-read ({hits['cal-read']})")
    for w, share in shares.items():
        for layer in ("streaming", "recovery"):
            if share[layer] != 0:
                problems.append(f"seed {seed}: {layer} time on {w} ({share[layer]})")
    for w, (result, _t) in runs.items():
        if not result["correct"]:
            problems.append(f"seed {seed}: {w} traced run reported incorrect answers")
    return problems, {w: {"shares": shares[w], "metrics": runs[w][0]["metrics"]} for w in runs}


#: layers each traced part must spend time in; a wrapper that no
#: longer reaches its layer leaves that row at 0 and fails the check.
EXPECTED_LAYERS = {
    "uni-read": ("service", "core", "dominance", "skyline", "anns", "mtree", "metric",
                 "storage", "aux", "scoring"),
    "uni-read writes": ("service", "core", "mtree", "metric", "storage", "aux",
                        "streaming", "recovery"),
    "cal-read": ("service", "core", "dominance", "anns", "mtree", "metric", "storage",
                 "aux", "scoring"),
    "cal-read writes": ("service", "core", "mtree", "metric", "storage"),
}


def check_ledger(label: str, shares: Dict[str, float], missing: List[str]) -> List[str]:
    """Problems with one traced part's ledger (``label`` as in
    ``EXPECTED_LAYERS``): rows that do not cover the wall clock, time
    no layer claims, layers with no time, wrappers that found no target."""
    problems = []
    covered = sum(v for k, v in shares.items() if k != "gaps")
    if abs(1.0 - covered) > LEDGER_TOLERANCE:
        problems.append(f"{label}: layer shares cover {covered:.3f} of the traced wall clock")
    if shares["client"] > LEDGER_TOLERANCE:
        problems.append(f"{label}: {shares['client']:.3f} of the time is in no traced layer")
    for layer in EXPECTED_LAYERS[label]:
        if not shares[layer] > 0:
            problems.append(f"{label}: no {layer} time")
    if missing:
        problems.append(f"{label}: trace targets not found: {missing}")
    return problems


def ledger_table(traced: Dict[str, dict]) -> str:
    """Markdown table of self-time shares per traced part."""
    parts = list(traced)
    rows = [k for k in next(iter(traced.values()))["shares"]]
    out = ["| layer | " + " | ".join(parts) + " |",
           "|---|" + "---:|" * len(parts)]
    for row in rows:
        out.append(f"| {row} | " + " | ".join(
            f"{100 * traced[w]['shares'][row]:.1f}%" for w in parts) + " |")
    out.append("| sum of layers | " + " | ".join(
        f"{100 * sum(v for k, v in traced[w]['shares'].items() if k != 'gaps'):.1f}%"
        for w in parts) + " |")
    out.append("| trace.overhead_ratio | " + " | ".join(
        f"{traced[w]['metrics']['trace.overhead_ratio']['value']:.3f}" for w in parts) + " |")
    return "\n".join(out)


def traced_parts(workload: str, seed: int, **how) -> Tuple[Dict[str, dict], List[str]]:
    """One traced run's reads and write probe as ledger parts, and the
    problems :func:`check_ledger` finds in them."""
    result, tagged = run(workload, seed, 1, **how)
    parts, problems = {}, []
    for label, tag in ((workload, "ledger"), (f"{workload} writes", "ledger_writes")):
        parts[label] = {"shares": tagged[tag], "metrics": result["metrics"]}
        problems += check_ledger(label, tagged[tag], tagged["trace_missing"])
    if not result["correct"]:
        problems.append(f"{workload}: traced run reported incorrect answers")
    return parts, problems


def _ledger_doc(table: str, seconds: float) -> str:
    """The committed report: how it was made, on what, and the table."""
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor() or "unknown CPU")
    return (
        "# Where the time goes\n\n"
        "Self-time share of each layer in the traced reads, and in the traced\n"
        "write probe (\"writes\"), of\n"
        f"`python3 perfbench/run.py --workload W --seed {DEFAULT_SEED} "
        f"--seconds {seconds:g} --trace 1`,\n"
        f"measured on {os.cpu_count()} x {cpu}, Python {platform.python_version()}.\n"
        "A layer's self time is its spans minus their child spans and minus the\n"
        "wrappers' own cost, which is calibrated on a no-op at the start of every\n"
        "traced operation and booked to the `tracer` row; `client` is the\n"
        "benchmark loop and\n"
        "anything outside a traced layer, `gaps` the part of each operation's\n"
        "time outside its span. The rows must sum to the operations' time within\n"
        f"{100 * LEDGER_TOLERANCE:g} %, and `client` may hold at most that share.\n"
        "`trace.overhead_ratio` is the traced run's throughput over the untraced\n"
        "run's on the same operations. Regenerate with\n"
        "`python3 perfbench/selfcheck.py --ledger-out perfbench/LEDGER.md`.\n\n"
        + table + "\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger-out", type=Path, default=None)
    args = parser.parse_args(argv)
    problems: List[str] = []
    for workload in ("uni-read", "cal-read"):
        problems += check_fingerprints(workload, DEFAULT_SEED, CHECK_OPS)
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        found, _runs = check_contrast(seed, CHECK_OPS)
        problems += found
    traced = {}
    for workload in ("uni-read", "cal-read"):
        parts, found = traced_parts(workload, DEFAULT_SEED, seconds=LEDGER_SECONDS)
        traced.update(parts)
        problems += found
    table = ledger_table(traced)
    print(table)
    if args.ledger_out is not None:
        args.ledger_out.write_text(_ledger_doc(table, LEDGER_SECONDS))
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
