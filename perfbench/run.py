"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uni-read --seed 1 --seconds 20 --trace 0

A run repeats the workload's pass of operations (``bench_inputs``)
until ``--seconds`` have passed, stopping at a pass boundary.
``--trace 0`` prints the end-to-end metrics of an untraced run that
times the passes after a warm-up pass, stated at a nominal host speed
(``bench_speed``).  ``--trace 1`` runs twice on fresh set-ups, with no
warm-up pass: untraced for half of ``--seconds``, then traced for
exactly the operations the untraced phase completed.  It
prints the per-layer metrics, the "where the time goes" ledger and
both exact-counter fingerprints, which must be equal.  ``--ops N``
replaces the time limit by a fixed number of reads (the fingerprint
tests use it).  Every answer is checked against the benchmark's own
brute-force oracle after the clock stops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

from bench_speed import REF_NOMINAL_MS, reference_ms

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("uni-read", "cal-read")
#: set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: reference rounds timed before and after each set-up.
SETUP_REF_ROUNDS = 9
#: the latency tail's percentile.  A fixed one, not the highest
#: percentile with ten samples beyond it: a timed run's sample count
#: follows the host's speed, and that rule would move the tail to a
#: higher percentile on a faster host or program.
TAIL_PCT = 90


def _latency(label: str, raw_ms, times, speed, metrics: dict) -> None:
    """p50 and tail of ``raw_ms`` (taken at ``times``), in ms at the
    nominal host speed."""
    samples = [speed.scaled(ms, t) for ms, t in zip(raw_ms, times)]
    p50, tail = np.percentile(samples, [50, TAIL_PCT])
    beyond = sum(1 for x in samples if x > tail)
    metrics[f"{label}_p50_ms"] = (float(p50), "ms")
    metrics[f"{label}_tail_ms"] = (float(tail), "ms")
    raw50, raw_tail = np.percentile(raw_ms, [50, TAIL_PCT])
    print(f"{label}: {len(samples)} samples, p50 {p50:.3f} ms, tail = p{TAIL_PCT} {tail:.3f} ms "
          f"({beyond} samples beyond); raw p50 {raw50:.3f} ms, p{TAIL_PCT} {raw_tail:.3f} ms")


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations instead of --seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench_drive import program_graph
    from bench_inputs import CalData, make_workload

    seconds = None if args.ops else args.seconds
    work = make_workload(args.workload, args.seed)
    graph = None
    if isinstance(work.data, CalData):
        graph = program_graph(work.data)
        work.data.apsp  # the oracle's distances, built before any timing
    print(f"workload {work.name} seed {args.seed}: {json.dumps(work.sizes)}")
    workroot = ROOT / ".perfbench-work" / str(os.getpid())
    workroot.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            return _traced(args, work, graph, str(workroot), seconds)
        return _untraced(args, work, graph, str(workroot), seconds)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _host_ref() -> float:
    """The host-speed reference (ms) around a set-up: the median of
    ``SETUP_REF_ROUNDS`` rounds."""
    return statistics.median(reference_ms() for _ in range(SETUP_REF_ROUNDS))


def _run(work, graph, workroot, tag, seconds, setups=1, tracer=None, reads=None, warm_up=False):
    """Set up (``setups`` times, keeping the last) and drive one run.

    A set-up is both engines: the one under read load and the probe's;
    ``setup_s`` samples are (their summed seconds, the host-speed
    reference around them).
    """
    from bench_drive import run_phase, set_up

    setup_s, rigs = [], ()
    for i in range(setups):
        for old in rigs:
            old.close()
        # release the previous set-up before building the next, so
        # peak_rss_mb sees one generation of engines, not two.
        old = rigs = None
        gc.collect()
        ref_before = _host_ref()
        rigs = (set_up(work, graph, workroot, f"{tag}{i}", False),
                set_up(work, graph, workroot, f"{tag}{i}p", True))
        setup_s.append((sum(r.setup_s for r in rigs), (ref_before + _host_ref()) / 2))
    rig, probe_rig = rigs
    try:
        if tracer is not None:
            tracer.install()
        main, probe = run_phase(rig, probe_rig, work, seconds, reads, warm_up, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        rig.close()
        probe_rig.close()
    return rig, probe_rig, setup_s, main, probe


def _check(work, main, probe):
    """Check both phases' answers; print and count the wrong ones."""
    from bench_drive import check_phase

    errors = check_phase(work.data, [], main) + check_phase(work.probe_data, work.standing, probe)
    for line in errors[:20]:
        print(line, file=sys.stderr)
    return errors


def _failed(phases, errors) -> int:
    return sum(p.failed + p.rejected for p in phases) + len(errors)


def _untraced(args, work, graph, workroot, seconds) -> int:
    from bench_drive import fingerprint
    from bench_speed import HostSpeed

    _rig, _probe_rig, setup_s, main, probe = _run(
        work, graph, workroot, "run", seconds, SETUPS, reads=args.ops, warm_up=True)
    errors = _check(work, main, probe)
    metrics = {}
    speed = HostSpeed(main.refs + probe.refs)
    _latency("query", main.query_ms, main.query_t, speed, metrics)
    _latency("write", probe.write_ms, probe.write_t, speed, metrics)
    attempted = main.done + probe.done
    failed = min(attempted, _failed([main, probe], errors))
    read_s = sum(speed.scaled(s, t) for s, t in zip(main.op_s, main.op_t))
    metrics["ops_per_s"] = (len(main.op_s) / read_s, "1/s")
    metrics["success_rate"] = (1.0 - failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (
        statistics.median(s * REF_NOMINAL_MS / ref for s, ref in setup_s), "s")
    timed = len(main.op_s)
    print(f"{timed / len(work.reads):.2f} passes after the warm-up pass; {timed} reads in "
          f"{main.wall_s:.3f} s raw ({timed / main.wall_s:.3f}/s raw); host reference "
          f"median {speed.median_ms():.4f} ms per round")
    print("setup_s samples (raw s, reference ms): "
          + " ".join(f"{t:.4f}/{r:.4f}" for t, r in setup_s))
    print("fingerprint " + json.dumps(fingerprint([main, probe]), sort_keys=True))
    _emit(failed == 0, attempted, failed, metrics)
    return 0


def _traced(args, work, graph, workroot, seconds) -> int:
    from bench_drive import fingerprint
    from bench_trace import LayerTracer, layer_metrics, ledger

    # the untraced phase only sets the operation count and the baseline
    # of trace.overhead_ratio; half the time keeps the traced run short.
    half = None if seconds is None else seconds / 2
    main_a, probe_a = _run(work, graph, workroot, "a", half, reads=args.ops)[3:]
    tracer = LayerTracer()
    rig, probe_rig, _s, main_b, probe_b = _run(
        work, graph, workroot, "b", None, tracer=tracer, reads=main_a.done)
    errors = _check(work, main_a, probe_a)
    fp_a = fingerprint([main_a, probe_a])
    fp_b = fingerprint([main_b, probe_b])
    print("fingerprint " + json.dumps(fp_a, sort_keys=True))
    print("fingerprint_traced " + json.dumps(fp_b, sort_keys=True))
    if fp_a != fp_b:
        errors.append("traced fingerprint differs from the untraced one")
        print(errors[-1], file=sys.stderr)
    setup = {
        "build_s": rig.build_s,
        "subscribe_s": probe_rig.subscribe_s,
        "build_distances": rig.engine.build_distance_computations,
    }
    overhead = (main_a.wall_s + probe_a.wall_s) / (main_b.wall_s + probe_b.wall_s)
    metrics = layer_metrics(
        tracer.records, fingerprint([main_b]), fingerprint([probe_b]), setup, overhead)
    for tag, phase in (("main", main_b), ("probe", probe_b)):
        shares = ledger([r for r in tracer.records if r.tag == tag], phase.wall_s)
        label = "ledger" if tag == "main" else "ledger_writes"
        print(f"{label} " + json.dumps({k: round(v, 5) for k, v in shares.items()}))
    print("trace_missing " + json.dumps(tracer.missing))
    inner = statistics.median(r.inner_s for r in tracer.records) * 1e6
    outer = statistics.median(r.outer_s for r in tracer.records) * 1e6
    print(f"tracer calibration (median over operations): {inner:.3f} us inside a span, "
          f"{outer:.3f} us outside it")
    print(f"traced wall {main_b.wall_s + probe_b.wall_s:.3f} s for {main_b.done} reads and "
          f"{probe_b.done} writes (untraced {main_a.wall_s + probe_a.wall_s:.3f} s); "
          f"trace.overhead_ratio {overhead:.3f}")
    attempted = main_a.done + probe_a.done
    failed = min(attempted, _failed([main_a, probe_a, main_b, probe_b], errors))
    _emit(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
