"""Chaos harness: serve the UNI workload under each fault profile.

Runs the load generator against a service whose simulated disks are
fed by each named :data:`repro.faults.chaos.PROFILES` entry (same data
set, same seed, same request stream) and reports throughput, tail
latency and the fault/retry/error budget side by side.  The claims
pinned per profile:

* ``none`` — the control: zero injected events, zero typed errors;
* ``low`` / ``flaky-disk`` — transient-only faults: retries fire, yet
  **every** request completes (no 503/500 leaks to clients);
* ``bad-sectors`` — hard faults surface as typed 503/500 responses,
  never as worker crashes: completed + faulted == requests.

Run with
``PYTHONPATH=src python -m pytest benchmarks/test_chaos_profiles.py -q -s``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import TopKDominatingEngine
from repro.datasets import PAPER_DATASETS
from repro.faults.chaos import PROFILES, ChaosConfig
from repro.service import LoadConfig, QueryService, ServiceConfig, run_load

CHAOS_N = 300
CHAOS_SEED = 13
REQUESTS = 40


def run_profile(profile: str):
    space = PAPER_DATASETS["UNI"](CHAOS_N, seed=CHAOS_SEED)
    engine = TopKDominatingEngine(space, rng=random.Random(CHAOS_SEED))
    chaos = (
        ChaosConfig.profile(profile, seed=CHAOS_SEED)
        if profile != "none"
        else None
    )
    config = ServiceConfig(workers=4, cache_capacity=0, chaos=chaos)
    with QueryService(engine, config) as service:
        if chaos is not None:
            engine.buffers.clear()  # cold start: queries touch the disk
        load = LoadConfig(
            clients=4,
            requests=REQUESTS,
            zipf_s=0.0,
            pool_size=REQUESTS,
            m=4,
            k=10,
            seed=CHAOS_SEED,
        )
        report = asyncio.run(run_load(service, load))
        snapshot = service.snapshot()
    injected = (snapshot["faults"] or {}).get("events", 0)
    retries = (snapshot["faults"] or {}).get("counters", {}).get(
        "storage.retry", 0
    )
    print(
        f"[chaos] profile={profile:<13} {report.throughput:7.1f} q/s  "
        f"p99={report.latency_quantile(0.99) * 1e3:6.1f} ms  "
        f"injected={injected:4d}  retries={retries:4d}  "
        f"503={report.faulted_transient}  500={report.faulted_fatal}"
    )
    return report, snapshot


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_profile_error_budget(profile):
    report, snapshot = run_profile(profile)
    served = (
        report.completed + report.faulted_transient + report.faulted_fatal
    )
    assert served == REQUESTS, "every request ends typed, none crashes"
    if profile == "none":
        assert snapshot["faults"] is None
        assert report.faulted_transient == report.faulted_fatal == 0
    elif profile == "low":
        # rare transients: retries absorb every one of them.
        assert report.completed == REQUESTS
        assert snapshot["faults"]["events"] > 0
    elif profile == "flaky-disk":
        # transient-only, but at 10 % per read a retry budget can
        # (rarely) exhaust into a 503 — never into a 500.
        assert report.faulted_fatal == 0
        assert snapshot["faults"]["counters"]["storage.retry"] > 0
    elif profile == "bad-sectors":
        assert snapshot["faults"]["events"] > 0


def test_profiles_summary_table():
    """One side-by-side table of all profiles (the harness's raison
    d'être); numbers land in EXPERIMENTS.md."""
    print()
    for profile in ("none", "low", "flaky-disk", "bad-sectors"):
        run_profile(profile)
