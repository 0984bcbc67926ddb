"""Tier-1 chaos smoke: the seeded "low" profile changes no answer.

The ``low`` profile injects rare transient faults (1 % per physical
page read).  Every one of them must be absorbed by retries: the engine
returns exactly the fault-free answers, just having taken a few retries
to get there.  This is the cheap always-on canary for the whole
recovery path; the heavier deterministic scenarios live in
test_faults_*.
"""

from repro.faults.chaos import ChaosConfig, FaultInjector

from tests.conftest import make_engine

SEED = 7


def test_engine_low_profile_matches_fault_free_run():
    queries, k = [0, 40, 80], 5
    plain = make_engine(n=120, dims=3, seed=SEED)
    chaotic = make_engine(n=120, dims=3, seed=SEED)
    injector = FaultInjector(
        ChaosConfig.profile("low", seed=SEED), sleep=lambda _s: None
    )
    chaotic.attach_fault_injector(injector)
    # cold buffers on both sides so the chaotic run meets the disk.
    plain.buffers.clear()
    chaotic.buffers.clear()

    for algorithm in ("sba", "pba2"):
        expected, expected_stats = plain.top_k_dominating(
            queries, k, algorithm
        )
        observed, observed_stats = chaotic.top_k_dominating(
            queries, k, algorithm
        )
        assert [(r.object_id, r.score) for r in observed] == [
            (r.object_id, r.score) for r in expected
        ]
        assert (
            observed_stats.distance_computations
            == expected_stats.distance_computations
        )
    # the canary must actually have seen faults to mean anything.
    assert injector.counters().get("storage.read_transient", 0) > 0
    assert injector.counters()["storage.retry"] == injector.counters()[
        "storage.read_transient"
    ]
