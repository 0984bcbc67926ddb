"""Acceptance tests for seeded chaos: reproducibility and neutrality.

The ISSUE-level guarantees of the fault framework:

* **determinism** — a fixed ``ChaosConfig(seed=...)`` makes two runs of
  the same workload produce byte-identical fault sequences, retry
  counts and results;
* **neutrality** — with every probability at zero, attaching the
  injector changes nothing: same results, same distance computations,
  same page-fault counts as an injector-free engine, for every
  algorithm.
"""

import pytest

from repro.faults.chaos import PROFILES, ChaosConfig, FaultInjector, FaultRecord
from repro.faults.errors import FaultError

from tests.conftest import make_engine

QUERIES = [0, 40, 80]
K = 5


class TestChaosConfig:
    @pytest.mark.parametrize(
        "field",
        [
            "read_transient_p",
            "read_permanent_p",
            "corrupt_p",
            "storage_latency_p",
        ],
    )
    def test_probabilities_validated(self, field):
        with pytest.raises(ValueError):
            ChaosConfig(**{field: 1.5})
        with pytest.raises(ValueError):
            ChaosConfig(**{field: -0.1})

    def test_default_config_is_all_zero(self):
        config = ChaosConfig()
        assert config.read_transient_p == 0.0

    def test_retry_policy_reflects_tunables(self):
        config = ChaosConfig(retry_max_attempts=7, retry_base_delay=0.5)
        policy = config.retry_policy
        assert policy.max_attempts == 7
        assert policy.base_delay == 0.5

    def test_profiles_all_construct(self):
        for name in PROFILES:
            config = ChaosConfig.profile(name, seed=3)
            assert config.seed == 3

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            ChaosConfig.profile("nope")

    def test_fault_record_tuple(self):
        record = FaultRecord("storage", "retry", "disk:3")
        assert record.as_tuple() == ("storage", "retry", "disk:3")


def run_chaotic_engine(seed, chaos_seed, algorithm="pba2"):
    """One engine + injector run; returns (outcome, injector).

    The buffers are cleared first so the query performs physical reads
    (otherwise the build leaves everything resident and the storage
    fault path is never exercised).  Queries that die of an exhausted
    retry budget are part of the reproducible outcome.
    """
    engine = make_engine(n=120, dims=3, seed=seed)
    injector = FaultInjector(
        ChaosConfig(seed=chaos_seed, read_transient_p=0.2),
        sleep=lambda _s: None,
    )
    engine.attach_fault_injector(injector)
    engine.buffers.clear()
    try:
        results, stats = engine.top_k_dominating(QUERIES, K, algorithm)
        outcome = [(r.object_id, r.score) for r in results]
    except FaultError as exc:
        outcome = ("fault", type(exc).__name__, str(exc))
    return outcome, injector


class TestDeterminism:
    def test_same_seed_same_faults_same_results(self):
        outcome_a, injector_a = run_chaotic_engine(seed=11, chaos_seed=5)
        outcome_b, injector_b = run_chaotic_engine(seed=11, chaos_seed=5)
        assert injector_a.fault_log() == injector_b.fault_log()
        assert injector_a.counters() == injector_b.counters()
        assert outcome_a == outcome_b
        # the run actually injected something, or the test is vacuous.
        assert injector_a.counters().get("storage.read_transient", 0) > 0

    def test_different_chaos_seed_different_fault_sequence(self):
        _outcome_a, injector_a = run_chaotic_engine(seed=11, chaos_seed=5)
        _outcome_b, injector_b = run_chaotic_engine(seed=11, chaos_seed=6)
        assert injector_a.fault_log() != injector_b.fault_log()

    def test_snapshot_shape(self):
        _outcome, injector = run_chaotic_engine(seed=11, chaos_seed=5)
        snap = injector.snapshot()
        assert snap["seed"] == 5
        assert snap["events"] == len(injector.fault_log())
        assert snap["counters"] == injector.counters()
        assert set(snap) == {"seed", "events", "counters"}

    @pytest.mark.parametrize(
        "seed, draws",
        [
            (0, (0.8192245549430748, 0.8085307992316212)),
            (5, (0.6678224087637921, 0.4712034665040875)),
        ],
    )
    def test_retry_jitter_stream_is_pinned(self, seed, draws):
        # the backoff jitter (and so every retry delay of a chaos run)
        # replays these values; a change to the root RNG's draw order
        # would silently re-time every recorded run.
        rng = FaultInjector(ChaosConfig(seed=seed)).retry_rng
        assert (rng.random(), rng.random()) == draws


class TestZeroProbabilityNeutrality:
    @pytest.mark.parametrize(
        "algorithm", ["brute", "sba", "aba", "pba1", "pba2"]
    )
    def test_results_and_costs_unchanged(self, algorithm):
        plain = make_engine(n=120, dims=3, seed=21)
        chaotic = make_engine(n=120, dims=3, seed=21)
        injector = FaultInjector(ChaosConfig(seed=99))
        chaotic.attach_fault_injector(injector)

        plain_results, plain_stats = plain.top_k_dominating(
            QUERIES, K, algorithm
        )
        chaos_results, chaos_stats = chaotic.top_k_dominating(
            QUERIES, K, algorithm
        )
        assert [(r.object_id, r.score) for r in plain_results] == [
            (r.object_id, r.score) for r in chaos_results
        ]
        assert (
            plain_stats.distance_computations
            == chaos_stats.distance_computations
        )
        assert plain_stats.io.page_faults == chaos_stats.io.page_faults
        assert plain_stats.io.logical_reads == chaos_stats.io.logical_reads
        assert injector.fault_log() == ()

    def test_zero_probability_draws_consume_rng_but_fire_nothing(self):
        # the injector draws on every read regardless of outcome, so
        # raising one probability later never shifts the other streams.
        engine = make_engine(n=80, dims=3, seed=22)
        injector = FaultInjector(ChaosConfig(seed=1))
        engine.attach_fault_injector(injector)
        engine.buffers.clear()
        engine.top_k_dominating(QUERIES[:2], 3, "pba2")
        assert injector.fault_log() == ()
        assert injector.counters() == {}
