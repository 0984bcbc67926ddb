"""The benchmark's own tests: fingerprints repeat, tracing only observes,
and the workloads contrast as designed.

Run from the repository root with ``python3 -m pytest perfbench -q``
(a few minutes: every case starts fresh benchmark processes).
"""

import pytest

import selfcheck

OPS = 16


@pytest.mark.parametrize("workload", ["uni-read", "cal-read"])
def test_fingerprint_repeats_and_tracing_only_observes(workload):
    assert selfcheck.check_fingerprints(workload, selfcheck.DEFAULT_SEED, OPS) == []


@pytest.mark.parametrize("seed", [selfcheck.DEFAULT_SEED, selfcheck.HELD_OUT_SEED])
def test_read_workloads_contrast(seed):
    problems, _runs = selfcheck.check_contrast(seed, selfcheck.CHECK_OPS)
    assert problems == []


def test_ledger_rows_cover_the_wall_clock():
    for workload in ("uni-read", "cal-read"):
        parts, problems = selfcheck.traced_parts(workload, selfcheck.DEFAULT_SEED, ops=OPS)
        assert problems == [], selfcheck.ledger_table(parts)
