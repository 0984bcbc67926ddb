"""Safety of the pruning bounds: every heuristic bound must upper-bound
the true domination score (a bound that can undercut would prune true
results — the one unforgivable bug in PBA)."""

import itertools

import pytest

from repro.core.brute_force import brute_force_scores
from repro.core.dominance import DistanceVectorSource
from repro.core.pruning import (
    ExactScoreInfo,
    PruningConfig,
    eph3_bound,
    eph4_bound,
    eph5_bound,
)

from tests.conftest import make_vector_space
from tests.test_scoring import _SimulatedRun


@pytest.fixture(params=[(35, None, 0), (40, 3, 1), (30, 2, 5)])
def state(request):
    n, grid, seed = request.param
    space = make_vector_space(n=n, dims=2, seed=seed, grid=grid)
    queries = [0, n // 3, 2 * n // 3]
    sim = _SimulatedRun(space, queries)
    truth = brute_force_scores(space, queries)
    commons = []
    while True:
        rec = sim.advance_until_common()
        if rec is None:
            break
        commons.append(rec)
    return sim, space, queries, truth, commons


class TestEstdomLemma5:
    def test_estdom_upper_bounds_true_score(self, state):
        sim, space, _queries, truth, commons = state
        n = len(space)
        for rec in commons:
            estdom = n - rec.max_rank + rec.eq
            assert truth[rec.object_id] <= estdom, rec.object_id


class TestEph3:
    def test_bound_is_safe(self, state):
        sim, space, _queries, truth, commons = state
        n = len(space)
        for rec in commons:
            assert truth[rec.object_id] <= eph3_bound(n, rec.lpos)

    def test_tighter_or_equal_than_estdom_without_ties(self):
        space = make_vector_space(n=40, dims=3, seed=9)  # continuous
        sim = _SimulatedRun(space, [0, 20])
        rec = sim.advance_until_common()
        estdom = len(space) - rec.max_rank + rec.eq
        assert eph3_bound(len(space), rec.lpos) <= estdom


class TestEph4:
    def test_bound_is_safe(self, state):
        sim, space, _queries, truth, commons = state
        n = len(space)
        positions = [len(log) for log in sim.aux.logs]
        for rec in commons:
            bound = eph4_bound(n, len(sim.aux), positions, rec.lpos)
            assert truth[rec.object_id] <= bound, rec.object_id


class TestEph5:
    def test_bound_is_safe_for_every_pair(self, state):
        sim, space, _queries, truth, commons = state
        infos = [
            ExactScoreInfo(
                object_id=rec.object_id,
                score=truth[rec.object_id],
                vector=rec.vector(),
                lpos=tuple(rec.lpos),
                eq=rec.eq,
            )
            for rec in commons
        ]
        for info in infos:
            for rec in commons:
                if rec.object_id == info.object_id:
                    continue
                bound = eph5_bound(info, rec.lpos)
                assert truth[rec.object_id] <= bound, (
                    info.object_id,
                    rec.object_id,
                )


class TestDominatedByAny:
    def test_dominance_implies_strictly_lower_score(self, state):
        """The EPH1/EPH2 justification: a ≺ b ⇒ dom(a) > dom(b)."""
        sim, space, queries, truth, commons = state
        source = DistanceVectorSource(space, queries)
        ids = list(space.object_ids)
        for a in ids[::3]:
            for b in ids[::4]:
                if a != b and source.dominates(a, b):
                    assert truth[a] > truth[b]


class TestPruningConfig:
    def test_defaults_all_on(self):
        config = PruningConfig()
        assert all(
            getattr(config, flag)
            for flag in (
                "dh1", "dh2", "dh3",
                "eph1", "eph2", "eph3", "eph4", "eph5", "iph",
            )
        )

    def test_none_all_off(self):
        config = PruningConfig.none()
        assert not any(
            getattr(config, flag)
            for flag in (
                "dh1", "dh2", "dh3",
                "eph1", "eph2", "eph3", "eph4", "eph5", "iph",
            )
        )
