"""Unit tests for the cost-aware history scheme."""

import numpy as np
import pytest

from repro.arch.config import small_test_config
from repro.core.costs import CostModel
from repro.core.decision import HistoryRunLength
from repro.core.decision.base import Decision
from repro.core.decision.costaware import CostAwareHistory
from repro.core.decision.optimal import optimal_cost
from repro.core.evaluation import evaluate_scheme, evaluate_thread
from repro.placement import first_touch
from repro.trace.synthetic import make_workload


@pytest.fixture
def cm():
    return CostModel(small_test_config(num_cores=16))


class TestDecisionRule:
    def test_cold_table_prefers_ra(self, cm):
        s = CostAwareHistory(cm)
        # initial prediction 1: one RA is always below the round trip
        assert s.decide(0, 15, 0, False) == Decision.REMOTE

    def test_long_learned_run_migrates(self, cm):
        s = CostAwareHistory(cm)
        for _ in range(50):
            s.observe(0, 15, 0, False, Decision.REMOTE)
        s.observe(0, 0, 0, False, Decision.LOCAL)  # close the run
        assert s.decide(0, 15, 0, False) == Decision.MIGRATE

    def test_break_even_varies_with_distance(self, cm):
        """The same moderate prediction can migrate to a near core but
        RA to a far one — the distance awareness scalar thresholds lack."""
        s = CostAwareHistory(cm)
        L = None
        # find a prediction between the near and far break-evens
        near = cm.break_even_run_length(0, 1)
        far = cm.break_even_run_length(0, 15)
        lo, hi = sorted((near, far))
        L = (lo + hi) / 2
        s.predictor.update(1, int(np.ceil(L)))
        s.predictor.update(15, int(np.ceil(L)))
        d_near = s.decide(0, 1, 0, False)
        d_far = s.decide(0, 15, 0, False)
        assert {d_near, d_far} == {Decision.MIGRATE, Decision.REMOTE}

    def test_clone_reuses_the_parents_matrices(self, cm):
        s = CostAwareHistory(cm)
        c = s.clone()
        assert c._ra is s._ra and c._round_trip is s._round_trip
        assert c.predictor is not s.predictor and c._rows is not s._rows
        assert c.write_fraction_hint == s.write_fraction_hint
        assert c.clone()._ra is s._ra

    def test_list_rows_decide_as_the_matrices_do(self, cm):
        """Every (current, home) pair at several predictions decides as
        the numpy expression over the blended matrices does, on the
        parent and on a clone that took its rows afresh."""
        hint = 0.3
        s = CostAwareHistory(cm, write_fraction_hint=hint)
        ra = (1 - hint) * np.asarray(cm.remote_read) + hint * np.asarray(cm.remote_write)
        mig = np.asarray(cm.migration)
        rt = mig + mig.T
        for scheme in (s, s.clone()):
            for L in (1, 2, 3, 5, 8, 40):
                for home in range(16):
                    scheme.predictor.update(home, L)
                for cur in range(16):
                    for home in range(16):
                        want = Decision.MIGRATE if L * ra[cur, home] > rt[cur, home] else Decision.REMOTE
                        assert scheme.decide(cur, home, 0, False) == want

    def test_reset_and_clone(self, cm):
        s = CostAwareHistory(cm)
        for _ in range(20):
            s.observe(0, 5, 0, False, Decision.REMOTE)
        c = s.clone()
        assert c.predictor.predict(5) == 1.0
        s.reset()
        assert s.predictor.predict(5) == 1.0


class TestQuality:
    @pytest.mark.parametrize(
        "workload,params",
        [
            ("ocean", dict(num_threads=16, grid_n=66, iterations=1)),
            ("pingpong", dict(num_threads=16, rounds=48, run=6)),
        ],
    )
    def test_not_worse_than_scalar_threshold(self, cm, workload, params):
        trace = make_workload(workload, **params)
        pl = first_touch(trace, 16)
        be = cm.break_even_run_length(0, 15)
        scalar = evaluate_scheme(trace, pl, HistoryRunLength(threshold=be), cm)
        aware = evaluate_scheme(trace, pl, CostAwareHistory(cm), cm)
        assert aware.total_cost <= scalar.total_cost * 1.1

    def test_bounded_by_optimal(self, cm):
        rng = np.random.default_rng(0)
        homes = rng.integers(0, 16, 300)
        writes = rng.random(300) < 0.2
        opt = optimal_cost(homes, writes, 0, cm)
        cost, *_ = evaluate_thread(homes, writes, 0, CostAwareHistory(cm), cm)
        assert opt <= cost + 1e-9
