"""Unit tests for the optimal migrate-vs-RA dynamic program (§3).

The key evidence is an independent brute-force reference: a plain
recursive cost minimizer written in a completely different style from
the vectorized DP. They must agree exactly on many small random
instances, and the DP must lower-bound every heuristic scheme. A second
reference, the DP stepped once per access, pins the run-stepped DP's
totals, decisions and paths bit for bit on long traces.
"""

import numpy as np
import pytest

from repro.arch.config import NocConfig, small_test_config
from repro.core.costs import CostModel
from repro.core.decision import optimal
from repro.core.decision import (
    AlwaysMigrate,
    DistanceThreshold,
    HistoryRunLength,
    NeverMigrate,
    RandomScheme,
)
from repro.core.decision.base import Decision
from repro.core.decision.optimal import decision_cost, optimal_cost, optimal_decisions
from repro.core.evaluation import evaluate_thread
from repro.trace.runlength import home_runs
from repro.util.errors import ConfigError


def brute_force_cost(homes, writes, start, cm):
    """Exponential-time reference: explicit recursion, no vectorization."""
    mig, ra_r, ra_w = cm.migration, cm.remote_read, cm.remote_write

    def rec(k, cur):
        if k == len(homes):
            return 0.0
        h = homes[k]
        w = writes[k]
        if h == cur:
            return rec(k + 1, cur)
        ra = (ra_w if w else ra_r)[cur, h]
        stay = ra + rec(k + 1, cur)
        move = mig[cur, h] + rec(k + 1, h)
        return min(stay, move)

    return rec(0, start)


def per_access_dp(homes, writes, start, cm):
    """The DP stepped once per access, with one predecessor per access:
    the reference the run-stepped DP must match exactly."""
    homes = np.asarray(homes, dtype=np.int64)
    writes = np.asarray(writes).astype(bool)
    mig, ra_r, ra_w = cm.migration, cm.remote_read, cm.remote_write
    P, N = mig.shape[0], homes.size
    cost = np.full(P, np.inf)
    cost[start] = 0.0
    pred = np.empty(N, dtype=np.int32)
    mig_T = mig.T.copy()
    for k in range(N):
        h = homes[k]
        ra = ra_w if writes[k] else ra_r
        stay_home = cost[h]
        arrive = cost + mig_T[h]
        arrive[h] = np.inf
        best_src = int(np.argmin(arrive))
        best_arrive = arrive[best_src]
        cost += ra[:, h]
        if stay_home <= best_arrive:
            cost[h] = stay_home
            pred[k] = h
        else:
            cost[h] = best_arrive
            pred[k] = best_src
    end_core = int(np.argmin(cost))
    decisions = np.empty(N, dtype=np.int8)
    cores = np.empty(N, dtype=np.int64)
    cur = end_core
    for k in range(N - 1, -1, -1):
        h = homes[k]
        if cur != h:
            decisions[k] = Decision.REMOTE
            cores[k] = cur
        else:
            p = int(pred[k])
            cores[k] = h
            decisions[k] = Decision.LOCAL if p == h else Decision.MIGRATE
            cur = p
    return float(cost[end_core]), decisions, cores, end_core


def narrow_link_costs(cores):
    """A cost model whose remote reads and writes cost differently (on
    the default 128-bit links both fit the same flit counts)."""
    cm = CostModel(small_test_config(num_cores=cores, noc=NocConfig(flit_bits=32)))
    assert (cm.remote_read != cm.remote_write).any()
    return cm


def run_heavy_trace(rng, cores, runs, max_len):
    """Random homes in runs of 1..max_len accesses, reads and writes
    mixed inside each run."""
    homes = np.repeat(rng.integers(0, cores, runs), rng.integers(1, max_len + 1, runs))
    return homes.astype(np.int64), rng.random(homes.size) < 0.4


def confined_trace(rng, homes_at, runs, max_len):
    """:func:`run_heavy_trace` with every home drawn from ``homes_at``."""
    homes = np.repeat(rng.choice(homes_at, runs), rng.integers(1, max_len + 1, runs))
    return homes.astype(np.int64), rng.random(homes.size) < 0.4


@pytest.fixture(params=["occupied", "all"])
def step(request, monkeypatch):
    """Run the DP through one step whatever the occupied-core count:
    ``occupied`` (the scalar step over the thread's cores) or ``all``
    (the numpy step over every core)."""
    monkeypatch.setattr(optimal, "_FEW_CORES", 1 << 20 if request.param == "occupied" else 0)
    return request.param


@pytest.fixture
def cm():
    return CostModel(small_test_config(num_cores=4))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_random_traces(self, cm, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        homes = rng.integers(0, 4, n)
        writes = rng.integers(0, 2, n).astype(bool)
        start = int(rng.integers(0, 4))
        expect = brute_force_cost(homes, writes, start, cm)
        got = optimal_cost(homes, writes, start, cm)
        assert got == pytest.approx(expect)

    def test_matches_brute_force_16_cores(self):
        cm = CostModel(small_test_config(num_cores=16))
        rng = np.random.default_rng(99)
        homes = rng.integers(0, 16, 10)
        writes = rng.integers(0, 2, 10).astype(bool)
        assert optimal_cost(homes, writes, 0, cm) == pytest.approx(
            brute_force_cost(homes, writes, 0, cm)
        )


class TestRunSteppedMatchesPerAccess:
    """The DP steps once per home run; the per-access DP is the
    reference. Totals compare with ``==``: the costs are whole numbers,
    so regrouping a run's RA costs into one product is exact."""

    @staticmethod
    def _check(homes, writes, start, cm):
        total, decisions, cores, end_core = per_access_dp(homes, writes, start, cm)
        res = optimal_decisions(homes, writes, start, cm)
        assert optimal_cost(homes, writes, start, cm) == total
        assert res.total_cost == total
        np.testing.assert_array_equal(res.decisions, decisions)
        np.testing.assert_array_equal(res.cores, cores)
        assert res.end_core == end_core

    @pytest.mark.parametrize("cores", [4, 16, 64])
    @pytest.mark.parametrize("seed", range(6))
    def test_run_heavy_random_traces(self, cores, seed):
        rng = np.random.default_rng(seed)
        homes, writes = run_heavy_trace(rng, cores, runs=80, max_len=12)
        cm = narrow_link_costs(cores)
        self._check(homes, writes, int(rng.integers(0, cores)), cm)

    @pytest.mark.parametrize("cores", [4, 16, 64])
    def test_long_single_home_runs(self, cores):
        rng = np.random.default_rng(cores)
        homes, writes = run_heavy_trace(rng, cores, runs=30, max_len=400)
        self._check(homes, writes, 0, narrow_link_costs(cores))

    def test_runs_span_several_row_blocks(self):
        # thousands of runs at 64 cores cross the DP's RA-row blocks
        rng = np.random.default_rng(3)
        homes, writes = run_heavy_trace(rng, 64, runs=3000, max_len=4)
        self._check(homes, writes, 5, narrow_link_costs(64))

    @pytest.mark.parametrize("cores", [4, 16, 64])
    def test_empty_trace(self, cores):
        empty = np.zeros(0, dtype=np.int64)
        self._check(empty, empty.astype(bool), cores - 1,
                    narrow_link_costs(cores))

    @pytest.mark.parametrize("start", [0, 2])
    def test_one_home_trace(self, start):
        writes = np.random.default_rng(1).random(50) < 0.5
        self._check(np.full(50, 2), writes, start, narrow_link_costs(4))

    @pytest.mark.parametrize("cores", [4, 16, 64])
    def test_start_core_is_first_home(self, cores):
        rng = np.random.default_rng(10 + cores)
        homes, writes = run_heavy_trace(rng, cores, runs=40, max_len=8)
        cm = narrow_link_costs(cores)
        self._check(homes, writes, int(homes[0]), cm)

    @pytest.mark.parametrize("start_inside", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 12, 13])
    @pytest.mark.parametrize("seed", range(4))
    def test_threads_confined_to_few_cores(self, k, start_inside, seed):
        # 1..13 of 64 cores, the start core among them or not: with the
        # crossover at 12, both steps run, each on its own side
        rng = np.random.default_rng(100 * k + seed)
        cores = rng.choice(64, k + 1, replace=False)
        homes, writes = confined_trace(rng, cores[:k], runs=60, max_len=6)
        start = int(cores[0] if start_inside else cores[k])
        self._check(homes, writes, start, narrow_link_costs(64))

    @pytest.mark.parametrize("k", [1, 3, 6, 12, 20])
    @pytest.mark.parametrize("seed", range(3))
    def test_each_step_on_confined_threads(self, step, k, seed):
        rng = np.random.default_rng(1000 * k + seed)
        cores = rng.choice(64, k, replace=False)
        homes, writes = confined_trace(rng, cores, runs=80, max_len=5)
        self._check(homes, writes, int(rng.integers(0, 64)), narrow_link_costs(64))

    @pytest.mark.parametrize("seed", range(8))
    def test_ties_between_equidistant_homes(self, step, seed):
        # 4x4 mesh, start at core 5 = (1, 1): cores 1, 4, 6 and 9 sit one
        # hop away and 0, 2, 8 and 10 two, so equal arrivals abound
        # (reads and writes cost the same); lower cores must win them
        # and staying must win a tie with an arrival
        rng = np.random.default_rng(seed)
        runs = 120
        homes = np.repeat(
            rng.choice([5, 1, 4, 6, 9, 0, 2, 8, 10], runs), rng.integers(1, 4, runs)
        ).astype(np.int64)
        writes = rng.random(homes.size) < 0.5
        self._check(homes, writes, 5, CostModel(small_test_config(num_cores=16)))

    def test_few_cores_cross_several_row_blocks(self, step, monkeypatch):
        # a block of 4 cells holds one run of a 4-core thread: the prefix
        # sum (or the cost vector) is carried across hundreds of blocks
        monkeypatch.setattr(optimal, "_BLOCK_CELLS", 4)
        rng = np.random.default_rng(4)
        homes, writes = confined_trace(rng, [3, 17, 42], runs=700, max_len=4)
        self._check(homes, writes, 60, narrow_link_costs(64))

    def test_few_cores_trace_crosses_the_default_block(self):
        # over 4 cores of 64, the scalar step's block boundary (16,384
        # runs) falls inside the trace
        rng = np.random.default_rng(5)
        homes, writes = confined_trace(rng, [0, 9, 27, 63], runs=24_000, max_len=2)
        assert home_runs(homes, writes)[0].size > optimal._BLOCK_CELLS // 4
        self._check(homes, writes, 9, narrow_link_costs(64))


class TestReconstruction:
    def test_replay_cost_matches(self, cm):
        rng = np.random.default_rng(7)
        homes = rng.integers(0, 4, 40)
        writes = rng.integers(0, 2, 40).astype(bool)
        res = optimal_decisions(homes, writes, 2, cm)
        assert decision_cost(homes, writes, res.decisions, 2, cm) == pytest.approx(
            res.total_cost
        )

    def test_exec_cores_match_decisions(self, cm):
        rng = np.random.default_rng(8)
        homes = rng.integers(0, 4, 30)
        writes = np.zeros(30, dtype=bool)
        res = optimal_decisions(homes, writes, 0, cm)
        cur = 0
        for k in range(30):
            d = res.decisions[k]
            if d == Decision.MIGRATE:
                cur = homes[k]
                assert res.cores[k] == homes[k]
            elif d == Decision.LOCAL:
                assert cur == homes[k]
                assert res.cores[k] == homes[k]
            else:
                assert cur != homes[k]
                assert res.cores[k] == cur
        assert res.end_core == cur

    def test_counts_partition_accesses(self, cm):
        rng = np.random.default_rng(5)
        homes = rng.integers(0, 4, 25)
        res = optimal_decisions(homes, np.zeros(25, dtype=bool), 0, cm)
        assert res.num_migrations + res.num_remote_accesses + res.num_local == 25


class TestDominance:
    @pytest.mark.parametrize(
        "scheme_factory",
        [
            AlwaysMigrate,
            NeverMigrate,
            lambda: RandomScheme(p=0.3, seed=1),
            lambda: HistoryRunLength(threshold=3.0),
        ],
    )
    def test_dp_lower_bounds_schemes(self, cm, scheme_factory):
        rng = np.random.default_rng(11)
        homes = rng.integers(0, 4, 200)
        writes = rng.integers(0, 2, 200).astype(bool)
        opt = optimal_cost(homes, writes, 0, cm)
        cost, *_ = evaluate_thread(homes, writes, 0, scheme_factory(), cm)
        assert opt <= cost + 1e-9

    def test_dp_lower_bounds_distance_thresholds(self, cm):
        rng = np.random.default_rng(12)
        homes = rng.integers(0, 4, 150)
        writes = np.zeros(150, dtype=bool)
        opt = optimal_cost(homes, writes, 0, cm)
        for th in (0, 1, 2, 3):
            s = DistanceThreshold(cm.topology.distance_matrix, th)
            cost, *_ = evaluate_thread(homes, writes, 0, s, cm)
            assert opt <= cost + 1e-9


class TestKnownCases:
    def test_all_local_costs_zero(self, cm):
        homes = np.full(10, 2)
        assert optimal_cost(homes, np.zeros(10, bool), 2, cm) == 0.0

    def test_single_remote_access_prefers_ra(self, cm):
        # one access at a far core, then back to local: RA wins (its
        # round trip is cheaper than 2 migrations of a full context)
        homes = np.array([3, 0, 0, 0])
        res = optimal_decisions(homes, np.zeros(4, bool), 0, cm)
        assert res.decisions[0] == Decision.REMOTE
        assert res.total_cost == pytest.approx(cm.remote_read[0, 3])

    def test_long_run_prefers_migration(self, cm):
        homes = np.array([3] * 50)
        res = optimal_decisions(homes, np.zeros(50, bool), 0, cm)
        assert res.decisions[0] == Decision.MIGRATE
        assert (res.decisions[1:] == Decision.LOCAL).all()
        assert res.total_cost == pytest.approx(cm.migration[0, 3])

    def test_empty_trace(self, cm):
        res = optimal_decisions(np.zeros(0, np.int64), np.zeros(0, bool), 1, cm)
        assert res.total_cost == 0.0
        assert res.end_core == 1

    def test_out_of_range_home_rejected(self, cm):
        with pytest.raises(ConfigError):
            optimal_cost(np.array([9]), np.array([False]), 0, cm)

    def test_out_of_range_start_rejected(self, cm):
        with pytest.raises(ConfigError):
            optimal_cost(np.array([0]), np.array([False]), 7, cm)


class TestDecisionCost:
    def test_local_requires_residence(self, cm):
        homes = np.array([3])
        with pytest.raises(ConfigError, match="LOCAL decision"):
            decision_cost(homes, np.array([False]), np.array([Decision.LOCAL]), 0, cm)

    def test_unknown_decision_rejected(self, cm):
        with pytest.raises(ConfigError, match="unknown decision"):
            decision_cost(np.array([1]), np.array([False]), np.array([9]), 0, cm)

    def test_migrate_then_local(self, cm):
        homes = np.array([2, 2])
        d = np.array([Decision.MIGRATE, Decision.LOCAL])
        assert decision_cost(homes, np.zeros(2, bool), d, 0, cm) == pytest.approx(
            cm.migration[0, 2]
        )


class TestDecisionCostVectorized:
    """The vectorized decision_cost must match a scalar reference walk
    on random valid decision sequences, and report the earliest error
    on invalid ones."""

    @staticmethod
    def _scalar_reference(homes, writes, decisions, start, cm):
        cur = start
        total = 0.0
        for h, w, d in zip(homes, writes, decisions):
            if d == Decision.MIGRATE:
                total += cm.migration[cur, h]
                cur = h
            elif d == Decision.REMOTE:
                total += (cm.remote_write if w else cm.remote_read)[cur, h]
            else:
                assert cur == h
        return total

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_reference(self, cm, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        homes = rng.integers(0, 4, n)
        writes = rng.random(n) < 0.4
        cur = 0
        decisions = np.empty(n, dtype=np.int64)
        for k in range(n):  # build a *valid* random sequence
            if homes[k] == cur and rng.random() < 0.5:
                decisions[k] = Decision.LOCAL
            elif rng.random() < 0.5:
                decisions[k] = Decision.MIGRATE
                cur = homes[k]
            else:
                decisions[k] = Decision.REMOTE
        expect = self._scalar_reference(homes, writes, decisions, 0, cm)
        assert decision_cost(homes, writes, decisions, 0, cm) == pytest.approx(expect)

    def test_earliest_error_wins(self, cm):
        # access 1 is an invalid LOCAL, access 2 an unknown decision:
        # the report must name access 1
        homes = np.array([0, 3, 0])
        decisions = np.array([Decision.LOCAL, Decision.LOCAL, 9])
        with pytest.raises(ConfigError, match="access 1"):
            decision_cost(homes, np.zeros(3, bool), decisions, 0, cm)

    def test_local_valid_after_migration(self, cm):
        homes = np.array([2, 2, 1, 1])
        d = np.array(
            [Decision.MIGRATE, Decision.LOCAL, Decision.MIGRATE, Decision.LOCAL]
        )
        expect = cm.migration[0, 2] + cm.migration[2, 1]
        assert decision_cost(homes, np.zeros(4, bool), d, 0, cm) == pytest.approx(expect)
