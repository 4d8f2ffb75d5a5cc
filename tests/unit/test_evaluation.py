"""Unit tests for the scheme evaluator (the O(N) procedure of §3)."""

import numpy as np
import pytest

from repro.arch.config import NocConfig, small_test_config
from repro.core.costs import CostModel
from repro.core.decision import (
    AddressIndexedHistory,
    AlwaysMigrate,
    CostAwareHistory,
    DistanceThreshold,
    HistoryRunLength,
    NeverMigrate,
    RandomScheme,
)
from repro.core.decision import NativeFirst
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.decision.history import RunLengthScheme
from repro.core.evaluation import (
    evaluate_scheme,
    evaluate_thread,
    evaluate_thread_batched,
)
from repro.placement import first_touch, striped
from repro.trace.events import MultiTrace, make_trace


@pytest.fixture
def cm():
    return CostModel(small_test_config(num_cores=4))


class TestEvaluateThread:
    def test_all_local_zero_cost(self, cm):
        homes = np.zeros(10, dtype=np.int64)
        cost, n_mig, n_ra, n_loc, bits, cores = evaluate_thread(
            homes, np.zeros(10, bool), 0, AlwaysMigrate(), cm
        )
        assert cost == 0 and n_mig == 0 and n_loc == 10 and bits == 0

    def test_always_migrate_follows_homes(self, cm):
        homes = np.array([1, 1, 2, 0])
        cost, n_mig, n_ra, n_loc, bits, cores = evaluate_thread(
            homes, np.zeros(4, bool), 0, AlwaysMigrate(), cm
        )
        assert n_mig == 3 and n_loc == 1 and n_ra == 0
        assert cores.tolist() == [1, 1, 2, 0]
        expect = cm.migration[0, 1] + cm.migration[1, 2] + cm.migration[2, 0]
        assert cost == pytest.approx(expect)

    def test_never_migrate_stays_home(self, cm):
        homes = np.array([1, 2, 3])
        writes = np.array([False, True, False])
        cost, n_mig, n_ra, n_loc, bits, cores = evaluate_thread(
            homes, writes, 0, NeverMigrate(), cm
        )
        assert n_ra == 3 and n_mig == 0
        assert (cores == 0).all()
        expect = cm.remote_read[0, 1] + cm.remote_write[0, 2] + cm.remote_read[0, 3]
        assert cost == pytest.approx(expect)

    def test_traffic_bits_accumulate(self, cm):
        homes = np.array([1, 2])
        _, _, _, _, bits, _ = evaluate_thread(
            homes, np.zeros(2, bool), 0, AlwaysMigrate(), cm
        )
        assert bits == 2 * cm.migration_bits()


class TestFastPathsMatchSequential:
    """evaluate_scheme scores AlwaysMigrate/NeverMigrate without a walk
    (the cores are the homes, or the start core throughout); it must
    agree with the generic sequential evaluator on every statistic."""

    def _check(self, scheme, addrs, writes, start, pl, cm):
        mt = MultiTrace(
            threads=[make_trace(addrs, writes=writes)], thread_native_core=[start]
        )
        r = evaluate_scheme(mt, pl, scheme, cm)
        slow = evaluate_thread(pl.home_of(addrs), writes, start, scheme, cm)
        assert (r.total_cost, r.migrations, r.remote_accesses, r.local_accesses,
                r.traffic_bits) == slow[:5]

    @pytest.mark.parametrize("seed", range(5))
    def test_always_migrate(self, cm, seed):
        rng = np.random.default_rng(seed)
        addrs, writes = rng.integers(0, 64, 100), rng.integers(0, 2, 100)
        self._check(AlwaysMigrate(), addrs, writes, 0, striped(4, block_words=4), cm)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_migrate(self, cm, seed):
        rng = np.random.default_rng(100 + seed)
        homes = rng.integers(0, 4, 80)  # address k is homed at k % 4
        writes = rng.integers(0, 2, 80).astype(bool)
        self._check(NeverMigrate(), homes, writes, 2, striped(4, block_words=1), cm)


def _runny_trace(seed, cores=4, runs=40):
    """Homes with realistic run structure plus mixed reads/writes."""
    rng = np.random.default_rng(seed)
    homes = np.repeat(rng.integers(0, cores, runs), rng.integers(1, 6, runs))
    writes = rng.random(homes.size) < 0.4
    return homes.astype(np.int64), writes


class _WriteMigrates(DecisionScheme):
    """Asymmetric test scheme: writes migrate, reads stay remote —
    exercises the mixed-decision segments of the batched kernel."""

    name = "write-migrates"
    stateless = True

    def decide(self, current, home, addr, write):
        return Decision.MIGRATE if write else Decision.REMOTE

    def clone(self):
        return _WriteMigrates()


class _ReadMigrates(DecisionScheme):
    name = "read-migrates"
    stateless = True

    def decide(self, current, home, addr, write):
        return Decision.REMOTE if write else Decision.MIGRATE

    def clone(self):
        return _ReadMigrates()


class _RWGatedHistory(RunLengthScheme):
    """Run-learned test scheme whose decision depends on the write flag:
    a write migrates once the predicted run length reaches ``write_at``,
    a read once it reaches ``read_at``."""

    name = "rw-gated-history"

    def __init__(self, write_at, read_at, table_size=64):
        super().__init__(table_size, 1.0)
        self.write_at, self.read_at = write_at, read_at

    def decide(self, current, home, addr, write):
        need = self.write_at if write else self.read_at
        if self.predictor.predict(home) >= need:
            return Decision.MIGRATE
        return Decision.REMOTE

    def clone(self):
        return _RWGatedHistory(self.write_at, self.read_at, self.table_size)


class TestBatchedMatchesSequential:
    """evaluate_thread_batched must agree with the sequential walk on
    every statistic, exactly: costs are whole numbers, so the order in
    which they are summed cannot change the total."""

    def _check(self, scheme_factory, homes, writes, start, cm):
        fast = evaluate_thread_batched(homes, writes, start, scheme_factory(), cm)
        slow = evaluate_thread(homes, writes, start, scheme_factory(), cm)
        assert fast[0] == slow[0]
        assert fast[1:5] == slow[1:5]
        assert (fast[5] == slow[5]).all()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("threshold", [0, 1, 2, 100])
    def test_distance_threshold(self, cm, seed, threshold):
        homes, writes = _runny_trace(seed)
        dm = cm.topology.distance_matrix
        self._check(lambda: DistanceThreshold(dm, threshold), homes, writes, 0, cm)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("start", [0, 2])
    def test_native_first_over_distance(self, cm, seed, start):
        homes, writes = _runny_trace(10 + seed)
        dm = cm.topology.distance_matrix
        self._check(
            lambda: NativeFirst(away=DistanceThreshold(dm, 1)),
            homes, writes, start, cm,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_read_write_asymmetric_schemes(self, cm, seed):
        homes, writes = _runny_trace(20 + seed)
        self._check(_WriteMigrates, homes, writes, 0, cm)
        self._check(_ReadMigrates, homes, writes, 0, cm)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("threshold", [0.0, 1.5, 3.0, 100.0])
    def test_history(self, cm, seed, start, threshold):
        homes, writes = _runny_trace(30 + seed)
        self._check(lambda: HistoryRunLength(threshold), homes, writes, start, cm)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("start", [0, 3])
    def test_history_aliased_table(self, cm, seed, start):
        """With homes aliasing in the predictor, learning the previous
        run can flip the decision after a run's first access."""
        homes, writes = _runny_trace(40 + seed)
        self._check(
            lambda: HistoryRunLength(2.0, table_size=2), homes, writes, start, cm
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cores", [4, 16])
    @pytest.mark.parametrize("table_size", [64, 3])
    def test_costaware(self, seed, cores, table_size):
        cm = CostModel(small_test_config(num_cores=cores))
        homes, writes = _runny_trace(50 + seed, cores=cores, runs=80)
        self._check(
            lambda: CostAwareHistory(cm, table_size=table_size), homes, writes, 1, cm
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("write_at, read_at", [(1.5, 3.0), (3.0, 1.5)])
    @pytest.mark.parametrize("table_size", [64, 2])
    def test_write_dependent_run_learner(
        self, cm, seed, start, write_at, read_at, table_size
    ):
        """The kernel decides a run's first access on its own and the
        rest after learning; the rest must be split by its own reads and
        writes. Half the runs open with a write, so many of those rests
        hold no write at all."""
        homes, writes = _runny_trace(70 + seed)
        run_starts = np.flatnonzero(np.diff(homes, prepend=-1))
        writes[run_starts[::2]] = True
        self._check(
            lambda: _RWGatedHistory(write_at, read_at, table_size),
            homes, writes, start, cm,
        )

    def test_empty_thread(self, cm):
        out = evaluate_thread_batched(
            np.empty(0, np.int64), np.empty(0, bool), 0, _WriteMigrates(), cm
        )
        assert out[:5] == (0.0, 0, 0, 0, 0) and out[5].size == 0

    def test_stateful_scheme_rejected(self, cm):
        # history now learns per run and is served; these are not
        for scheme in (RandomScheme(p=0.5), AddressIndexedHistory(threshold=2.0)):
            with pytest.raises(ValueError, match="not stateless"):
                evaluate_thread_batched(
                    np.array([1]), np.array([False]), 0, scheme, cm
                )

    def test_stateless_flags(self, cm):
        dm = cm.topology.distance_matrix
        assert DistanceThreshold(dm, 1).stateless
        assert NativeFirst(away=DistanceThreshold(dm, 1)).stateless
        assert not NativeFirst(away=HistoryRunLength(threshold=2.0)).stateless
        assert not HistoryRunLength(threshold=2.0).stateless

    def test_evaluate_scheme_dispatch_matches_sequential(self, cm):
        """Whole-trace totals through the stateless fast path equal a
        hand-run sequential evaluation."""
        rng = np.random.default_rng(0)
        threads = []
        for _ in range(3):
            addrs = np.repeat(rng.integers(0, 64, 30), rng.integers(1, 5, 30))
            threads.append(make_trace(addrs, writes=rng.integers(0, 2, addrs.size)))
        mt = MultiTrace(threads=threads, thread_native_core=[0, 1, 2])
        pl = striped(4, block_words=4)
        dm = cm.topology.distance_matrix
        r = evaluate_scheme(mt, pl, DistanceThreshold(dm, 1), cm)
        total = 0.0
        migs = 0
        for t, tr in enumerate(mt.threads):
            homes = pl.home_of(tr["addr"])
            cost, n_mig, *_ = evaluate_thread(
                homes, tr["write"], t, DistanceThreshold(dm, 1), cm
            )
            total += cost
            migs += n_mig
        assert r.total_cost == pytest.approx(total)
        assert r.migrations == migs


def charged_walk(homes, writes, start, scheme, cm):
    """Reference walk that charges every access as it is decided,
    instead of scoring the core sequence afterwards."""
    cur, cost, n_mig, n_ra, n_loc, bits, cores = start, 0.0, 0, 0, 0, 0, []
    for h, w in zip(homes.tolist(), writes.tolist()):
        d = Decision.LOCAL
        if h == cur:
            n_loc += 1
        else:
            d = scheme.decide(cur, h, 0, w)
            if d == Decision.MIGRATE:
                cost += cm.migration[cur, h]
                bits += cm.migration_bits()
                n_mig += 1
                cur = h
            else:
                cost += cm.remote_access(w)[cur, h]
                bits += cm.remote_access_bits(w)
                n_ra += 1
        cores.append(cur)
        scheme.observe(cur, h, 0, w, d)
    return cost, n_mig, n_ra, n_loc, bits, np.array(cores, dtype=np.int64)


class TestScoringMatchesChargedWalk:
    """Every evaluation route scores the core sequence in one
    vectorized pass; it must equal charging access by access, on links
    narrow enough that remote reads and writes cost differently."""

    @pytest.fixture
    def narrow(self):
        cm = CostModel(small_test_config(num_cores=16, noc=NocConfig(flit_bits=32)))
        assert (cm.remote_read != cm.remote_write).any()
        return cm

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "make",
        [
            lambda cm: AlwaysMigrate(),
            lambda cm: NeverMigrate(),
            lambda cm: DistanceThreshold(cm.topology.distance_matrix, 2),
            lambda cm: HistoryRunLength(2.0),
            lambda cm: CostAwareHistory(cm),
            lambda cm: RandomScheme(p=0.4, seed=3),
        ],
        ids=["always", "never", "distance", "history", "costaware", "random"],
    )
    def test_routes_match_reference(self, narrow, seed, make):
        homes, writes = _runny_trace(60 + seed, cores=16, runs=60)
        ref = charged_walk(homes, writes, 5, make(narrow), narrow)
        mt = MultiTrace(threads=[make_trace(homes, writes=writes)], thread_native_core=[5])
        pl = striped(16, block_words=1)  # address k is homed at k % 16
        r = evaluate_scheme(mt, pl, make(narrow), narrow)
        assert (r.total_cost, r.migrations, r.remote_accesses, r.local_accesses,
                r.traffic_bits) == ref[:5]
        out = evaluate_thread(homes, writes, 5, make(narrow), narrow)
        assert out[:5] == ref[:5]
        assert (out[5] == ref[5]).all()


class TestEvaluateScheme:
    def test_aggregates_across_threads(self, cm, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        r = evaluate_scheme(pingpong_small, pl, AlwaysMigrate(), cm)
        assert r.total_accesses == pingpong_small.total_accesses
        assert len(r.per_thread_cost) == 4
        assert r.total_cost == pytest.approx(sum(r.per_thread_cost))

    def test_run_length_histogram_optional(self, cm, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        r = evaluate_scheme(pingpong_small, pl, NeverMigrate(), cm)
        assert r.run_length_hist is None
        r2 = evaluate_scheme(
            pingpong_small, pl, NeverMigrate(), cm, collect_run_lengths=True
        )
        assert r2.run_length_hist is not None
        assert r2.run_length_hist.count > 0

    def test_stateful_scheme_isolated_per_thread(self, cm):
        """History learned by thread 0 must not leak into thread 1."""
        t0 = make_trace([100] * 50)  # long run teaches 'migrate'
        t1 = make_trace([100])  # single access: fresh table says RA
        mt = MultiTrace(threads=[t0, t1], thread_native_core=[0, 1])
        pl = striped(4, block_words=1)
        scheme = HistoryRunLength(threshold=2.0)
        r = evaluate_scheme(mt, pl, scheme, cm)
        # if state leaked, thread 1 would migrate; isolated it does RA.
        # total: thread0 learns after first run; thread1 must RA.
        assert r.remote_accesses >= 1

    def test_nonlocal_fraction(self, cm):
        mt = MultiTrace(threads=[make_trace([0, 100, 0, 100])], thread_native_core=[0])
        pl = striped(4, block_words=1)
        r = evaluate_scheme(mt, pl, NeverMigrate(), cm)
        # home(0)=0 local; home(100)=0? 100 % 4 == 0 -> local too. use striped block 1: 100%4=0
        assert 0.0 <= r.nonlocal_fraction <= 1.0

    def test_empty_thread_handled(self, cm):
        mt = MultiTrace(threads=[make_trace([]), make_trace([5])])
        pl = striped(4, block_words=1)
        r = evaluate_scheme(mt, pl, AlwaysMigrate(), cm)
        assert r.per_thread_cost[0] == 0.0

    def test_as_dict_keys(self, cm, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        d = evaluate_scheme(pingpong_small, pl, AlwaysMigrate(), cm).as_dict()
        for key in ("scheme", "total_cost", "migrations", "traffic_bits"):
            assert key in d
