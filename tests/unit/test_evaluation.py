"""Unit tests for the scheme evaluator (the O(N) procedure of §3)."""

import gc
import weakref

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
from repro.core import evaluation
from repro.core.decision import NativeFirst
from repro.core.decision import static
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.decision.history import RunLengthScheme
from repro.core.evaluation import evaluate_scheme, evaluate_thread, run_table
from repro.placement import first_touch, striped
from repro.placement.dynamic import evaluate_dynamic_placement
from repro.registry import SCHEMES
from repro.trace.events import MultiTrace, make_trace
from repro.trace.runlength import merge_histograms, run_length_histogram
from repro.trace.synthetic import make_workload


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
    """AlwaysMigrate and NeverMigrate, which once took a route of their
    own, must agree with the sequential evaluator on every statistic."""

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


class _EveryThirdMigrates(DecisionScheme):
    """Learns from every access, with no per-run form: every third
    access the thread makes migrates, if it is non-local."""

    name = "every-third"

    def __init__(self):
        self.seen = 0

    def decide(self, current, home, addr, write):
        return Decision.MIGRATE if self.seen % 3 == 2 else Decision.REMOTE

    def observe(self, current, home, addr, write, decision):
        self.seen += 1

    def reset(self):
        self.seen = 0


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


def _writes_flipped(cls):
    """A subclass of ``cls`` that overrides only ``decide``: a write is
    decided the other way round from ``cls``, a read as ``cls`` decides
    it."""

    class WritesFlipped(cls):
        def decide(self, current, home, addr, write):
            d = super().decide(current, home, addr, write)
            if write:
                return Decision.REMOTE if d == Decision.MIGRATE else Decision.MIGRATE
            return d

    return WritesFlipped


class _HistoryForgets(HistoryRunLength):
    """Overrides only what ``history`` learns: nothing, so every
    prediction stays the initial one."""

    def observe_run(self, home, length, addr):
        pass


def _walked(scheme, homes, writes, start, cm):
    """evaluate_scheme on one thread whose address k is homed at k % P."""
    mt = MultiTrace(threads=[make_trace(homes, writes=writes)], thread_native_core=[start])
    return evaluate_scheme(mt, striped(cm.config.num_cores, block_words=1), scheme, cm)


class TestWalkMatchesSequential:
    """The walk over home runs must agree with the sequential walk on
    every statistic, exactly: costs are whole numbers, so the order in
    which they are summed cannot change the total."""

    def _check(self, scheme_factory, homes, writes, start, cm):
        r = _walked(scheme_factory(), homes, writes, start, cm)
        slow = evaluate_thread(homes, writes, start, scheme_factory(), cm, addrs=homes)
        assert (r.total_cost, r.migrations, r.remote_accesses, r.local_accesses,
                r.traffic_bits) == slow[:5]
        assert r.per_thread_cost == [slow[0]]

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
        r = _walked(_WriteMigrates(), np.empty(0, np.int64), np.empty(0, bool), 0, cm)
        assert (r.total_cost, r.total_accesses, r.traffic_bits) == (0.0, 0, 0)
        assert r.per_thread_cost == [0.0]

    def test_per_access_observer_takes_the_sequential_walk(self, cm):
        """A scheme that overrides ``observe`` with no per-run form gets
        exactly the per-access walk's results, thread by thread."""
        homes, writes = _runny_trace(90)
        scheme = _EveryThirdMigrates()
        assert scheme.observes_per_access
        r = _walked(scheme, homes, writes, 2, cm)
        slow = evaluate_thread(homes, writes, 2, _EveryThirdMigrates(), cm)
        assert (r.total_cost, r.migrations, r.remote_accesses, r.local_accesses,
                r.traffic_bits) == slow[:5]
        assert r.per_thread_cost == [slow[0]]
        assert 0 < r.migrations < r.migrations + r.remote_accesses

    def test_stateless_flags(self, cm):
        dm = cm.topology.distance_matrix
        assert DistanceThreshold(dm, 1).stateless
        assert NativeFirst(away=DistanceThreshold(dm, 1)).stateless
        assert not NativeFirst(away=HistoryRunLength(threshold=2.0)).stateless
        assert not HistoryRunLength(threshold=2.0).stateless
        assert RandomScheme().decides_per_access
        assert AddressIndexedHistory(threshold=2.0).decides_per_access
        assert NativeFirst(away=RandomScheme()).decides_per_access
        assert not HistoryRunLength(threshold=2.0).decides_per_access
        assert not NativeFirst(away=_EveryThirdMigrates()).stateless
        assert NativeFirst(away=_EveryThirdMigrates()).observes_per_access
        for name in SCHEMES.names():  # every registered scheme has a per-run form
            assert not SCHEMES.get(name)(cm).observes_per_access, name
        # the walk hands runs only to a scheme that learns from them
        assert HistoryRunLength(threshold=2.0).learns_runs
        assert CostAwareHistory(cm).learns_runs
        assert not RandomScheme().learns_runs
        assert not NativeFirst(away=RandomScheme()).learns_runs
        assert NativeFirst(away=HistoryRunLength(threshold=2.0)).learns_runs

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
    """The walk charges a run at a time and evaluate_thread an access at
    a time, after the fact; both must equal charging each access as it
    is decided, on links narrow enough that remote reads and writes
    cost differently."""

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

    def test_run_table_histogram(self, pingpong_small):
        """The run table's Figure 2 histogram bins every thread's runs
        away from its core, as ``run_length_histogram`` does thread by
        thread."""
        pl = first_touch(pingpong_small, 4)
        table = run_table(pingpong_small, pl)
        natives = pingpong_small.thread_native_core
        want = merge_histograms(
            [run_length_histogram(pl.home_of(tr["addr"]), natives[t])
             for t, tr in enumerate(pingpong_small.threads)]
        )
        got = table.histogram(natives)
        assert got.count > 0
        assert (got.bins(), got.count, got.overflow) == (want.bins(), want.count, want.overflow)
        assert table.histogram().bins() == want.bins()  # each thread starts at its native core
        # cores no run is homed at: every access counts
        assert table.histogram([c + 4 for c in natives]).count == pingpong_small.total_accesses

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


class _Forgetful:
    """A home-run memo that never hits: every evaluation is fresh."""

    def get(self, placement):
        return None

    def __setitem__(self, placement, entry):
        pass


def _rows(trace, placement, schemes, cm):
    return [evaluate_scheme(trace, placement, s, cm).as_dict() for s in schemes]


class TestHomeRunMemo:
    """Home runs are built once per (trace, placement) pair and reused;
    every evaluation must still give the rows of a fresh one."""

    @pytest.fixture
    def cm16(self):
        return CostModel(small_test_config(num_cores=16))

    @pytest.fixture
    def trace(self):
        return make_workload("hotspot", num_threads=8, accesses_per_thread=200, burst=2)

    def _fresh(self, monkeypatch, fn):
        with monkeypatch.context() as m:
            m.setattr(evaluation, "_runs_memo", _Forgetful())
            return fn()

    def test_two_placements_over_one_trace(self, monkeypatch, cm16, trace):
        schemes = [SCHEMES.get(n)(cm16) for n in SCHEMES.names()]
        a, b = first_touch(trace, 16), striped(16)
        got = [_rows(trace, pl, schemes, cm16) for pl in (a, b, a, b)]
        want = [self._fresh(monkeypatch, lambda pl=pl: _rows(trace, pl, schemes, cm16))
                for pl in (a, b)]
        assert got == want + want
        assert want[0] != want[1]

    def test_schemes_in_reverse_order(self, monkeypatch, cm16, trace):
        pl = first_touch(trace, 16)
        schemes = [SCHEMES.get(n)(cm16) for n in SCHEMES.names()]
        forward = _rows(trace, pl, schemes, cm16)
        backward = _rows(trace, pl, schemes[::-1], cm16)[::-1]
        fresh = self._fresh(monkeypatch, lambda: _rows(trace, pl, schemes, cm16))
        assert forward == backward == fresh

    def test_dynamic_placement_epochs(self, monkeypatch, cm16, trace):
        """The static placement scores the whole trace, then its first
        epoch: one placement over two traces."""
        def run():
            return evaluate_dynamic_placement(
                trace, 16, HistoryRunLength(2.0), cm16, num_epochs=4
            )
        assert run() == self._fresh(monkeypatch, run)

    def test_home_of_runs_once_per_trace(self, cm16, trace):
        pl = first_touch(trace, 16)
        calls = []
        home_of = pl.home_of
        pl.home_of = lambda addrs: calls.append(1) or home_of(addrs)
        for name in SCHEMES.names():
            evaluate_scheme(trace, pl, SCHEMES.get(name)(cm16), cm16)
        run_table(trace, pl).histogram()
        assert len(calls) == trace.num_threads

    def test_memo_entry_dropped_with_its_placement(self, cm16, trace):
        pl = first_touch(trace, 16)
        evaluate_scheme(trace, pl, AlwaysMigrate(), cm16)
        assert pl in evaluation._runs_memo
        n, ref = len(evaluation._runs_memo), weakref.ref(pl)
        del pl
        gc.collect()
        assert ref() is None and len(evaluation._runs_memo) < n


class TestPlans:
    """Which schemes are scored from a plan, and what a plan is."""

    #: registered schemes that read the current core or draw per consult
    WALKED = {"costaware", "distance-1", "distance-2", "random"}

    @pytest.fixture
    def table(self):
        trace = make_workload("hotspot", num_threads=4, accesses_per_thread=64, burst=2)
        return run_table(trace, first_touch(trace, 4))

    def test_registered_schemes(self, cm, table):
        for name in SCHEMES.names():
            plan = SCHEMES.get(name)(cm).plan(table)
            if name in self.WALKED:
                assert plan is None, name
            else:
                assert plan.shape == table.lengths.shape, name
                assert ((0 <= plan) & (plan <= table.lengths)).all(), name

    @pytest.mark.parametrize(
        "make",
        [
            lambda cm: _WriteMigrates(),
            lambda cm: _ReadMigrates(),
            lambda cm: _RWGatedHistory(1.5, 3.0),
            lambda cm: _EveryThirdMigrates(),
            lambda cm: NativeFirst(away=DistanceThreshold(cm.topology.distance_matrix, 1)),
            lambda cm: NativeFirst(away=RandomScheme()),
        ],
        ids=["write-migrates", "read-migrates", "rw-gated", "every-third",
             "native-first-distance", "native-first-random"],
    )
    def test_schemes_without_a_plan(self, cm, table, make):
        assert make(cm).plan(table) is None

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _writes_flipped(AlwaysMigrate)(),
            lambda: _writes_flipped(NeverMigrate)(),
            lambda: _writes_flipped(NativeFirst)(),
            lambda: _writes_flipped(HistoryRunLength)(2.0),
            lambda: _writes_flipped(AddressIndexedHistory)(2.0, block_words=1),
            lambda: _HistoryForgets(2.0, initial_prediction=9.0),
        ],
        ids=["always-migrate", "never-migrate", "native-first", "history", "addr-history",
             "history-forgets"],
    )
    def test_subclass_that_decides_or_learns_otherwise_is_walked(self, cm, make, monkeypatch):
        """A subclass that overrides ``decide`` or what the scheme
        learns, and no plan, inherits none: it is walked, and its rows
        are its own, not those of its parent's plan."""
        scheme = make()
        trace = make_workload("uniform", num_threads=4, accesses_per_thread=64, seed=3)
        pl = first_touch(trace, 4)
        assert scheme.plan(run_table(trace, pl)) is None
        r = evaluate_scheme(trace, pl, scheme, cm)
        with monkeypatch.context() as m:
            m.setattr(DecisionScheme, "_inherits", lambda self, cls, *names: True)
            assert evaluate_scheme(trace, pl, scheme, cm).per_thread_cost != r.per_thread_cost
        oracle = [
            evaluate_thread(pl.home_of(tr["addr"]), tr["write"], native % 4, scheme.clone(), cm,
                            addrs=tr["addr"])
            for tr, native in zip(trace.threads, trace.thread_native_core)
        ]
        assert r.per_thread_cost == [o[0] for o in oracle]
        assert (r.migrations, r.remote_accesses, r.local_accesses, r.traffic_bits) == tuple(
            sum(o[i] for o in oracle) for i in (1, 2, 3, 4)
        )

    def test_trace_without_runs(self, cm):
        mt = MultiTrace(threads=[make_trace([]), make_trace([])], thread_native_core=[0, 9])
        pl = striped(4)
        for name in SCHEMES.names():
            r = evaluate_scheme(mt, pl, SCHEMES.get(name)(cm), cm)
            assert (r.total_cost, r.total_accesses, r.per_thread_cost) == (0.0, 0, [0.0, 0.0])

    def test_static_plans(self, table):
        assert (AlwaysMigrate().plan(table) == 0).all()
        assert (NeverMigrate().plan(table) == table.lengths).all()
        plan = NativeFirst(away=AlwaysMigrate()).plan(table)
        assert (plan == 0).all()
        plan = NativeFirst().plan(table)
        at_start = table.homes == table.start[table.thread]
        assert (plan[at_start] == 0).all()
        assert (plan[~at_start] == table.lengths[~at_start]).all()

    def test_history_plan_learns_a_run_once_the_next_begins(self):
        """Runs at homes 1, 2, 3 of lengths 1, 3, 2 over a one-entry
        table: the second run's length is learned after the third run's
        first access is decided, so that access goes remote on the first
        run's length and the rest of the run migrates. With a table
        entry per home, the third run is never predicted."""
        mt = MultiTrace(threads=[make_trace([1, 2, 2, 2, 3, 3])], thread_native_core=[0])
        table = run_table(mt, striped(4, block_words=1))
        assert HistoryRunLength(2.0, table_size=1).plan(table).tolist() == [1, 3, 1]
        assert HistoryRunLength(2.0).plan(table).tolist() == [1, 3, 2]

    def test_addr_history_migrates_deep_inside_a_run(self):
        """Thread 1's second run goes remote for a read and a write, then
        migrates at its third access, whose block the first run taught:
        the plan index lies deep in the run, and the write before it is
        counted from the trace at the thread's own offset."""
        cm = CostModel(small_test_config(num_cores=16, noc=NocConfig(flit_bits=32)))
        threads = [([16, 40, 40, 3], [1, 0, 1, 1]), ([82, 83, 16, 17, 18, 19], [0, 0, 0, 1, 1, 0])]
        mt = MultiTrace(
            threads=[make_trace(a, writes=w) for a, w in threads], thread_native_core=[0, 0]
        )
        pl = striped(16, block_words=16)  # address a is homed at a // 16
        scheme = AddressIndexedHistory(2.0, table_size=64, block_words=1)  # 82 aliases 18
        assert scheme.plan(run_table(mt, pl)).tolist()[-2:] == [2, 2]
        r = evaluate_scheme(mt, pl, scheme, cm)
        assert (r.migrations, r.remote_accesses) == (1, 7)
        oracle = [
            evaluate_thread(pl.home_of(a), w, 0, scheme.clone(), cm, addrs=a)
            for a, w in threads
        ]
        assert r.per_thread_cost == [o[0] for o in oracle]
        assert r.traffic_bits == sum(o[4] for o in oracle)

    def test_random_generator_made_at_first_draw(self, cm, monkeypatch):
        """A thread that never consults the scheme never builds its
        generator; one that does builds it once."""
        calls = []
        made = static.as_generator
        monkeypatch.setattr(static, "as_generator", lambda seed: calls.append(seed) or made(seed))
        local = make_trace([0, 4, 8])  # all homed at core 0 under a 4-core stripe
        away = make_trace([1, 2, 3, 5])
        mt = MultiTrace(threads=[local, away], thread_native_core=[0, 0])
        r = evaluate_scheme(mt, striped(4, block_words=1), RandomScheme(seed=7), cm)
        assert calls == [7]
        assert r.total_accesses == 7
