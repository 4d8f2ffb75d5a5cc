"""Unit tests for static and history decision schemes."""

import numpy as np
import pytest

from repro.arch.topology import Mesh2D
from repro.core.decision import (
    AlwaysMigrate,
    Decision,
    DistanceThreshold,
    HistoryRunLength,
    NeverMigrate,
    RandomScheme,
)
from repro.core.decision.history import AddressIndexedHistory, PerHomePredictor
from repro.util.errors import ConfigError


class TestStatic:
    def test_always_migrate(self):
        s = AlwaysMigrate()
        assert s.decide(0, 5, 0, False) == Decision.MIGRATE
        assert s.decide(3, 1, 9, True) == Decision.MIGRATE

    def test_never_migrate(self):
        s = NeverMigrate()
        assert s.decide(0, 5, 0, False) == Decision.REMOTE

    def test_distance_threshold(self):
        m = Mesh2D(4, 4)
        s = DistanceThreshold(m.distance_matrix, threshold=2)
        assert s.decide(0, 1, 0, False) == Decision.MIGRATE  # distance 1
        assert s.decide(0, 15, 0, False) == Decision.REMOTE  # distance 6

    def test_distance_threshold_degenerate_ends(self):
        m = Mesh2D(4, 4)
        inf = DistanceThreshold(m.distance_matrix, float("inf"))
        neg = DistanceThreshold(m.distance_matrix, -1)
        for dst in range(1, 16):
            assert inf.decide(0, dst, 0, False) == Decision.MIGRATE
            assert neg.decide(0, dst, 0, False) == Decision.REMOTE

    def test_distance_threshold_rejects_nonsquare(self):
        with pytest.raises(ConfigError):
            DistanceThreshold(np.zeros((2, 3)), 1)

    def test_random_deterministic_after_reset(self):
        s = RandomScheme(p=0.5, seed=3)
        seq1 = [s.decide(0, 1, 0, False) for _ in range(20)]
        s.reset()
        seq2 = [s.decide(0, 1, 0, False) for _ in range(20)]
        assert seq1 == seq2

    def test_random_extremes(self):
        always = RandomScheme(p=1.0)
        never = RandomScheme(p=0.0)
        assert all(always.decide(0, 1, 0, False) == Decision.MIGRATE for _ in range(10))
        assert all(never.decide(0, 1, 0, False) == Decision.REMOTE for _ in range(10))

    def test_random_bad_p_rejected(self):
        with pytest.raises(ConfigError):
            RandomScheme(p=1.5)

    @pytest.mark.parametrize("seed", [None, np.random.default_rng(0), 2.0, False])
    def test_random_seed_must_be_an_int(self, seed):
        with pytest.raises(ConfigError, match="seed must be an int"):
            RandomScheme(p=0.5, seed=seed)

    def test_random_draws_the_scalar_stream(self):
        """Uniforms drawn in blocks are the stream of scalar draws, across
        a block boundary."""
        s = RandomScheme(p=0.5, seed=9)
        rng = np.random.default_rng(9)
        n = 3 * RandomScheme._BLOCK // 2
        got = [s.decide(0, 1, 0, False) for _ in range(n)]
        want = [Decision.MIGRATE if rng.random() < 0.5 else Decision.REMOTE for _ in range(n)]
        assert got == want

    def test_clone_preserves_params(self):
        m = Mesh2D(2, 2)
        s = DistanceThreshold(m.distance_matrix, 3)
        c = s.clone()
        assert c is not s and c.threshold == 3


class TestPerHomePredictor:
    def test_initial_prediction(self):
        p = PerHomePredictor(table_size=8, initial=2.5)
        assert p.predict(3) == 2.5

    def test_update_then_predict(self):
        p = PerHomePredictor(table_size=8)
        p.update(3, 17)
        assert p.predict(3) == 17.0
        assert p.predict(4) == 1.0

    def test_aliasing_wraps_table(self):
        p = PerHomePredictor(table_size=4)
        p.update(1, 9)
        assert p.predict(5) == 9.0  # 5 % 4 == 1

    def test_reset(self):
        p = PerHomePredictor(table_size=4, initial=1.0)
        p.update(0, 99)
        p.reset()
        assert p.predict(0) == 1.0


class TestHistoryRunLength:
    def test_learns_long_runs_then_migrates(self):
        s = HistoryRunLength(threshold=3.0, initial_prediction=1.0)
        # initially predicts 1 -> REMOTE
        assert s.decide(0, 5, 0, False) == Decision.REMOTE
        # observe a run of 4 at home 5, then a run elsewhere to close it
        for _ in range(4):
            s.observe(0, 5, 0, False, Decision.REMOTE)
        s.observe(0, 0, 0, False, Decision.LOCAL)
        assert s.decide(0, 5, 0, False) == Decision.MIGRATE

    def test_short_runs_keep_ra(self):
        s = HistoryRunLength(threshold=3.0)
        s.observe(0, 5, 0, False, Decision.REMOTE)  # run of 1 at home 5
        s.observe(0, 0, 0, False, Decision.LOCAL)  # closes it
        assert s.decide(0, 5, 0, False) == Decision.REMOTE

    def test_reset_clears_history(self):
        s = HistoryRunLength(threshold=2.0)
        for _ in range(5):
            s.observe(0, 5, 0, False, Decision.REMOTE)
        s.observe(0, 0, 0, False, Decision.LOCAL)
        s.reset()
        assert s.decide(0, 5, 0, False) == Decision.REMOTE

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            HistoryRunLength(threshold=-1.0)

    def test_clone_is_fresh(self):
        s = HistoryRunLength(threshold=2.0)
        for _ in range(5):
            s.observe(0, 5, 0, False, Decision.REMOTE)
        c = s.clone()
        assert c.predictor.predict(5) == 1.0  # fresh table
        assert c.threshold == 2.0


class TestAddressIndexedHistory:
    def test_distinguishes_structures_at_same_home(self):
        """Two address regions homed at the same core learn separately —
        the whole point of address indexing."""
        s = AddressIndexedHistory(threshold=3.0, block_words=16)
        lock_addr = 0  # block 0: run length 1 behaviour
        row_addr = 1024  # block 64: long-run behaviour
        # teach: long runs starting at row_addr, short at lock_addr
        for _ in range(3):
            s.observe(0, 5, row_addr, False, Decision.REMOTE)
            for _ in range(5):
                s.observe(0, 5, row_addr + 1, False, Decision.REMOTE)
            s.observe(0, 0, 8, False, Decision.LOCAL)  # close run
            s.observe(0, 5, lock_addr, False, Decision.REMOTE)  # run of 1
            s.observe(0, 0, 8, False, Decision.LOCAL)
        assert s.decide(0, 5, row_addr, False) == Decision.MIGRATE
        assert s.decide(0, 5, lock_addr, False) == Decision.REMOTE

    def test_per_home_scheme_conflates_them(self):
        """The same teaching sequence leaves a home-indexed table with a
        single (last) prediction — demonstrating the aliasing."""
        s = HistoryRunLength(threshold=3.0)
        for _ in range(3):
            for _ in range(6):
                s.observe(0, 5, 0, False, Decision.REMOTE)
            s.observe(0, 0, 8, False, Decision.LOCAL)
            s.observe(0, 5, 0, False, Decision.REMOTE)  # run of 1
            s.observe(0, 0, 8, False, Decision.LOCAL)
        # last completed run at home 5 had length 1 -> REMOTE for both
        assert s.decide(0, 5, 0, False) == Decision.REMOTE

    def test_table_aliasing_wraps(self):
        s = AddressIndexedHistory(threshold=2.0, table_size=4, block_words=1)
        s.observe(0, 5, 1, False, Decision.REMOTE)
        s.observe(0, 5, 1, False, Decision.REMOTE)
        s.observe(0, 0, 9, False, Decision.LOCAL)  # close: slot 1 <- 2
        assert s.decide(0, 5, 5, False) == Decision.MIGRATE  # 5 % 4 == 1

    def test_reset_and_clone(self):
        s = AddressIndexedHistory(threshold=2.0)
        for _ in range(4):
            s.observe(0, 5, 7, False, Decision.REMOTE)
        s.observe(0, 0, 8, False, Decision.LOCAL)
        c = s.clone()
        assert c.decide(0, 5, 7, False) == Decision.REMOTE  # fresh
        s.reset()
        assert s.decide(0, 5, 7, False) == Decision.REMOTE

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            AddressIndexedHistory(threshold=-1)
        with pytest.raises(ConfigError):
            AddressIndexedHistory(threshold=1, block_words=0)
