"""Unit tests for NativeFirst + the CSV export."""

import numpy as np
import pytest

from repro.analysis.reports import to_csv
from repro.arch.config import small_test_config
from repro.core.costs import CostModel
from repro.core.decision import NativeFirst
from repro.core.decision.base import Decision
from repro.core.decision.optimal import optimal_cost
from repro.core.evaluation import evaluate_scheme, evaluate_thread
from repro.placement import first_touch
from repro.trace.synthetic import make_workload


@pytest.fixture
def cm():
    return CostModel(small_test_config(num_cores=4))


class TestNativeFirst:
    def test_latches_native_on_first_consult(self):
        s = NativeFirst()
        assert s.decide(2, 3, 0, False) == Decision.REMOTE  # native := 2
        # later, consulted while away (e.g. after an away-migration):
        assert s.decide(3, 2, 0, False) == Decision.MIGRATE  # going home

    def test_home_rule_beats_away_policy(self):
        from repro.core.decision import AlwaysMigrate

        s = NativeFirst(away=AlwaysMigrate())
        assert s.decide(1, 3, 0, False) == Decision.MIGRATE  # away policy; native := 1
        assert s.decide(3, 1, 0, False) == Decision.MIGRATE  # home

    def test_default_away_is_never_migrate_degenerate(self, cm):
        """Documented degenerate case: away=NeverMigrate makes the whole
        scheme behave exactly like NeverMigrate."""
        from repro.core.decision import NeverMigrate

        rng = np.random.default_rng(0)
        homes = rng.integers(0, 4, 200)
        writes = rng.random(200) < 0.3
        a = evaluate_thread(homes, writes, 2, NativeFirst(), cm)
        b = evaluate_thread(homes, writes, 2, NeverMigrate(), cm)
        assert a[0] == b[0] and a[1:5] == b[1:5]

    def test_composition_with_distance_away_differs(self, cm):
        from repro.core.decision import DistanceThreshold

        rng = np.random.default_rng(1)
        homes = rng.integers(0, 4, 200)
        writes = np.zeros(200, bool)
        away = DistanceThreshold(cm.topology.distance_matrix, 1)
        cost, n_mig, *_ = evaluate_thread(homes, writes, 0, NativeFirst(away=away), cm)
        assert n_mig > 0  # the away policy migrates to near homes
        assert optimal_cost(homes, writes, 0, cm) <= cost + 1e-9

    def test_clone_per_thread_latching(self, cm):
        trace = make_workload("pingpong", num_threads=4, rounds=8, run=2)
        pl = first_touch(trace, 4)
        r = evaluate_scheme(trace, pl, NativeFirst(), cm)
        assert r.remote_accesses > 0

    def test_reset_clears_latch(self):
        s = NativeFirst()
        s.decide(2, 3, 0, False)
        s.reset()
        s.decide(1, 3, 0, False)
        assert s.native_core == 1


class TestToCsv:
    def test_basic(self):
        csv = to_csv([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = csv.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"

    def test_quoting(self):
        csv = to_csv([{"a": 'he said "hi", twice'}])
        assert '"he said ""hi"", twice"' in csv

    def test_empty(self):
        assert to_csv([]) == ""

    def test_column_selection_and_missing(self):
        csv = to_csv([{"a": 1}], columns=["a", "z"])
        assert csv.strip().split("\n")[1] == "1,"
