"""Unit tests for the statistics primitives."""

import math

import numpy as np
import pytest

from repro.sim.stats import Counter, Histogram, LatencyStat, StatSet


class TestCounter:
    def test_missing_key_reads_zero(self):
        c = Counter()
        assert c["nothing"] == 0

    def test_add_accumulates(self):
        c = Counter()
        c.add("x")
        c.add("x", 4)
        assert c["x"] == 5

    def test_negative_add_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.add("x", -1)

    def test_total_sums_all_keys(self):
        c = Counter()
        c.add("a", 2)
        c.add("b", 3)
        assert c.total() == 5


class TestHistogram:
    def test_weighted_add(self):
        h = Histogram()
        h.add(3, weight=2)
        assert h[3] == 2
        assert h.count == 2
        assert h.total == 6

    def test_mean(self):
        h = Histogram()
        h.add(1)
        h.add(3)
        assert h.mean() == 2.0

    def test_overflow_bin(self):
        h = Histogram(max_bin=10)
        h.add(11)
        h.add(5)
        assert h.overflow == 1
        assert h[5] == 1

    def test_fraction_at(self):
        h = Histogram()
        h.add(1, weight=3)
        h.add(2, weight=1)
        assert h.fraction_at(1) == 0.75

    def test_negative_value_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.add(-1)

    def test_empty_mean_nan(self):
        assert math.isnan(Histogram().mean())


class TestLatencyStat:
    def test_mean_min_max(self):
        s = LatencyStat()
        for v in (1.0, 2.0, 6.0):
            s.add(v)
        assert s.mean() == 3.0
        assert s.min_value == 1.0
        assert s.max_value == 6.0

    def test_std_matches_numpy(self):
        s = LatencyStat()
        data = [1.0, 5.0, 7.0, 2.0, 9.0]
        for v in data:
            s.add(v)
        assert s.std() == pytest.approx(np.std(data), rel=1e-9)

    def test_single_sample_std_zero(self):
        s = LatencyStat()
        s.add(4.0)
        assert s.std() == 0.0

    def test_empty_stats_nan(self):
        s = LatencyStat()
        assert math.isnan(s.mean())
        assert math.isnan(s.std())


class TestStatSet:
    def test_histogram_identity_per_key(self):
        ss = StatSet("x")
        assert ss.histogram("a") is ss.histogram("a")
        assert ss.histogram("a") is not ss.histogram("b")

    def test_as_dict_flattens(self):
        ss = StatSet("x")
        ss.counters.add("hits", 3)
        ss.histogram("rl").add(2)
        ss.latency("net").add(10.0)
        d = ss.as_dict()
        assert d["count.hits"] == 3
        assert d["hist.rl.count"] == 1
        assert d["lat.net.mean"] == 10.0
