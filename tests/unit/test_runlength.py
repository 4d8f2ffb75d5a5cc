"""Unit tests for run-length analysis (the Figure 2 statistic)."""

import numpy as np
import pytest

from repro.sim.stats import Histogram
from repro.trace.runlength import (
    fraction_single_access_runs,
    merge_histograms,
    run_length_histogram,
    run_lengths,
    runs_histogram,
)


class TestRunLengths:
    def test_basic_rle(self):
        cores, lengths = run_lengths(np.array([1, 1, 2, 2, 2, 3]))
        assert cores.tolist() == [1, 2, 3]
        assert lengths.tolist() == [2, 3, 1]

    def test_single_run(self):
        cores, lengths = run_lengths(np.array([7, 7, 7]))
        assert cores.tolist() == [7]
        assert lengths.tolist() == [3]

    def test_alternating(self):
        cores, lengths = run_lengths(np.array([0, 1, 0, 1]))
        assert lengths.tolist() == [1, 1, 1, 1]

    def test_empty(self):
        cores, lengths = run_lengths(np.array([], dtype=np.int64))
        assert cores.size == 0 and lengths.size == 0

    def test_lengths_sum_to_input_size(self):
        seq = np.array([3, 3, 1, 4, 4, 4, 4, 2])
        _, lengths = run_lengths(seq)
        assert lengths.sum() == seq.size


class TestRunLengthHistogram:
    def test_native_runs_excluded(self):
        # thread native at core 0; runs: [0 x3], [5 x2], [0 x1]
        seq = np.array([0, 0, 0, 5, 5, 0])
        h = run_length_histogram(seq, native_core=0)
        assert h.bins() == {2: 2}  # one run of length 2, access-weighted

    def test_access_weighting(self):
        seq = np.array([5, 5, 5, 5])  # native 0: one non-native run of 4
        h = run_length_histogram(seq, native_core=0)
        assert h[4] == 4  # 4 accesses contributed at run length 4

    def test_run_count_weighting(self):
        seq = np.array([5, 5, 5, 5])
        h = run_length_histogram(seq, native_core=0, weight_by_accesses=False)
        assert h[4] == 1

    def test_all_native_empty(self):
        h = run_length_histogram(np.array([2, 2, 2]), native_core=2)
        assert h.count == 0


def per_run_histogram(cores, lengths, native_core, max_bin, weight_by_accesses):
    """The Figure 2 binning one run at a time: the reference."""
    hist = Histogram(max_bin=max_bin)
    for core, ln in zip(cores, lengths):
        if core != native_core:
            hist.add(ln, weight=ln if weight_by_accesses else 1)
    return hist


class TestBinningMatchesPerRun:
    @pytest.mark.parametrize("weight_by_accesses", [True, False])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_runs(self, seed, weight_by_accesses):
        # lengths straddle max_bin, so some runs land in the overflow
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        cores = rng.integers(0, 6, n)
        lengths = rng.integers(1, 40, n)
        native, max_bin = int(rng.integers(0, 6)), int(rng.integers(1, 30))
        expect = per_run_histogram(
            cores.tolist(), lengths.tolist(), native, max_bin, weight_by_accesses
        )
        for got in (
            runs_histogram(cores, lengths, native, max_bin, weight_by_accesses),
            runs_histogram(cores.tolist(), lengths.tolist(), native, max_bin, weight_by_accesses),
        ):
            assert got.bins() == expect.bins()
            assert (got.count, got.total, got.overflow) == (
                expect.count, expect.total, expect.overflow
            )
            assert all(type(v) is int for v in (got.count, got.total, got.overflow))

    def test_run_length_histogram_bins_the_same_runs(self):
        rng = np.random.default_rng(9)
        seq = np.repeat(rng.integers(0, 4, 200), rng.integers(1, 9, 200))
        cores, lengths = run_lengths(seq)
        got = run_length_histogram(seq, native_core=2, max_bin=5)
        expect = per_run_histogram(cores.tolist(), lengths.tolist(), 2, 5, True)
        assert got.bins() == expect.bins()
        assert (got.count, got.total, got.overflow) == (
            expect.count, expect.total, expect.overflow
        )


class TestMergeAndFractions:
    def test_merge_preserves_counts(self):
        h1 = run_length_histogram(np.array([1, 1, 2]), native_core=0)
        h2 = run_length_histogram(np.array([3]), native_core=0)
        merged = merge_histograms([h1, h2])
        assert merged.count == h1.count + h2.count

    def test_merge_overflow_carried(self):
        h = Histogram(max_bin=4)
        h.add(9)  # overflow
        merged = merge_histograms([h], max_bin=4)
        assert merged.overflow == 1

    def test_fraction_single_access_runs(self):
        # native 0; runs: [1 x1], [0 x1], [2 x3] -> non-native accesses: 1 + 3
        seq = np.array([1, 0, 2, 2, 2])
        h = run_length_histogram(seq, native_core=0)
        assert fraction_single_access_runs(h) == pytest.approx(0.25)
