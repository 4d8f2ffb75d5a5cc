"""Property-based tests for the decision DPs — the paper's core claims.

These are the highest-value properties in the repo: the DP is *optimal*
(lower-bounds every strategy, matches brute force) and *consistent*
(reconstructed decisions replay to the same cost).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import small_test_config
from repro.core.costs import CostModel
from repro.core.decision import (
    AlwaysMigrate,
    HistoryRunLength,
    NeverMigrate,
    RandomScheme,
)
from repro.core.decision.optimal import decision_cost, optimal_cost, optimal_decisions
from repro.core.decision.stack_optimal import fixed_depth_cost, optimal_stack_depths
from repro.core.evaluation import evaluate_thread
from tests.unit.test_optimal_dp import narrow_link_costs, per_access_dp

CM = CostModel(small_test_config(num_cores=4))
CM9 = CostModel(small_test_config(num_cores=9))

trace_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=60
)


def _unpack(tr):
    homes = np.array([h for h, _ in tr], dtype=np.int64)
    writes = np.array([w for _, w in tr], dtype=bool)
    return homes, writes


@settings(max_examples=60)
@given(trace_strategy, st.integers(0, 3))
def test_dp_matches_bruteforce(tr, start):
    homes, writes = _unpack(tr[:10])  # keep brute force tractable
    mig, ra_r, ra_w = CM.migration, CM.remote_read, CM.remote_write

    def rec(k, cur):
        if k == len(homes):
            return 0.0
        h = homes[k]
        if h == cur:
            return rec(k + 1, cur)
        ra = (ra_w if writes[k] else ra_r)[cur, h]
        return min(ra + rec(k + 1, cur), mig[cur, h] + rec(k + 1, h))

    assert optimal_cost(homes, writes, start, CM) == pytest.approx(rec(0, start))


@settings(max_examples=40)
@given(trace_strategy, st.integers(0, 3))
def test_dp_reconstruction_replays_to_same_cost(tr, start):
    homes, writes = _unpack(tr)
    res = optimal_decisions(homes, writes, start, CM)
    assert decision_cost(homes, writes, res.decisions, start, CM) == pytest.approx(
        res.total_cost
    )


@settings(max_examples=30)
@given(trace_strategy, st.integers(0, 3), st.integers(0, 4))
def test_dp_lower_bounds_every_scheme(tr, start, scheme_id):
    homes, writes = _unpack(tr)
    schemes = [
        AlwaysMigrate(),
        NeverMigrate(),
        RandomScheme(p=0.5, seed=scheme_id),
        HistoryRunLength(threshold=2.0),
        RandomScheme(p=0.9, seed=scheme_id + 7),
    ]
    opt = optimal_cost(homes, writes, start, CM)
    cost, *_ = evaluate_thread(homes, writes, start, schemes[scheme_id], CM)
    assert opt <= cost + 1e-6


CM64 = narrow_link_costs(64)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=14, unique=True),
    st.lists(
        st.tuples(st.integers(0, 13), st.integers(1, 6), st.integers(0, 63)),
        max_size=60,
    ),
    st.integers(0, 63),
)
def test_dp_on_confined_threads_matches_per_access(cores, runs, start):
    """A thread confined to 1..14 of 64 cores (start core among them or
    not, so both DP steps run) gets the per-access DP's total,
    decisions, cores and end core exactly."""
    homes = np.array(
        [cores[i % len(cores)] for i, n, _ in runs for _ in range(n)], dtype=np.int64
    )
    writes = np.array([bool(bits >> j & 1) for _, n, bits in runs for j in range(n)], dtype=bool)
    total, decisions, exec_cores, end_core = per_access_dp(homes, writes, start, CM64)
    res = optimal_decisions(homes, writes, start, CM64)
    assert optimal_cost(homes, writes, start, CM64) == total
    assert res.total_cost == total
    assert res.decisions.tolist() == decisions.tolist()
    assert res.cores.tolist() == exec_cores.tolist()
    assert res.end_core == end_core


@settings(max_examples=30)
@given(trace_strategy)
def test_dp_cost_nonnegative_and_zero_iff_all_local(tr):
    homes, writes = _unpack(tr)
    cost = optimal_cost(homes, writes, 0, CM)
    assert cost >= 0
    if (homes == 0).all():
        assert cost == 0.0
    elif cost == 0.0:
        # zero cost must mean every access was local
        assert (homes == 0).all()


@settings(max_examples=30)
@given(trace_strategy, st.integers(0, 3))
def test_dp_monotone_under_trace_extension(tr, start):
    """Appending accesses can only increase the optimal cost."""
    homes, writes = _unpack(tr)
    full = optimal_cost(homes, writes, start, CM)
    prefix = optimal_cost(homes[:-1], writes[:-1], start, CM)
    assert prefix <= full + 1e-9


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_stack_dp_lower_bounds_fixed_depths(segs, native, depth):
    homes = np.array([h for h, _, _ in segs])
    spops = np.array([p for _, p, _ in segs])
    spushes = np.array([q for _, _, q in segs])
    opt = optimal_stack_depths(homes, spops, spushes, native, CM, max_depth=3)
    fix = fixed_depth_cost(homes, spops, spushes, native, CM, depth=depth, max_depth=3)
    assert opt.total_cost <= fix.total_cost + 1e-6


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 2), st.integers(0, 2)),
        min_size=1,
        max_size=30,
    )
)
def test_stack_dp_zero_cost_iff_all_native(segs):
    homes = np.array([h for h, _, _ in segs])
    spops = np.array([p for _, p, _ in segs])
    spushes = np.array([q for _, _, q in segs])
    res = optimal_stack_depths(homes, spops, spushes, 0, CM9, max_depth=4)
    if (homes == 0).all():
        assert res.total_cost == 0.0
        assert res.migrations == 0
    else:
        assert res.total_cost > 0.0
