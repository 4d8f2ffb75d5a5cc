"""Property tests for the vectorized cache-batch kernels.

The epoch-batched fast path (ISSUE 6) rests on two kernels in
:mod:`repro.arch.cache.batch`; each must be *exactly* equivalent to
driving the scalar structures access by access:

* :func:`frozen_hit_prefix` — classifies precisely the accesses that
  the live array would hit without state change.
* :func:`apply_hit_prefix` — bulk hit application leaves the array in
  the same state (counters, LRU order, dirty bits) as scalar lookups.

No hypothesis dependency: numpy's Generator with fixed seeds gives the
randomized coverage deterministically.
"""

import numpy as np
import pytest

from repro.arch.cache.batch import apply_hit_prefix, frozen_hit_prefix
from repro.arch.cache.hierarchy import CacheHierarchy
from repro.arch.cache.sram import CacheArray
from repro.arch.config import CacheConfig


def _random_block(rng, n, line_bytes, num_lines):
    """A block of byte addresses biased toward reuse (hits and misses)."""
    lines = rng.integers(0, num_lines, n, dtype=np.int64)
    offsets = rng.integers(0, line_bytes, n, dtype=np.int64)
    addrs = lines * line_bytes + offsets
    writes = rng.random(n) < 0.4
    return addrs, writes


@pytest.mark.parametrize("assoc", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_frozen_prefix_and_bulk_apply_match_scalar_hierarchy(assoc, seed):
    """frozen_hit_prefix + apply_hit_prefix vs scalar L1 lookups.

    The classified prefix must (a) contain only accesses the scalar
    array hits, (b) end exactly at the first scalar miss, and (c) after
    bulk application the array state (counters, dirty bits, LRU victim
    choice) must equal the scalar replay's.
    """
    config = CacheConfig(
        size_bytes=32 * assoc * 4, line_bytes=32, associativity=assoc
    )
    rng = np.random.default_rng(seed)

    def warmed():
        arr = CacheArray(config)
        warm = rng.integers(0, config.num_lines, 64, dtype=np.int64) * 32
        for a in warm.tolist():
            if arr.lookup(a) is None:
                arr.fill(a)
        return arr

    state = rng.bit_generator.state
    fast = warmed()
    rng.bit_generator.state = state
    slow = warmed()

    addrs, writes = _random_block(rng, 120, 32, config.num_lines * 2)
    lines = addrs >> 5

    k = frozen_hit_prefix(fast, lines)
    # (a)+(b): the prefix is exactly the scalar pure-hit run
    for i in range(k):
        assert slow.probe(int(addrs[i])) is not None
    if k < len(addrs):
        assert slow.probe(int(addrs[k])) is None

    apply_hit_prefix(fast, lines[:k], writes[:k])
    for i in range(k):
        slot = slow.lookup(int(addrs[i]))
        if writes[i]:
            slow.dirty[slot] = True

    assert fast.hits == slow.hits and fast.misses == slow.misses
    assert fast.resident_addrs() == slow.resident_addrs()
    for si in range(fast.num_sets):
        base = si * fast.ways
        for s in range(base, base + fast.ways):
            assert int(fast.tags[s]) == int(slow.tags[s])
            if int(fast.tags[s]) != -1:
                assert bool(fast.dirty[s]) == bool(slow.dirty[s])
        # full LRU order (victim first) = valid slots by ascending stamp
        valid = [s for s in range(base, base + fast.ways) if int(fast.tags[s]) != -1]
        f_order = sorted(valid, key=lambda s: int(fast.stamps[s]))
        s_order = sorted(valid, key=lambda s: int(slow.stamps[s]))
        assert f_order == s_order


def test_frozen_prefix_state_filters():
    """With state filters, a resident line in a disallowed state ends
    the prefix (the CC driver's write-needs-MODIFIED predicate)."""
    config = CacheConfig(size_bytes=1024, line_bytes=32, associativity=2)
    arr = CacheArray(config)
    la0, la1 = 0, 1
    arr.fill(la0 << 5, state=1)  # SHARED
    arr.fill(la1 << 5, state=2)  # MODIFIED
    lines = np.array([la0, la1, la0], dtype=np.int64)

    reads = np.array([False, False, False])
    assert frozen_hit_prefix(
        arr, lines, reads, states_ok_write=(2,), states_ok_read=(1, 2)
    ) == 3
    # a write to the SHARED line is not a pure hit: prefix stops at it
    writes = np.array([True, False, False])
    assert frozen_hit_prefix(
        arr, lines, writes, states_ok_write=(2,), states_ok_read=(1, 2)
    ) == 0
    writes = np.array([False, True, False])
    assert frozen_hit_prefix(
        arr, lines, writes, states_ok_write=(2,), states_ok_read=(1, 2)
    ) == 3
    # absent line ends the prefix regardless of filters
    lines2 = np.array([la0, 7, la1], dtype=np.int64)
    assert frozen_hit_prefix(
        arr, lines2, reads, states_ok_write=(2,), states_ok_read=(1, 2)
    ) == 1


def test_hierarchy_memo_consistency_after_bulk_apply():
    """After a bulk hit application the hierarchy's scalar path still
    produces correct results (the fast path hands the walk back access
    by access at boundaries)."""
    l1 = CacheConfig(size_bytes=1024, line_bytes=32, associativity=2)
    l2 = CacheConfig(size_bytes=4096, line_bytes=32, associativity=4, hit_latency=4)
    hier = CacheHierarchy(l1, l2)
    base = hier.access(0, False)  # fill line 0
    assert base.level.name == "MEMORY"
    lines = np.zeros(8, dtype=np.int64)
    last = apply_hit_prefix(hier.l1, lines, np.zeros(8, dtype=bool))
    assert last is not None
    res = hier.access(4, False)  # same line, scalar path
    assert res.level.name == "L1"
