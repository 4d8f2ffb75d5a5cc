"""Property tests for the cross-core window kernel and the CC driver.

Two exactness obligations:

* :func:`repro.arch.cache.batch.apply_hit_windows` — one fancy-indexed
  scatter over the pooled :class:`TileCacheStore` stamp matrix must
  leave *every* participating array in exactly the state sequential
  :func:`apply_hit_prefix` calls would: hit counters, dirty bits,
  per-array clocks, full stamp columns, and the returned memo slots.
* ``DirectoryCCSimulator.run`` serves hits inline from the thread's
  pinned cache array and sends everything else through ``access()``.
  On randomized traces that mix Shared-state read sharing, upgrades
  and dirty-eviction hazards, it must equal a record-at-a-time loop
  that calls ``access()`` for every access, for MSI and MESI.

Hypothesis drives the randomization; every counterexample shrinks to a
minimal access column, which is the debugging story the per-core batch
tests (seeded numpy) can't give.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.cache.batch import apply_hit_prefix, apply_hit_windows
from repro.arch.cache.sram import CacheArray, TileCacheStore
from repro.arch.config import CacheConfig, small_test_config

LINE_BYTES = 32
CFG = CacheConfig(size_bytes=4 * 2 * LINE_BYTES, line_bytes=LINE_BYTES,
                  associativity=2)  # 4 sets x 2 ways: evictions are easy


# ------------------------------------------------------------------ kernel
@st.composite
def window_jobs(draw):
    """Per-core (prefill, hit-index-sequence, writes) for 1..4 cores.

    The hit sequence is drawn as *indices* into whatever lines survive
    the prefill (conflicting prefills evict each other), so the pure-
    hit precondition both kernels require — upheld by the classifier in
    production — holds by construction.
    """
    num_cores = draw(st.integers(1, 4))
    cores = []
    for _ in range(num_cores):
        prefill = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6,
                                unique=True))
        seq = draw(st.lists(st.integers(0, 29), min_size=0, max_size=20))
        writes = draw(st.lists(st.booleans(), min_size=len(seq),
                               max_size=len(seq)))
        cores.append((prefill, seq, writes))
    return cores


def _prefilled(num_cores, cores):
    """Build the pooled store, prefill each core, and resolve every
    core's hit-index sequence against its surviving resident lines."""
    store = TileCacheStore(num_cores, CFG)
    arrs = [CacheArray(CFG, store=store, core=c) for c in range(num_cores)]
    seqs = []
    for arr, (prefill, seq, _w) in zip(arrs, cores):
        for la in prefill:
            arr.fill(la << arr._line_shift)
        resident = sorted(la >> arr._line_shift
                          for la in arr.resident_addrs())
        seqs.append([resident[i % len(resident)] for i in seq])
    return store, arrs, seqs


@settings(max_examples=60, deadline=None)
@given(window_jobs())
def test_apply_hit_windows_equals_sequential_prefix(cores):
    num_cores = len(cores)
    store_f, arrs_f, seqs = _prefilled(num_cores, cores)
    store_r, arrs_r, _ = _prefilled(num_cores, cores)

    jobs, ref_jobs = [], []
    for c, (_prefill, _seq, writes) in enumerate(cores):
        if not seqs[c]:
            continue  # jobs carry only cores with a non-empty hit run
        lines = np.asarray(seqs[c], dtype=np.int64)
        wcol = np.asarray(writes, dtype=bool)
        jobs.append((arrs_f[c], lines, wcol))
        ref_jobs.append((arrs_r[c], lines, wcol))
    if not jobs:
        return

    lasts = apply_hit_windows(store_f, jobs)
    ref_lasts = [apply_hit_prefix(a, lines, w) for a, lines, w in ref_jobs]

    assert lasts == ref_lasts
    assert np.array_equal(store_f.stamps, store_r.stamps)
    assert np.array_equal(store_f.dirty, store_r.dirty)
    assert np.array_equal(store_f.tags, store_r.tags)
    for af, ar in zip(arrs_f, arrs_r):
        assert af.hits == ar.hits and af._clock == ar._clock


@settings(max_examples=30, deadline=None)
@given(window_jobs())
def test_apply_hit_windows_split_invariance(cores):
    """Splitting one window into two (a window-split boundary) leaves
    every array in an LRU-equivalent state to applying it whole: same
    hit counters, dirty bits, residency, and per-set last-touch
    *ranking*. Raw stamp values legitimately differ — dedup happens per
    window, so a line touched twice costs one clock tick in a whole
    window and two across a split — but the ranking is all replacement
    ever reads (the accepted cross-call contract of apply_hit_prefix)."""
    num_cores = len(cores)
    store_w, arrs_w, seqs = _prefilled(num_cores, cores)
    store_s, arrs_s, _ = _prefilled(num_cores, cores)

    whole, first, second = [], [], []
    for c, (_prefill, _seq, writes) in enumerate(cores):
        seq = seqs[c]
        if not seq:
            continue
        lines = np.asarray(seq, dtype=np.int64)
        wcol = np.asarray(writes, dtype=bool)
        whole.append((arrs_w[c], lines, wcol))
        cut = len(seq) // 2
        if cut:
            first.append((arrs_s[c], lines[:cut], wcol[:cut]))
        if cut < len(seq):
            second.append((arrs_s[c], lines[cut:], wcol[cut:]))
    if not whole:
        return

    apply_hit_windows(store_w, whole)
    for jobs in (first, second):
        if jobs:
            apply_hit_windows(store_s, jobs)

    assert np.array_equal(store_w.dirty, store_s.dirty)
    assert np.array_equal(store_w.tags, store_s.tags)
    for aw, as_ in zip(arrs_w, arrs_s):
        assert aw.hits == as_.hits
        for si in range(aw.num_sets):
            base = si * aw.ways
            valid = [s for s in range(base, base + aw.ways)
                     if int(aw.tags[s]) != -1]
            w_order = sorted(valid, key=lambda s: int(aw.stamps[s]))
            s_order = sorted(valid, key=lambda s: int(as_.stamps[s]))
            assert w_order == s_order


# ------------------------------------------------------------------ cc driver
@st.composite
def cc_trace(draw):
    """Word-address/write columns for 2..4 threads over a line pool
    sized past the private cache (:data:`CFG`, 8 lines): read-shared
    lines (several threads touching the same low lines) plus enough
    distinct lines to force conflict misses and dirty evictions."""
    num_threads = draw(st.integers(2, 4))
    threads = []
    for _ in range(num_threads):
        n = draw(st.integers(4, 48))
        lines = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        threads.append((lines, writes))
    return threads


def _cc_sim(threads, protocol):
    from dataclasses import replace

    from repro.coherence.simulator import DirectoryCCSimulator
    from repro.registry import PLACEMENTS
    from repro.trace.events import MultiTrace, make_trace

    # the coherence-visible cache is the L2: shrink it to CFG so victims
    # (LRU choice, writebacks, sharer and exclusive drops) are common
    config = replace(small_test_config(num_cores=4), l2=CFG)
    words_per_line = config.l2.line_bytes // config.word_bytes
    cols = []
    for lines, writes in threads:
        addrs = np.asarray(lines, dtype=np.uint64) * words_per_line
        wcol = np.asarray(writes, dtype=np.uint8)
        cols.append(make_trace(addrs, writes=wcol,
                               icounts=np.ones(len(addrs))))
    trace = MultiTrace(threads=cols, name="prop-cc")
    placement = PLACEMENTS.get("striped")(trace, config.num_cores)
    return DirectoryCCSimulator(trace, placement, config, protocol=protocol)


def _access_loop(sim) -> dict:
    """Reference driver: every access through ``sim.access`` (homes
    looked up by the simulator), in the driver's round-robin order."""
    trace = sim.trace
    native = [c % sim.config.num_cores for c in trace.thread_native_core]
    times = [0.0] * trace.num_threads
    for k in range(max(tr.size for tr in trace.threads)):
        for t, tr in enumerate(trace.threads):
            if k < tr.size:
                lat = sim.access(native[t], int(tr["addr"][k]),
                                 bool(tr["write"][k]))
                times[t] += float(tr["icount"][k]) + lat
    return {
        "completion_time": max(times),
        "per_thread_time": times,
        "traffic_bits": sim.traffic_bits,
        "stats": sim.stats.as_dict(),
        "directory_overhead_bits": sim.directory_overhead_bits(),
    }


@settings(max_examples=40, deadline=None)
@given(cc_trace())
def test_cc_driver_matches_access_loop_on_random_traces(threads):
    from repro.coherence.simulator import cc_results
    from repro.verify import audit_directory

    for protocol in ("msi", "mesi"):
        sim = _cc_sim(threads, protocol)
        assert cc_results(sim) == _access_loop(_cc_sim(threads, protocol))
        audit_directory(sim)
