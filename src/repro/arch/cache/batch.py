"""Vectorized block application of accesses to one set-associative level.

Two pieces back the epoch-batched fast path (:mod:`repro.core.epoch`):

* :func:`frozen_hit_prefix` — classify how many upcoming accesses are
  *pure* hits against a live ``CacheArray``'s current (frozen) state.
  Pure hits mutate only recency and counters, never presence or
  protocol state, so a frozen-state classification of a hit prefix is
  exact: the first access that would miss (or needs a state change)
  ends the prefix and is handled by the event-driven slow path.
* :func:`apply_hit_prefix` — bulk-apply such a prefix to the live
  array: counters and final recency order (last-touch order of the
  distinct lines) identical to touching line by line.

The columnar :class:`CacheArray` keeps stamps instead of an explicit
LRU list: the victim is the valid way with the smallest last-touch
stamp, which is the same line an LRU order list fronts (stamps are
drawn from one monotone counter, so ties cannot occur).
"""

from __future__ import annotations

import numpy as np

from repro.arch.cache.sram import CacheArray, TileCacheStore


def frozen_hit_prefix(
    arr: CacheArray,
    lines: np.ndarray,
    writes: np.ndarray | None = None,
    states_ok_write: tuple[int, ...] | None = None,
    states_ok_read: tuple[int, ...] | None = None,
) -> int:
    """Length of the pure-hit prefix of ``lines`` against ``arr`` now.

    ``lines`` are line addresses (byte address >> line shift). With no
    state filters, a hit is simple presence (the migration machines'
    L1). With filters, the resident line's protocol ``state`` must be
    in the allowed tuple for the access type (the CC driver's hit
    predicate). The block is compressed to same-line runs and each run
    is probed once against the frozen slot index, in order.
    """
    n = len(lines)
    if n == 0:
        return 0
    # trace blocks are run-structured (consecutive words of one line),
    # so compress to same-line runs and probe each run once, in order —
    # cheaper than a sort-based unique and short-circuits at the miss
    starts = np.concatenate(
        ([0], np.flatnonzero(lines[1:] != lines[:-1]) + 1)
    )
    run_lines = lines[starts].tolist()
    index = arr._index
    if states_ok_write is None:
        for pos, la in zip(starts.tolist(), run_lines):
            if index.get(la) is None:
                return pos
        return n
    states = arr.state
    writes = np.asarray(writes, dtype=bool)
    bounds = starts.tolist() + [n]
    for j, la in enumerate(run_lines):
        slot = index.get(la)
        if slot is None:
            return bounds[j]
        st = states[slot]
        ok_w = st in states_ok_write
        ok_r = st in states_ok_read
        if ok_w and ok_r:
            continue
        if not (ok_w or ok_r):
            return bounds[j]
        # state allows only one access type: the prefix ends at the
        # run's first access of the disallowed type, if any
        seg = writes[bounds[j] : bounds[j + 1]]
        bad = np.flatnonzero(seg if ok_r else ~seg)
        if bad.size:
            return bounds[j] + int(bad[0])
    return n


def frozen_service_prefix(hier, lines: np.ndarray, writes: np.ndarray):
    """Length of the pure-service prefix of ``lines`` against ``hier``
    (a :class:`~repro.arch.cache.hierarchy.CacheHierarchy`), plus the
    positions that fill from L2.

    Extends :func:`frozen_hit_prefix` across deterministic L2 hits: an
    L1 miss is still *pure* when the line is L2-resident and the L1
    slot it fills is free or holds a clean LRU victim — then
    ``access_no_mem`` drops the victim instead of spilling it, so L2
    presence stays frozen for the rest of the prefix and the whole
    classification remains exact against today's state. The first
    access that would fill from DRAM or evict a dirty L1 line ends the
    prefix.

    Presence, dirtiness, and recency are evolved in a lazy tag-level
    model per touched set, seeded from the live columns; L2 is only
    ever probed, never modeled, because the prefix cannot change it.
    Returns ``(n, fills)`` with ``fills`` the access indices (run
    starts) that fill from L2 — every other access in the prefix is an
    L1 hit.
    """
    n = len(lines)
    if n == 0:
        return 0, []
    l1 = hier.l1
    l2 = hier.l2
    num_sets = l1.num_sets
    ways = l1.ways
    l1_tags, l1_dirty, l1_stamps = l1.tags, l1.dirty, l1.stamps
    l2_index, l2_dirty = l2._index, l2.dirty
    starts = np.concatenate(
        ([0], np.flatnonzero(lines[1:] != lines[:-1]) + 1)
    )
    run_lines = lines[starts].tolist()
    # a line written anywhere in its run ends the run dirty, exactly as
    # the scalar walk's fill + memoized hit-writes would leave it
    wflags = np.maximum.reduceat(np.asarray(writes, dtype=bool), starts).tolist()
    bounds = starts.tolist() + [n]
    fills: list[int] = []
    # si -> [tag -> dirty, LRU order (front = victim), free ways]
    models: dict[int, list] = {}
    for j, la in enumerate(run_lines):
        si = la % num_sets
        tag = la // num_sets
        model = models.get(si)
        if model is None:
            # seed from the valid slots of the set, in ascending-stamp
            # order — exactly the LRU order list filtered to valid ways
            # (invalidated ways linger only as -1 tags, and a refill
            # touches, so a valid way's stamp is its order position)
            base = si * ways
            pres = {}
            valid = []
            for s in range(base, base + ways):
                t = int(l1_tags[s])
                if t != -1:
                    pres[t] = bool(l1_dirty[s])
                    valid.append(s)
            valid.sort(key=l1_stamps.__getitem__)
            order = [int(l1_tags[s]) for s in valid]
            model = models[si] = [pres, order, ways - len(pres)]
        pres, order, free = model
        if tag in pres:
            if order[-1] != tag:  # a touch makes the tag MRU
                order.remove(tag)
                order.append(tag)
            if wflags[j]:
                pres[tag] = True
            continue
        w2 = l2_index.get(la)
        if w2 is None:
            return bounds[j], fills  # DRAM fill: hard boundary
        if free:
            model[2] = free - 1
        else:
            victim = order[0]
            if pres[victim]:
                return bounds[j], fills  # dirty victim would spill to L2
            del order[0]
            del pres[victim]
        # the live fill's dirty bit is (L2 copy dirty) or (first write),
        # then hit-writes in the rest of the run accumulate — the net is
        # the run's write flag. The L2 dirty bit read here is the
        # pre-prefix value, which is exact: a line filled twice within
        # one prefix had a clean first copy (else its eviction would
        # have ended the prefix), so the bit was already False.
        pres[tag] = bool(l2_dirty[w2]) or wflags[j]
        order.append(tag)
        fills.append(bounds[j])
    return n, fills


def apply_hit_prefix(arr: CacheArray, lines: np.ndarray, writes: np.ndarray | None = None):
    """Bulk-apply ``len(lines)`` pure hits to ``arr``.

    Equivalent to ``arr.lookup(line << shift)`` per access: the hit
    counter advances by the block size and the final recency order is
    the last-touch order of the distinct lines (touching a line twice
    leaves only the later touch visible to LRU). With ``writes``, a
    line written anywhere in the block is marked dirty (hit-write
    semantics of the migration machines' L1). Returns the slot of the
    final access, for the caller's same-line memo.
    """
    n = len(lines)
    if n == 0:
        return None
    arr.hits += n
    # compress to same-line runs; the distinct last-touch order is then
    # the last-occurrence order over the short run sequence, which an
    # insertion-ordered dict with re-insertion produces directly
    starts = np.concatenate(
        ([0], np.flatnonzero(lines[1:] != lines[:-1]) + 1)
    )
    run_lines = lines[starts].tolist()
    ordered = {}
    if writes is None:
        for la in run_lines:
            ordered[la] = ordered.pop(la, False)
    else:
        flags = np.maximum.reduceat(np.asarray(writes, dtype=bool), starts)
        for la, f in zip(run_lines, flags.tolist()):
            ordered[la] = ordered.pop(la, False) or f
    index = arr._index
    stamps = arr.stamps
    dirty = arr.dirty
    clock = arr._clock
    last = None
    for la, f in ordered.items():
        slot = index[la]
        clock += 1
        stamps[slot] = clock
        last = slot
        if f:
            dirty[slot] = True
    arr._clock = clock
    return last


def apply_hit_windows(store: TileCacheStore, jobs: list) -> list:
    """Bulk-apply one cross-core window of pure hits in one kernel call.

    ``jobs`` is a non-empty list of ``(arr, lines, writes)`` triples —
    one per participating core, each the concatenated pure-hit run of
    that core's threads inside the window, in the core's exact access
    order (``lines`` non-empty; ``writes`` is a bool column or None
    for read-semantics hits). Per-array effects are identical to
    calling :func:`apply_hit_prefix` job by job — hit counters, dirty
    bits, final recency order, and per-array clocks all match bit for
    bit — but the recency-stamp stores of *every* core are gathered
    into one fancy-indexed scatter over the pooled
    :class:`~repro.arch.cache.sram.TileCacheStore` stamp matrix: one
    kernel invocation per window instead of one numpy scalar store per
    distinct line per core. Requires store-backed arrays. Returns the
    slot of each job's final access, for per-core same-line memos.
    """
    # the store matrices are C-contiguous, so the flattened stamps are
    # a writable view and arr._flat_base + slot addresses core rows
    flat_stamps = store.stamps.reshape(-1)
    idx_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    lasts: list[int] = []
    for arr, lines, writes in jobs:
        n = len(lines)
        arr.hits += n
        starts = np.concatenate(
            ([0], np.flatnonzero(lines[1:] != lines[:-1]) + 1)
        )
        run_lines = lines[starts].tolist()
        ordered = {}
        if writes is None:
            for la in run_lines:
                ordered[la] = ordered.pop(la, False)
        else:
            flags = np.maximum.reduceat(np.asarray(writes, dtype=bool), starts)
            for la, f in zip(run_lines, flags.tolist()):
                ordered[la] = ordered.pop(la, False) or f
        index = arr._index
        dirty = arr.dirty
        slots: list[int] = []
        append = slots.append
        last = None
        for la, f in ordered.items():
            slot = index[la]
            append(slot)
            if f:
                dirty[slot] = True
            last = slot
        k = len(slots)
        clock = arr._clock
        idx_parts.append(arr._flat_base + np.asarray(slots, dtype=np.int64))
        val_parts.append(np.arange(clock + 1, clock + k + 1, dtype=np.int64))
        arr._clock = clock + k
        lasts.append(last)
    if len(idx_parts) == 1:
        flat_stamps[idx_parts[0]] = val_parts[0]
    else:
        flat_stamps[np.concatenate(idx_parts)] = np.concatenate(val_parts)
    return lasts
