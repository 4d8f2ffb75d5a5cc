"""Epoch-batched fast path for the EM²-family machines.

Between the events where threads actually interact — migrations,
evictions, remote-access round trips, DRAM fills, admission stalls —
a thread's accesses are a pure function of its columnar trace slice
and its core's private cache state. :class:`EpochStepper` exploits
that: dispatched from
:meth:`~repro.core.machine.MigrationMachineBase._step` when the fast
path is on, it *absorbs* every pending step event into a local merged
walk when a step fires for a local access, and advances all resident
threads in exact ``(time, seq)`` order without touching the engine
heap, falling back to the event loop at the first boundary. Solo
streaks inside the walk are advanced with the vectorized L1 kernel
(:mod:`repro.arch.cache.batch`). The directory-coherence simulator has
no fast path: ``DirectoryCCSimulator.run`` is its one driver.

Exactness contract (the reason this is a *fast path* and not a new
model): results are bit-identical to the event-driven path. That
holds by construction — the merged walk only runs while every other
pending event (the *hazard horizon*, ``Engine`` queue entries that are
not plain step events) lies strictly in the future, processes virtual
events in the same ``(time, seq)`` order the heap would have, and
re-materializes pending wake-ups in ascending virtual-sequence order
at a boundary, which preserves every same-time tie the unbatched
engine would break by sequence number. Boundaries (non-local
accesses, DRAM fills, finishes with stalled waiters) re-enter the real
event loop at the exact simulated time they would have fired. The
fault plane always disables the fast path, so recovery protocols run
purely event-driven.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.arch.cache.batch import (
    apply_hit_prefix,
    apply_hit_windows,
    frozen_hit_prefix,
    frozen_service_prefix,
)
from repro.sim.engine import Event

_INF = math.inf


class EpochStepper:
    """Merged-walk batch stepper for one :class:`MigrationMachineBase`."""

    #: minimum slack (cycles) below the cap before the numpy bulk path
    #: is attempted; short gaps are cheaper to walk scalar
    BULK_SLACK = 8.0
    #: lookahead bound per bulk classification
    CHUNK = 96
    #: lookahead bound per merged-jump classification (longer: the jump
    #: is capped by the horizon, not a co-resident thread's next wake)
    JCHUNK = 512
    #: adaptive bail-out: if a probe period of 64 windows averages fewer
    #: batched accesses per window than this, the trace is boundary-dense
    #: and the stepper permanently yields to the event-driven path
    MIN_YIELD = 16

    def __init__(self, machine) -> None:
        self.m = machine
        self.eng = machine.engine
        trace = machine.trace
        self.wb = machine.config.word_bytes
        l1 = machine.config.l1
        self._l1_shift = l1.line_bytes.bit_length() - 1
        self.hit_lat = float(l1.hit_latency)
        self.l2_lat = float(l1.hit_latency + machine.config.l2.hit_latency)
        # cross-core window kernel: all per-core hit segments of one
        # merged jump scatter through the machine-wide L1 store in a
        # single call
        self._xstore = machine.l1_store
        # per-thread numpy columns for the vectorized runs (the plain
        # list columns stay on ThreadState for the scalar walk)
        self.lines_np = [
            (tr["addr"].astype(np.int64) * self.wb) >> self._l1_shift
            for tr in trace.threads
        ]
        self.homes_np = [np.asarray(h, dtype=np.int64) for h in machine._homes]
        self.ic_np = [tr["icount"].astype(np.float64) for tr in trace.threads]
        self.writes_np = [tr["write"] != 0 for tr in trace.threads]
        # plain-int line columns for the scalar walk (same-line memo test)
        self.lines_list = [a.tolist() for a in self.lines_np]
        # exact per-thread completion timelines: icounts and latencies
        # are integers, so prefix sums are exact and a window's slice
        # equals freshly accumulated step times bit-for-bit
        self.csum = [
            np.concatenate(([0.0], np.cumsum(ic + self.hit_lat)))
            for ic in self.ic_np
        ]
        # home_end[t][i]: end of the constant-home run containing i —
        # the merged jump never crosses a home change (a boundary)
        self.home_end = []
        for h in self.homes_np:
            n = len(h)
            if n == 0:
                self.home_end.append(np.zeros(0, dtype=np.int64))
                continue
            bounds = np.concatenate(
                (np.flatnonzero(h[1:] != h[:-1]) + 1, [n])
            )
            lens = np.diff(np.concatenate(([0], bounds)))
            self.home_end.append(np.repeat(bounds, lens))
        # memoized hit-prefix classification per thread: (core, snapshot
        # of l1.misses, prefix end index). Pure hits never change L1
        # presence, so a classification stays exact until the core's L1
        # takes a fill — which always bumps the miss counter.
        self._cls = [(-1, -1, 0)] * len(self.ic_np)
        # diagnostics (tests assert boundary detection through these)
        self.windows = 0
        self.batched_accesses = 0
        self.l2_fills_batched = 0
        self.window_max = 0
        self.xwindows = 0
        self.xwindow_cores_max = 0
        self.boundaries = {"nonlocal": 0, "dram": 0, "finish_wait": 0}
        # adaptive bail-out: on boundary-dense traces (a hazard every
        # few accesses) window management costs more than it saves, so
        # the stepper watches its own yield and turns itself off when
        # windows stay small — results are bit-identical either way
        self.disabled = False
        self._probe_mark = 0

    # ------------------------------------------------------------------
    def try_window(self, th) -> bool:
        """Open a merged walk at ``th``'s step if provably safe.

        Returns True when the step (and possibly many more) was fully
        handled; False to fall back to the event-driven slow path.
        """
        if self.disabled:
            return False
        i = th.idx
        if i >= th.size:
            return False
        core = th.core
        if th.homes[i] != core:
            return False  # non-local: the decision logic is a boundary
        m = self.m
        hier = m.caches[core]
        byte = th.addrs[i] * self.wb
        if hier.l1.probe(byte) is None and hier.l2.probe(byte) is None:
            return False  # opening access would fill from DRAM
        eng = self.eng
        now = eng.now
        # one scan of the engine queue: live step events are absorbable,
        # everything else (departures, deliveries, RA chains, timers) is
        # a hazard bounding the window horizon
        step_cb = m._step_cb
        horizon = _INF
        steps = None
        for when, _s, ev in eng._queue:
            if ev.cancelled:
                continue
            if ev.callback is step_cb:
                if steps is None:
                    steps = [(when, _s, ev)]
                else:
                    steps.append((when, _s, ev))
            elif when < horizon:
                horizon = when
        if horizon <= now:
            return False  # a hazard fires this instant: stay event-driven
        self.windows += 1
        if not self.windows & 63:
            recent = self.batched_accesses - self._probe_mark
            self._probe_mark = self.batched_accesses
            if recent < 64 * self.MIN_YIELD:
                self._latch_off()
        th.pending = None
        heap = [(now, -1, th)]
        if steps:
            for when, s, ev in steps:
                # absorb only wake-ups the window can actually reach;
                # steps at or past the horizon stay in the engine heap
                if when < horizon:
                    ev.cancel()
                    t2 = ev.args[0]
                    t2.pending = None
                    heap.append((when, s, t2))
            if len(heap) > 1:
                heapq.heapify(heap)
        return self._walk(heap, horizon)

    def _latch_off(self) -> None:
        """Turn the stepper off for good and leave the step dispatch.

        Once disabled, :meth:`try_window` would return False on every
        call, so every step event is rebound straight to the slow step:
        the machine's step callback (read by every later step
        scheduling, including this window's :meth:`_reify`), every live
        step event in the queue, and every thread's recycled step event.
        Event times and sequence numbers are untouched, so results are
        bit-identical; the window that latched off still runs.
        """
        self.disabled = True
        m = self.m
        dispatch = m._step_cb
        slow = m._step_cb = m._step_slow
        for _w, _s, ev in self.eng._queue:
            if ev.callback is dispatch:
                ev.callback = slow
        for t in m.threads:
            if t._ev is not None:
                t._ev.callback = slow

    # ------------------------------------------------------------------
    def _note(self, batched: int) -> None:
        """Window-close bookkeeping: total and longest window."""
        self.batched_accesses += batched
        if batched > self.window_max:
            self.window_max = batched

    # ------------------------------------------------------------------
    def _walk(self, heap, horizon) -> bool:
        m = self.m
        pop, push = heapq.heappop, heapq.heappush
        vctr = self.eng._seq  # virtual seq: above every absorbed real seq
        hist = m._hist_run
        c_local = m._c_local
        caches = m.caches
        lines_list = self.lines_list
        hit_lat = self.hit_lat
        bulk_slack = self.BULK_SLACK
        parked = []  # wake-ups at/past the horizon: reified, never walked
        # merged pure-hit jump first: advances every thread through its
        # provably-hit prefix in a few vectorized steps, so the scalar
        # turn loop below only handles the boundary-adjacent residue
        heap, vctr, batched = self._joint(heap, parked, horizon, vctr,
                                          hist, c_local)
        heapq.heapify(heap)
        while heap:
            entry = pop(heap)
            u, _sq, t2 = entry
            top = heap[0][0] if heap else _INF
            cap = top if top < horizon else horizon
            i = t2.idx
            size = t2.size
            core = t2.core
            homes = t2.homes
            writes = t2.writes
            ics = t2.icounts
            lines = lines_list[t2.tid]
            hier = caches[core]
            l1 = hier.l1
            while True:
                if i >= size:
                    t2.idx = i
                    if m._waiting[core]:
                        # a stalled arrival is waiting on this context:
                        # admission ordering must run event-driven
                        self.boundaries["finish_wait"] += 1
                        self._note(batched)
                        self._close(heap, parked, t2, u)
                        return True
                    t2.done = True
                    t2.finish_time = u
                    m._flush_run(t2)
                    m.contexts[core].release(t2.tid)
                    break
                if homes[i] != core:
                    t2.idx = i
                    self.boundaries["nonlocal"] += 1
                    self._note(batched)
                    self._close(heap, parked, t2, u)
                    return True
                # inlined hierarchy same-line memo (the dominant case in
                # run-structured traces); everything else goes through
                # access_no_mem, whose None return is the DRAM boundary
                if lines[i] == hier._last_la:
                    l1.hits += 1
                    if writes[i]:
                        l1.dirty[hier._last_slot] = True
                    lat = hit_lat
                else:
                    res = hier.access_no_mem(t2.addrs[i] * self.wb, writes[i])
                    if res is None:
                        t2.idx = i
                        self.boundaries["dram"] += 1
                        self._note(batched)
                        self._close(heap, parked, t2, u)
                        return True
                    lat = res.latency
                # bookkeeping identical to the slow step's local branch
                if i != t2.last_recorded_idx:
                    t2.last_recorded_idx = i
                    if core == t2.run_home:
                        t2.run_len += 1
                    else:
                        if t2.run_home >= 0 and t2.run_home != t2.native:
                            hist.add(t2.run_len, weight=t2.run_len)
                        t2.run_home = core
                        t2.run_len = 1
                    c_local.n += 1
                w = u + ics[i] + lat
                i += 1
                batched += 1
                if i < size and cap - w > bulk_slack and homes[i] == core:
                    k, w = self._bulk(t2, i, core, hier, w, cap, hist, c_local)
                    i += k
                    batched += k
                if w >= cap:
                    t2.idx = i
                    if w >= horizon:
                        parked.append((w, vctr, t2))
                    else:
                        push(heap, (w, vctr, t2))
                    vctr += 1
                    break
                u = w
        # horizon (or quiescence) close: re-materialize pending wake-ups
        self._note(batched)
        self._reify(parked)
        return True

    # ------------------------------------------------------------------
    def _bulk(self, t2, i, core, hier, w, cap, hist, c_local):
        """Vectorized pure-L1-hit streak from index ``i``, first access
        executing at ``w``. Returns (count consumed, last completion)."""
        t = t2.tid
        homes_np = self.homes_np[t]
        stop = min(i + self.CHUNK, t2.size)
        seg_home = homes_np[i:stop]
        nonlocal_mask = seg_home != core
        if nonlocal_mask.any():
            nh = int(np.argmax(nonlocal_mask))
        else:
            nh = stop - i
        if nh == 0:
            return 0, w
        lines = self.lines_np[t][i : i + nh]
        run = frozen_hit_prefix(hier.l1, lines)
        fills: list[int] = []
        if run < nh:
            # the hit streak ends inside the chunk: try to extend it
            # across deterministic L2 hits (clean-victim fills only)
            srun, sfills = frozen_service_prefix(
                hier, lines, self.writes_np[t][i : i + nh]
            )
            if srun > run:
                run, fills = srun, sfills
        if run == 0:
            return 0, w
        if fills:
            lat = np.full(run, self.hit_lat)
            lat[fills] = self.l2_lat
            comp = w + np.cumsum(self.ic_np[t][i : i + run] + lat)
        else:
            comp = w + np.cumsum(self.ic_np[t][i : i + run] + self.hit_lat)
        if run > 1:
            k = 1 + int(np.searchsorted(comp[:-1], cap, side="left"))
            if k > run:
                k = run
        else:
            k = 1
        writes = self.writes_np[t][i : i + k]
        if fills:
            # replay: bulk-apply each hit segment, route each L2 fill
            # through access_no_mem so counters, victim choice, dirty
            # transfer, and the same-line memo are bit-exact
            seg = 0
            last = None
            for f in fills:
                if f >= k:
                    break
                if f > seg:
                    apply_hit_prefix(hier.l1, lines[seg:f], writes[seg:f])
                res = hier.access_no_mem(t2.addrs[i + f] * self.wb, bool(writes[f]))
                assert res is not None  # classified fills are L2-resident
                self.l2_fills_batched += 1
                seg = f + 1
            if seg < k:
                last = apply_hit_prefix(hier.l1, lines[seg:k], writes[seg:k])
            if last is not None:
                hier._last_la = int(lines[k - 1])
                hier._last_slot = last
            # else the prefix ends on the fill itself, whose
            # access_no_mem already reset the memo exactly as the
            # scalar walk would have left it
        else:
            last = apply_hit_prefix(hier.l1, lines[:k], writes)
            hier._last_la = int(lines[k - 1])
            hier._last_slot = last
        c_local.n += k
        if core == t2.run_home:
            t2.run_len += k
        else:
            if t2.run_home >= 0 and t2.run_home != t2.native:
                hist.add(t2.run_len, weight=t2.run_len)
            t2.run_home = core
            t2.run_len = k
        t2.last_recorded_idx = i + k - 1
        return k, float(comp[k - 1])

    # ------------------------------------------------------------------
    def _joint(self, entries, parked, horizon, vctr, hist, c_local):
        """Merged pure-hit jump over every absorbed thread, per core.

        Within a window, L1 hits by threads on the same core commute:
        presence is unchanged, counters and dirty bits accumulate, and
        the only order-sensitive state — LRU recency and the same-line
        memo — depends solely on the *time order* of the accesses, which
        is known in advance for a pure-hit stretch (each access starts
        at the previous one's completion). So instead of ping-ponging
        through the heap one access per turn, this classifies each
        thread's frozen hit prefix, computes its completion timeline,
        merges all consumed accesses of a core in start-time order, and
        applies them in one vectorized step. Threads on different cores
        never interact below the hazard horizon, so cores batch
        independently.

        The jump is capped at ``S``: the earliest instant any thread on
        the core executes a non-hit (miss, non-local home, exhausted
        trace, or the classification chunk end) — that access may change
        presence for everyone, so later hits are left to the next pass
        or the scalar walk. Exact same-time ties across threads are the
        one thing a merge sort cannot break the way the engine's
        sequence numbers would, so any batch is truncated just before
        the first cross-thread tie (of access starts, or of hand-off
        wake-ups) and the scalar walk replays the tie with real
        sequence mechanics. Returns (remaining entries, vctr, consumed).
        """
        m = self.m
        caches = m.caches
        lines_np = self.lines_np
        writes_np = self.writes_np
        csum = self.csum
        home_end = self.home_end
        cls_memo = self._cls
        chunk = self.JCHUNK
        by_core = {}
        for e in entries:
            by_core.setdefault(e[2].core, []).append(e)
        out = []
        consumed_total = 0
        # cross-core deferral: every core's merged hit segments collect
        # into one jobs list and scatter through the shared L1 store in
        # a single kernel call after the per-core loops finish. Safe
        # because classification reads only presence (_index) and the
        # miss counter, never recency — so a pending recency apply
        # cannot change any later classification, and per-core segment
        # order (iteration order, start-time order within an iteration)
        # is exactly the order the immediate applies would have used.
        jobs = []
        job_hiers = []
        for core, group in by_core.items():
            hier = caches[core]
            l1 = hier.l1
            core_lines = []
            core_writes = []
            while True:
                # per thread: timeline arr of len run+1 over the frozen
                # hit prefix — arr[j] is the start of access i+j (arr[0]
                # is the wake), arr[run] the prefix's last completion,
                # which is also when the first non-hit would execute
                S = horizon
                infos = []
                for wake, _sq, t2 in group:
                    i = t2.idx
                    if i >= t2.size or t2.homes[i] != core:
                        # finish pops and non-local decisions are
                        # non-hits executing at the wake itself
                        S = wake if wake < S else S
                        infos.append(None)
                        continue
                    t = t2.tid
                    c0, snap, end = cls_memo[t]
                    if c0 != core or snap != l1.misses or i >= end:
                        stop = int(home_end[t][i])
                        if stop > i + chunk:
                            stop = i + chunk
                        run = frozen_hit_prefix(l1, lines_np[t][i:stop])
                        end = i + run
                        cls_memo[t] = (core, l1.misses, end)
                        if run == 0:
                            S = wake if wake < S else S
                            infos.append(None)
                            continue
                    cs = csum[t]
                    arr = (wake - cs[i]) + cs[i : end + 1]
                    last = float(arr[-1])
                    S = last if last < S else S
                    infos.append(arr)
                # per-thread consumption: accesses starting before S
                # (S <= arr[-1] for every classified thread, so the
                # searchsorted result never exceeds the prefix length)
                ks = []
                any_k = False
                for j in range(len(group)):
                    arr = infos[j]
                    if arr is None:
                        ks.append(0)
                        continue
                    k = int(np.searchsorted(arr, S, side="left"))
                    ks.append(k)
                    if k:
                        any_k = True
                if not any_k:
                    break
                # truncate at the first cross-thread start-time tie
                if len(group) > 1:
                    segs = [infos[j][: ks[j]] for j in range(len(group)) if ks[j]]
                    if len(segs) > 1:
                        allst = np.sort(np.concatenate(segs))
                        dup = allst[1:][allst[1:] == allst[:-1]]
                        if dup.size:
                            tstar = float(dup[0])
                            for j in range(len(group)):
                                if ks[j]:
                                    ks[j] = int(np.searchsorted(
                                        infos[j][: ks[j]], tstar, side="left"
                                    ))
                            if not any(ks):
                                break
                # resolve hand-off wake ties: shrink one tied batch by an
                # access so its wake moves earlier and the scalar walk
                # replays the tie with real sequence numbers
                while True:
                    wakes = [
                        float(infos[j][ks[j]]) if ks[j] else group[j][0]
                        for j in range(len(group))
                    ]
                    order = sorted(range(len(group)), key=wakes.__getitem__)
                    clash = -1
                    for a, b in zip(order, order[1:]):
                        if wakes[a] == wakes[b]:
                            clash = b if ks[b] else (a if ks[a] else -1)
                            if clash >= 0:
                                break
                    if clash < 0:
                        break
                    ks[clash] -= 1
                    if not any(ks):
                        break
                if not any(ks):
                    break
                # merged recency/memo application in start-time order
                cat_starts = []
                cat_lines = []
                cat_writes = []
                for j, (wake, _sq, t2) in enumerate(group):
                    k = ks[j]
                    if not k:
                        continue
                    i = t2.idx
                    t = t2.tid
                    cat_starts.append(infos[j][:k])
                    cat_lines.append(lines_np[t][i : i + k])
                    cat_writes.append(writes_np[t][i : i + k])
                if len(cat_starts) == 1:
                    cat_lines = cat_lines[0]
                    cat_writes = cat_writes[0]
                else:
                    o = np.argsort(np.concatenate(cat_starts))
                    cat_lines = np.concatenate(cat_lines)[o]
                    cat_writes = np.concatenate(cat_writes)[o]
                core_lines.append(cat_lines)
                core_writes.append(cat_writes)
                consumed_total += len(cat_lines)
                # per-thread bookkeeping, identical to the scalar walk's
                new_group = []
                for j, (wake, _sq, t2) in enumerate(group):
                    k = ks[j]
                    if not k:
                        new_group.append((wake, _sq, t2))
                        continue
                    i = t2.idx
                    rec = k - 1 if i == t2.last_recorded_idx else k
                    if rec:
                        c_local.n += rec
                        if core == t2.run_home:
                            t2.run_len += rec
                        else:
                            if t2.run_home >= 0 and t2.run_home != t2.native:
                                hist.add(t2.run_len, weight=t2.run_len)
                            t2.run_home = core
                            t2.run_len = rec
                    t2.last_recorded_idx = i + k - 1
                    t2.idx = i + k
                    new_group.append((float(infos[j][k]), vctr, t2))
                    vctr += 1
                group = new_group
            if core_lines:
                if len(core_lines) == 1:
                    jl, jw = core_lines[0], core_writes[0]
                else:
                    jl = np.concatenate(core_lines)
                    jw = np.concatenate(core_writes)
                jobs.append((l1, jl, jw))
                job_hiers.append(hier)
            for e in group:
                if e[0] >= horizon:
                    parked.append(e)
                else:
                    out.append(e)
        if jobs:
            lasts = apply_hit_windows(self._xstore, jobs)
            for hier, (_a, lines, _w), last_slot in zip(job_hiers, jobs, lasts):
                hier._last_la = int(lines[-1])
                hier._last_slot = last_slot
            self.xwindows += 1
            if len(jobs) > self.xwindow_cores_max:
                self.xwindow_cores_max = len(jobs)
        return out, vctr, consumed_total

    # ------------------------------------------------------------------
    def _reify(self, heap) -> None:
        """Turn parked virtual wake-ups back into real events, in
        ascending (virtual) sequence order so every same-time tie is
        broken exactly as the unbatched engine would have. Events are
        pushed at their absolute times directly (``Engine.schedule``
        would round-trip through a delay, which is only bit-exact for
        integer-valued times)."""
        if not heap:
            return
        m, eng = self.m, self.eng
        heap.sort(key=lambda e: e[1])
        queue = eng._queue
        cb = m._step_cb
        seq = eng._seq
        for w, _s, t3 in heap:
            ev = Event(w, seq, cb, (t3,))
            heapq.heappush(queue, (w, seq, ev))
            seq += 1
            t3.pending = ev
            t3._ev = ev
        eng._seq = seq

    def _close(self, heap, parked, t2, u) -> None:
        """Boundary: advance the clock to the boundary's exact time,
        re-materialize everyone else, and re-enter the event-driven
        step for the boundary access."""
        self.eng.now = u
        self._reify(heap + parked)
        self.m._step_slow(t2)

