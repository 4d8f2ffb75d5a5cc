"""Behavioral discrete-event machine shared by the EM² family.

This is the detailed counterpart to :mod:`repro.core.evaluation`: all
threads run concurrently on the DES engine, guest contexts are finite
(migrations evict, Figure 1's "# threads exceeded?" branch), transport
goes through the virtual-channel NoC (optionally with contention), and
memory accesses hit real L1/L2 arrays with DRAM fills.

Threads are trace-driven state machines: between events a thread is
either *resident* at a core (occupying a context, with one pending
wake-up event) or *in transit* inside a migration/eviction message.
Evictions cancel the victim's pending wake-up and reschedule it at its
native core after transport — exactly the paper's eviction-to-native
protocol, which is what makes migration deadlock-free [10].

Subclasses implement :meth:`_handle_nonlocal` — the one point where
EM² (always migrate), EM²-RA (decision scheme), and RA-only (never
migrate) differ; everything else (contexts, caches, transport,
statistics) is shared, so architecture comparisons vary exactly one
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush

import numpy as np

from repro.arch.cache.hierarchy import CacheHierarchy, ServiceLevel
from repro.arch.cache.sram import TileCacheStore
from repro.arch.config import SystemConfig
from repro.arch.core_model import ContextFile, build_context_files
from repro.arch.memory.dram import MemorySystem
from repro.arch.noc import Message, Network, VirtualNetwork
from repro.arch.noc.deadlock import VCPlan, check_vc_plan
from repro.arch.topology import Topology, topology_for
from repro.placement.base import Placement
from repro.sim.engine import Engine, Event
from repro.sim.stats import StatSet
from repro.trace.events import MultiTrace
from repro.util.errors import ProtocolError, RetryExhaustedError


@dataclass
class ThreadState:
    tid: int
    native: int
    core: int
    idx: int = 0  # next access index
    done: bool = False
    in_transit: bool = False
    pending: Event | None = None
    finish_time: float = float("nan")
    # run-length tracking (Figure 2, measured online)
    run_home: int = -1
    run_len: int = 0
    last_recorded_idx: int = -1  # guards re-executed accesses after migration
    # this thread's columns from the machine's columnar decode, bound
    # once at construction — the step loop indexes them without going
    # through the machine's per-thread list-of-lists
    addrs: list | None = None
    writes: list | None = None
    icounts: list | None = None
    homes: list | None = None
    size: int = 0
    # recycled step event (see _step): the previous step event is out
    # of the heap once it fires, so the local fast path rewrites it in
    # place instead of allocating a new Event per access. A cancelled
    # event may still sit in the heap (lazy deletion) and is abandoned.
    _ev: Event | None = None
    # recycled transport containers (fault-free runs only): a thread's
    # previous departure event always fired, and its previous
    # migration/eviction message was always delivered, before the next
    # one is needed (departure precedes delivery precedes admission
    # precedes the step that migrates again), so all three are rewritten
    # in place instead of allocated per migration. The fault plane keeps
    # fresh messages — dup-delivery closures hold them past delivery.
    _dep_ev: Event | None = None
    _mig_msg: Message | None = None
    _evt_msg: Message | None = None


class MigrationMachineBase:
    """Common driver; see subclasses for the per-access protocol."""

    vc_plan: VCPlan | None = None

    def __init__(
        self,
        trace: MultiTrace,
        placement: Placement,
        config: SystemConfig,
        topology: Topology | None = None,
        cache_detail: bool = True,
        faults=None,
        fast_path: bool = True,
    ) -> None:
        self.trace = trace
        self.placement = placement
        self.config = config
        self.topology = topology if topology is not None else topology_for(config)
        self.engine = Engine()
        self.faults = faults
        self.network = Network(self.engine, self.topology, config.noc, injector=faults)
        if self.vc_plan is not None:
            check_vc_plan(self.vc_plan, config.noc.num_virtual_channels)
        self.cache_detail = cache_detail
        if cache_detail:
            # pooled columnar metadata: one matrix per column per level,
            # shared by every core's hierarchy (the 1024+-core budget)
            self.l1_store = TileCacheStore(config.num_cores, config.l1)
            self.l2_store = TileCacheStore(config.num_cores, config.l2)
            self.caches = [
                CacheHierarchy(
                    config.l1,
                    config.l2,
                    l1_store=self.l1_store,
                    l2_store=self.l2_store,
                    core=i,
                )
                for i in range(config.num_cores)
            ]
        else:
            self.l1_store = self.l2_store = None
            self.caches = None
        self.memory = MemorySystem(self.topology, access_latency=config.cost.dram_latency)
        native = [c % config.num_cores for c in trace.thread_native_core]
        self.contexts: list[ContextFile] = build_context_files(
            config.num_cores, native, config.guest_contexts
        )
        self.threads = [
            ThreadState(tid=t, native=native[t], core=native[t])
            for t in range(trace.num_threads)
        ]
        # arrivals stalled behind full, un-evictable guest contexts
        # (network backpressure; see _try_admit)
        self._waiting: list[list[ThreadState]] = [[] for _ in range(config.num_cores)]
        self.stats = StatSet("machine")
        # Columnar trace decode: each thread's structured array is
        # unpacked ONCE into plain-Python columns, so the per-access
        # step loop does two list subscripts instead of a numpy
        # structured-scalar extraction plus int()/bool()/float() boxing
        # per field — the dominant cost in pre-columnar profiles.
        self._addrs: list[list[int]] = [tr["addr"].tolist() for tr in trace.threads]
        self._writes: list[list[bool]] = [
            (tr["write"] != 0).tolist() for tr in trace.threads
        ]
        self._icounts: list[list[float]] = [
            tr["icount"].astype(np.float64).tolist() for tr in trace.threads
        ]
        self._homes: list[list[int]] = [
            placement.home_of(tr["addr"]).tolist() if tr.size else []
            for tr in trace.threads
        ]
        self._sizes: list[int] = [int(tr.size) for tr in trace.threads]
        # loop-invariant hoists + integer-bump counter cells (per-access
        # events bypass string-keyed Counter.add)
        self._word_bytes = config.word_bytes
        self._multiplex = config.multiplex_contexts
        counters = self.stats.counters
        self._c_local = counters.cell("local_accesses")
        self._c_migrations = counters.cell("migrations")
        self._c_evictions = counters.cell("evictions")
        self._c_dram = counters.cell("dram_fills")
        self._c_stalls = counters.cell("admission_stalls")
        # per-core load distribution (migration targets, evictions, and
        # stalls per tile) in one pooled matrix — scaling studies read
        # the imbalance off the columns; bumps happen only on
        # migration-class events, never on the per-access path
        self.core_stats = self.stats.matrix(
            "core",
            config.num_cores,
            ("migrations_in", "evictions_out", "admission_stalls"),
        )
        self._core_mat = self.core_stats.data
        # deferred per-core matrix bumps: a numpy scalar `mat[i, j] += 1`
        # costs an order of magnitude more than a list bump, and
        # migration-heavy 1024-core runs take one per migration, eviction
        # and stall. Events accumulate in plain lists and fold into the
        # matrix once at quiescence (nothing reads the matrix mid-run).
        self._mig_in = [0] * config.num_cores
        self._evict_out = [0] * config.num_cores
        self._stall_in = [0] * config.num_cores
        # pre-bound hot callables: skips a descriptor lookup per event
        self._schedule = self.engine.schedule
        # run_length is recorded on every home-run change; bind the
        # histogram once (it exists for every machine run: the stepper
        # and the scalar step both record through it)
        self._hist_run = self.stats.histogram("run_length")
        # fault-free transport: contention-free runs bind
        # Network.send_fast (no per-send delivery closure, no untaken
        # injector/contention branches); contended fault-free runs keep
        # Network.send. Fault runs go through _send_reliable instead.
        if faults is None:
            self._net_send = (
                self.network.send if config.noc.contention else self.network.send_fast
            )
        else:
            self._net_send = None
        self._mig_fixed = config.cost.migration_fixed
        self._evt_fixed = config.cost.eviction_fixed
        self._ctx_bits = config.context.full_context_bits
        # Epoch-batched fast path (repro.core.epoch): only when results
        # are provably identical — detailed caches (the analytical model
        # has no batchable state), no fault plane (recovery must stay
        # event-driven), no context multiplexing (occupancy couples
        # threads between events). `_step_cb` is what every step event
        # carries as its callback: the dispatch wrapper when the fast
        # path is on, the slow step directly when off, so the classic
        # path pays nothing for the knob.
        self._stepper = None
        if fast_path and cache_detail and faults is None and not config.multiplex_contexts:
            from repro.core.epoch import EpochStepper

            self._stepper = EpochStepper(self)
            self._step_cb = self._step
            self._fastpath_reason = None
        else:
            self._step_cb = self._step_slow
            # surfaced in results()["fast_path"]: why the batched path
            # never engaged (the fallback used to be silent)
            if not fast_path:
                self._fastpath_reason = "off"
            elif not cache_detail:
                self._fastpath_reason = "no_cache_detail"
            elif faults is not None:
                self._fastpath_reason = "faults"
            else:
                self._fastpath_reason = "multiplex_contexts"
        for th in self.threads:
            t = th.tid
            th.addrs = self._addrs[t]
            th.writes = self._writes[t]
            th.homes = self._homes[t]
            th.icounts = self._icounts[t]
            th.size = self._sizes[t]
        # fault-plane recovery state: None-guarded so the fault-free
        # path pays one attribute test per access and nothing else
        self._core_stall = faults.core_stall if faults is not None else None
        if faults is not None:
            fspec = faults.spec
            self._retry_enabled = fspec.retries
            self._retry_timeout = fspec.retry_timeout
            self._retry_backoff = fspec.retry_backoff
            self._retry_cap = fspec.retry_cap
            self._c_retries = counters.cell("retries")
            self._c_drops_survived = counters.cell("drops_survived")
            self._c_dup_ignored = counters.cell("dup_ignored")
            self._recovery_stall = self.stats.latency("recovery_stall")
            self._open_transfers = 0
        self._started = False

    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> None:
        """Execute the whole trace; returns at global quiescence."""
        if self._started:
            raise ProtocolError("machine already ran")
        self._started = True
        for th in self.threads:
            self.contexts[th.native].admit_native(th.tid, 0.0)
            th.pending = self.engine.schedule(0.0, self._step_cb, th)
        self.engine.run(max_events=max_events)
        # fold the deferred per-core event counts into the pooled matrix
        mat = self._core_mat
        mat[:, 0] += self._mig_in
        mat[:, 1] += self._evict_out
        mat[:, 2] += self._stall_in
        unfinished = [th.tid for th in self.threads if not th.done]
        if unfinished:
            raise ProtocolError(f"quiescent with unfinished threads {unfinished[:8]}")

    @property
    def completion_time(self) -> float:
        return max((th.finish_time for th in self.threads), default=0.0)

    # ------------------------------------------------------------------
    def _access_latency(self, core: int, addr: int, write: bool) -> float:
        """Local memory access at ``core`` (cache hierarchy + DRAM).

        ``addr`` is a plain-int word address (columnar decode upstream).
        """
        if self.caches is None:
            return self.config.cost.cache_access
        res = self.caches[core].access(addr * self._word_bytes, write)
        lat = float(res.latency)
        if res.level is ServiceLevel.MEMORY:
            lat += self.memory.miss_latency(core, self.engine.now)
            self._c_dram.n += 1
        return lat

    def _record_run(self, th: ThreadState, home: int) -> None:
        if th.idx == th.last_recorded_idx:
            return  # this access re-executes after a migration; already counted
        th.last_recorded_idx = th.idx
        if home == th.run_home:
            th.run_len += 1
            return
        if th.run_home >= 0 and th.run_home != th.native:
            self._hist_run.add(th.run_len, weight=th.run_len)
        th.run_home = home
        th.run_len = 1

    def _flush_run(self, th: ThreadState) -> None:
        if th.run_home >= 0 and th.run_home != th.native:
            self._hist_run.add(th.run_len, weight=th.run_len)
        th.run_home, th.run_len = -1, 0

    # ------------------------------------------------------------------
    def _step(self, th: ThreadState) -> None:
        """Step dispatch with the epoch-batched fast path.

        When the next access is provably boundary-free, the stepper
        absorbs every pending step event and advances all resident
        threads in exact event order without the engine heap
        (:class:`repro.core.epoch.EpochStepper`); anything else falls
        through to the event-driven slow step. Only bound as the step
        callback when the fast path is enabled.
        """
        if self._stepper.try_window(th):
            return
        self._step_slow(th)

    def _step_slow(self, th: ThreadState) -> None:
        """Process thread's next access from its current core.

        Reads the columnar decode (plain lists) and inlines the common
        case of :meth:`_record_run` — this runs once per access and is
        the hottest function in machine-level profiles.
        """
        th.pending = None
        idx = th.idx
        if idx >= th.size:
            self._finish(th)
            return
        home = th.homes[idx]
        delay = th.icounts[idx]  # local non-memory work
        if self._multiplex:
            # instruction-granularity multiplexing (§2): the pipeline is
            # time-shared by every resident context at issue time
            delay *= max(self.contexts[th.core].occupancy(), 1)
        if self._core_stall is not None:
            delay += self._core_stall()  # transient fault-plane stall
        first_execution = idx != th.last_recorded_idx
        if first_execution:  # inlined _record_run (re-executions skip it)
            th.last_recorded_idx = idx
            if home == th.run_home:
                th.run_len += 1
            else:
                if th.run_home >= 0 and th.run_home != th.native:
                    self._hist_run.add(th.run_len, weight=th.run_len)
                th.run_home = home
                th.run_len = 1
        if home == th.core:
            if first_execution:
                # an access re-executing after a migration is already
                # accounted as a migration, matching the analytical model
                self._c_local.n += 1
            # inlined _access_latency: one call frame per access matters
            caches = self.caches
            if caches is None:
                lat = self.config.cost.cache_access
            else:
                res = caches[home].access(
                    th.addrs[idx] * self._word_bytes, th.writes[idx]
                )
                lat = res.latency
                if res.level is ServiceLevel.MEMORY:
                    lat += self.memory.miss_latency(home, self.engine.now)
                    self._c_dram.n += 1
            th.idx = idx + 1
            # inlined Engine.schedule (delay and lat are always >= 0):
            # the schedule call frame is the hottest remaining edge
            eng = self.engine
            when = eng.now + delay + lat
            seq = eng._seq
            ev = th._ev
            if ev is None or ev.cancelled:
                # first step, or the old event still sits cancelled in
                # the heap (lazy deletion) — it cannot be rewritten
                ev = th._ev = Event(when, seq, self._step_cb, (th,), eng)
            else:
                # the previous step event already fired (it invoked this
                # very call), so it is out of the heap: rewrite in place
                ev.time = when
                ev.seq = seq
                ev._engine = eng  # the run loop cleared it on pop
            eng._seq = seq + 1
            eng._live += 1
            heappush(eng._queue, (when, seq, ev))
            th.pending = ev
            return
        self._handle_nonlocal(th, th.addrs[idx], th.writes[idx], home, delay)

    def _finish(self, th: ThreadState) -> None:
        th.done = True
        th.finish_time = self.engine.now
        self._flush_run(th)
        self.contexts[th.core].release(th.tid)
        self._admit_waiter_if_any(th.core)

    # -- reliable transfer (fault-plane recovery) ------------------------
    def _send_reliable(self, msg: Message, on_deliver, desc: str) -> None:
        """Send ``msg``, surviving injected drops and duplicates.

        Fault-free machines fall straight through to ``Network.send``.
        With an injector, each transfer gets (a) *duplicate
        suppression* — the first delivery wins, later copies only bump
        ``dup_ignored`` — and (b) *timeout/retry*: a dropped copy is
        detected (ideal failure detector, see ``Network.send``) and a
        fresh copy departs after ``retry_timeout * backoff**attempt``
        cycles, charged to ``recovery_stall``. After ``retry_cap``
        consecutive losses the protocol gives up with
        :class:`RetryExhaustedError` naming the transfer. With
        ``retries=False`` a loss strands the transfer, and the run ends
        in a quiescence :class:`ProtocolError` — the behaviour the
        liveness audit exists to rule out.
        """
        if self.faults is None:
            self.network.send(msg, on_deliver)
            return
        self._open_transfers += 1
        state = [0, False]  # [resend count, completed]

        def deliver(m: Message) -> None:
            if state[1]:
                self._c_dup_ignored.n += 1
                return
            state[1] = True
            self._open_transfers -= 1
            if state[0] > 0:
                self._c_drops_survived.n += 1
            on_deliver(m)

        def dropped(_m: Message) -> None:
            attempt = state[0]
            if not self._retry_enabled:
                return  # stranded: quiescence check reports the hang
            if attempt >= self._retry_cap:
                raise RetryExhaustedError(
                    f"{desc}: all {attempt + 1} copies lost, retry cap "
                    f"{self._retry_cap} exhausted"
                )
            state[0] = attempt + 1
            wait = self._retry_timeout * self._retry_backoff**attempt
            self._c_retries.n += 1
            self._recovery_stall.add(wait)
            self.engine.schedule(
                wait, lambda: self.network.send(msg, deliver, on_drop=dropped)
            )

        self.network.send(msg, deliver, on_drop=dropped)

    # -- migration machinery (shared by EM2 and EM2-RA) -----------------
    def _migrate(self, th: ThreadState, dest: int, after_delay: float) -> None:
        """Send ``th``'s context to ``dest``; resumes with _arrive."""
        src = th.core
        self.contexts[src].release(th.tid)
        th.in_transit = True
        if self._waiting[src]:
            self._admit_waiter_if_any(src)
        self._c_migrations.n += 1
        self._mig_in[dest] += 1
        if self._net_send is not None:
            msg = th._mig_msg
            if msg is None:
                msg = th._mig_msg = Message(
                    src=src,
                    dst=dest,
                    payload_bits=self._ctx_bits,
                    vnet=VirtualNetwork.MIGRATION,
                    kind="migration",
                    body=th,
                )
            else:
                msg.src = src
                msg.dst = dest
            # after_delay models the remaining local work before departure
            self._push_departure(
                th, after_delay + self._mig_fixed, self._depart_migration, msg
            )
            return
        msg = Message(
            src=src,
            dst=dest,
            payload_bits=self._ctx_bits,
            vnet=VirtualNetwork.MIGRATION,
            kind="migration",
            body=th,
        )
        self.engine.schedule(
            after_delay + self._mig_fixed,
            lambda: self._send_reliable(
                msg, self._arrive, f"migration tid={th.tid} {src}->{dest}"
            ),
        )

    def _push_departure(
        self, th: ThreadState, delay: float, callback, msg: Message
    ) -> None:
        """Schedule a context departure on the thread's recycled event.

        Departure events are never cancelled and a thread's previous one
        always fired before its next migration/eviction is initiated, so
        the Event is rewritten in place (see ``ThreadState._dep_ev``).
        """
        eng = self.engine
        when = eng.now + delay
        seq = eng._seq
        ev = th._dep_ev
        if ev is None:
            ev = th._dep_ev = Event(when, seq, callback, (msg,), eng)
        else:
            ev.time = when
            ev.seq = seq
            ev.callback = callback
            ev.args = (msg,)
            ev._engine = eng
        eng._seq = seq + 1
        eng._live += 1
        heappush(eng._queue, (when, seq, ev))

    def _depart_migration(self, msg: Message) -> None:
        self._net_send(msg, self._arrive)

    def _depart_eviction(self, msg: Message) -> None:
        self._net_send(msg, self._evict_arrive)

    def _arrive(self, msg: Message) -> None:
        self._try_admit(msg.body, msg.dst)

    def _try_admit(self, th: ThreadState, dest: int) -> None:
        """Admit an arriving context at ``dest`` (Fig. 1 right side).

        Natives always land in their dedicated context. A guest takes a
        free slot, else displaces the least-recently-admitted
        *evictable* guest — a guest awaiting a remote-access reply
        cannot leave mid-transaction, so if every guest is pinned the
        arrival stalls in the network (backpressure) until a slot
        frees or a resident becomes evictable. This and
        :meth:`_pick_evictable_victim` are the only guest admission and
        victim rule; :class:`~repro.arch.core_model.ContextFile` only
        holds the slots.
        """
        ctx = self.contexts[dest]
        now = self.engine.now
        tid = th.tid
        if th.native == dest:
            # inlined ContextFile.admit_native — the machine's own
            # protocol already guarantees admissibility here, so the
            # hot arrival path skips the guard scans
            slot = ctx._native_home[tid]
            slot.thread = tid
            slot.since = now
        else:
            for slot in ctx._guests:
                if slot.thread is None:
                    slot.thread = tid
                    slot.since = now
                    break
            else:
                victim = self._pick_evictable_victim(dest)
                if victim is None:
                    self._c_stalls.n += 1
                    self._stall_in[dest] += 1
                    self._waiting[dest].append(th)
                    return
                for slot in ctx._guests:
                    if slot.thread == victim:
                        slot.thread = tid
                        slot.since = now
                        break
                self._evict(victim, dest)
        th.in_transit = False
        th.core = dest
        # the access that triggered the migration executes here, on the
        # thread's recycled step event (its previous step event fired
        # before the migration; a cancelled one is abandoned in the heap)
        eng = self.engine
        seq = eng._seq
        ev = th._ev
        if ev is None or ev.cancelled:
            ev = th._ev = Event(now, seq, self._step_cb, (th,), eng)
        else:
            ev.time = now
            ev.seq = seq
            ev._engine = eng
        eng._seq = seq + 1
        eng._live += 1
        heappush(eng._queue, (now, seq, ev))
        th.pending = ev

    def _pick_evictable_victim(self, core: int) -> int | None:
        """LRU among guests that are between events (evictable)."""
        candidates = [
            (since, tid)
            for tid, since in self.contexts[core].guest_slots_info()
            if self.threads[tid].pending is not None
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    def _admit_waiter_if_any(self, core: int) -> None:
        """A context freed (or became evictable) at ``core``: admit the
        oldest stalled arrival, if one is waiting."""
        if self._waiting[core]:
            th = self._waiting[core].pop(0)
            self._try_admit(th, core)

    def _evict(self, victim_tid: int, core: int) -> None:
        """Send a displaced guest back to its native context (Fig 1).

        The victim has already been removed from the context file by
        :meth:`_try_admit` (its slot now holds the newcomer); here we
        cancel its pending work and put its context on the eviction
        virtual network.
        """
        victim = self.threads[victim_tid]
        if victim.in_transit or victim.core != core:
            raise ProtocolError(
                f"evicting thread {victim_tid} not resident at core {core}"
            )
        if victim.pending is not None:
            victim.pending.cancel()
            victim.pending = None
        victim.in_transit = True
        self._c_evictions.n += 1
        self._evict_out[core] += 1
        if self._net_send is not None:
            msg = victim._evt_msg
            if msg is None:
                msg = victim._evt_msg = Message(
                    src=core,
                    dst=victim.native,
                    payload_bits=self._ctx_bits,
                    vnet=VirtualNetwork.EVICTION,
                    kind="eviction",
                    body=victim,
                )
            else:
                msg.src = core
            self._push_departure(victim, self._evt_fixed, self._depart_eviction, msg)
            return
        msg = Message(
            src=core,
            dst=victim.native,
            payload_bits=self._ctx_bits,
            vnet=VirtualNetwork.EVICTION,
            kind="eviction",
            body=victim,
        )
        self.engine.schedule(
            self._evt_fixed,
            lambda: self._send_reliable(
                msg,
                self._evict_arrive,
                f"eviction tid={victim_tid} {core}->{victim.native}",
            ),
        )

    def _evict_arrive(self, msg: Message) -> None:
        victim: ThreadState = msg.body
        victim.in_transit = False
        victim.core = victim.native
        self.contexts[victim.native].admit_native(victim.tid, self.engine.now)
        # the interrupted access restarts from the native core
        victim.pending = self.engine.schedule(0.0, self._step_cb, victim)

    # ------------------------------------------------------------------
    def _handle_nonlocal(
        self, th: ThreadState, addr: int, write: bool, home: int, delay: float
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def results(self) -> dict:
        """Flat result dict used by benches and EXPERIMENTS.md tables."""
        out = {
            "completion_time": self.completion_time,
            "migrations": self.stats.counters["migrations"],
            "evictions": self.stats.counters["evictions"],
            "remote_accesses": self.stats.counters["remote_accesses"],
            "local_accesses": self.stats.counters["local_accesses"],
            "dram_fills": self.stats.counters["dram_fills"],
            "flit_hops": self.network.flit_hops(),
        }
        for vnet in VirtualNetwork:
            n = self.network.message_count(vnet)
            if n:
                out[f"messages.{vnet.name}"] = n
        st = self._stepper
        if st is None:
            out["fast_path"] = {
                "engaged": False,
                "disabled_reason": self._fastpath_reason,
            }
        else:
            out["fast_path"] = {
                "engaged": not st.disabled,
                "disabled_reason": "boundary_dense" if st.disabled else None,
                "epochs_batched": st.windows,
                "batched_accesses": st.batched_accesses,
                "mean_window": (
                    st.batched_accesses / st.windows if st.windows else 0.0
                ),
                "max_window": st.window_max,
                "cross_core_windows": st.xwindows,
                "max_window_cores": st.xwindow_cores_max,
                "boundaries": dict(st.boundaries),
            }
        if self.faults is not None:
            # recovery-side counters + the injector's own schedule; only
            # present when a fault plane ran, so fault-free result dicts
            # (and the golden fixtures) are untouched
            counters = self.stats.counters
            out["retries"] = counters["retries"]
            out["drops_survived"] = counters["drops_survived"]
            out["dup_ignored"] = counters["dup_ignored"]
            out["recovery_stall_cycles"] = self.stats.latency("recovery_stall").total
            out.update(self.faults.summary())
        return out
