"""Trace-driven MSI directory-coherence simulator.

Execution model: deterministic round-robin interleave (access *k* of
every live thread runs before access *k+1* of any thread). Protocol
state (private caches + directories) is exact; timing is message-level.

Per-access flow:

* **hit** — line present in the private hierarchy with sufficient
  state (SHARED for loads, MODIFIED for stores): cache latency only.
* **load miss** — GETS to the line's home directory. If EXCLUSIVE
  elsewhere: FETCH to the owner, owner downgrades M->S and writes
  back; DATA to the requester; requester caches SHARED.
* **store miss/upgrade** — GETX to the directory. Every other copy is
  invalidated (INV + ACK per sharer, or FETCH_INV to an exclusive
  owner); DATA (or upgrade ACK) grants MODIFIED.
* **capacity eviction** — a victim chosen by the private cache's LRU:
  dirty (M) victims write back to the home (data message), clean (S)
  victims notify the directory (control message) so sharer lists stay
  exact.

Latency charged per miss: request hop + (max parallel invalidation /
fetch round trip, invalidations overlap) + data reply hop + cache fill,
plus DRAM when the home has no cached copy. Directory/NoC queueing is
not modeled — the same fidelity as the EM² analytical evaluators this
baseline is compared against (DESIGN.md §1). A config with
``noc.contention`` set therefore raises :class:`ConfigError` rather
than running at zero load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.cache.sram import CacheArray, TileCacheStore
from repro.arch.config import SystemConfig
from repro.arch.topology import Topology, topology_for
from repro.coherence.msi import DirectoryEntry, DirState, MSIState
from repro.placement.base import Placement
from repro.registry import MACHINES
from repro.sim.stats import StatSet
from repro.trace.events import MultiTrace
from repro.util.errors import ConfigError, ProtocolError, RetryExhaustedError

CTRL_BITS = 72  # address + message type + ids


@dataclass
class CCResult:
    completion_time: float
    per_thread_time: list[float]
    stats: dict
    traffic_bits: int

    @property
    def invalidations(self) -> int:
        return self.stats.get("count.invalidations", 0)


class DirectoryCCSimulator:
    """MSI/MESI directory coherence over private caches and the mesh.

    ``protocol="mesi"`` adds the Exclusive state: a read miss on an
    uncached line is granted E (sole clean copy), and a later write by
    the same core upgrades **silently** (no directory message) — the
    optimization that removes upgrade traffic for private
    read-then-write data, which MSI pays for on every such pattern.
    """

    name = "directory-cc"

    def __init__(
        self,
        trace: MultiTrace,
        placement: Placement,
        config: SystemConfig,
        topology: Topology | None = None,
        protocol: str = "msi",
        faults=None,
    ) -> None:
        if protocol not in ("msi", "mesi"):
            raise ProtocolError(f"unknown protocol {protocol!r}; use 'msi' or 'mesi'")
        if config.noc.contention:
            raise ConfigError(
                f"machine 'cc-{protocol}' cannot model noc.contention: it has "
                "no clock to queue messages on; use a detailed EM² machine "
                "(em2, em2ra, ra-only)"
            )
        self.protocol = protocol
        self.trace = trace
        self.placement = placement
        self.config = config
        self.topology = topology if topology is not None else topology_for(config)
        # coherence-visible private cache: the L2 (capacity level) with
        # L1 hit latency charged on hits via config.l1; all cores'
        # metadata lives in one pooled columnar store
        self.cache_store = TileCacheStore(config.num_cores, config.l2)
        self.caches = [
            CacheArray(config.l2, store=self.cache_store, core=c)
            for c in range(config.num_cores)
        ]
        self.directory: dict[int, DirectoryEntry] = {}
        self.stats = StatSet("cc")
        self.traffic_bits = 0
        self._line_bits = config.l2.line_bytes * 8
        self._per_hop = config.noc.per_hop
        self._native = [c % config.num_cores for c in trace.thread_native_core]
        # Columnar trace decode: plain-int/bool/float columns replace
        # per-record numpy structured-scalar extraction in run()
        self._addr_cols: list[list[int]] = [tr["addr"].tolist() for tr in trace.threads]
        self._write_cols: list[list[bool]] = [
            (tr["write"] != 0).tolist() for tr in trace.threads
        ]
        self._icount_cols: list[list[float]] = [
            tr["icount"].astype(np.float64).tolist() for tr in trace.threads
        ]
        self._home_cols: list[list[int]] = [
            placement.home_of(tr["addr"]).tolist() if tr.size else []
            for tr in trace.threads
        ]
        # loop-invariant hoists: the topology's hop function, victim-
        # address shift, word size, and integer-bump counter cells
        self._hop = self.topology.hop
        self._flit_bits = config.noc.flit_bits
        self._word_bytes = config.word_bytes
        self._line_shift = config.l2.line_bytes.bit_length() - 1
        self._victim_home_memo: dict[int, int] = {}
        counters = self.stats.counters
        self._c_hits = counters.cell("hits")
        self._c_misses = counters.cell("misses")
        self._c_silent = counters.cell("silent_upgrades")
        self._c_inv = counters.cell("invalidations")
        self._c_wb = counters.cell("writebacks")
        self._c_dram = counters.cell("dram_fills")
        self._c_flit_hops = counters.cell("flit_hops")
        self._kind_cells: dict[str, object] = {}
        # fault plane: the simulator is synchronous (latency accounting,
        # not a DES), so recovery is a retry loop inside _msg charging
        # the detection timeout as extra latency per lost copy
        self.faults = faults
        if faults is not None:
            fspec = faults.spec
            self._retry_enabled = fspec.retries
            self._retry_timeout = fspec.retry_timeout
            self._retry_backoff = fspec.retry_backoff
            self._retry_cap = fspec.retry_cap
            self._c_retries = counters.cell("retries")
            self._c_drops_survived = counters.cell("drops_survived")
            self._c_dup_ignored = counters.cell("dup_ignored")
            self.recovery_stall_cycles = 0.0

    # -- message accounting ----------------------------------------------
    def _msg(self, src: int, dst: int, bits: int, kind: str) -> float:
        """Charge one message; return its zero-load latency (inlined)."""
        flits = self.config.noc.message_flits(bits)  # memoized per size
        hops = self._hop(src, dst)
        cell = self._kind_cells.get(kind)
        if cell is None:  # one cell per message kind, created on first use
            cell = self._kind_cells[kind] = self.stats.counters.cell("msg." + kind)
        cell.n += 1
        self.traffic_bits += flits * self._flit_bits
        self._c_flit_hops.n += flits * (hops if hops > 0 else 1)
        lat = hops * self._per_hop + (flits - 1)
        if self.faults is not None and src != dst:
            lat += self._msg_faults(src, dst, flits, hops, cell, kind)
        return lat

    def _msg_faults(
        self, src: int, dst: int, flits: int, hops: int, cell, kind: str
    ) -> float:
        """Extra latency from injected faults on one logical message.

        Each dropped copy costs its detection timeout (exponential
        backoff) and the retransmission's traffic; a duplicate charges
        traffic twice and is ignored at the receiver; a delayed copy
        adds its extra in-flight cycles. The clock argument is ``None``
        (no simulated time here), so link-down windows do not apply.
        """
        extra_lat = 0.0
        attempts = 0
        while True:
            action, extra = self.faults.on_message(src, dst, None)
            if action != "drop":
                break
            if not self._retry_enabled:
                raise RetryExhaustedError(
                    f"cc {kind} message {src}->{dst} lost with retries disabled"
                )
            if attempts >= self._retry_cap:
                raise RetryExhaustedError(
                    f"cc {kind} message {src}->{dst}: all {attempts + 1} copies "
                    f"lost, retry cap {self._retry_cap} exhausted"
                )
            wait = self._retry_timeout * self._retry_backoff**attempts
            attempts += 1
            self._c_retries.n += 1
            self.recovery_stall_cycles += wait
            extra_lat += wait
            # the retransmitted copy pays its own traffic
            cell.n += 1
            self.traffic_bits += flits * self._flit_bits
            self._c_flit_hops.n += flits * (hops if hops > 0 else 1)
        if attempts:
            self._c_drops_survived.n += 1
        if action == "dup":
            self._c_dup_ignored.n += 1
            cell.n += 1
            self.traffic_bits += flits * self._flit_bits
            self._c_flit_hops.n += flits * (hops if hops > 0 else 1)
        elif action == "delay":
            extra_lat += extra
        return extra_lat

    def _dir_entry(self, line: int) -> DirectoryEntry:
        entry = self.directory.get(line)
        if entry is None:
            entry = DirectoryEntry()
            self.directory[line] = entry
        return entry

    def _line(self, byte_addr: int) -> int:
        return int(byte_addr) // self.config.l2.line_bytes

    # -- cache-side helpers -------------------------------------------------
    def _probe_state(self, core: int, addr: int) -> MSIState:
        arr = self.caches[core]
        slot = arr.probe(addr)
        return MSIState(int(arr.state[slot])) if slot is not None else MSIState.INVALID

    def _fill(self, core: int, addr: int, state: MSIState) -> float:
        """Insert a line; handle the victim's coherence actions."""
        victim = self.caches[core].fill(
            addr, dirty=(state == MSIState.MODIFIED), state=int(state)
        )
        lat = 0.0
        if victim is not None:
            vaddr = self._victim_addr(core, addr, victim.tag)
            lat += self._evict_line(core, vaddr, MSIState(victim.state))
        return lat

    def _victim_addr(self, core: int, addr: int, victim_tag: int) -> int:
        arr = self.caches[core]
        si = arr.set_index(addr)
        # line_bytes is a validated power of two (SystemConfig), so the
        # shift reconstructs the byte address exactly
        return (victim_tag * arr.num_sets + si) << self._line_shift

    def _evict_line(self, core: int, addr: int, state: MSIState) -> float:
        """Victim coherence: writeback (M) or sharer removal (S).

        ``addr`` is a byte address (reconstructed from the cache tag).
        """
        line = self._line(addr)
        entry = self._dir_entry(line)
        home = self._victim_home_memo.get(line)
        if home is None:
            # victim homes recur per line; memoize the vectorized lookup
            home = self.placement.home_of_one(addr // self._word_bytes)
            self._victim_home_memo[line] = home
        if state == MSIState.MODIFIED:
            lat = self._msg(core, home, CTRL_BITS + self._line_bits, "writeback")
            self._c_wb.n += 1
            if entry.state != DirState.EXCLUSIVE or entry.owner != core:
                raise ProtocolError(
                    f"M eviction by {core} but directory says {entry.state.name}/{entry.owner}"
                )
            entry.state = DirState.UNCACHED
            entry.owner = None
            entry.sharers.clear()
        elif state == MSIState.EXCLUSIVE:
            # clean sole copy: a control notification suffices (MESI)
            lat = self._msg(core, home, CTRL_BITS, "exclusive-drop")
            if entry.state != DirState.EXCLUSIVE or entry.owner != core:
                raise ProtocolError(
                    f"E eviction by {core} but directory says {entry.state.name}/{entry.owner}"
                )
            entry.state = DirState.UNCACHED
            entry.owner = None
            entry.sharers.clear()
        else:  # SHARED
            lat = self._msg(core, home, CTRL_BITS, "sharer-drop")
            entry.sharers.discard(core)
            if not entry.sharers and entry.state == DirState.SHARED:
                entry.state = DirState.UNCACHED
        entry.check_invariants()
        return lat

    # -- the protocol -----------------------------------------------------
    def access(
        self, core: int, word_addr: int, write: bool, home: int | None = None
    ) -> float:
        """One load/store by ``core`` at a word address; returns latency.

        ``home`` is the line's home core when the caller already knows
        it (the columnar driver precomputes homes per access); left
        None, it is looked up through the placement on a miss.
        """
        cfg = self.config
        addr = int(word_addr) * self._word_bytes  # byte address for the arrays
        state = self._probe_state(core, addr)
        if state == MSIState.MODIFIED or (
            state in (MSIState.SHARED, MSIState.EXCLUSIVE) and not write
        ):
            self.caches[core].lookup(addr)  # recency + hit counters
            self._c_hits.n += 1
            return float(cfg.l1.hit_latency)
        if state == MSIState.EXCLUSIVE and write:
            # MESI's payoff: E -> M silently, no directory traffic
            arr = self.caches[core]
            slot = arr.lookup(addr)
            arr.state[slot] = int(MSIState.MODIFIED)
            arr.dirty[slot] = True
            self._c_hits.n += 1
            self._c_silent.n += 1
            return float(cfg.l1.hit_latency)

        line = self._line(addr)
        entry = self._dir_entry(line)
        if home is None:
            home = self.placement.home_of_one(word_addr)
        self._c_misses.n += 1
        lat = self._msg(core, home, CTRL_BITS, "getx" if write else "gets")

        if not write:
            # ---- GETS ------------------------------------------------
            grant = MSIState.SHARED
            if entry.state == DirState.EXCLUSIVE and entry.owner != core:
                owner = entry.owner
                oarr = self.caches[owner]
                oslot = oarr.probe(addr)
                if oslot is None:
                    raise ProtocolError(f"directory owner {owner} lost line {line:#x}")
                lat += self._msg(home, owner, CTRL_BITS, "fetch")
                if oarr.state[oslot] == int(MSIState.MODIFIED):
                    lat += self._msg(
                        owner, home, CTRL_BITS + self._line_bits, "wb-data"
                    )
                else:  # E: clean, a control ack suffices (MESI)
                    lat += self._msg(owner, home, CTRL_BITS, "downgrade-ack")
                oarr.state[oslot] = int(MSIState.SHARED)
                oarr.dirty[oslot] = False
                entry.sharers = {owner}
                entry.owner = None
                entry.state = DirState.SHARED
            elif entry.state == DirState.UNCACHED:
                lat += cfg.cost.dram_latency  # home fetches from memory
                self._c_dram.n += 1
                if self.protocol == "mesi":
                    grant = MSIState.EXCLUSIVE  # sole clean copy
            if grant == MSIState.EXCLUSIVE:
                entry.state = DirState.EXCLUSIVE
                entry.owner = core
                entry.sharers = set()
            else:
                entry.state = DirState.SHARED
                entry.owner = None
                entry.sharers.add(core)
            lat += self._msg(home, core, CTRL_BITS + self._line_bits, "data")
            lat += self._fill(core, addr, grant)
        else:
            # ---- GETX ------------------------------------------------
            if entry.state == DirState.EXCLUSIVE and entry.owner != core:
                owner = entry.owner
                oarr = self.caches[owner]
                oslot = oarr.probe(addr)
                if oslot is None:
                    raise ProtocolError(f"directory owner {owner} lost line {line:#x}")
                lat += self._msg(home, owner, CTRL_BITS, "fetch-inv")
                if oarr.state[oslot] == int(MSIState.MODIFIED):
                    lat += self._msg(
                        owner, home, CTRL_BITS + self._line_bits, "wb-data"
                    )
                else:  # E: clean copy, control ack (MESI)
                    lat += self._msg(owner, home, CTRL_BITS, "inv-ack")
                self.caches[owner].invalidate(addr)
                self._c_inv.n += 1
            elif entry.state == DirState.SHARED:
                inv_lat = 0.0
                for sharer in sorted(entry.sharers - {core}):
                    inv = self._msg(home, sharer, CTRL_BITS, "inv")
                    ack = self._msg(sharer, home, CTRL_BITS, "inv-ack")
                    inv_lat = max(inv_lat, inv + ack)  # invalidations overlap
                    self.caches[sharer].invalidate(addr)
                    self._c_inv.n += 1
                lat += inv_lat
            elif entry.state == DirState.UNCACHED:
                lat += cfg.cost.dram_latency
                self._c_dram.n += 1
            if state == MSIState.SHARED:
                # upgrade: data already present, grant only
                lat += self._msg(home, core, CTRL_BITS, "upgrade-ack")
                harr = self.caches[core]
                hslot = harr.probe(addr)
                harr.state[hslot] = int(MSIState.MODIFIED)
                harr.dirty[hslot] = True
            else:
                lat += self._msg(home, core, CTRL_BITS + self._line_bits, "data")
                lat += self._fill(core, addr, MSIState.MODIFIED)
            entry.state = DirState.EXCLUSIVE
            entry.owner = core
            entry.sharers = set()
        entry.check_invariants()
        return float(lat + cfg.l1.hit_latency)

    # -- driver -------------------------------------------------------------
    def run(self) -> CCResult:
        """Interleaved execution of the whole trace.

        The one coherence driver: a round-robin walk over plain-int
        columns. A thread's core is pinned, so each thread binds views
        of its core's cache array once, and a hit (the line resident in
        M, or in S/E for a load) is served inline: slot lookup, state
        read and an LRU stamp bump, the effects of ``access()``'s hit
        branch. Misses, upgrades and MESI silent upgrades go through
        :meth:`access` with the precomputed home; it is the one place
        protocol transitions are written, and with a fault plane it
        charges every message's retries.
        """
        T = self.trace.num_threads
        times = [0.0] * T
        idx = [0] * T
        addr_cols, write_cols = self._addr_cols, self._write_cols
        icount_cols, home_cols = self._icount_cols, self._home_cols
        sizes = [len(a) for a in addr_cols]
        native, wb, shift = self._native, self._word_bytes, self._line_shift
        arrs = [self.caches[native[t]] for t in range(T)]
        index_t = [a._index for a in arrs]
        state_t = [a.state for a in arrs]
        stamps_t = [a.stamps for a in arrs]
        access = self.access
        hit_lat = float(self.config.l1.hit_latency)
        n_hits = 0
        MOD = int(MSIState.MODIFIED)
        SH = int(MSIState.SHARED)
        EX = int(MSIState.EXCLUSIVE)
        active = [t for t in range(T) if sizes[t] > 0]
        while active:
            finished = False
            for t in active:
                k = idx[t]
                word = addr_cols[t][k]
                write = write_cols[t][k]
                slot = index_t[t].get((word * wb) >> shift)
                st = state_t[t][slot] if slot is not None else 0
                if st == MOD or (not write and (st == SH or st == EX)):
                    arr = arrs[t]
                    arr.hits += 1
                    clock = arr._clock + 1
                    arr._clock = clock
                    stamps_t[t][slot] = clock
                    n_hits += 1
                    lat = hit_lat
                else:
                    lat = access(native[t], word, write, home_cols[t][k])
                times[t] += icount_cols[t][k] + lat
                idx[t] = k + 1
                if k + 1 == sizes[t]:
                    finished = True
            if finished:
                active = [t for t in active if idx[t] < sizes[t]]
        self._c_hits.n += n_hits
        return CCResult(
            completion_time=max(times, default=0.0),
            per_thread_time=times,
            stats=self.stats.as_dict(),
            traffic_bits=self.traffic_bits,
        )

    def directory_overhead_bits(self) -> int:
        """Total directory SRAM for the lines currently tracked —
        the scaling cost EM² eliminates (§1)."""
        return len(self.directory) * DirectoryEntry.bits(self.config.num_cores)


def cc_results(sim: DirectoryCCSimulator) -> dict:
    """Run ``sim`` and flatten its :class:`CCResult` into the metrics
    dict the golden fixtures snapshot (the registry entry shape)."""
    r = sim.run()
    out = {
        "completion_time": r.completion_time,
        "per_thread_time": r.per_thread_time,
        "traffic_bits": r.traffic_bits,
        "stats": r.stats,
        "directory_overhead_bits": sim.directory_overhead_bits(),
    }
    if sim.faults is not None:
        counters = sim.stats.counters
        out["retries"] = counters["retries"]
        out["drops_survived"] = counters["drops_survived"]
        out["dup_ignored"] = counters["dup_ignored"]
        out["recovery_stall_cycles"] = sim.recovery_stall_cycles
        out.update(sim.faults.summary())
    return out


@MACHINES.register("cc-msi", "directory-MSI coherence baseline (detailed DES)")
def _run_cc_msi(trace, placement, config, scheme=None, topology=None, faults=None, fast_path=True):
    # fast_path is the EM² stepper's knob; a no-op here
    sim = DirectoryCCSimulator(trace, placement, config, topology, protocol="msi", faults=faults)
    return cc_results(sim)


@MACHINES.register("cc-mesi", "directory-MESI coherence baseline (detailed DES)")
def _run_cc_mesi(trace, placement, config, scheme=None, topology=None, faults=None, fast_path=True):
    # fast_path is the EM² stepper's knob; a no-op here
    sim = DirectoryCCSimulator(trace, placement, config, topology, protocol="mesi", faults=faults)
    return cc_results(sim)
