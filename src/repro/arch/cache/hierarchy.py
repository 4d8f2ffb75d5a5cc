"""Two-level private cache hierarchy (L1 + L2) per core.

The hierarchy is mostly-inclusive and blocking: the trace-driven core
issues one access at a time, so MSHRs are unnecessary. An access
returns an :class:`AccessResult` with the service level and latency;
DRAM fills are reported so the tile can charge the memory-controller
round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.arch.cache.sram import CacheArray, TileCacheStore
from repro.arch.config import CacheConfig


class ServiceLevel(Enum):
    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"


@dataclass(frozen=True)
class AccessResult:
    level: ServiceLevel
    latency: int
    writebacks_to_memory: int = 0  # dirty L2 victims created by this access

    @property
    def hit(self) -> bool:
        return self.level is not ServiceLevel.MEMORY


class CacheHierarchy:
    """Private L1 + L2 pair for one core.

    Pass the machine-wide :class:`TileCacheStore` pools (one per level)
    plus this core's id to back both arrays with row views of the
    shared columnar state; without stores each array allocates its own
    columns (single-hierarchy tests, the directory-CC private caches).
    """

    def __init__(
        self,
        l1: CacheConfig,
        l2: CacheConfig,
        l1_store: TileCacheStore | None = None,
        l2_store: TileCacheStore | None = None,
        core: int = 0,
    ) -> None:
        if l2.line_bytes != l1.line_bytes:
            from repro.util.errors import ConfigError

            raise ConfigError(
                f"L1 line size {l1.line_bytes} != L2 line size {l2.line_bytes}; "
                "mixed line sizes are not modeled"
            )
        self.l1 = CacheArray(l1, store=l1_store, core=core)
        self.l2 = CacheArray(l2, store=l2_store, core=core)
        self._l1_cfg = l1
        self._l2_cfg = l2
        self.memory_fills = 0
        # AccessResult is frozen, so the zero-writeback results can be
        # shared across accesses — the common case allocates nothing
        self._l1_hit = AccessResult(ServiceLevel.L1, l1.hit_latency)
        self._l2_hit = AccessResult(ServiceLevel.L2, l1.hit_latency + l2.hit_latency)
        self._mem_fill = AccessResult(
            ServiceLevel.MEMORY, l1.hit_latency + l2.hit_latency
        )
        # same-line memo: the L1 slot the previous access hit. A repeat
        # of that line skips the index probe and the recency update —
        # safe because the just-touched slot's stamp is already the
        # array's maximum, so re-touching it leaves the LRU order as it
        # is. Reset on every L1 miss (the only path that can evict the
        # memoized line) and on invalidate().
        self._last_la = -1
        self._last_slot = 0

    def access(self, addr: int, write: bool) -> AccessResult:
        """Perform a load/store on the hierarchy, returning where it hit.

        The L1-hit case is ``CacheArray.lookup`` inlined (same counter
        and recency updates): it runs once per simulated access and the
        call frame showed up in machine-level profiles.
        """
        l1 = self.l1
        line_addr = addr >> l1._line_shift
        if line_addr == self._last_la:
            l1.hits += 1
            if write:
                l1.dirty[self._last_slot] = True
            return self._l1_hit
        slot = l1._index.get(line_addr)
        if slot is not None:
            l1.hits += 1
            l1._clock += 1
            l1.stamps[slot] = l1._clock
            self._last_la = line_addr
            self._last_slot = slot
            if write:
                l1.dirty[slot] = True
            return self._l1_hit
        self._last_la = -1
        l1.misses += 1

        l2 = self.l2
        l2_slot = l2.lookup(addr)
        if l2_slot is not None:
            # fill into L1 from L2; dirtiness stays with the L1 copy
            dirty = bool(l2.dirty[l2_slot]) or write
            l2.dirty[l2_slot] = False
            wb_mem = self._fill_l1(addr, dirty)
            if wb_mem == 0:
                return self._l2_hit
            return AccessResult(
                ServiceLevel.L2,
                self._l1_cfg.hit_latency + self._l2_cfg.hit_latency,
                writebacks_to_memory=wb_mem,
            )

        # memory fill -> L2 then L1
        self.memory_fills += 1
        wb_mem = 0
        victim = l2.fill(addr, dirty=False)
        if victim is not None and victim.dirty:
            wb_mem += 1
        wb_mem += self._fill_l1(addr, write)
        if wb_mem == 0:
            return self._mem_fill
        return AccessResult(
            ServiceLevel.MEMORY,
            self._l1_cfg.hit_latency + self._l2_cfg.hit_latency,
            writebacks_to_memory=wb_mem,
        )

    def access_no_mem(self, addr: int, write: bool) -> AccessResult | None:
        """Like :meth:`access`, unless the access would fill from memory.

        A memory-level access returns ``None`` with the hierarchy (and
        its counters/memo) completely untouched, so the caller can fall
        back to the event-driven path which will re-issue the access
        through :meth:`access` and charge the DRAM controller at the
        correct simulated time. The epoch-batched fast path uses this
        to make DRAM fills hard batching boundaries.
        """
        l1 = self.l1
        line_addr = addr >> l1._line_shift
        if line_addr == self._last_la:
            l1.hits += 1
            if write:
                l1.dirty[self._last_slot] = True
            return self._l1_hit
        slot = l1._index.get(line_addr)
        if slot is not None:
            l1.hits += 1
            l1._clock += 1
            l1.stamps[slot] = l1._clock
            self._last_la = line_addr
            self._last_slot = slot
            if write:
                l1.dirty[slot] = True
            return self._l1_hit
        l2 = self.l2
        l2_slot = l2.probe(addr)
        if l2_slot is None:
            return None  # memory fill: leave every bit of state untouched
        self._last_la = -1
        l1.misses += 1
        l2.hits += 1  # the lookup the scalar path would have performed
        l2._touch(l2_slot)
        dirty = bool(l2.dirty[l2_slot]) or write
        l2.dirty[l2_slot] = False
        wb_mem = self._fill_l1(addr, dirty)
        if wb_mem == 0:
            return self._l2_hit
        return AccessResult(
            ServiceLevel.L2,
            self._l1_cfg.hit_latency + self._l2_cfg.hit_latency,
            writebacks_to_memory=wb_mem,
        )

    def _fill_l1(self, addr: int, dirty: bool) -> int:
        """Fill L1; spill a dirty victim down into L2. Returns dirty-L2-victim count."""
        wb_mem = 0
        victim = self.l1.fill(addr, dirty=dirty)
        if victim is not None and victim.dirty:
            # reconstruct the victim's address within its set
            si = self.l1.set_index(addr)
            victim_addr = (victim.tag * self.l1.num_sets + si) << (
                self._l1_cfg.line_bytes.bit_length() - 1
            )  # line_bytes is a validated power of two
            l2_victim = self.l2.fill(victim_addr, dirty=True)
            if l2_victim is not None and l2_victim.dirty:
                wb_mem += 1
        return wb_mem

    def contains(self, addr: int) -> bool:
        """True when the line is resident at either level (no side effects)."""
        return self.l1.probe(addr) is not None or self.l2.probe(addr) is not None

    def invalidate(self, addr: int) -> bool:
        """Drop the line from both levels (CC invalidation). True if present."""
        self._last_la = -1
        a = self.l1.invalidate(addr)
        b = self.l2.invalidate(addr)
        return a is not None or b is not None

    def stats(self) -> dict[str, float]:
        return {
            "l1.hits": self.l1.hits,
            "l1.misses": self.l1.misses,
            "l1.hit_rate": self.l1.hit_rate,
            "l2.hits": self.l2.hits,
            "l2.misses": self.l2.misses,
            "l2.hit_rate": self.l2.hit_rate,
            "memory_fills": self.memory_fills,
        }
