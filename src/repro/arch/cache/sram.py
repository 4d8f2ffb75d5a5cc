"""Set-associative cache array (tag store + per-line metadata).

The array tracks presence, dirtiness, and an opaque ``state`` byte the
directory-CC baseline uses for MSI state. Data values are not stored —
all the paper's metrics are about *where* data lives and *what traffic
moves it*, not its contents.

Metadata is **columnar**: one flat numpy column per field (tag, dirty,
state, last-touch stamp) indexed by ``slot = set * ways + way``, plus a
``line_addr -> slot`` dict for O(1) presence. A machine with P cores
allocates the columns once through :class:`TileCacheStore` — shared
``(core, set * ways)`` matrices of which each core's array holds row
views — so per-tile cache state costs tens of bytes per line instead
of a ``CacheLine`` object and per-set dicts.

Replacement is true LRU and keeps no per-set state beyond the stamp
column: the victim is the valid way with the smallest stamp, which is
exactly the way an LRU order list fronts (stamps come from one
monotone per-array clock, so ties cannot occur, and the victim is only
consulted when the set is full, i.e. after every way was touched at
least once at its fill).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.arch.config import CacheConfig


class EvictedLine(NamedTuple):
    """Snapshot of a line leaving the array (victim or invalidation).

    Plain Python values (never numpy scalars) so tags flowing into
    directory keys, latencies, and serialized results stay native.
    """

    tag: int
    dirty: bool = False
    state: int = 0  # protocol-specific (MSI state for the CC baseline)


class TileCacheStore:
    """Pooled columnar cache metadata for ``num_cores`` same-shaped arrays.

    One ``(num_cores, num_sets * ways)`` matrix per metadata column;
    :class:`CacheArray` instances built against a store hold row views,
    so a 4096-core machine's tag state is four matrices instead of
    4096 * num_sets Python dicts and line objects.
    """

    def __init__(self, num_cores: int, config: CacheConfig) -> None:
        slots = config.num_sets * config.associativity
        self.num_cores = num_cores
        self.config = config
        self.tags = np.full((num_cores, slots), -1, dtype=np.int64)
        self.dirty = np.zeros((num_cores, slots), dtype=bool)
        self.state = np.zeros((num_cores, slots), dtype=np.uint8)
        self.stamps = np.zeros((num_cores, slots), dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return (
            self.tags.nbytes + self.dirty.nbytes
            + self.state.nbytes + self.stamps.nbytes
        )


class CacheArray:
    """A single set-associative cache level."""

    def __init__(
        self,
        config: CacheConfig,
        store: TileCacheStore | None = None,
        core: int = 0,
    ) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self._line_shift = config.line_bytes.bit_length() - 1
        if store is not None:
            self.tags = store.tags[core]
            self.dirty = store.dirty[core]
            self.state = store.state[core]
            self.stamps = store.stamps[core]
            # cross-core windows scatter recency stamps into the pooled
            # matrix directly: this array's slots start at _flat_base in
            # the store's flattened (C-contiguous) stamp column
            self._store = store
            self._flat_base = core * (config.num_sets * config.associativity)
        else:
            slots = self.num_sets * self.ways
            self.tags = np.full(slots, -1, dtype=np.int64)
            self.dirty = np.zeros(slots, dtype=bool)
            self.state = np.zeros(slots, dtype=np.uint8)
            self.stamps = np.zeros(slots, dtype=np.int64)
            self._store = None
            self._flat_base = 0
        self._clock = 0
        # line_addr -> slot (= set * ways + way) for O(1) presence
        self._index: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- address helpers ------------------------------------------------
    def line_addr(self, addr: int) -> int:
        """Address truncated to its cache-line base."""
        return addr >> self._line_shift

    def set_index(self, addr: int) -> int:
        return self.line_addr(addr) % self.num_sets

    # -- operations ------------------------------------------------------
    def _touch(self, slot: int) -> None:
        self._clock += 1
        self.stamps[slot] = self._clock

    def lookup(self, addr: int) -> int | None:
        """Return the resident line's slot (updating recency), or None.

        Updates hit/miss counters; use :meth:`probe` for a side-effect-
        free check. Callers read/mutate metadata through the columns
        (``arr.dirty[slot]``, ``arr.state[slot]``).
        """
        slot = self._index.get(addr >> self._line_shift)
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(slot)
        return slot

    def probe(self, addr: int) -> int | None:
        """Slot of the resident line, without counters or recency."""
        return self._index.get(addr >> self._line_shift)

    def fill(self, addr: int, dirty: bool = False, state: int = 0) -> EvictedLine | None:
        """Insert the line for ``addr``; return the victim line if one
        was evicted (caller decides whether a writeback is needed)."""
        line_addr = addr >> self._line_shift
        slot = self._index.get(line_addr)
        if slot is not None:  # refill of a resident line: update in place
            if dirty:
                self.dirty[slot] = True
            self.state[slot] = state
            self._touch(slot)
            return None

        si = line_addr % self.num_sets
        base = si * self.ways
        tags = self.tags
        victim: EvictedLine | None = None
        free = -1
        for s in range(base, base + self.ways):
            if tags[s] == -1:
                free = s
                break
        if free < 0:  # set full: the least-recently-touched way goes
            stamps = self.stamps
            free = base
            for s in range(base + 1, base + self.ways):
                if stamps[s] < stamps[free]:
                    free = s
            vtag = int(tags[free])
            victim = EvictedLine(vtag, bool(self.dirty[free]), int(self.state[free]))
            del self._index[vtag * self.num_sets + si]
            self.evictions += 1
            if victim.dirty:
                self.writebacks += 1

        tags[free] = line_addr // self.num_sets
        self.dirty[free] = dirty
        self.state[free] = state
        self._index[line_addr] = free
        self._touch(free)
        return victim

    def invalidate(self, addr: int) -> EvictedLine | None:
        """Remove the line for ``addr`` (directory-CC invalidations).

        Returns a snapshot of the removed line, or None if absent.
        """
        slot = self._index.pop(addr >> self._line_shift, None)
        if slot is None:
            return None
        out = EvictedLine(
            int(self.tags[slot]), bool(self.dirty[slot]), int(self.state[slot])
        )
        self.tags[slot] = -1
        return out

    def occupancy(self) -> int:
        """Number of resident lines."""
        return len(self._index)

    def resident_addrs(self) -> list[int]:
        """Line base addresses currently resident (diagnostics/tests)."""
        return [la << self._line_shift for la in self._index]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else float("nan")
