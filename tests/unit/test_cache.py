"""Unit tests for cache arrays (true-LRU replacement) and the hierarchy."""

import pytest

from repro.arch.cache.hierarchy import CacheHierarchy, ServiceLevel
from repro.arch.cache.sram import CacheArray
from repro.arch.config import CacheConfig
from repro.util.errors import ConfigError


def _small_cache(**kw):
    defaults = dict(size_bytes=512, line_bytes=64, associativity=2)
    defaults.update(kw)
    return CacheArray(CacheConfig(**defaults))


class TestLRU:
    """The one replacement rule: a full set evicts the line touched
    longest ago (fills and lookups touch; probes do not)."""

    def _set_lines(self, ways):
        """A 4-set array of ``ways`` ways and ways + 1 lines of set 0."""
        c = _small_cache(size_bytes=64 * 4 * ways, associativity=ways)
        stride = 0x40 * c.num_sets
        return c, [i * stride for i in range(ways + 1)]

    def test_untouched_is_victim(self):
        c, lines = self._set_lines(4)
        for a in lines[:4]:
            c.fill(a)
        for a in lines[1:4]:
            c.lookup(a)
        assert c.fill(lines[4]).tag == c.line_addr(lines[0]) // c.num_sets
        assert c.probe(lines[0]) is None

    def test_touch_order_drives_victim(self):
        c, lines = self._set_lines(3)
        for a in lines[:3]:
            c.fill(a)
        c.lookup(lines[0])
        c.fill(lines[3])
        assert c.probe(lines[1]) is None
        assert all(c.probe(a) is not None for a in (lines[0], lines[2], lines[3]))

    def test_victim_does_not_mutate(self):
        """Looking at a line (``probe``) leaves the recency order, and
        so the next victim, as it was."""
        c, lines = self._set_lines(2)
        c.fill(lines[0])
        c.fill(lines[1])
        c.probe(lines[0])
        c.fill(lines[2])
        assert c.probe(lines[0]) is None
        assert c.probe(lines[1]) is not None


class TestCacheArray:
    def test_miss_then_hit(self):
        c = _small_cache()
        assert c.lookup(0x100) is None
        c.fill(0x100)
        assert c.lookup(0x100) is not None
        assert c.hits == 1 and c.misses == 1

    def test_same_line_addresses_alias(self):
        c = _small_cache()
        c.fill(0x100)
        assert c.lookup(0x13F) is not None  # same 64-byte line
        assert c.lookup(0x140) is None  # next line

    def test_eviction_on_set_overflow(self):
        c = _small_cache()  # 4 sets x 2 ways
        s = 0x40 * c.num_sets  # set stride in bytes
        c.fill(0x000)
        c.fill(0x000 + s)
        victim = c.fill(0x000 + 2 * s)  # third line in set 0
        assert victim is not None
        assert c.evictions == 1

    def test_lru_eviction_order(self):
        c = _small_cache()
        s = 0x40 * c.num_sets
        c.fill(0x000)
        c.fill(s)
        c.lookup(0x000)  # make line 0 MRU
        c.fill(2 * s)
        assert c.probe(0x000) is not None
        assert c.probe(s) is None

    def test_dirty_victim_counts_writeback(self):
        c = _small_cache()
        s = 0x40 * c.num_sets
        c.fill(0x000, dirty=True)
        c.fill(s)
        c.fill(2 * s)
        assert c.writebacks == 1

    def test_refill_resident_line_keeps_dirty(self):
        c = _small_cache()
        c.fill(0x80, dirty=True)
        assert c.fill(0x80, dirty=False) is None
        assert c.dirty[c.probe(0x80)]

    def test_invalidate(self):
        c = _small_cache()
        c.fill(0x100)
        line = c.invalidate(0x100)
        assert line is not None
        assert c.probe(0x100) is None
        assert c.invalidate(0x100) is None

    def test_probe_no_side_effects(self):
        c = _small_cache()
        c.fill(0x100)
        h, m = c.hits, c.misses
        c.probe(0x100)
        c.probe(0x999)
        assert (c.hits, c.misses) == (h, m)

    def test_resident_addrs_roundtrip(self):
        c = _small_cache()
        addrs = [0x000, 0x040, 0x080, 0x1C0]
        for a in addrs:
            c.fill(a)
        assert sorted(c.resident_addrs()) == sorted(addrs)

    def test_occupancy(self):
        c = _small_cache()
        c.fill(0x000)
        c.fill(0x040)
        assert c.occupancy() == 2


class TestHierarchy:
    def _h(self):
        return CacheHierarchy(
            CacheConfig(size_bytes=256, line_bytes=64, associativity=2, hit_latency=2),
            CacheConfig(size_bytes=1024, line_bytes=64, associativity=4, hit_latency=6),
        )

    def test_first_access_goes_to_memory(self):
        h = self._h()
        res = h.access(0x100, write=False)
        assert res.level is ServiceLevel.MEMORY
        assert not res.hit

    def test_second_access_l1(self):
        h = self._h()
        h.access(0x100, write=False)
        res = h.access(0x100, write=False)
        assert res.level is ServiceLevel.L1
        assert res.latency == 2

    def test_l1_victim_found_in_l2(self):
        h = self._h()
        # fill enough distinct lines to overflow L1 set 0 (2 ways, 2 sets)
        stride = 64 * h.l1.num_sets
        addrs = [i * stride for i in range(4)]
        for a in addrs:
            h.access(a, write=False)
        res = h.access(addrs[0], write=False)
        assert res.level in (ServiceLevel.L2, ServiceLevel.L1)

    def test_write_makes_line_dirty(self):
        h = self._h()
        h.access(0x100, write=True)
        assert h.l1.dirty[h.l1.probe(0x100)]

    def test_mixed_line_sizes_rejected(self):
        with pytest.raises(ConfigError):
            CacheHierarchy(
                CacheConfig(size_bytes=256, line_bytes=32, associativity=2),
                CacheConfig(size_bytes=1024, line_bytes=64, associativity=4),
            )

    def test_invalidate_clears_both_levels(self):
        h = self._h()
        h.access(0x100, write=False)
        assert h.contains(0x100)
        assert h.invalidate(0x100)
        assert not h.contains(0x100)

    def test_stats_keys(self):
        h = self._h()
        h.access(0x0, write=False)
        s = h.stats()
        assert s["memory_fills"] == 1
        assert "l1.hit_rate" in s
