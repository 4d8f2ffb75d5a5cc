"""Unit coverage for the hot-path machinery added by the detailed-
simulator overhaul: counter cells, cached NoC tables, the flit memo,
config validation, the same-line L1 memo, and the streaming footprint.

The bit-identical contract itself is enforced end-to-end by
``tests/integration/test_golden_fixtures.py``; these tests pin down
the building blocks in isolation so a failure names the exact layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cache.hierarchy import CacheHierarchy
from repro.arch.config import CacheConfig, NocConfig, SystemConfig, small_test_config
from repro.arch.topology import topology_for
from repro.registry import TOPOLOGIES
from repro.sim.stats import Counter
from repro.trace.synthetic import make_workload
from repro.util.errors import ConfigError


# ---------------------------------------------------------------- counters
class TestCounterCell:
    def test_bump_folds_on_read(self):
        c = Counter()
        cell = c.cell("hits")
        cell.n += 3
        assert c["hits"] == 3
        cell.n += 2
        assert c["hits"] == 5

    def test_cell_and_add_combine(self):
        c = Counter()
        cell = c.cell("hits")
        cell.n += 1
        c.add("hits", 4)
        assert c["hits"] == 5

    def test_unbumped_cell_creates_no_key(self):
        """Parity with lazy ``add``: a cell nobody bumped must not
        materialize a zero-valued key in as_dict()."""
        c = Counter()
        c.cell("never_bumped")
        c.add("real", 1)
        assert "never_bumped" not in c.as_dict()
        assert list(c.keys()) == ["real"]

    def test_same_key_returns_same_cell(self):
        c = Counter()
        assert c.cell("x") is c.cell("x")

    def test_total_includes_cells(self):
        c = Counter()
        c.cell("a").n += 2
        c.add("b", 3)
        assert c.total() == 5


# ---------------------------------------------------------------- topology
class TestCachedTables:
    def test_hop_table_matches_distance_matrix(self):
        """Every registered topology's ``hop`` agrees with its stacked
        rows and returns plain ints (no numpy scalar leaks into
        latencies or serialized results)."""
        for name in TOPOLOGIES.names():
            topo = TOPOLOGIES.get(name)(small_test_config(num_cores=16))
            hop = topo.hop
            dm = topo.distance_matrix
            for s in range(16):
                for d in range(16):
                    assert hop(s, d) == int(dm[s, d]) == topo.distance(s, d), name
                    assert type(hop(s, d)) is int, name

    def test_route_cached_matches_route(self):
        topo = topology_for(small_test_config(num_cores=8))
        for s in range(8):
            for d in range(8):
                assert topo.route_cached(s, d) == topo.route(s, d)
        # second call returns the cached object
        assert topo.route_cached(0, 7) is topo.route_cached(0, 7)

    def test_message_flits_memoized_and_validated(self):
        noc = NocConfig()
        first = noc.message_flits(200)
        assert noc.message_flits(200) == first
        assert first == 1 + -(-200 // noc.flit_bits)
        with pytest.raises(Exception):
            noc.message_flits(-1)


# ---------------------------------------------------------------- config
class TestPowerOfTwoValidation:
    def test_non_pow2_l2_line_rejected(self):
        with pytest.raises(ConfigError, match="48"):
            CacheConfig(size_bytes=4608, line_bytes=48, associativity=2)

    def test_non_pow2_flit_bits_rejected(self):
        with pytest.raises(ConfigError, match="flit_bits.*33|33"):
            small_test_config(noc=NocConfig(flit_bits=33))

    def test_pow2_config_accepted(self):
        cfg = small_test_config()
        assert cfg.l2.line_bytes & (cfg.l2.line_bytes - 1) == 0
        assert cfg.noc.flit_bits & (cfg.noc.flit_bits - 1) == 0


# ---------------------------------------------------------------- L1 memo
class TestSameLineMemo:
    def _hier(self):
        cfg = small_test_config()
        return CacheHierarchy(cfg.l1, cfg.l2)

    def test_repeat_hits_count_like_lookups(self):
        h = self._hier()
        h.access(0, write=False)  # fill
        base_hits = h.l1.hits
        for _ in range(5):
            r = h.access(8, write=False)  # same 32-byte line
            assert r.hit
        assert h.l1.hits == base_hits + 5

    def test_write_through_memo_sets_dirty(self):
        h = self._hier()
        h.access(0, write=False)
        h.access(0, write=False)  # arm the memo
        h.access(4, write=True)  # memoized line, write
        assert h.l1.dirty[h.l1.probe(0)]

    def test_invalidate_resets_memo(self):
        h = self._hier()
        h.access(0, write=True)
        h.access(0, write=False)  # memo armed on line 0
        assert h.invalidate(0)
        assert not h.contains(0)
        r = h.access(0, write=False)  # must miss, not serve the memo
        assert r.level.value == "memory"


# ---------------------------------------------------------------- footprint
class TestFootprint:
    def test_matches_concatenated_unique(self):
        trace = make_workload(
            "uniform", num_threads=4, accesses_per_thread=256, region_words=128
        )
        expected = int(np.unique(trace.all_addrs()).size)
        assert trace.footprint() == expected

    def test_empty_trace(self):
        trace = make_workload("uniform", num_threads=1, accesses_per_thread=16)
        trace.threads[0] = trace.threads[0][:0]
        assert trace.footprint() == 0
