"""Per-tile memory budget: the scaling refactor's enforced invariant.

The 1024+-core work is only real if the substrate actually stays
within the documented bytes-per-tile ceiling — so this test builds the
machines at scale and measures, rather than trusting the columnar
design. Kept at 1024 cores (not 4096) so it stays a fast tier-1 test;
the bench covers 4096.
"""

import pytest

from repro.analysis.memsize import BYTES_PER_TILE_BUDGET, tile_state_bytes
from repro.coherence.simulator import DirectoryCCSimulator
from repro.core.em2 import EM2Machine
from repro.placement import striped
from repro.registry import PRESETS, TOPOLOGIES
from repro.trace.events import MultiTrace, make_trace


def _tiny_trace(num_threads=8, accesses=64):
    threads = [
        make_trace([((t * 37 + i * 13) % 512) * 4 for i in range(accesses)], icounts=1)
        for t in range(num_threads)
    ]
    return MultiTrace(threads=threads)


def _build_em2(cores=1024, preset="mesh-1024"):
    cfg = PRESETS.get(preset)(num_cores=cores)
    return EM2Machine(_tiny_trace(), striped(cores, block_words=16), cfg)


def test_em2_1024_within_budget():
    m = _build_em2()
    report = tile_state_bytes(m)
    assert report["num_cores"] == 1024
    assert report["bytes_per_tile"] <= BYTES_PER_TILE_BUDGET
    # the columnar cache metadata should dominate — if topology or
    # network state ever rivals it, something re-grew an O(P²) table
    comp = report["components"]
    assert comp["caches"] > comp["topology"]
    assert comp["caches"] > comp.get("network", 0)


def test_em2_1024_within_budget_after_run():
    m = _build_em2()
    m.run()
    report = tile_state_bytes(m)
    assert report["bytes_per_tile"] <= BYTES_PER_TILE_BUDGET


def test_cc_1024_within_budget():
    cfg = PRESETS.get("mesh-1024")(num_cores=1024)
    sim = DirectoryCCSimulator(_tiny_trace(), striped(1024, block_words=16), cfg)
    report = tile_state_bytes(sim)
    assert report["bytes_per_tile"] <= BYTES_PER_TILE_BUDGET


def test_default_preset_fits_at_scale():
    # the paper's full 16K+64K tile caches also fit: the budget is not
    # tuned to the trimmed manycore preset
    m = _build_em2(cores=256, preset="default")
    report = tile_state_bytes(m)
    assert report["bytes_per_tile"] <= BYTES_PER_TILE_BUDGET


def test_report_shape():
    m = _build_em2(cores=64, preset="mesh-1024")
    report = tile_state_bytes(m)
    assert report["budget_bytes_per_tile"] == BYTES_PER_TILE_BUDGET
    assert report["total_bytes"] == sum(report["components"].values())
    assert report["total_bytes"] == pytest.approx(report["bytes_per_tile"] * 64)


@pytest.mark.parametrize("name", TOPOLOGIES.names())
def test_measuring_builds_no_topology_state(name):
    """Cached topology state is priced only if something built it:
    measuring must not build the tables it measures."""
    cfg = PRESETS.get("mesh-1024")(num_cores=64)
    topo = TOPOLOGIES.get(name)(cfg)
    m = EM2Machine(_tiny_trace(), striped(64, block_words=16), cfg, topology=topo)
    before = set(m.topology.__dict__)
    first = tile_state_bytes(m)
    assert set(m.topology.__dict__) == before
    assert tile_state_bytes(m) == first
