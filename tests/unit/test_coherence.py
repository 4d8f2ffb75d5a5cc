"""Unit tests for the MSI directory coherence baseline."""

import numpy as np
import pytest

from repro.arch.config import small_test_config
from repro.coherence import DirectoryCCSimulator, DirState, DirectoryEntry, MSIState
from repro.placement import striped, first_touch
from repro.trace.events import MultiTrace, make_trace
from repro.util.errors import ProtocolError


def _sim(threads, cfg=None, natives=None):
    cfg = cfg or small_test_config(num_cores=4)
    mt = MultiTrace(
        threads=[make_trace(a, writes=w) for a, w in threads],
        thread_native_core=natives or list(range(len(threads))),
    )
    return DirectoryCCSimulator(mt, striped(4, block_words=16), cfg), mt


class TestDirectoryEntry:
    def test_invariants_catch_bad_states(self):
        e = DirectoryEntry(state=DirState.EXCLUSIVE, owner=None)
        with pytest.raises(ProtocolError):
            e.check_invariants()
        e = DirectoryEntry(state=DirState.SHARED, owner=1, sharers={1})
        with pytest.raises(ProtocolError):
            e.check_invariants()
        e = DirectoryEntry(state=DirState.UNCACHED, sharers={0})
        with pytest.raises(ProtocolError):
            e.check_invariants()

    def test_bits_scale_with_cores(self):
        assert DirectoryEntry.bits(64) == 66
        assert DirectoryEntry.bits(1024) == 1026  # the scaling problem (§1)


class TestProtocol:
    def test_read_then_read_hits(self):
        sim, _ = _sim([([5, 5], [0, 0])])
        lat1 = sim.access(0, 5, False)
        lat2 = sim.access(0, 5, False)
        assert lat2 < lat1  # second is a private-cache hit
        assert sim.stats.counters["hits"] == 1

    def test_two_readers_share(self):
        sim, _ = _sim([([5], [0]), ([5], [0])])
        sim.access(0, 5, False)
        sim.access(1, 5, False)
        line = sim._line(5 * 4)
        entry = sim.directory[line]
        assert entry.state == DirState.SHARED
        assert entry.sharers == {0, 1}

    def test_write_invalidates_readers(self):
        sim, _ = _sim([([5], [0])])
        sim.access(0, 5, False)
        sim.access(1, 5, False)
        sim.access(2, 5, True)
        entry = sim.directory[sim._line(5 * 4)]
        assert entry.state == DirState.EXCLUSIVE
        assert entry.owner == 2
        assert sim.stats.counters["invalidations"] == 2
        assert sim._probe_state(0, 5 * 4) == MSIState.INVALID

    def test_read_downgrades_writer(self):
        sim, _ = _sim([([5], [1])])
        sim.access(0, 5, True)
        sim.access(1, 5, False)
        entry = sim.directory[sim._line(5 * 4)]
        assert entry.state == DirState.SHARED
        assert entry.sharers == {0, 1}
        assert sim._probe_state(0, 5 * 4) == MSIState.SHARED

    def test_upgrade_from_shared(self):
        sim, _ = _sim([([5], [0])])
        sim.access(0, 5, False)
        sim.access(0, 5, True)  # upgrade S -> M, no data transfer
        entry = sim.directory[sim._line(5 * 4)]
        assert entry.state == DirState.EXCLUSIVE and entry.owner == 0
        assert sim.stats.counters["msg.upgrade-ack"] == 1

    def test_writer_hit_in_m(self):
        sim, _ = _sim([([5, 5], [1, 1])])
        sim.access(0, 5, True)
        lat = sim.access(0, 5, True)
        assert lat == sim.config.l1.hit_latency
        assert sim.stats.counters["hits"] == 1

    def test_ping_pong_writes_generate_traffic(self):
        sim, _ = _sim([([5], [1]), ([5], [1])])
        before = sim.traffic_bits
        for _ in range(4):
            sim.access(0, 5, True)
            sim.access(1, 5, True)
        assert sim.traffic_bits > before
        assert sim.stats.counters["msg.fetch-inv"] >= 7

    def test_directory_invariants_hold_after_random_workload(self):
        rng = np.random.default_rng(0)
        sim, _ = _sim([([0], [0])])
        for _ in range(500):
            core = int(rng.integers(0, 4))
            addr = int(rng.integers(0, 256))
            sim.access(core, addr, bool(rng.integers(0, 2)))
        for entry in sim.directory.values():
            entry.check_invariants()

    def test_capacity_eviction_writes_back(self):
        cfg = small_test_config(num_cores=4)
        sim, _ = _sim([([0], [1])], cfg=cfg)
        # write more distinct lines than one set holds
        nsets = sim.caches[0].num_sets
        line_words = cfg.l2.line_bytes // 4
        for i in range(8):
            sim.access(0, i * nsets * line_words, True)
        assert sim.stats.counters["writebacks"] >= 1
        for entry in sim.directory.values():
            entry.check_invariants()


class TestRun:
    def test_run_completes_and_reports(self, pingpong_small):
        cfg = small_test_config(num_cores=4)
        sim = DirectoryCCSimulator(
            pingpong_small, first_touch(pingpong_small, 4), cfg
        )
        res = sim.run()
        assert res.completion_time > 0
        assert len(res.per_thread_time) == 4
        assert res.traffic_bits > 0

    def test_private_workload_no_invalidations(self):
        from repro.trace.synthetic import make_workload

        mt = make_workload("private", num_threads=4, accesses_per_thread=64)
        cfg = small_test_config(num_cores=4)
        sim = DirectoryCCSimulator(mt, first_touch(mt, 4), cfg)
        res = sim.run()
        assert res.invalidations == 0

    def test_directory_overhead_grows_with_footprint(self):
        sim, _ = _sim([(list(range(0, 256, 16)), [0] * 16)])
        for a in range(0, 256, 16):
            sim.access(0, a, False)
        assert sim.directory_overhead_bits() > 0


# ------------------------------------------------------- message latency
_PAYLOADS = [8, 72, 128, 256, 512 + 72]


def _cc_and_net():
    from repro.arch.noc import Network
    from repro.sim.engine import Engine

    cfg = small_test_config(num_cores=16)
    mt = MultiTrace(threads=[make_trace([0], writes=[0])], thread_native_core=[0])
    sim = DirectoryCCSimulator(mt, striped(16, block_words=16), cfg)
    return sim, Network(Engine(), sim.topology, cfg.noc)


def test_msg_latency_equals_noc_zero_load_latency():
    """Every ``src != dst`` pair of a 4x4 mesh: a CC message costs what
    the NoC charges the migration machines for the same message."""
    sim, net = _cc_and_net()
    for bits in _PAYLOADS:
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    assert sim._msg(src, dst, bits, "probe") == net.zero_load_latency(
                        src, dst, bits
                    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known loopback divergence: DirectoryCCSimulator._msg charges a "
        "message to its own tile flits - 1 cycles, the NoC charges flits "
        "(one cycle more); docs/model.md, 'Loopback messages in the CC "
        "baseline'"
    ),
)
def test_msg_loopback_latency_equals_noc():
    sim, net = _cc_and_net()
    for bits in _PAYLOADS:
        for core in range(16):
            assert sim._msg(core, core, bits, "probe") == net.zero_load_latency(
                core, core, bits
            )



@pytest.mark.parametrize("protocol", ["msi", "mesi"])
def test_contended_noc_is_refused(protocol):
    """The CC baseline has no clock to queue messages on, so a contended
    NoC raises naming the key instead of running at zero load, whether
    the machine is built directly or from a spec."""
    import dataclasses

    from repro.arch.config import NocConfig
    from repro.runner import run
    from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
    from repro.util.errors import ConfigError

    cfg = small_test_config(num_cores=4, noc=NocConfig(contention=True))
    mt = MultiTrace(threads=[make_trace([0, 64], writes=[0, 1])], thread_native_core=[0])
    with pytest.raises(ConfigError, match="noc.contention"):
        DirectoryCCSimulator(mt, striped(4), cfg, protocol=protocol)
    spec = ExperimentSpec(
        workload=WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 4}),
        machine=MachineSpec(
            name=f"cc-{protocol}",
            cores=4,
            preset="small-test",
            config={"noc": {"contention": True}},
        ),
        placement=PlacementSpec(name="first-touch"),
    )
    with pytest.raises(ConfigError, match="noc.contention"):
        run(spec)
    quiet = dataclasses.replace(spec.machine, config={})
    assert run(spec.replace(machine=quiet))["completion_time"] > 0
