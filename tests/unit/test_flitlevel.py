"""Unit tests for the flit-level NoC — including *real* deadlock.

The headline tests: uniform long-packet traffic on a unidirectional
ring with one VC genuinely deadlocks (every buffer in the channel
cycle fills, no flit can advance); the dateline VC discipline drains
the same traffic. This turns the paper's virtual-channel argument
([10], §3) into an executable fact.
"""

import pytest

from repro.arch.config import small_test_config
from repro.arch.noc.flitlevel import FlitNetwork
from repro.arch.topology import Mesh2D, UnidirectionalRing
from repro.registry import TOPOLOGIES
from repro.util.errors import ConfigError, DeadlockError


class TestBasics:
    def test_single_packet_delivery(self):
        net = FlitNetwork(Mesh2D(4, 4), num_vcs=1)
        got = []
        net.on_deliver = lambda payload, cycle: got.append((payload, cycle))
        net.send(0, 5, num_flits=3, payload="hello")
        cycles = net.run_until_drained()
        assert got and got[0][0] == "hello"
        assert net.delivered == 1
        assert cycles > 0

    def test_zero_load_latency_matches_analytical(self):
        """Head-to-tail delivery = hops + flits (+ injection/ejection):
        within a small constant of the message-level formula."""
        for src, dst, flits in ((0, 3, 1), (0, 15, 5), (5, 6, 13)):
            net = FlitNetwork(Mesh2D(4, 4), num_vcs=1, buffer_flits=8)
            net.send(src, dst, num_flits=flits)
            net.run_until_drained()
            hops = Mesh2D(4, 4).distance(src, dst)
            analytical = hops + (flits - 1)
            measured = net.latencies[0]
            assert analytical <= measured <= analytical + hops + 4

    def test_flit_conservation(self):
        net = FlitNetwork(Mesh2D(2, 2), num_vcs=1)
        for i in range(4):
            net.send(i, (i + 1) % 4, num_flits=4)
        net.run_until_drained()
        assert net.delivered == 4
        assert net.pending_flits() == 0

    def test_wormhole_keeps_packets_contiguous(self):
        """Two packets sharing a link must not interleave flits: the
        second's latency reflects waiting for the first's tail."""
        net = FlitNetwork(Mesh2D(4, 1), num_vcs=1, buffer_flits=2)
        net.send(0, 3, num_flits=6)
        net.send(0, 3, num_flits=6)
        net.run_until_drained()
        assert net.delivered == 2
        assert net.latencies[1] >= net.latencies[0] + 5

    def test_invalid_args_rejected(self):
        net = FlitNetwork(Mesh2D(2, 2), num_vcs=2)
        with pytest.raises(ConfigError):
            net.send(0, 1, num_flits=0)
        with pytest.raises(ConfigError):
            net.send(0, 1, num_flits=1, vc=5)
        with pytest.raises(ConfigError):
            FlitNetwork(Mesh2D(2, 2), num_vcs=0)
        with pytest.raises(ConfigError):
            FlitNetwork(Mesh2D(2, 2), num_vcs=1, dateline=True)


class TestMeshIsDeadlockFree:
    def test_xy_routing_heavy_uniform_traffic_drains(self):
        net = FlitNetwork(Mesh2D(4, 4), num_vcs=1, buffer_flits=2,
                          deadlock_cycles=50_000)
        for src in range(16):
            for k in (3, 7, 11):
                net.send(src, (src + k) % 16, num_flits=6)
        net.run_until_drained()
        assert net.delivered == 48


class TestRingDeadlock:
    def _ring_traffic(self, net, n=8):
        # every node sends a long packet halfway around: the channel
        # dependency cycle closes and buffers are too small to absorb it
        for src in range(n):
            net.send(src, (src + n // 2) % n, num_flits=8)

    def test_single_vc_ring_deadlocks(self):
        net = FlitNetwork(
            UnidirectionalRing(8), num_vcs=1, buffer_flits=2, deadlock_cycles=2000
        )
        self._ring_traffic(net)
        with pytest.raises(DeadlockError, match="no flit progress"):
            net.run_until_drained()
        assert net.pending_flits() > 0  # flits genuinely stuck

    def test_dateline_vcs_drain_the_same_traffic(self):
        net = FlitNetwork(
            UnidirectionalRing(8),
            num_vcs=2,
            buffer_flits=2,
            dateline=True,
            deadlock_cycles=20_000,
        )
        self._ring_traffic(net)
        net.run_until_drained()
        assert net.delivered == 8
        assert net.pending_flits() == 0

    def test_light_ring_traffic_fine_even_without_dateline(self):
        """One packet at a time cannot close the cycle."""
        net = FlitNetwork(UnidirectionalRing(8), num_vcs=1, buffer_flits=2)
        net.send(0, 4, num_flits=8)
        net.run_until_drained()
        assert net.delivered == 1


class TestSaturation:
    def test_latency_grows_under_load(self):
        """Offered load beyond link capacity must queue: mean latency
        of a hammered link grows vs an idle one."""
        idle = FlitNetwork(Mesh2D(4, 1), num_vcs=1, buffer_flits=4)
        idle.send(0, 3, num_flits=4)
        idle.run_until_drained()
        busy = FlitNetwork(Mesh2D(4, 1), num_vcs=1, buffer_flits=4)
        for _ in range(12):
            busy.send(0, 3, num_flits=4)
        busy.run_until_drained()
        assert max(busy.latencies) > idle.latencies[0] * 3


@pytest.mark.parametrize("cores", [16, 64])
@pytest.mark.parametrize("name", TOPOLOGIES.names())
def test_upstream_lists_are_the_one_hop_senders(name, cores):
    """Input ports come from ``topology.links()``: every node's upstream
    list is the ascending list of nodes one hop toward it."""
    topo = TOPOLOGIES.get(name)(small_test_config(num_cores=cores))
    net = FlitNetwork(topo, num_vcs=1)
    for node in range(cores):
        scan = [n for n in range(cores) if n != node and topo.distance(n, node) == 1]
        assert net._upstream[node] == scan
        assert list(net._ports[node]) == [-1, *scan]
