"""Unit tests for the NoC message model."""

import pytest

from repro.arch.config import NocConfig
from repro.arch.noc import Message, Network, VirtualNetwork
from repro.arch.topology import Mesh2D
from repro.sim.engine import Engine


def _net(contention=False, **kw):
    eng = Engine()
    topo = Mesh2D(4, 4)
    net = Network(eng, topo, NocConfig(contention=contention, **kw))
    return eng, topo, net


def test_zero_load_latency_formula():
    _, topo, net = _net()
    # 3 hops, 1-flit payload (<=128 bits): 3*(1+1) + (2-1) = 7
    assert net.zero_load_latency(0, 3, 64) == 7
    # larger payload adds serialization only
    assert net.zero_load_latency(0, 3, 1504) == 3 * 2 + (13 - 1)
    # off loopback it is NocConfig's, the one definition every model
    # charges (send is pinned to it below); a loopback message pays
    # its flits
    noc = net.config
    for bits in (0, 8, 72, 128, 1504):
        for src in range(topo.num_cores):
            for dst in range(topo.num_cores):
                got = net.zero_load_latency(src, dst, bits)
                if src == dst:
                    assert got == noc.message_flits(bits)
                else:
                    assert got == noc.zero_load_latency(topo.hop(src, dst), bits)


def test_delivery_at_expected_time():
    eng, _, net = _net()
    got = []
    msg = Message(src=0, dst=3, payload_bits=64, vnet=VirtualNetwork.MIGRATION)
    net.send(msg, lambda m: got.append(eng.now))
    eng.run()
    assert got == [7.0]
    assert msg.latency == 7.0


def test_loopback_still_costs_serialization():
    eng, _, net = _net()
    got = []
    msg = Message(src=5, dst=5, payload_bits=256, vnet=VirtualNetwork.RA_REQUEST)
    net.send(msg, lambda m: got.append(eng.now))
    eng.run()
    assert got == [3.0]  # (3 flits - 1) + 1


@pytest.mark.parametrize("payload_bits", [0, 64, 256, 1504])
def test_send_delivers_at_zero_load_latency(payload_bits):
    """Every (src, dst) pair of a 4x4 mesh, loopback included, on every
    vnet: ``send`` delivers at ``now + zero_load_latency`` on the
    message's own delivery event, hands the handler the message
    carrying that latency, and bumps the message, flit and flit-hop
    counters once per message."""
    eng, topo, net = _net()
    got = []

    def inject(src, dst, vnet):
        msg = Message(src=src, dst=dst, payload_bits=payload_bits, vnet=vnet)
        expect = eng.now + net.zero_load_latency(src, dst, payload_bits)
        net.send(msg, lambda m: got.append((m, msg, eng.now, expect)))
        assert msg.delivery_event.args == (msg,)

    for src in range(topo.num_cores):
        for dst in range(topo.num_cores):
            for vnet in VirtualNetwork:
                eng.schedule(5.0, inject, src, dst, vnet)
    eng.run()
    assert len(got) == topo.num_cores**2 * len(VirtualNetwork)
    for delivered, sent, now, expect in got:
        assert delivered is sent
        assert now == expect
        assert delivered.latency == expect - 5.0
    counts = net.stats.counters.as_dict()
    flits = NocConfig().message_flits(payload_bits)
    hops = sum(max(topo.hop(s, d), 1) for s in range(16) for d in range(16))
    assert counts["flit_hops"] == flits * hops * len(VirtualNetwork)
    for vnet in VirtualNetwork:
        assert counts[f"messages.{vnet.name}"] == 16 * 16
        assert counts[f"flits.{vnet.name}"] == 16 * 16 * flits


def test_resent_message_reuses_its_delivery_event():
    eng, _, net = _net()
    got = []
    msg = Message(src=0, dst=3, payload_bits=64, vnet=VirtualNetwork.MIGRATION)
    net.send(msg, lambda m: got.append(eng.now))
    first = msg.delivery_event
    eng.run()
    net.send(msg, lambda m: got.append(eng.now))
    assert msg.delivery_event is first
    eng.run()
    assert got == [7.0, 14.0]


def test_flit_hop_accounting():
    eng, _, net = _net()
    msg = Message(src=0, dst=3, payload_bits=128, vnet=VirtualNetwork.MIGRATION)
    net.send(msg, lambda m: None)
    eng.run()
    assert net.flit_hops() == 2 * 3  # 2 flits x 3 hops


def test_message_counts_per_vnet():
    eng, _, net = _net()
    for vnet in (VirtualNetwork.MIGRATION, VirtualNetwork.MIGRATION, VirtualNetwork.EVICTION):
        net.send(Message(src=0, dst=1, payload_bits=8, vnet=vnet), lambda m: None)
    eng.run()
    assert net.message_count(VirtualNetwork.MIGRATION) == 2
    assert net.message_count(VirtualNetwork.EVICTION) == 1
    assert net.message_count() == 3


def test_contention_serializes_same_link_same_vc():
    eng, _, net = _net(contention=True)
    times = []
    for _ in range(2):
        net.send(
            Message(src=0, dst=1, payload_bits=128, vnet=VirtualNetwork.MIGRATION),
            lambda m: times.append(eng.now),
        )
    eng.run()
    assert times[1] > times[0]  # second message queued behind the first


def test_contention_different_vcs_do_not_block():
    eng, _, net = _net(contention=True)
    times = {}
    net.send(
        Message(src=0, dst=1, payload_bits=128, vnet=VirtualNetwork.MIGRATION),
        lambda m: times.setdefault("mig", eng.now),
    )
    net.send(
        Message(src=0, dst=1, payload_bits=128, vnet=VirtualNetwork.EVICTION),
        lambda m: times.setdefault("evict", eng.now),
    )
    eng.run()
    assert times["mig"] == times["evict"]


def test_contention_not_slower_than_zero_load():
    eng, _, net = _net(contention=True)
    lat = []
    msg = Message(src=0, dst=15, payload_bits=512, vnet=VirtualNetwork.RA_REQUEST)
    net.send(msg, lambda m: lat.append(m.latency))
    eng.run()
    assert lat[0] >= net.zero_load_latency(0, 15, 512) - 1e-9


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, payload_bits=-1, vnet=VirtualNetwork.MIGRATION)
