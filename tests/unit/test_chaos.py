"""Unit tests for the host-level chaos harness (ISSUE 10).

The determinism contract mirrors the simulated fault plane's: the
injected-event schedule is a pure function of the frozen
:class:`~repro.analysis.chaos.ChaosSpec` — drawn eagerly at
construction, so the digest never depends on traffic timing — while
*applied* counts (what a given run's connections actually hit) are
tracked separately and may vary. The proxy itself is tested as a
transparent relay when the schedule is quiet.
"""

import socket
import threading

import pytest

from repro.analysis.chaos import ChaosProxy, ChaosSchedule, ChaosSpec
from repro.util.errors import ConfigError


def _spec(**over):
    base = dict(
        seed=7,
        reset_rate=0.1,
        partial_rate=0.1,
        stall_rate=0.1,
        partition_rate=0.1,
        trigger_span=4096,
    )
    base.update(over)
    return ChaosSpec(**base)


# ------------------------------------------------------------- spec object
def test_spec_roundtrip():
    spec = _spec()
    assert ChaosSpec.from_dict(spec.to_dict()) == spec


def test_spec_unknown_key_refused():
    with pytest.raises(ConfigError, match="unknown chaos option"):
        ChaosSpec.from_dict({"seed": 1, "resett_rate": 0.1})


@pytest.mark.parametrize(
    "field,value",
    [
        ("reset_rate", -0.1),
        ("partial_rate", 1.5),
        ("stall_rate", "high"),
        ("stall_seconds", 0),
        ("partition_seconds", -1.0),
        ("max_events_per_conn", 0),
        ("plan_connections", 0),
        ("trigger_span", 0),
        ("seed", "zero"),
    ],
)
def test_spec_field_validation(field, value):
    with pytest.raises(ConfigError):
        ChaosSpec(**{field: value})


def test_rates_must_not_exceed_one():
    with pytest.raises(ConfigError, match="sum"):
        ChaosSpec(reset_rate=0.5, partial_rate=0.3, stall_rate=0.3)


# ---------------------------------------------------------------- schedule
def test_same_spec_same_digest_and_plans():
    a, b = ChaosSchedule(_spec()), ChaosSchedule(_spec())
    assert a.schedule_digest() == b.schedule_digest()
    assert a.plans == b.plans
    assert a.planned_events == b.planned_events > 0


def test_different_seed_different_digest():
    assert (
        ChaosSchedule(_spec(seed=1)).schedule_digest()
        != ChaosSchedule(_spec(seed=2)).schedule_digest()
    )


def test_different_rates_different_digest():
    assert (
        ChaosSchedule(_spec(stall_rate=0.1)).schedule_digest()
        != ChaosSchedule(_spec(stall_rate=0.2)).schedule_digest()
    )


def test_plan_shape():
    sched = ChaosSchedule(_spec())
    spec = sched.spec
    assert len(sched.plans) == spec.plan_connections
    for plan in sched.plans:
        assert len(plan) <= spec.max_events_per_conn
        for event in plan:
            assert event["action"] in ("reset", "partial", "stall", "partition")
            assert event["direction"] in ("c2w", "w2c")
            assert 64 <= event["after_bytes"] <= spec.trigger_span
            assert 0.0 <= event["frac"] <= 1.0


def test_plan_for_out_of_range_is_empty():
    sched = ChaosSchedule(_spec(plan_connections=2))
    assert sched.plan_for(2) == []
    assert sched.plan_for(99) == []


def test_plan_for_returns_copies():
    sched = ChaosSchedule(_spec())
    idx = next(i for i, p in enumerate(sched.plans) if p)
    sched.plan_for(idx)[0]["action"] = "mutated"
    assert sched.plans[idx][0]["action"] != "mutated"


def test_zero_rates_plan_nothing():
    sched = ChaosSchedule(ChaosSpec(seed=3))
    assert sched.planned_events == 0
    assert all(plan == [] for plan in sched.plans)


def test_needs_a_chaos_spec():
    with pytest.raises(ConfigError, match="ChaosSpec"):
        ChaosSchedule({"seed": 1})


# ------------------------------------------------------------------- proxy
def _echo_server():
    """A tiny upstream that echoes every byte until EOF."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(4)
    sock.settimeout(5.0)

    def serve():
        while True:
            try:
                conn, _ = sock.accept()
            except OSError:
                return
            try:
                while True:
                    data = conn.recv(65536)
                    if not data:
                        break
                    conn.sendall(data)
            except OSError:
                pass  # injected resets are expected under chaos
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    threading.Thread(target=serve, daemon=True).start()
    return sock, f"127.0.0.1:{sock.getsockname()[1]}"


def test_quiet_proxy_is_transparent():
    """Zero rates: every byte crosses both directions untouched and a
    FIN propagates through — the proxy must never corrupt framing on
    its own."""
    upstream, addr = _echo_server()
    proxy = ChaosProxy([addr], ChaosSchedule(ChaosSpec(seed=0))).start()
    try:
        host, port = proxy.addresses[0].rsplit(":", 1)
        client = socket.create_connection((host, int(port)), timeout=5.0)
        payload = bytes(range(256)) * 64
        client.sendall(payload)
        client.shutdown(socket.SHUT_WR)
        got = b""
        while len(got) < len(payload):
            piece = client.recv(65536)
            if not piece:
                break
            got += piece
        client.close()
        assert got == payload
        assert proxy.connections == 1
        assert all(n == 0 for n in proxy.applied.values())
    finally:
        proxy.stop()
        upstream.close()


def test_digest_is_traffic_independent():
    """Driving traffic through the proxy changes applied counts, never
    the schedule digest — the digest is minted before the first byte."""
    spec = _spec(trigger_span=256, max_events_per_conn=8)
    sched = ChaosSchedule(spec)
    before = sched.schedule_digest()
    upstream, addr = _echo_server()
    proxy = ChaosProxy([addr], sched).start()
    try:
        host, port = proxy.addresses[0].rsplit(":", 1)
        client = socket.create_connection((host, int(port)), timeout=5.0)
        try:
            client.sendall(b"x" * 4096)  # deep enough to cross triggers
            client.settimeout(1.0)
            try:
                while client.recv(65536):
                    pass
            except OSError:
                pass
        finally:
            client.close()
    finally:
        proxy.stop()
        upstream.close()
    assert sched.schedule_digest() == before
    assert ChaosSchedule(spec).schedule_digest() == before


def test_both_proxy_legs_are_nodelay(monkeypatch):
    """The proxy forwards each recv as its own send, so with Nagle on
    either leg a worker's RESULT+NEXT pair would stall on its way to
    the coordinator. Both legs of every proxied connection have it off."""
    seen = []
    pump = ChaosProxy._pump

    def spy(self, src, dst, events, pair):
        seen.append(
            [s.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for s in (src, dst)]
        )
        return pump(self, src, dst, events, pair)

    monkeypatch.setattr(ChaosProxy, "_pump", spy)
    upstream, addr = _echo_server()
    proxy = ChaosProxy([addr], ChaosSchedule(ChaosSpec(seed=0))).start()
    try:
        host, port = proxy.addresses[0].rsplit(":", 1)
        client = socket.create_connection((host, int(port)), timeout=5.0)
        client.sendall(b"ping")
        assert client.recv(4) == b"ping"  # both pumps have started
        client.close()
    finally:
        proxy.stop()
        upstream.close()
    assert len(seen) == 2
    assert all(all(legs) for legs in seen)


def test_proxy_needs_upstreams():
    with pytest.raises(ConfigError, match="upstream"):
        ChaosProxy([], ChaosSchedule(ChaosSpec()))
