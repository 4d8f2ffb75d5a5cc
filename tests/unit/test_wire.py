"""Unit tests for the farm wire protocol (ISSUE 7).

The framing layer is the trust boundary between coordinator and
worker: every frame must round-trip exactly, and every malformed
frame — truncated, oversized, wrong magic, unknown kind, foreign
protocol version — must raise a typed error before any payload is
interpreted.
"""

import base64
import socket
import threading
import tracemalloc

import pytest

from repro.analysis.farm import (
    CHUNK,
    ERROR,
    HEADER,
    HELLO,
    MAGIC,
    MAX_FRAME,
    PROTOCOL_VERSION,
    RESULT,
    TRACE_PUT,
    FarmError,
    FrameError,
    ProtocolMismatch,
    encode_frame,
    parse_hostport,
    recv_frame,
    send_frame,
    trace_put_frame,
)
from repro.trace.events import MultiTrace, make_trace
from repro.trace.io import decode_multitrace, encode_multitrace
from repro.trace.synthetic import make_workload


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


# ---------------------------------------------------------------- round trip
@pytest.mark.parametrize(
    "kind,payload",
    [
        (HELLO, {"protocol": PROTOCOL_VERSION, "points": 12}),
        (CHUNK, {"chunk_id": 3, "indices": [0, 1], "specs": [{"a": 1}, {}]}),
        (RESULT, {"chunk_id": 3, "rows": [{"total_cost": 1.5}], "elapsed": 0.25}),
    ],
)
def test_json_frame_round_trip(kind, payload):
    a, b = _pair()
    try:
        send_frame(a, kind, payload)
        got_kind, got = recv_frame(b)
        assert got_kind == kind
        assert got == payload
    finally:
        a.close()
        b.close()


def _trace() -> MultiTrace:
    return MultiTrace(
        threads=[
            make_trace([1, 2, 3], writes=[0, 1, 0], icounts=[4, 4, 4]),
            make_trace([9, 8], writes=[1, 1]),
        ],
        thread_native_core=[2, 0],
        name="wire",
        params={"seed": 3},
    )


def test_trace_put_round_trips_the_container_bytes():
    """TRACE_PUT is JSON like every other kind: the container crosses
    as base64 text, and the bytes decode to the same trace digest."""
    mt = _trace()
    data = encode_multitrace(mt)
    a, b = _pair()
    try:
        send_frame(
            a,
            TRACE_PUT,
            {"key": "k", "workload": {}, "trace": base64.b64encode(data).decode()},
        )
        kind, got = recv_frame(b)
    finally:
        a.close()
        b.close()
    assert kind == TRACE_PUT
    received = base64.b64decode(got["trace"])
    assert received == data
    assert decode_multitrace(received).digest() == mt.digest()


def test_trace_put_frame_is_the_json_frame():
    """The spliced TRACE_PUT pieces are, joined, the bytes the JSON
    encoder gives for the same body, and the worker reads them back."""
    data = encode_multitrace(_trace())
    workload = {"name": "wire", "params": {"seed": 3, "label": "é \"q\""}}
    pieces = trace_put_frame("k", workload, data)
    body = {"key": "k", "workload": workload, "trace": base64.b64encode(data).decode("ascii")}
    assert b"".join(pieces) == encode_frame(TRACE_PUT, body)
    a, b = _pair()
    try:
        for piece in pieces:
            a.sendall(piece)
        assert recv_frame(b) == (TRACE_PUT, body)
    finally:
        a.close()
        b.close()


def test_trace_put_frame_peaks_under_three_containers():
    """Framing the benchmark's OCEAN container allocates at most 3x its
    size: the base64 text and nothing as large besides (the JSON
    encoder's str copies took 4x)."""
    data = encode_multitrace(make_workload("ocean", num_threads=64, grid_n=128, iterations=1))
    assert len(data) > 1_000_000
    tracemalloc.start()
    try:
        pieces = trace_put_frame("k", {"name": "ocean", "params": {}}, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, pieces)) > len(data)
    assert peak <= 3 * len(data)


def test_oversized_trace_put_rejected_on_framing(monkeypatch):
    import repro.analysis.farm as farm

    monkeypatch.setattr(farm, "MAX_FRAME", 64)
    with pytest.raises(FrameError, match="TRACE_PUT body is .* ceiling"):
        farm.trace_put_frame("k", {}, b"x" * 128)


def test_multiple_frames_on_one_stream_stay_delimited():
    a, b = _pair()
    try:
        for i in range(5):
            send_frame(a, HELLO, {"points": i})
        for i in range(5):
            kind, msg = recv_frame(b)
            assert (kind, msg) == (HELLO, {"points": i})
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------- bad frames
def test_truncated_body_raises_frame_error():
    a, b = _pair()
    try:
        frame = encode_frame(HELLO, {"points": 4})
        a.sendall(frame[: len(frame) - 3])
        a.close()  # EOF mid-body
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_truncated_header_raises_frame_error():
    a, b = _pair()
    try:
        a.sendall(MAGIC)  # 4 of 12 header bytes
        a.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_bad_magic_raises_frame_error():
    a, b = _pair()
    try:
        a.sendall(HEADER.pack(b"NOPE", PROTOCOL_VERSION, HELLO, 0))
        with pytest.raises(FrameError, match="magic"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_unknown_kind_raises_frame_error():
    a, b = _pair()
    try:
        a.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, 99, 0))
        with pytest.raises(FrameError, match="unknown frame kind"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_oversized_declared_length_rejected_before_read():
    a, b = _pair()
    try:
        a.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, HELLO, MAX_FRAME + 1))
        with pytest.raises(FrameError, match="ceiling"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_max_body_refuses_a_longer_frame_from_its_header():
    """A caller's own ceiling is checked like MAX_FRAME: from the
    header, before any body byte is read (none is ever sent here, so a
    read would block until the timeout)."""
    a, b = _pair()
    try:
        a.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, TRACE_PUT, 1025))
        with pytest.raises(FrameError, match="1024-byte ceiling"):
            recv_frame(b, max_body=1024)
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("body", [b"[]", b"null", b"7", b'"HELLO"'])
def test_body_that_is_not_a_json_object_raises_frame_error(body):
    a, b = _pair()
    try:
        a.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, HELLO, len(body)) + body)
        with pytest.raises(FrameError, match="not a JSON object"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_oversized_body_rejected_on_encode(monkeypatch):
    import repro.analysis.farm as farm

    monkeypatch.setattr(farm, "MAX_FRAME", 64)
    with pytest.raises(FrameError, match="ceiling"):
        farm.encode_frame(TRACE_PUT, {"trace": "x" * 128})


def test_malformed_json_body_raises_frame_error():
    a, b = _pair()
    try:
        body = b"not json at all"
        a.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, HELLO, len(body)) + body)
        with pytest.raises(FrameError, match="malformed"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


# ------------------------------------------------------------ version skew
def test_protocol_version_mismatch_raises_before_body():
    a, b = _pair()
    try:
        a.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, HELLO, 2) + b"{}")
        with pytest.raises(ProtocolMismatch, match="protocol"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_v2_peer_refused_with_protocol_mismatch():
    """A v2 frame (pickle-era TRACE_PUT bodies) is refused at its
    header, and a v2 worker's ERROR reaches the coordinator's
    handshake as the same typed ProtocolMismatch."""
    from repro.analysis.farm import FarmCoordinator, _WorkerLink

    a, b = _pair()
    try:
        a.sendall(HEADER.pack(MAGIC, 2, HELLO, 2) + b"{}")
        with pytest.raises(ProtocolMismatch, match="v2"):
            recv_frame(b)
    finally:
        a.close()
        b.close()

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    addr = f"127.0.0.1:{listener.getsockname()[1]}"

    def v2_worker():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5.0)
            recv_frame(conn)  # HELLO; a real v2 worker refuses its header
            body = b'{"message": "v2 here", "protocol": 2}'
            conn.sendall(HEADER.pack(MAGIC, 2, ERROR, len(body)) + body)

    th = threading.Thread(target=v2_worker, daemon=True)
    th.start()
    coord = FarmCoordinator([{}], [addr])
    link = _WorkerLink(addr, coord._dial(addr))
    try:
        with pytest.raises(ProtocolMismatch, match="v2"):
            coord._handshake(link)
    finally:
        link.sock.close()
        listener.close()
        th.join(timeout=5.0)


def test_v3_peer_refused_at_hello():
    """v4 is the one-record trace container's protocol: a v3 peer, whose
    TRACE_PUT would carry one member per thread, is refused at its
    HELLO's header, and a live worker answers it with ERROR naming v4."""
    from repro.analysis.farm import ERROR
    from repro.analysis.worker import WorkerServer

    assert PROTOCOL_VERSION == 4
    server = WorkerServer(port=0).start_background()
    try:
        conn = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        conn.settimeout(5.0)
        try:
            body = b'{"protocol": 3, "points": 1, "auth": false}'
            conn.sendall(HEADER.pack(MAGIC, 3, HELLO, len(body)) + body)
            kind, msg = recv_frame(conn)
            assert kind == ERROR
            assert msg["protocol"] == 4 and "v3" in msg["message"]
        finally:
            conn.close()
    finally:
        server.stop()


def test_worker_rejects_foreign_protocol_version():
    """A live worker answers a foreign-version HELLO with ERROR naming
    its own version, then drops the connection."""
    from repro.analysis.farm import ERROR
    from repro.analysis.worker import WorkerServer

    server = WorkerServer(port=0).start_background()
    try:
        conn = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        conn.settimeout(5.0)
        try:
            body = b'{"protocol": %d}' % (PROTOCOL_VERSION + 1)
            conn.sendall(
                HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, HELLO, len(body)) + body
            )
            kind, msg = recv_frame(conn)
            assert kind == ERROR
            assert msg["protocol"] == PROTOCOL_VERSION
            try:
                assert conn.recv(1) == b""  # worker hung up...
            except OSError:
                pass  # ...or reset the connection outright
        finally:
            conn.close()
    finally:
        server.stop()


# --------------------------------------------------------------- addresses
def test_parse_hostport():
    assert parse_hostport("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(FarmError, match="HOST:PORT"):
        parse_hostport("no-port-here")
    with pytest.raises(FarmError, match="non-integer"):
        parse_hostport("host:abc")
