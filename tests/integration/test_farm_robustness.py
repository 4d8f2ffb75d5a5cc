"""Integration tests for the farm robustness plane.

Three contracts:

* **resume** — a sweep killed mid-grid (simulated by storing only a
  prefix of the grid, optionally with a corrupt tail record) resumes
  into the *same* rows, bit for bit, as an uninterrupted run,
  evaluating only the missing points;
* **reconnect** — a worker whose connection keeps dropping is redialed
  with backoff and serves the rest of the sweep from its persistent
  trace store (the trace crosses the wire at most once across all
  reconnects); auth and protocol failures, by contrast, are permanent;
* **chaos determinism** — a multi-worker sweep under seeded resets,
  partial frames, stalls, and partitions completes with rows
  bit-identical to the clean serial reference, and the same
  :class:`ChaosSpec` always re-derives the same schedule digest.
"""

import base64
import json
import pickle
import socket
import threading
import time
import warnings

import pytest

from repro import runner
from repro.analysis import farm as farm_mod
from repro.analysis.cache import ResultCache, canonical_rows, row_keys
from repro.analysis.chaos import ChaosSpec, chaos_soak
from repro.analysis.farm import (
    AUTH_CHALLENGE,
    AUTH_RESPONSE,
    CHUNK,
    ERROR,
    HEADER,
    HELLO,
    HELLO_ACK,
    KIND_NAMES,
    MAGIC,
    PROTOCOL_VERSION,
    TRACE_PUT,
    TRACE_QUERY,
    AuthError,
    FrameError,
    encode_frame,
    farm_sweep,
    recv_frame,
    send_frame,
)
from repro.analysis.journal import SweepJournal
from repro.analysis.sweep import SweepPointError, sweep_specs
from repro.analysis.worker import WorkerServer
from repro.runner import build_workload, clear_build_memo, merge_spec
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.trace import store as store_mod
from repro.trace.io import save_multitrace
from repro.trace.store import TraceStore
from tests.integration.test_farm import flaky_and_held_workers

SCHEMES = (
    "never-migrate",
    "always-migrate",
    "history",
    "costaware",
    "random",
    "distance-1",
    "distance-2",
    "addr-history",
)


def _base():
    return ExperimentSpec(
        workload=WorkloadSpec(
            name="pingpong", params={"num_threads": 4, "rounds": 12}
        ),
        machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )


def _points(schemes=SCHEMES):
    return [{"scheme": s} for s in schemes]


def _spec_dicts(schemes=SCHEMES):
    base = _base()
    return [merge_spec(base, p).to_dict() for p in _points(schemes)]


# ------------------------------------------------------------------ resume
@pytest.fixture
def dispatched(monkeypatch):
    """The number of points each farm_sweep call was handed."""
    sizes = []
    real = farm_mod.farm_sweep

    def spy(spec_dicts, *args, **kwargs):
        sizes.append(len(spec_dicts))
        return real(spec_dicts, *args, **kwargs)

    monkeypatch.setattr(farm_mod, "farm_sweep", spy)
    return sizes


def test_kill_and_resume_rows_bit_identical(tmp_path, dispatched):
    """Run the first half of the grid into a resume store (the 'crash'),
    then the full grid against the same store: the resumed rows must
    equal an uninterrupted run as JSON text, and only the missing
    points may be dispatched."""
    base, points = _base(), _points()
    path = tmp_path / "sweep.rpjl"
    server = WorkerServer().start_background()
    try:
        uninterrupted = sweep_specs(base, points, farm=[server.address])
        sweep_specs(base, points[:4], farm=[server.address], resume=path)
        with SweepJournal(path) as j:
            assert len(j) == 4  # the crash left 4 durable rows
        dispatched.clear()
        resumed = sweep_specs(base, points, farm=[server.address], resume=path)
    finally:
        server.stop()
    assert json.dumps(resumed) == json.dumps(uninterrupted)
    assert dispatched == [len(points) - 4]


def test_resume_after_corrupt_tail(tmp_path, dispatched):
    """A torn final record (crash mid-append) is truncated on recovery
    and its point simply re-evaluated — rows still bit-identical."""
    base, points = _base(), _points()
    path = tmp_path / "sweep.rpjl"
    server = WorkerServer().start_background()
    try:
        uninterrupted = sweep_specs(base, points, farm=[server.address])
        sweep_specs(base, points[:3], farm=[server.address], resume=path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x40torn-record")
        dispatched.clear()
        resumed = sweep_specs(base, points, farm=[server.address], resume=path)
    finally:
        server.stop()
    assert json.dumps(resumed) == json.dumps(uninterrupted)
    assert dispatched == [len(points) - 3]
    with SweepJournal(path) as j:  # the tail was cut before appending
        assert j.truncated_bytes == 0
        assert len(j) == len(points)


def test_fully_journaled_sweep_dispatches_nothing(tmp_path, dispatched):
    """A complete store answers the whole grid without touching the
    farm — the address list can even be unreachable."""
    base, points = _base(), _points(("history", "costaware"))
    path = tmp_path / "sweep.rpjl"
    server = WorkerServer().start_background()
    try:
        first = sweep_specs(base, points, farm=[server.address], resume=path)
    finally:
        server.stop()
    dispatched.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no unreachable-farm degradation
        replayed = sweep_specs(base, points, farm=["127.0.0.1:1"], resume=path)
    assert json.dumps(replayed) == json.dumps(first)
    assert dispatched == []


def test_sweep_specs_resume_local_path(tmp_path):
    """The local (no-farm) path honours ``resume=`` too: a partial
    store is replayed and the merged rows match a fresh run."""
    base, points = _base(), _points()
    path = tmp_path / "local.rpjl"
    fresh = sweep_specs(base, points, resume=path)
    # the store now holds every point under its row key
    with ResultCache(path) as store:
        keys = row_keys([merge_spec(base, p).to_dict() for p in points])
        assert all(store.get(k) is not None for k in keys)
        assert store.stats()["entries"] == len(points)
    resumed = sweep_specs(base, points, resume=path)
    assert json.dumps(resumed) == json.dumps(fresh)
    # rows equal the store-free canonical rows as well
    assert canonical_rows(sweep_specs(base, points)) == canonical_rows(resumed)


def test_sweep_specs_resume_checkpoints_each_local_point(tmp_path, monkeypatch):
    """A local sweep that dies at point k leaves points before k in the
    resume store, so the re-run evaluates only from k on."""
    base = _base()
    points = _points(("never-migrate", "always-migrate", "history", "costaware"))
    path = tmp_path / "local.rpjl"
    real = runner.run_spec_dict
    evaluated = []
    failing = {"costaware"}

    def flaky(spec):
        name = spec["scheme"]["name"]
        evaluated.append(name)
        if name in failing:
            raise RuntimeError("point died")
        return real(spec)

    monkeypatch.setattr(runner, "run_spec_dict", flaky)
    with pytest.raises(SweepPointError):
        sweep_specs(base, points, resume=path)
    with SweepJournal(path) as j:
        assert len(j) == 3
    failing.clear()
    evaluated.clear()
    resumed = sweep_specs(base, points, resume=path)
    assert evaluated == ["costaware"]
    monkeypatch.undo()
    assert resumed == canonical_rows(sweep_specs(base, points))


# -------------------------------------------------------------- reconnect
def test_reconnect_resumes_trace_store_trace_pushed_once(monkeypatch):
    """A worker that drops every connection after 3 one-point chunks
    is redialed (backoff, same address) and finishes the sweep alone;
    its persistent store answers every post-reconnect trace
    negotiation, so the trace crosses the wire exactly once in total."""
    spec_dicts = _spec_dicts()
    steady = WorkerServer().start_background()
    try:
        reference = farm_sweep(spec_dicts, [steady.address])
    finally:
        steady.stop()
    monkeypatch.setattr(farm_mod, "MAX_CHUNK", 1)
    flaky = WorkerServer(fail_after_chunks=3).start_background()
    stats: dict = {}
    try:
        metrics = farm_sweep(
            spec_dicts,
            {"addrs": [flaky.address], "reconnect": 4},
            stats_out=stats,
        )
    finally:
        flaky.stop()
    assert json.dumps(metrics) == json.dumps(reference)
    assert stats["reconnects"] >= 1
    assert stats["workers"][flaky.address]["reconnects"] >= 1
    assert flaky.traces_installed == 1  # at most once across reconnects
    assert stats["trace_pushes"][flaky.address] == 1


def test_reconnect_zero_keeps_old_die_fast_semantics(monkeypatch):
    """``reconnect=0`` restores the pre-ISSUE-10 behaviour: a dropped
    worker stays dead and survivors absorb the requeue. The survivor
    evaluates nothing until the drop, so it cannot drain the grid
    before the flaky worker takes its second chunk."""
    spec_dicts = _spec_dicts()
    monkeypatch.setattr(farm_mod, "MAX_CHUNK", 1)
    flaky, steady = flaky_and_held_workers()
    stats: dict = {}
    try:
        with pytest.warns(RuntimeWarning, match="dropped"):
            farm_sweep(
                spec_dicts,
                {"addrs": [flaky.address, steady.address], "reconnect": 0},
                stats_out=stats,
            )
    finally:
        flaky.stop()
        steady.stop()
    assert stats["reconnects"] == 0
    assert stats["requeues"] >= 1
    assert stats["workers"][flaky.address]["dead"] is True
    assert stats["workers"][steady.address]["dead"] is False


# ------------------------------------------------------------------- auth
def test_wrong_token_is_permanent_and_never_redialed():
    spec_dicts = _spec_dicts(("history",))
    server = WorkerServer(auth_token="right").start_background()
    try:
        with pytest.warns(RuntimeWarning, match="rejected permanently"):
            farm_sweep(
                spec_dicts,
                {"addrs": [server.address], "auth_token": "wrong", "reconnect": 3},
            )
        assert server.auth_failures >= 1
    finally:
        server.stop()


def test_tokenless_coordinator_rejected_by_gated_worker():
    spec_dicts = _spec_dicts(("history",))
    server = WorkerServer(auth_token="secret").start_background()
    try:
        coordinatorless = {"addrs": [server.address]}
        with pytest.warns(RuntimeWarning, match="rejected permanently"):
            farm_sweep(spec_dicts, coordinatorless)
    finally:
        server.stop()


def _trace_put(tmp_path, trace_b64=None) -> dict:
    """A TRACE_PUT body for the base grid's workload: its container
    bytes unless ``trace_b64`` replaces them."""
    wspec = _base().workload
    if trace_b64 is None:
        path = save_multitrace(build_workload(wspec), tmp_path / "put.npz")
        trace_b64 = base64.b64encode(path.read_bytes()).decode()
    return {"key": wspec.cache_key(), "workload": wspec.to_dict(), "trace": trace_b64}


@pytest.fixture
def pickle_calls(monkeypatch):
    """Every pickle.loads/load call in this process (each also raises)."""
    calls = []

    def refuse(*a, **k):
        calls.append(1)
        raise AssertionError("wire bytes reached pickle")

    monkeypatch.setattr(pickle, "loads", refuse)
    monkeypatch.setattr(pickle, "load", refuse)
    return calls


def test_gated_worker_refuses_trace_put_before_hello(tmp_path, pickle_calls):
    """Nothing is decoded before the handshake: a TRACE_PUT sent as the
    first frame to a token-gated worker gets the auth ERROR, reaches
    neither pickle nor the trace store."""
    put = _trace_put(tmp_path)
    server = WorkerServer(auth_token="secret").start_background()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as conn:
            conn.settimeout(5.0)
            send_frame(conn, TRACE_PUT, put)
            kind, msg = recv_frame(conn)
        assert kind == ERROR and msg["auth_failed"]
        assert "before TRACE_PUT" in msg["message"]
        assert server.traces_installed == 0
        assert not server.store.contains(put["key"])
    finally:
        server.stop()
    assert pickle_calls == []


def test_trace_put_that_is_not_a_container_installs_nothing(tmp_path):
    """The worker decodes a pushed container once before installing
    it; bytes that are not one get ERROR and leave store and memo
    untouched."""
    clear_build_memo()
    put = _trace_put(tmp_path, base64.b64encode(b"PK\x03\x04 not a trace").decode())
    server = WorkerServer().start_background()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as conn:
            conn.settimeout(5.0)
            send_frame(conn, HELLO, {"protocol": PROTOCOL_VERSION, "points": 1, "auth": False})
            assert recv_frame(conn)[0] == HELLO_ACK
            send_frame(conn, TRACE_PUT, put)
            kind, msg = recv_frame(conn)
        assert kind == ERROR and "TRACE_PUT" in msg["message"]
        assert server.traces_installed == 0
        assert not server.store.contains(put["key"])
        assert runner.memoized_workload(put["key"]) is None
    finally:
        server.stop()


def _refused_unread(conn, kind: int) -> None:
    """Send only the header of an 8 MB ``kind`` frame on ``conn``: the
    worker must answer with the auth ERROR or close within 2 s, not
    wait for the body."""
    conn.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, 8 * 1024 * 1024))
    conn.settimeout(2.0)
    try:
        reply, msg = recv_frame(conn)
    except FrameError:
        return  # closed from the header alone
    assert reply == ERROR and msg["auth_failed"]


def test_gated_worker_reads_no_large_body_before_authentication():
    """Until the challenge succeeds a gated worker reads bodies of at
    most PREAUTH_MAX_FRAME bytes: a larger TRACE_PUT first frame, or a
    larger AUTH_RESPONSE, is refused from its header."""
    server = WorkerServer(auth_token="secret").start_background()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as conn:
            _refused_unread(conn, TRACE_PUT)
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as conn:
            conn.settimeout(5.0)
            send_frame(conn, HELLO, {"protocol": PROTOCOL_VERSION, "points": 1, "auth": True})
            assert recv_frame(conn)[0] == AUTH_CHALLENGE
            _refused_unread(conn, AUTH_RESPONSE)
        assert server.auth_failures == 1
        assert server.traces_installed == 0
        assert server.store.entries() == []
    finally:
        server.stop()


def _bad_put(tmp_path, case: str) -> dict:
    """A TRACE_PUT body with a decodable container that no coordinator
    sends."""
    put = _trace_put(tmp_path)
    if case == "no-workload":
        del put["workload"]
    elif case == "no-key":
        del put["key"]
    elif case == "made-up-workload":
        put.update(key="0" * 64, workload={"name": "nope"})
    elif case == "another-traces-key":
        put["key"] = WorkloadSpec(name="uniform").cache_key()
    else:  # a trace file goes by its content digest, not its cache key
        wspec = WorkloadSpec(trace_path=str(tmp_path / "put.npz"))
        put.update(key=wspec.cache_key(), workload=wspec.to_dict())
    return put


def _refused_in_session(server, kind: int, body: dict) -> str:
    """Send ``body`` as a ``kind`` frame in a session of ``server`` on a
    socket pair, after HELLO: the worker must answer ERROR and end the
    session. Returns the ERROR's message."""
    coord_end, worker_end = socket.socketpair()
    session = threading.Thread(target=server.serve_connection, args=(worker_end,))
    session.start()
    try:
        coord_end.settimeout(5.0)
        send_frame(coord_end, HELLO, {"protocol": PROTOCOL_VERSION, "points": 1, "auth": False})
        assert recv_frame(coord_end)[0] == HELLO_ACK
        send_frame(coord_end, kind, body)
        reply, msg = recv_frame(coord_end)
        assert reply == ERROR
        assert coord_end.recv(1) == b""  # the session ended
    finally:
        coord_end.close()
        session.join(timeout=5.0)
    assert not session.is_alive()
    return msg["message"]


@pytest.mark.parametrize(
    "case",
    [
        "no-workload",
        "no-key",
        "made-up-workload",
        "another-traces-key",
        "trace-file-under-its-cache-key",
    ],
)
def test_trace_put_under_a_key_no_coordinator_sends_installs_nothing(
    tmp_path, monkeypatch, case
):
    """A push is checked before anything is stored: its workload must
    parse, and its key must be the generated workload's cache key or
    the trace file's digest, so no push plants bytes under another
    trace's key. Any other body gets ERROR, leaves the store empty and
    ends the session with no exception escaping its thread."""
    put = _bad_put(tmp_path, case)
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    clear_build_memo()
    server = WorkerServer().start()
    try:
        assert "bad TRACE_PUT" in _refused_in_session(server, TRACE_PUT, put)
        assert server.store.entries() == []
    finally:
        server.stop()
    assert escaped == []
    assert server.traces_installed == 0


@pytest.mark.parametrize(
    "kind, body",
    [
        (TRACE_QUERY, {"digests": 5, "files": {}}),
        (TRACE_QUERY, {"digests": [5], "files": {}}),
        (TRACE_QUERY, {"digests": [], "files": 5}),
        (TRACE_QUERY, {"digests": [], "files": {"key": 5}}),
        (CHUNK, {"indices": [0], "specs": [{}]}),
        (CHUNK, {"chunk_id": "1", "indices": [0], "specs": [{}]}),
        (CHUNK, {"chunk_id": 1, "indices": [0], "specs": {}}),
        (CHUNK, {"chunk_id": 1, "indices": [0], "specs": [5]}),
    ],
    ids=[
        "query-digests-not-a-list",
        "query-digests-not-strings",
        "query-files-not-an-object",
        "query-files-not-strings",
        "chunk-without-chunk-id",
        "chunk-id-not-an-int",
        "chunk-specs-not-a-list",
        "chunk-specs-not-objects",
    ],
)
def test_malformed_query_or_chunk_gets_error_and_ends_the_session(
    monkeypatch, kind, body
):
    """The reader checks a TRACE_QUERY's ``digests`` and ``files`` and a
    CHUNK's ``chunk_id`` and ``specs`` before it looks anything up or
    queues a chunk: a body no coordinator sends gets ERROR, the session
    ends, no chunk stays in flight, and no exception escapes a thread."""
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    server = WorkerServer().start()
    try:
        message = _refused_in_session(server, kind, body)
    finally:
        server.stop()
    assert message.startswith(f"bad {KIND_NAMES[kind]}: ")
    assert escaped == []
    assert server._active_chunks == 0 and server.chunks_served == 0


def test_authenticated_sweep_matches_serial_with_one_trace_push(
    tmp_path, monkeypatch, pickle_calls
):
    """The gated handshake end to end: rows equal the serial rows, the
    one trace crosses once, and the worker stores the coordinator's
    trace-store entry byte for byte."""
    coord_store = TraceStore(tmp_path / "coordinator")
    monkeypatch.setattr(store_mod, "_store", coord_store)
    monkeypatch.setattr(store_mod, "_store_resolved", True)
    clear_build_memo()
    spec_dicts = _spec_dicts()
    serial = canonical_rows(sweep_specs(_base(), _points()))
    key = _base().workload.cache_key()
    server = WorkerServer(auth_token="secret").start_background()
    stats: dict = {}
    try:
        metrics = farm_sweep(
            spec_dicts,
            {"addrs": [server.address], "auth_token": "secret"},
            stats_out=stats,
        )
        assert server.store.read_bytes(key) == coord_store.read_bytes(key)
    finally:
        server.stop()
    rows = [
        {**p, **{k: v for k, v in m.items() if k not in p}}
        for p, m in zip(_points(), metrics)
    ]
    assert canonical_rows(rows) == serial
    assert stats["trace_pushes"] == {server.address: 1}
    assert server.traces_installed == 1
    assert server.auth_failures == 0
    assert pickle_calls == []


def test_mutual_auth_worker_must_prove_secret_too():
    """An imposter 'worker' that answers HELLO_ACK without the auth
    proof must be refused before any spec or trace is sent."""
    from repro.analysis.farm import FarmCoordinator, _WorkerLink

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    addr = f"127.0.0.1:{listener.getsockname()[1]}"

    def imposter():
        conn, _ = listener.accept()
        conn.settimeout(5.0)
        recv_frame(conn)  # HELLO
        conn.sendall(encode_frame(HELLO_ACK, {"protocol": 2}))  # no challenge
        try:
            recv_frame(conn)
        except Exception:
            pass
        conn.close()

    th = threading.Thread(target=imposter, daemon=True)
    th.start()
    coord = FarmCoordinator(
        _spec_dicts(("history",)), [addr], auth_token="secret"
    )
    sock = coord._dial(addr)
    link = _WorkerLink(addr, sock)
    try:
        with pytest.raises(AuthError, match="did not request authentication"):
            coord._handshake(link)
    finally:
        sock.close()
        listener.close()
        th.join(timeout=5.0)


def test_v1_peer_rejected_with_typed_mismatch():
    """A peer answering HELLO with ERROR naming protocol v1 surfaces as
    a permanent ProtocolMismatch — never retried, sweep degrades."""
    from repro.analysis.farm import FarmCoordinator, ProtocolMismatch, _WorkerLink

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    addr = f"127.0.0.1:{listener.getsockname()[1]}"

    def v1_peer():
        conn, _ = listener.accept()
        conn.settimeout(5.0)
        recv_frame(conn)  # HELLO (v2-framed; a real v1 peer would choke
        # earlier, but the ERROR escape hatch is version-agnostic)
        conn.sendall(
            encode_frame(ERROR, {"message": "v1 here", "protocol": 1})
        )
        conn.close()

    th = threading.Thread(target=v1_peer, daemon=True)
    th.start()
    coord = FarmCoordinator(_spec_dicts(("history",)), [addr])
    sock = coord._dial(addr)
    wl = _WorkerLink(addr, sock)
    try:
        with pytest.raises(ProtocolMismatch, match="v1"):
            coord._handshake(wl)
    finally:
        sock.close()
        listener.close()
        th.join(timeout=5.0)


# ---------------------------------------------------------- graceful drain
def test_drain_finishes_chunk_sends_result_then_closes():
    """After request_drain, an in-flight CHUNK still yields its RESULT;
    the connection then closes without a NEXT, and the server stops."""
    from repro.analysis.farm import BEGIN, CHUNK, NEXT, RESULT

    server = WorkerServer().start_background()
    spec = _spec_dicts(("history",))[0]
    try:
        conn = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        conn.settimeout(10.0)
        send_frame(conn, HELLO, {"protocol": PROTOCOL_VERSION, "points": 1, "auth": False})
        kind, _ = recv_frame(conn)
        assert kind == HELLO_ACK
        send_frame(conn, BEGIN, {})
        kind, _ = recv_frame(conn)
        assert kind == NEXT
        server.request_drain()  # drain lands before/during the chunk
        send_frame(
            conn,
            CHUNK,
            {"chunk_id": 1, "indices": [0], "specs": [spec], "point_timeout": None},
        )
        kind, msg = recv_frame(conn)
        assert kind == RESULT and len(msg["rows"]) == 1
        # no NEXT follows: the worker closed after delivering the result
        try:
            assert conn.recv(1) == b""
        except OSError:
            pass
        conn.close()
        # the drain ended with the last chunk, which woke the accept loop
        server._thread.join(timeout=0.1)
        assert not server._thread.is_alive()
    finally:
        server.stop()
    assert server.draining
    assert server.points_served == 1


def test_drain_idle_worker_stops_immediately():
    server = WorkerServer().start_background()
    try:
        server.request_drain()
        server._thread.join(timeout=0.1)
        assert not server._thread.is_alive()
    finally:
        server.stop()


def test_stop_right_after_start_returns_immediately():
    server = WorkerServer().start_background()
    t0 = time.monotonic()
    server.stop()
    assert time.monotonic() - t0 < 0.1
    assert not server._thread.is_alive()


# ------------------------------------------------------------ chaos gates
def test_chaos_soak_rows_bit_identical_and_digest_stable():
    """The acceptance gate: nonzero resets + partial frames + stalls,
    two workers, rows bit-identical to the clean serial reference and
    the schedule digest reproduced across sweeps."""
    chaos = ChaosSpec(
        seed=5,
        reset_rate=0.10,
        partial_rate=0.10,
        stall_rate=0.15,
        partition_rate=0.05,
        trigger_span=1500,
        max_events_per_conn=6,
    )
    summary = chaos_soak(_spec_dicts(), chaos, workers=2, sweeps=2, reconnect=6)
    assert summary["rows_identical"] is True
    assert summary["digest_stable"] is True
    assert len(summary["schedule_digest"]) == 64
    # the same spec in a fresh process state re-derives the digest
    from repro.analysis.chaos import ChaosSchedule

    assert ChaosSchedule(chaos).schedule_digest() == summary["schedule_digest"]
