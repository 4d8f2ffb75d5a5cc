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

import json
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
    ERROR,
    HELLO,
    AuthError,
    encode_frame,
    farm_sweep,
    recv_frame,
)
from repro.analysis.journal import SweepJournal
from repro.analysis.sweep import SweepPointError, sweep_specs
from repro.analysis.worker import WorkerServer
from repro.runner import merge_spec
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec

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
def test_reconnect_resumes_trace_store_trace_pushed_once():
    """A worker that drops every connection after 3 chunks is redialed
    (backoff, same address) and finishes the sweep alone; its
    persistent store answers every post-reconnect trace negotiation,
    so the trace crosses the wire exactly once in total."""
    spec_dicts = _spec_dicts()
    steady = WorkerServer().start_background()
    try:
        reference = farm_sweep(spec_dicts, [steady.address])
    finally:
        steady.stop()
    flaky = WorkerServer(fail_after_chunks=3).start_background()
    stats: dict = {}
    try:
        metrics = farm_sweep(
            spec_dicts,
            {"addrs": [flaky.address], "chunk": 1, "reconnect": 4},
            stats_out=stats,
        )
    finally:
        flaky.stop()
    assert json.dumps(metrics) == json.dumps(reference)
    assert stats["reconnects"] >= 1
    assert stats["workers"][flaky.address]["reconnects"] >= 1
    assert flaky.traces_installed == 1  # at most once across reconnects
    assert stats["trace_pushes"][flaky.address] == 1


def test_reconnect_zero_keeps_old_die_fast_semantics():
    """``reconnect=0`` restores the pre-ISSUE-10 behaviour: a dropped
    worker stays dead and survivors absorb the requeue."""
    spec_dicts = _spec_dicts()
    flaky = WorkerServer(fail_after_chunks=2).start_background()
    steady = WorkerServer().start_background()
    stats: dict = {}
    try:
        with pytest.warns(RuntimeWarning, match="dropped"):
            farm_sweep(
                spec_dicts,
                {
                    "addrs": [flaky.address, steady.address],
                    "chunk": 1,
                    "reconnect": 0,
                },
                stats_out=stats,
            )
    finally:
        flaky.stop()
        steady.stop()
    assert stats["reconnects"] == 0
    assert stats["workers"][flaky.address]["dead"] is True


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


def test_mutual_auth_worker_must_prove_secret_too():
    """An imposter 'worker' that answers HELLO_ACK without the auth
    proof must be refused before any spec or trace is sent."""
    from repro.analysis.farm import HELLO_ACK, FarmCoordinator, _WorkerLink

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
    from repro.analysis.farm import BEGIN, CHUNK, HELLO_ACK, NEXT, RESULT, send_frame

    server = WorkerServer().start_background()
    spec = _spec_dicts(("history",))[0]
    try:
        conn = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        conn.settimeout(10.0)
        send_frame(conn, HELLO, {"protocol": 2, "points": 1, "auth": False})
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
