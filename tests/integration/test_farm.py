"""Integration tests for the distributed sweep farm (ISSUE 7).

Embedded :class:`~repro.analysis.worker.WorkerServer` instances stand
in for remote hosts over loopback sockets — the full protocol runs
(handshake, trace-by-reference negotiation, pull-based chunking,
streamed results), just without a second machine. Contracts:

* farm rows are bit-identical to the canonical serial rows, in order;
* a worker killed mid-chunk, or silent past ``liveness`` after taking
  a chunk, gets its points requeued to survivors and the sweep still
  completes exactly;
* each point is in flight on one link at a time, so a straggler point
  is evaluated once;
* each trace digest is pushed to a given worker at most once, and a
  second sweep against a warm worker pushes nothing;
* a trace file travels by content, so a worker evaluates the
  coordinator's bytes of it even when it cannot open the path, and
  again after the file is rewritten;
* zero reachable workers degrades to local evaluation with a warning;
* a worker-side evaluation error surfaces as the same
  :class:`~repro.analysis.sweep.SweepPointError` a local sweep raises,
  with the offending spec attached;
* under ``point_timeout`` a chunk is one point, so a slow point is the
  one the timeout names;
* every farm connection has Nagle off, and a sweep returns as soon as
  its last row lands.
"""

import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import runner
from repro.analysis import farm as farm_mod
from repro.analysis import worker as worker_mod
from repro.analysis.cache import canonical_rows
from repro.analysis.farm import (
    BEGIN,
    CHUNK,
    DONE,
    HELLO,
    HELLO_ACK,
    NEXT,
    PING,
    PONG,
    PROTOCOL_VERSION,
    RESULT,
    TRACE_HAVE,
    TRACE_QUERY,
    FarmCoordinator,
    FarmUnavailable,
    FrameError,
    farm_sweep,
    recv_frame,
    send_frame,
    set_nodelay,
)
from repro.analysis.sweep import SweepPointError, eval_specs, sweep_specs
from repro.analysis.worker import WorkerServer
from repro.runner import clear_build_memo, merge_spec
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.trace.io import save_multitrace


def _base():
    return ExperimentSpec(
        workload=WorkloadSpec(
            name="pingpong", params={"num_threads": 4, "rounds": 12}
        ),
        machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )


def _points(schemes=("never-migrate", "always-migrate", "history", "costaware")):
    return [{"scheme": s} for s in schemes]


@pytest.fixture
def workers():
    """Two embedded loopback workers, stopped afterwards."""
    servers = [WorkerServer(port=0).start_background() for _ in range(2)]
    try:
        yield servers
    finally:
        for s in servers:
            s.stop()


def _addrs(servers):
    return [s.address for s in servers]


# ---------------------------------------------------------------- e2e parity
def test_farm_rows_bit_identical_to_serial(workers):
    base, points = _base(), _points()
    serial = canonical_rows(sweep_specs(base, points))
    farm = sweep_specs(base, points, farm=_addrs(workers))
    assert farm == serial
    # key order survives the wire too (frames preserve insertion
    # order), so farm and local sweeps render byte-identical tables
    assert [list(r) for r in farm] == [list(r) for r in serial]


def test_one_row_format_across_every_path(workers, tmp_path, monkeypatch):
    """Serial, local processes, a socket farm, a warm cache and a resume
    store all hand back the same rows, key order included."""
    import importlib

    from repro.analysis.cache import ResultCache

    # force local processes even on a 1-CPU host
    monkeypatch.setattr(
        importlib.import_module("repro.analysis.sweep"), "default_workers", lambda: 2
    )
    base, points = _base(), _points()
    serial = sweep_specs(base, points)
    with ResultCache(tmp_path / "cache.rpjl") as store:
        sweep_specs(base, points, cache=store)
    with ResultCache(tmp_path / "cache.rpjl") as store:
        warm = sweep_specs(base, points, cache=store)
        assert store.hits == len(points)
    sweep_specs(base, points, resume=tmp_path / "resume.rpjl")
    paths = {
        "workers=2": sweep_specs(base, points, workers=2),
        "farm": sweep_specs(base, points, farm=_addrs(workers)),
        "warm cache": warm,
        "resume": sweep_specs(base, points, resume=tmp_path / "resume.rpjl"),
    }
    for name, rows in paths.items():
        assert rows == serial, name
        assert [list(r) for r in rows] == [list(r) for r in serial], name


def test_farm_streams_results_in_spec_order(workers):
    """Row order is by point index regardless of which worker computed
    what — the scheme column must match the grid exactly."""
    schemes = ("history", "costaware", "never-migrate", "random")
    rows = sweep_specs(base_spec := _base(), _points(schemes),
                       farm=_addrs(workers))
    assert [r["scheme"] for r in rows] == list(schemes)
    assert base_spec.workload is not None  # grid untouched by the sweep


# ----------------------------------------------------------- death mid-chunk
class FlakyWorker(WorkerServer):
    """A worker whose session drops on its second CHUNK (the
    ``fail_after_chunks`` hook: no RESULT ever comes); ``gone`` is set
    once that session has ended."""

    def __init__(self) -> None:
        super().__init__(port=0, fail_after_chunks=2)
        self.gone = threading.Event()

    def serve_connection(self, conn) -> None:
        try:
            super().serve_connection(conn)
        finally:
            self.gone.set()


class HeldWorker(WorkerServer):
    """A steady worker whose evaluator starts only once ``release`` is
    set. With one-point chunks it holds at most one point until then,
    so a flaky peer is sure to take its second chunk whichever worker
    the coordinator serves first; its reader still answers PINGs."""

    def __init__(self, release: threading.Event) -> None:
        super().__init__(port=0)
        self.release = release

    def _evaluate(self, *args) -> None:
        self.release.wait(60.0)  # a guard against a hang, not a delay
        super()._evaluate(*args)


def flaky_and_held_workers() -> tuple[FlakyWorker, HeldWorker]:
    """A started flaky worker, and a steady one held until the flaky
    one's session has dropped."""
    flaky = FlakyWorker().start_background()
    return flaky, HeldWorker(flaky.gone).start_background()


def test_worker_death_mid_chunk_requeues_to_survivor(monkeypatch):
    """One of two workers drops its connection after its second
    one-point CHUNK (the test hook simulates a crash: no RESULT, no FIN
    handshake beyond the reset). The survivor must absorb the requeued
    points and the rows must still be exactly the serial rows. The
    survivor evaluates nothing until the drop, so it cannot drain the
    grid first. Redial is off: with it, whether the flaky worker ends
    dead depends on whether the steady one finishes during a redial
    sleep (the ``test_reconnect_*`` tests in
    ``test_farm_robustness.py`` cover redial)."""
    base, points = _base(), _points(
        ("never-migrate", "always-migrate", "history", "costaware",
         "random", "distance-1", "distance-2", "addr-history")
    )
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]
    serial = canonical_rows(sweep_specs(base, points))
    monkeypatch.setattr(farm_mod, "MAX_CHUNK", 1)

    flaky, steady = flaky_and_held_workers()
    stats: dict = {}
    try:
        with pytest.warns(RuntimeWarning, match="dropped"):
            metrics = farm_sweep(
                spec_dicts,
                {"addrs": [flaky.address, steady.address], "reconnect": 0},
                stats_out=stats,
            )
    finally:
        flaky.stop()
        steady.stop()

    rows = [
        {**p, **{k: v for k, v in m.items() if k not in p}}
        for p, m in zip(points, metrics)
    ]
    assert canonical_rows(rows) == serial
    assert stats["requeues"] >= 1
    assert stats["workers"][flaky.address]["dead"] is True
    assert stats["workers"][steady.address]["dead"] is False


def _silent_worker(listener, took_chunk: threading.Event, pings: list) -> None:
    """A fake worker: it completes the handshake, claims every trace,
    takes one CHUNK and from then on sends nothing, PINGs included."""
    conn, _ = listener.accept()
    with conn:
        conn.settimeout(10.0)
        try:
            while True:
                kind, msg = recv_frame(conn)
                if kind == HELLO:
                    send_frame(conn, HELLO_ACK, {"protocol": PROTOCOL_VERSION})
                elif kind == TRACE_QUERY:
                    send_frame(conn, TRACE_HAVE, {"have": msg["digests"]})
                elif kind == BEGIN:
                    send_frame(conn, NEXT, {})
                elif kind == CHUNK:
                    took_chunk.set()
                elif kind == PING:
                    pings.append(time.monotonic())
                elif kind == DONE:
                    return
        except (FrameError, OSError):
            pass  # the coordinator closed the connection


def test_silent_worker_is_declared_dead_and_its_chunk_requeued(workers, monkeypatch):
    """The failure detector: a worker that takes a CHUNK and then answers
    nothing, not even a PING, is declared dead once it has been silent
    past ``liveness``; its chunk is requeued to a live worker and the
    rows are the serial rows."""
    spec_dicts = [merge_spec(_base(), p).to_dict() for p in _points()]
    reference, _ = eval_specs(spec_dicts)
    took_chunk, pings = threading.Event(), []
    real = runner.run_spec_dict

    def after_the_silent_worker_takes_a_chunk(spec):
        took_chunk.wait(10.0)
        return real(spec)

    monkeypatch.setattr(runner, "run_spec_dict", after_the_silent_worker_takes_a_chunk)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        silent = f"127.0.0.1:{listener.getsockname()[1]}"
        fake = threading.Thread(target=_silent_worker, args=(listener, took_chunk, pings))
        fake.start()
        stats: dict = {}
        t0 = time.monotonic()
        try:
            with pytest.warns(RuntimeWarning, match="silent for more than 0.3s"):
                rows = farm_sweep(
                    spec_dicts,
                    {
                        "addrs": [silent, workers[0].address],
                        "heartbeat": 0.05,
                        "liveness": 0.3,
                        "reconnect": 0,
                    },
                    stats_out=stats,
                )
        finally:
            took_chunk.set()
            fake.join(timeout=10.0)
    assert rows == reference
    assert time.monotonic() - t0 < 5.0
    assert pings  # pinged while silent, then declared dead
    assert stats["requeues"] == 1
    assert stats["workers"][silent]["dead"] is True
    assert stats["workers"][workers[0].address]["points"] == len(spec_dicts)


# ------------------------------------------------------------------ straggler
def test_straggler_point_is_evaluated_once(workers, monkeypatch):
    """A point is in flight on one link at a time: while one worker runs
    a slow point, the other serves the rest of the grid and then waits,
    so the two workers evaluate each point once between them."""
    spec_dicts = [
        merge_spec(_base(), p).to_dict()
        for p in _points(
            ("never-migrate", "always-migrate", "history", "costaware",
             "random", "distance-1", "distance-2", "addr-history")
        )
    ]
    reference, _ = eval_specs(spec_dicts)
    real = runner.run_spec_dict
    evaluated: list[int] = []

    def slow_first(spec):
        evaluated.append(spec_dicts.index(spec))
        if spec == spec_dicts[0]:
            time.sleep(0.5)
        return real(spec)

    monkeypatch.setattr(runner, "run_spec_dict", slow_first)
    assert farm_sweep(spec_dicts, _addrs(workers)) == reference
    assert sorted(evaluated) == list(range(len(spec_dicts)))
    # a worker counts a point served once its RESULT is on the wire
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and (
        sum(s.points_served for s in workers) < len(spec_dicts)
    ):
        time.sleep(0.01)
    assert sum(s.points_served for s in workers) == len(spec_dicts)


# -------------------------------------------------------- trace-by-reference
def test_trace_pushed_at_most_once_per_worker(workers):
    """First sweep pushes the single distinct trace once per worker;
    a second sweep against the same (warm) workers pushes nothing —
    the worker's store answers TRACE_QUERY from disk."""
    base, points = _base(), _points()
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]

    stats1: dict = {}
    farm_sweep(spec_dicts, _addrs(workers), stats_out=stats1)
    assert all(n <= 1 for n in stats1["trace_pushes"].values())
    assert sum(s.traces_installed for s in workers) == len(
        [s for s in workers if stats1["trace_pushes"].get(s.address)]
    )

    stats2: dict = {}
    farm_sweep(spec_dicts, _addrs(workers), stats_out=stats2)
    assert all(n == 0 for n in stats2["trace_pushes"].values())


def test_rewritten_trace_file_reaches_a_worker_that_cannot_open_it(
    tmp_path, monkeypatch
):
    """A ``repro worker`` started in another directory cannot open a
    relative trace path. It evaluates the coordinator's bytes of the
    file, and after the file is rewritten in place it evaluates the new
    bytes, not the copy its store took from the first sweep."""
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        cwd=elsewhere, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("repro worker listening on "), line
        addr = line.rsplit(" ", 1)[-1]
        base = _base().replace(
            workload=WorkloadSpec(name="trace-file", trace_path="t.npz")
        )
        seen = []
        # the second trace is longer, so the rewrite changes the file's
        # size as well as its mtime
        for seed, accesses in ((1, 32), (2, 48)):
            trace = runner.build_workload(WorkloadSpec(
                name="uniform",
                params={"num_threads": 4, "accesses_per_thread": accesses,
                        "seed": seed},
            ))
            save_multitrace(trace, tmp_path / "t.npz")
            serial = canonical_rows(sweep_specs(base, _points()))
            assert sweep_specs(base, _points(), farm=[addr]) == serial
            seen.append(serial)
        assert seen[0] != seen[1]
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_unreadable_trace_file_fails_its_point_before_dispatch(workers, tmp_path):
    """A trace file the coordinator cannot read fails its first point
    with the error the serial loop gives, before any worker is asked,
    so no worker evaluates some other file at that path."""
    base = _base().replace(workload=WorkloadSpec(
        name="trace-file", trace_path=str(tmp_path / "missing.npz")
    ))
    spec_dicts = [merge_spec(base, p).to_dict() for p in _points()]
    with pytest.raises(SweepPointError, match="in this process") as err:
        farm_sweep(spec_dicts, _addrs(workers))
    assert err.value.point == spec_dicts[0]
    assert all(s.chunks_served == 0 for s in workers)


# ------------------------------------------------------------- degradation
def test_zero_workers_degrades_to_local_pool():
    base, points = _base(), _points(("history", "costaware"))
    serial = canonical_rows(sweep_specs(base, points))
    # a bound-but-never-accepting port: connections are refused
    with pytest.warns(RuntimeWarning) as rec:
        rows = sweep_specs(base, points, farm=["127.0.0.1:1"])
    msgs = [str(w.message) for w in rec]
    assert any("unreachable" in m for m in msgs)
    assert any("degrading to local evaluation" in m for m in msgs)
    assert canonical_rows(rows) == serial


def test_farm_sweep_raises_farm_unavailable_directly():
    base, points = _base(), _points(("history",))
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]
    with pytest.warns(RuntimeWarning, match="unreachable"):
        with pytest.raises(FarmUnavailable):
            farm_sweep(spec_dicts, ["127.0.0.1:1"])


# ------------------------------------------------------------ worker errors
def test_worker_side_error_surfaces_as_sweep_point_error(workers):
    """A spec that builds on the coordinator but fails to evaluate on
    the worker (bogus scheme param) must abort the sweep with the
    exception type a local sweep raises, spec attached."""
    base = _base()
    points = [{"scheme": "history"},
              {"scheme": {"name": "distance-1", "params": {"distance": -7}}}]
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]
    clear_build_memo()
    with pytest.raises(SweepPointError) as err:
        farm_sweep(spec_dicts, _addrs(workers))
    assert "worker" in str(err.value)
    assert err.value.point == spec_dicts[1]


def test_point_timeout_names_the_slow_point(workers, monkeypatch):
    """Under ``point_timeout`` every chunk is one point and the
    coordinator keeps the deadline, so the error names the point that
    overran it, never a later point of the same chunk."""
    spec_dicts = [merge_spec(_base(), p).to_dict() for p in _points()]
    real = runner.run_spec_dict

    def slow_first(spec):
        if spec == spec_dicts[0]:
            time.sleep(2.5)
        return real(spec)

    monkeypatch.setattr(runner, "run_spec_dict", slow_first)
    t0 = time.monotonic()
    with pytest.raises(SweepPointError, match="point_timeout") as err:
        farm_sweep(
            spec_dicts,
            [workers[0].address],
            point_timeout=1.0,
        )
    assert err.value.point == spec_dicts[0]
    assert "worker" in str(err.value)
    assert time.monotonic() - t0 < 2.5


# ------------------------------------------------------------ local session
def test_unstarted_server_serves_a_session_without_a_trace_store(tmp_path, monkeypatch):
    """A local worker process's session: a server that never listens
    serves one end of a socket pair. Its rows are the serial rows, it
    opens no trace store (no ``repro-worker-traces-*`` directory), and
    a trace frame gets ERROR instead of reaching a store it lacks."""
    import tempfile
    import threading

    from repro.analysis.farm import (
        BEGIN, CHUNK, ERROR, HELLO, HELLO_ACK, NEXT, PROTOCOL_VERSION, RESULT,
        TRACE_QUERY, recv_frame, send_frame,
    )

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spec_dicts = [merge_spec(_base(), p).to_dict() for p in _points()]
    server = WorkerServer(idle_timeout=None)
    coord_end, worker_end = socket.socketpair()
    th = threading.Thread(target=server.serve_connection, args=(worker_end,))
    th.start()
    try:
        coord_end.settimeout(10.0)
        send_frame(coord_end, HELLO, {"protocol": PROTOCOL_VERSION, "points": 4, "auth": False})
        assert recv_frame(coord_end)[0] == HELLO_ACK
        send_frame(coord_end, BEGIN, {})
        assert recv_frame(coord_end)[0] == NEXT
        send_frame(coord_end, CHUNK, {"chunk_id": 1, "indices": [0, 1, 2, 3], "specs": spec_dicts})
        kind, msg = recv_frame(coord_end)
        assert kind == RESULT
        assert msg["rows"] == eval_specs(spec_dicts)[0]
        assert recv_frame(coord_end)[0] == NEXT
        send_frame(coord_end, TRACE_QUERY, {"digests": ["k"], "files": {}})
        kind, msg = recv_frame(coord_end)
        assert kind == ERROR and "TRACE_QUERY" in msg["message"]
    finally:
        coord_end.close()
        th.join(timeout=10.0)
    assert not th.is_alive()
    assert server.store is None
    assert list(tmp_path.glob("repro-worker-traces-*")) == []


# ------------------------------------------------------------ session threads
@pytest.fixture
def held_chunks(monkeypatch):
    """The worker's chunk evaluation waits for ``release``; ``started``
    receives the thread each chunk runs on as it begins."""
    release, started = threading.Event(), queue.Queue()

    def held(specs):
        started.put(threading.current_thread())
        release.wait(10.0)
        return eval_specs(specs)

    monkeypatch.setattr(worker_mod, "eval_specs", held)
    yield release, started
    release.set()


def _open_session(server) -> socket.socket:
    """A connection to ``server`` past HELLO and BEGIN, Nagle off as a
    coordinator's is (else a DONE right after a CHUNK waits out the
    worker's delayed ACK)."""
    conn = set_nodelay(socket.create_connection(("127.0.0.1", server.port), timeout=10.0))
    send_frame(conn, HELLO, {"protocol": PROTOCOL_VERSION, "points": 1, "auth": False})
    assert recv_frame(conn)[0] == HELLO_ACK
    send_frame(conn, BEGIN, {})
    assert recv_frame(conn)[0] == NEXT
    return conn


def _chunk(chunk_id: int) -> dict:
    spec = merge_spec(_base(), {"scheme": "history"}).to_dict()
    return {"chunk_id": chunk_id, "indices": [0], "specs": [spec]}


def test_ping_mid_chunk_gets_pong_before_result(held_chunks):
    release, started = held_chunks
    server = WorkerServer().start_background()
    try:
        with _open_session(server) as conn:
            send_frame(conn, CHUNK, _chunk(1))
            started.get(timeout=10.0)
            send_frame(conn, PING, {})
            assert recv_frame(conn)[0] == PONG
            release.set()
            kind, msg = recv_frame(conn)
            assert kind == RESULT and msg["chunk_id"] == 1 and len(msg["rows"]) == 1
            assert recv_frame(conn)[0] == NEXT
            send_frame(conn, DONE, {})
    finally:
        server.stop()


def test_done_mid_chunk_ends_the_session_without_a_result(held_chunks):
    """DONE while a chunk runs ends the session at once: the connection
    closes with no RESULT, the evaluator's late RESULT fails to send
    and it exits, the chunk no longer counts as in flight, and the
    server takes the next session."""
    release, started = held_chunks
    server = WorkerServer().start_background()
    try:
        with _open_session(server) as conn:
            send_frame(conn, CHUNK, _chunk(1))
            evaluator = started.get(timeout=10.0)
            send_frame(conn, DONE, {})
            assert conn.recv(1) == b""
        release.set()
        evaluator.join(timeout=10.0)
        assert not evaluator.is_alive()
        assert server._active_chunks == 0
        with _open_session(server) as conn:
            send_frame(conn, CHUNK, _chunk(2))
            kind, msg = recv_frame(conn)
            assert kind == RESULT and msg["chunk_id"] == 2
            send_frame(conn, DONE, {})
    finally:
        server.stop()
    assert server.chunks_served == 1


def test_one_session_evaluates_every_chunk_on_one_thread(held_chunks):
    """A session starts one evaluator, not one thread per chunk, and
    stops it when the session ends. Thread objects are compared, not
    idents, which a finished thread hands on."""
    release, started = held_chunks
    release.set()
    server = WorkerServer().start_background()
    try:
        with _open_session(server) as conn:
            for chunk_id in (1, 2, 3):
                send_frame(conn, CHUNK, _chunk(chunk_id))
                assert recv_frame(conn)[0] == RESULT
                assert recv_frame(conn)[0] == NEXT
            send_frame(conn, DONE, {})
            assert conn.recv(1) == b""
    finally:
        server.stop()
    threads = [started.get_nowait() for _ in range(3)]
    assert threads[0] is threads[1] is threads[2]
    threads[0].join(timeout=10.0)
    assert not threads[0].is_alive()


def test_racing_done_and_result_count_each_chunk_out_once(monkeypatch):
    """Eight client threads race DONE against their chunk's RESULT, 25
    sessions each, under a short switch interval. Half the
    chunks take 20 ms and half the clients wait 10 ms before DONE, so
    each side wins some races, and some are close. Whichever side wins,
    the reader or the evaluator counts the chunk out exactly once: none
    is left in flight, and every RESULT a client read was counted as
    served."""

    def quick(specs):
        if random.random() < 0.5:
            time.sleep(0.02)
        return [{"total_cost": 1.0}] * len(specs), None

    monkeypatch.setattr(worker_mod, "eval_specs", quick)
    server = WorkerServer().start_background()
    received = []

    def client(seed):
        rng = random.Random(seed)
        for i in range(25):
            with _open_session(server) as conn:
                send_frame(conn, CHUNK, _chunk(i))
                time.sleep(rng.choice([0.0, 0.01]))
                send_frame(conn, DONE, {})
                while True:  # whatever the session sent before it closed
                    try:
                        kind, _ = recv_frame(conn)
                    except (FrameError, OSError):
                        break
                    received.append(kind == RESULT)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client, args=(k,)) for k in range(8)]
        for th in clients:
            th.start()
        for th in clients:
            th.join(timeout=60.0)
        assert not any(th.is_alive() for th in clients)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and (
            server._active_chunks or server.chunks_served != sum(received)
        ):
            time.sleep(0.01)
    finally:
        sys.setswitchinterval(interval)
        server.stop()
    assert 0 < sum(received) < 200  # both sides won races
    assert server._active_chunks == 0
    assert server.chunks_served == sum(received)


# ------------------------------------------------------------ wire latency
def _nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_every_farm_connection_is_nodelay(workers, monkeypatch):
    """The worker writes RESULT then NEXT; with Nagle on, NEXT would
    wait for the coordinator's delayed ACK of RESULT. Both ends of
    every connection must have it off."""
    seen = {"coordinator": [], "worker": []}
    dial, session = FarmCoordinator._dial, WorkerServer._session

    def spy_dial(self, addr):
        sock = dial(self, addr)
        seen["coordinator"].append(_nodelay(sock))
        return sock

    def spy_session(self, conn, *args):
        seen["worker"].append(_nodelay(conn))
        return session(self, conn, *args)

    monkeypatch.setattr(FarmCoordinator, "_dial", spy_dial)
    monkeypatch.setattr(WorkerServer, "_session", spy_session)
    base = _base()
    farm_sweep([merge_spec(base, p).to_dict() for p in _points()], _addrs(workers))
    assert len(seen["coordinator"]) == 2 and all(seen["coordinator"])
    assert len(seen["worker"]) == 2 and all(seen["worker"])


def test_sweep_returns_as_soon_as_its_last_row_lands(workers, monkeypatch):
    """A worker that asks for work while the other holds the last chunk
    waits on the sweep's end, not out a fixed idle period: with that
    period stretched to 2 s, the sweep still returns right after its
    last row."""
    monkeypatch.setattr(farm_mod, "IDLE_POLL_SECONDS", 2.0)
    slow = {
        "machine": {"name": "em2", "cores": 4, "preset": "small-test"},
        "workload": {
            "name": "uniform",
            "params": {"num_threads": 4, "accesses_per_thread": 2000},
        },
    }
    base = _base()
    spec_dicts = [merge_spec(base, p).to_dict() for p in (slow, {"scheme": "history"})]
    landed: list[float] = []
    farm_sweep(
        spec_dicts,
        _addrs(workers),
        on_row=lambda i, row: landed.append(time.monotonic()),
    )
    returned = time.monotonic()
    assert len(landed) == 2
    assert returned - landed[-1] < 0.1
