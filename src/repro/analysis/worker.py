"""Farm worker: serve sweep points to a :mod:`repro.analysis.farm`
coordinator.

``repro worker --listen HOST:PORT`` runs one of these. The server is a
plain accept loop — one thread per connection, one coordinator per
connection — speaking the framed protocol defined in
:mod:`repro.analysis.farm`. Chunk evaluation happens on a background
thread so the connection loop keeps answering heartbeat PINGs while a
long point runs; the coordinator distinguishes "slow but alive" from
"dead" by exactly those PONGs.

Traces arrive by reference: the coordinator sends digests
(``WorkloadSpec.cache_key`` for a generated workload, the content
digest for a trace file), the worker answers with what its local
:class:`~repro.trace.store.TraceStore` already holds, and only the
missing traces are pushed — each installed once into the store
(persistent across connections *and reconnects*, so a coordinator that
redials after a socket reset pushes nothing) and seeded into the
per-process build memo. A trace-file point is evaluated on the store
copy the session's digest names, never on whatever this host has at
that path. Workloads the coordinator never pushed are simply
regenerated from their spec, which is always correct because specs
are deterministic.

Untrusted networks: start the worker with an auth token and every
connection must pass an HMAC-SHA256 challenge-response before any
other frame is served — the worker sends a fresh nonce, the
coordinator proves knowledge of the shared secret, and the worker's
``HELLO_ACK`` carries the reciprocal proof. A failed proof gets a
permanent typed ``ERROR`` and the connection is dropped.

Graceful drain: :meth:`WorkerServer.request_drain` (wired to
SIGTERM/SIGINT by the CLI) finishes the in-flight chunk, sends its
RESULT, then closes — the coordinator sees a clean close with nothing
in flight, so nothing is requeued and no work is lost. The accept loop
waits on the listener and a wake-up socket pair through one selector,
so a stop or a finished drain ends it at once rather than at the next
poll tick.
"""

from __future__ import annotations

import os
import secrets
import selectors
import shutil
import socket
import tempfile
import threading
import time

from repro.analysis.farm import (
    AUTH_CHALLENGE,
    AUTH_RESPONSE,
    BEGIN,
    CHUNK,
    DONE,
    ERROR,
    HELLO,
    HELLO_ACK,
    KIND_NAMES,
    NEXT,
    PING,
    PONG,
    PROTOCOL_VERSION,
    RESULT,
    TRACE_HAVE,
    TRACE_OK,
    TRACE_PUT,
    TRACE_QUERY,
    FrameError,
    ProtocolMismatch,
    auth_mac,
    check_mac,
    parse_hostport,
    recv_frame,
    send_frame,
    set_nodelay,
)
from repro.analysis.sweep import eval_specs
from repro.trace.store import TraceStore
from repro.util.errors import ConfigError, ReproError


class WorkerServer:
    """A loopback-or-remote sweep worker.

    ``fail_after_chunks`` is a test hook: the connection is dropped
    without a result when that many chunks have been received, which is
    how the requeue-on-death tests kill a worker mid-chunk
    deterministically (the *server* survives, so a reconnecting
    coordinator gets a fresh connection whose chunk counter restarts).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_dir: str | None = None,
        idle_timeout: float = 600.0,
        verbose: bool = False,
        fail_after_chunks: int | None = None,
        auth_token: str | None = None,
    ) -> None:
        if not isinstance(idle_timeout, (int, float)) or idle_timeout <= 0:
            raise ConfigError(
                f"worker idle timeout must be a positive number of seconds, "
                f"got {idle_timeout!r}"
            )
        if auth_token is not None and (
            not isinstance(auth_token, str) or not auth_token
        ):
            raise ConfigError("worker auth token must be a non-empty string")
        self.host = host
        self.port = port
        self._own_trace_dir = trace_dir is None
        self.trace_dir = trace_dir or tempfile.mkdtemp(prefix="repro-worker-traces-")
        self.store = TraceStore(self.trace_dir)
        self.idle_timeout = float(idle_timeout)
        self.verbose = verbose
        self.fail_after_chunks = fail_after_chunks
        self.auth_token = auth_token
        self.traces_installed = 0
        self.chunks_served = 0
        self.points_served = 0
        self.auth_failures = 0
        self._sock: socket.socket | None = None
        self._sel: selectors.BaseSelector | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._active_chunks = 0
        self._drain_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WorkerServer":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(8)
        self.port = sock.getsockname()[1]
        sock.setblocking(False)
        self._sock = sock
        # registered here, not in serve_forever, so a stop() that lands
        # before the accept loop starts still finds its wake-up waiting
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(sock, selectors.EVENT_READ)
        self._sel.register(self._wake_r, selectors.EVENT_READ)
        return self

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def serve_forever(self) -> None:
        assert self._sel is not None, "call start() first"
        while True:
            self._sel.select()  # a connection, or the wake-up from _halt
            if self._stop.is_set():
                break
            try:
                conn, _peer = self._sock.accept()
            except BlockingIOError:
                continue  # the peer gave up before we accepted
            except OSError:
                break
            if self._draining.is_set():
                try:
                    conn.close()  # no new sessions while draining
                except OSError:
                    pass
                continue
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def start_background(self) -> "WorkerServer":
        """start() plus a daemon accept thread (tests, embedded use)."""
        self.start()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def request_drain(self) -> None:
        """Graceful shutdown: finish the in-flight chunk (its RESULT
        still goes out), refuse new work, then stop. Idle workers stop
        immediately. Idempotent."""
        self._draining.set()
        with self._drain_lock:
            if self._active_chunks == 0:
                self._halt()

    def _halt(self) -> None:
        """Set the stop flag and wake the accept loop to see it."""
        self._stop.set()
        if self._wake_w is not None:
            try:
                self._wake_w.send(b"x")
            except OSError:
                pass  # already woken, or already closed

    def stop(self) -> None:
        self._halt()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        for closable in (self._sel, self._sock, self._wake_r, self._wake_w):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass
        if self._own_trace_dir:
            shutil.rmtree(self.trace_dir, ignore_errors=True)

    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[worker {self.address}] {msg}", flush=True)

    # -- per-connection protocol -------------------------------------------
    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(self.idle_timeout)
        chunks_on_conn = 0
        authed = self.auth_token is None
        try:
            set_nodelay(conn)
            self._session(conn, chunks_on_conn, authed)
        except OSError:
            pass  # peer vanished mid-send; the coordinator's problem now
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _session(self, conn: socket.socket, chunks_on_conn: int, authed: bool) -> None:
        files: dict[str, str] = {}  # this session's trace files: cache key -> digest
        while True:
            try:
                kind, msg = recv_frame(conn)
            except ProtocolMismatch as exc:
                # tell the peer which version this side speaks, then drop
                try:
                    send_frame(
                        conn,
                        ERROR,
                        {"message": str(exc), "protocol": PROTOCOL_VERSION},
                    )
                except OSError:
                    pass
                return
            except (FrameError, OSError):
                return  # peer gone or garbage; nothing to answer
            if kind == HELLO:
                if not self._hello(conn, msg):
                    return
                authed = True
            elif not authed:
                # nothing but HELLO (which runs the challenge) is
                # served before authentication on a token-gated worker
                send_frame(
                    conn,
                    ERROR,
                    {
                        "message": "authentication required before "
                        + KIND_NAMES.get(kind, str(kind)),
                        "auth_failed": True,
                    },
                )
                return
            elif kind == PING:
                send_frame(conn, PONG, {})
            elif kind == TRACE_QUERY:
                files = dict(msg.get("files", {}))
                have = [
                    k
                    for k in msg.get("digests", [])
                    if self.store.contains(k)
                ]
                send_frame(conn, TRACE_HAVE, {"have": have})
            elif kind == TRACE_PUT:
                self._install_trace(conn, msg)
            elif kind == BEGIN:
                send_frame(conn, NEXT, {})
            elif kind == CHUNK:
                chunks_on_conn += 1
                if (
                    self.fail_after_chunks is not None
                    and chunks_on_conn >= self.fail_after_chunks
                ):
                    self._log("test hook: dropping connection mid-chunk")
                    return  # simulated crash: no RESULT ever comes
                if not self._serve_chunk(conn, msg, files):
                    return
            elif kind == DONE:
                return
            else:
                send_frame(
                    conn,
                    ERROR,
                    {
                        "message": "unexpected "
                        + KIND_NAMES.get(kind, str(kind))
                    },
                )
                return

    def _hello(self, conn: socket.socket, msg: dict) -> bool:
        """HELLO (+ optional auth challenge) -> HELLO_ACK. False drops."""
        peer_proto = msg.get("protocol")
        if peer_proto is not None and peer_proto != PROTOCOL_VERSION:
            send_frame(
                conn,
                ERROR,
                {
                    "message": f"peer announces farm protocol v{peer_proto}, "
                    f"this worker speaks v{PROTOCOL_VERSION}",
                    "protocol": PROTOCOL_VERSION,
                },
            )
            return False
        ack = {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "cpu_count": os.cpu_count(),
        }
        if self.auth_token is not None:
            nonce = secrets.token_hex(32)
            send_frame(conn, AUTH_CHALLENGE, {"nonce": nonce})
            try:
                kind, resp = recv_frame(conn)
            except (FrameError, OSError):
                self.auth_failures += 1
                return False
            if kind != AUTH_RESPONSE or not check_mac(
                self.auth_token, "coordinator", nonce, resp.get("mac")
            ):
                self.auth_failures += 1
                self._log("authentication failed; dropping connection")
                send_frame(
                    conn,
                    ERROR,
                    {
                        "message": "authentication failed",
                        "auth_failed": True,
                    },
                )
                return False
            ack["auth"] = auth_mac(self.auth_token, "worker", nonce)
        send_frame(conn, HELLO_ACK, ack)
        return True

    def _install_trace(self, conn: socket.socket, msg: dict) -> None:
        key = msg["key"]
        trace = msg["trace"]
        if not self.store.contains(key):
            self.store.put(key, trace)
            self.traces_installed += 1
        from repro.runner import seed_workload_memo

        wdict = msg["workload"]
        if wdict.get("trace_path") is not None:
            wdict = self._stored_file(wdict, key)
        seed_workload_memo(wdict, trace)
        send_frame(conn, TRACE_OK, {"key": key})
        self._log(f"installed trace {key[:12]}")

    def _serve_chunk(self, conn: socket.socket, msg: dict, files: dict) -> bool:
        """Evaluate one chunk; keep answering PINGs meanwhile.

        The connection loop waits on the socket and on a self-pipe the
        eval thread writes when it finishes, so PINGs are answered as
        they arrive and the RESULT goes out the instant the chunk is
        done. Returns False when the
        coordinator sent DONE mid-evaluation (it gave up on this
        worker) or the server is draining — either way the connection
        is finished, but a drain only closes *after* the RESULT went
        out, so nothing is requeued.
        """
        with self._drain_lock:
            self._active_chunks += 1
        box: dict = {}
        done_r, done_w = socket.socketpair()
        th = threading.Thread(
            target=self._eval_chunk, args=(msg, box, done_w, files), daemon=True
        )
        th.start()
        sel = selectors.DefaultSelector()
        sel.register(conn, selectors.EVENT_READ, "conn")
        sel.register(done_r, selectors.EVENT_READ, "done")
        try:
            finished = False
            while not finished and th.is_alive():
                events = sel.select()
                for key, _mask in events:
                    if key.data == "done":
                        finished = True
                        continue
                    try:
                        kind, _ = recv_frame(conn)
                    except (FrameError, OSError):
                        return False
                    if kind == PING:
                        send_frame(conn, PONG, {})
                    elif kind == DONE:
                        return False
        finally:
            sel.close()
            done_r.close()
            done_w.close()
            conn.settimeout(self.idle_timeout)
            with self._drain_lock:
                self._active_chunks -= 1
                if self._draining.is_set() and self._active_chunks == 0:
                    self._halt()
        th.join()
        send_frame(conn, RESULT, {"chunk_id": msg["chunk_id"], **box})
        self.chunks_served += 1
        self.points_served += len(box.get("rows", []))
        if self._draining.is_set():
            self._log("drained: RESULT sent, closing")
            return False
        send_frame(conn, NEXT, {})
        return True

    def _eval_chunk(self, msg: dict, box: dict, done_w, files: dict) -> None:
        t0 = time.perf_counter()
        try:
            specs = []
            for spec in msg.get("specs", []):
                try:
                    spec = self._local_spec(spec, files)
                except ReproError:
                    pass  # evaluating the spec reports it, naming its point
                specs.append(spec)
            rows, exc = eval_specs(specs)
            box["rows"] = rows
            if exc is not None:
                box["error"] = {"message": f"{type(exc).__name__}: {exc}"}
        finally:
            box.setdefault("rows", [])
            box["elapsed"] = time.perf_counter() - t0
            try:
                done_w.send(b"x")
            except OSError:
                pass

    def _local_spec(self, spec_dict: dict, files: dict) -> dict:
        """``spec_dict`` as this worker evaluates it: a generated
        workload seeded into the build memo from the local store, a
        trace file in the session's ``files`` pointed at the store copy
        of the coordinator's bytes (only rows travel back)."""
        wdict = spec_dict.get("workload")
        if wdict is None:
            return spec_dict
        from repro.runner import memoized_workload, seed_workload_memo
        from repro.spec import WorkloadSpec

        wspec = WorkloadSpec.from_dict(wdict)
        key = wspec.cache_key()
        if wspec.trace_path is not None:
            if key not in files:  # a coordinator that sent no ``files``
                return spec_dict
            return {**spec_dict, "workload": self._stored_file(wdict, files[key])}
        if memoized_workload(key) is None:
            trace = self.store.get(key)
            if trace is not None:
                seed_workload_memo(wspec, trace)
        return spec_dict

    def _stored_file(self, wdict: dict, digest: str) -> dict:
        """``wdict`` naming the store's copy of trace file ``digest``."""
        return {**wdict, "trace_path": str(self.store.path_for(digest))}


def main(args) -> int:
    """CLI entry point (``repro worker``)."""
    import signal

    host, port = parse_hostport(args.listen)
    server = WorkerServer(
        host=host,
        port=port,
        trace_dir=args.trace_dir,
        verbose=args.verbose,
        auth_token=getattr(args, "auth_token", None)
        or os.environ.get("REPRO_FARM_TOKEN")
        or None,
        idle_timeout=getattr(args, "worker_timeout", None) or 600.0,
    ).start()

    def _on_signal(signum, frame):
        if server.draining:  # second signal: stop hard
            raise SystemExit(130)
        print(
            "repro worker draining: finishing in-flight chunk "
            "(signal again to force quit)",
            flush=True,
        )
        server.request_drain()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    # the exact line scripts parse to learn an ephemeral port
    print(f"repro worker listening on {server.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0
