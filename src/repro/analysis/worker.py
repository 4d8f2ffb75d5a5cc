"""Farm worker: serve sweep points to a :mod:`repro.analysis.farm`
coordinator.

``repro worker --listen HOST:PORT`` runs one of these. The server is a
plain accept loop — one thread per connection, one coordinator per
connection — speaking the framed protocol defined in
:mod:`repro.analysis.farm`. A coordinator's local worker process runs
the same session (:meth:`WorkerServer.serve_connection`) on its end of
a socket pair, with no listener and no trace store.

A session has two threads: the connection's thread, its only reader,
and one evaluator, started at the first CHUNK and fed through a queue.
Both write under one per-session send lock (the reader its replies and
PONGs, the evaluator each RESULT and NEXT), so heartbeat PINGs are
answered while a long point runs; the coordinator tells "slow but
alive" from "dead" by those PONGs. The session's end closes the
connection under the lock, so a chunk still running fails to send its
RESULT and the evaluator exits. The reader checks the shape of each
TRACE_QUERY and CHUNK body before it looks anything up or queues a
chunk; a body no coordinator sends gets ERROR and ends the session.

Traces arrive by reference: the coordinator sends digests
(``WorkloadSpec.cache_key`` for a generated workload, the content
digest for a trace file), the worker answers with what its local
:class:`~repro.trace.store.TraceStore` already holds, and only the
missing traces are pushed. A push is checked before anything is
stored: its container decodes, its workload parses, and its key is
the one a coordinator sends for that workload (the cache key, or the
decoded trace's digest for a trace file), so no push plants bytes
under another trace's key; any other body gets ERROR and installs
nothing. A checked push is stored as the bytes received (persistent
across connections *and reconnects*, so a coordinator that redials
after a socket reset pushes nothing) and seeded into the per-process
build memo. A trace-file point is evaluated on the store copy the
session's digest names, never on whatever this host has at that path.
Workloads the coordinator never pushed are simply regenerated from
their spec, which is always correct because specs are deterministic.

Untrusted networks: start the worker with an auth token and every
connection must pass an HMAC-SHA256 challenge-response before any
other frame is served — the worker sends a fresh nonce, the
coordinator proves knowledge of the shared secret, and the worker's
``HELLO_ACK`` carries the reciprocal proof. A failed proof gets a
permanent typed ``ERROR`` and the connection is dropped. Until the
challenge succeeds the worker reads frame bodies of at most
:data:`~repro.analysis.farm.PREAUTH_MAX_FRAME` bytes; a longer
declared length closes the connection from the header alone.

Graceful drain: :meth:`WorkerServer.request_drain` (wired to
SIGTERM/SIGINT by the CLI) finishes the in-flight chunk, sends its
RESULT without a NEXT, then shuts the connection down — the
coordinator sees a clean close with nothing in flight, so nothing is
requeued and no work is lost. The accept loop waits on the listener
and a wake-up socket pair through one selector, so a stop or a
finished drain ends it at once rather than at the next poll tick.
"""

from __future__ import annotations

import base64
import os
import queue
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
    MAX_FRAME,
    NEXT,
    PING,
    PONG,
    PREAUTH_MAX_FRAME,
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
from repro.trace.io import decode_multitrace
from repro.trace.store import TraceStore
from repro.util.errors import ConfigError, ReproError


class WorkerServer:
    """A loopback-or-remote sweep worker.

    ``fail_after_chunks`` is a test hook: the connection is dropped
    without a result when that many chunks have been received, which is
    how the requeue-on-death tests kill a worker mid-chunk
    deterministically (the *server* survives, so a reconnecting
    coordinator gets a fresh connection whose chunk counter restarts).

    ``start()`` opens the trace store (in ``trace_dir``, else a
    temporary directory ``stop()`` removes); a server that never starts,
    as in a local worker process, has none. ``idle_timeout=None`` waits
    on a quiet connection forever.
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
        if idle_timeout is not None and (
            not isinstance(idle_timeout, (int, float)) or idle_timeout <= 0
        ):
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
        self._own_trace_dir = False
        self.trace_dir = trace_dir
        self.store: TraceStore | None = None
        self.idle_timeout = idle_timeout
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
        if self.trace_dir is None:
            self.trace_dir = tempfile.mkdtemp(prefix="repro-worker-traces-")
            self._own_trace_dir = True
        self.store = TraceStore(self.trace_dir)
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
                target=self.serve_connection, args=(conn,), daemon=True
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
    def serve_connection(self, conn: socket.socket) -> None:
        """Serve one coordinator session on ``conn``, then close it: a
        connection the accept loop took, or a local worker process's end
        of its socket pair. Returns on DONE or when the peer goes: then
        ``conn`` closes under the send ``lock``, and a chunk still
        ``owed`` its RESULT no longer holds a drain open."""
        conn.settimeout(self.idle_timeout)
        lock = threading.Lock()
        chunks: queue.SimpleQueue = queue.SimpleQueue()
        owed: list[dict] = []  # chunks queued whose RESULT has not gone out
        try:
            if conn.family in (socket.AF_INET, socket.AF_INET6):
                set_nodelay(conn)
            self._session(conn, lock, chunks, owed)
        except OSError:
            pass  # peer vanished mid-send; the coordinator's problem now
        finally:
            chunks.put(None)  # an idle evaluator exits now, a busy one at its RESULT
            with lock:
                conn.close()
                self._settle(len(owed))

    def _session(self, conn: socket.socket, lock, chunks, owed: list) -> None:
        """The session's reader: answer each frame, queue each CHUNK."""

        def send(kind: int, payload: dict) -> None:
            with lock:
                send_frame(conn, kind, payload)

        files: dict[str, str] = {}  # this session's trace files: cache key -> digest
        chunks_on_conn = 0
        authed = self.auth_token is None
        while True:
            try:
                kind, msg = recv_frame(conn, MAX_FRAME if authed else PREAUTH_MAX_FRAME)
            except ProtocolMismatch as exc:
                # tell the peer which version this side speaks, then drop
                try:
                    send(ERROR, {"message": str(exc), "protocol": PROTOCOL_VERSION})
                except OSError:
                    pass
                return
            except (FrameError, OSError):
                return  # peer gone or garbage; nothing to answer
            name = KIND_NAMES[kind]
            if kind == HELLO:
                if not self._hello(conn, send, msg):
                    return
                authed = True
            elif not authed:
                # nothing but HELLO (which runs the challenge) is
                # served before authentication on a token-gated worker
                send(
                    ERROR,
                    {
                        "message": f"authentication required before {name}",
                        "auth_failed": True,
                    },
                )
                return
            elif kind in (TRACE_QUERY, CHUNK) and (bad := _malformed(kind, msg)):
                send(ERROR, {"message": f"bad {name}: {bad}"})
                return
            elif kind == PING:
                send(PONG, {})
            elif kind == TRACE_QUERY and self.store is not None:
                files = msg.get("files", {})
                have = [k for k in msg.get("digests", []) if self.store.contains(k)]
                send(TRACE_HAVE, {"have": have})
            elif kind == TRACE_PUT and self.store is not None:
                if not self._install_trace(send, msg):
                    return
            elif kind == BEGIN:
                send(NEXT, {})
            elif kind == CHUNK:
                chunks_on_conn += 1
                if (
                    self.fail_after_chunks is not None
                    and chunks_on_conn >= self.fail_after_chunks
                ):
                    self._log("test hook: dropping connection mid-chunk")
                    return  # simulated crash: no RESULT ever comes
                if chunks_on_conn == 1:  # the session's one evaluator
                    threading.Thread(
                        target=self._evaluate,
                        args=(conn, lock, chunks, owed),
                        daemon=True,
                    ).start()
                with self._drain_lock:
                    self._active_chunks += 1
                owed.append(msg)
                chunks.put((msg, files))
            elif kind == DONE:
                return
            else:
                send(ERROR, {"message": f"unexpected {name}"})
                return

    def _settle(self, n: int) -> None:
        """Count ``n`` in-flight chunks out, answered or abandoned; a
        drain that waited on them halts the server once none is left."""
        with self._drain_lock:
            self._active_chunks -= n
            if self._draining.is_set() and self._active_chunks == 0:
                self._halt()

    def _hello(self, conn: socket.socket, send, msg: dict) -> bool:
        """HELLO (+ optional auth challenge) -> HELLO_ACK. False drops."""
        peer_proto = msg.get("protocol")
        if peer_proto is not None and peer_proto != PROTOCOL_VERSION:
            send(
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
            send(AUTH_CHALLENGE, {"nonce": nonce})
            try:
                kind, resp = recv_frame(conn, PREAUTH_MAX_FRAME)
            except (FrameError, OSError):
                self.auth_failures += 1
                return False
            if kind != AUTH_RESPONSE or not check_mac(
                self.auth_token, "coordinator", nonce, resp.get("mac")
            ):
                self.auth_failures += 1
                self._log("authentication failed; dropping connection")
                send(
                    ERROR,
                    {
                        "message": "authentication failed",
                        "auth_failed": True,
                    },
                )
                return False
            ack["auth"] = auth_mac(self.auth_token, "worker", nonce)
        send(HELLO_ACK, ack)
        return True

    def _install_trace(self, send, msg: dict) -> bool:
        """Check a pushed trace before anything is stored: its container
        decodes (bytes from outside the program), its ``workload``
        parses, and its ``key`` is the one a coordinator sends for that
        workload (a generated workload's cache key, a trace file's
        content digest), so no push plants bytes under another trace's
        key. Then store the bytes as received and seed the build memo.
        Any other body gets ERROR and installs nothing; False ends the
        session."""
        from repro.runner import seed_workload_memo
        from repro.spec import WorkloadSpec

        key = msg.get("key")
        try:
            wspec = WorkloadSpec.from_dict(msg["workload"])
            data = base64.b64decode(msg["trace"], validate=True)
            trace = decode_multitrace(data, f"TRACE_PUT {key}")
            expected = wspec.cache_key() if wspec.trace_path is None else trace.digest()
            if key != expected:
                raise ValueError(f"key does not name this trace ({expected})")
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            send(ERROR, {"message": f"bad TRACE_PUT {key}: {exc}"})
            return False
        if not self.store.contains(key):
            self.store.put(key, trace, data)
            self.traces_installed += 1
        wdict = msg["workload"]
        if wspec.trace_path is not None:
            wdict = self._stored_file(wdict, key)
        seed_workload_memo(wdict, trace)
        send(TRACE_OK, {"key": key})
        self._log(f"installed trace {key[:12]}")
        return True

    def _evaluate(self, conn, lock, chunks, owed: list) -> None:
        """A session's evaluator: run each queued chunk, then send its
        RESULT and NEXT; while the server drains, no NEXT follows. On
        every exit (the session's end, a drained RESULT, a failure) it
        shuts ``conn`` down, so the reader returns too."""
        try:
            for msg, files in iter(chunks.get, None):
                t0 = time.perf_counter()
                specs = []
                for spec in msg["specs"]:
                    try:
                        spec = self._local_spec(spec, files)
                    except ReproError:
                        pass  # evaluating the spec reports it, naming its point
                    specs.append(spec)
                rows, exc = eval_specs(specs)
                result = {"chunk_id": msg["chunk_id"], "rows": rows}
                if exc is not None:
                    result["error"] = {"message": f"{type(exc).__name__}: {exc}"}
                result["elapsed"] = time.perf_counter() - t0
                with lock:
                    send_frame(conn, RESULT, result)
                    owed.remove(msg)  # else the session's end settles it
                with self._drain_lock:  # every session's evaluator counts here
                    self.chunks_served += 1
                    self.points_served += len(rows)
                self._settle(1)
                if self._draining.is_set():
                    self._log("drained: RESULT sent, closing")
                    return
                with lock:
                    send_frame(conn, NEXT, {})
        except OSError:
            pass  # the session is over
        finally:
            with lock:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # closed already

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
        if memoized_workload(key) is None and self.store is not None:
            trace = self.store.get(key)
            if trace is not None:
                seed_workload_memo(wspec, trace)
        return spec_dict

    def _stored_file(self, wdict: dict, digest: str) -> dict:
        """``wdict`` naming the store's copy of trace file ``digest``."""
        return {**wdict, "trace_path": str(self.store.path_for(digest))}


def _malformed(kind: int, msg: dict) -> str | None:
    """Why a TRACE_QUERY or CHUNK body is not one a coordinator sends,
    or None when it is. The reader checks it before it looks anything
    up or queues a chunk, so a bad body gets ERROR rather than raising
    in a session thread. (A JSON object's keys are always strings.)"""
    if kind == TRACE_QUERY:
        digests, files = msg.get("digests", []), msg.get("files", {})
        if not isinstance(digests, list) or not all(isinstance(d, str) for d in digests):
            return "digests is not a list of strings"
        if not isinstance(files, dict) or not all(isinstance(d, str) for d in files.values()):
            return "files is not an object of strings"
        return None
    if not isinstance(msg.get("chunk_id"), int):
        return "chunk_id is not an int"
    specs = msg.get("specs")
    if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
        return "specs is not a list of objects"
    return None


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
