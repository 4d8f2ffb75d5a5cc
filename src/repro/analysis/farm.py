"""Distributed sweep farm — wire protocol and coordinator side.

The farm extends :func:`repro.analysis.sweep.sweep_specs` beyond one
box: ``repro worker --listen HOST:PORT`` processes
(:mod:`repro.analysis.worker`) serve sweep points, and a coordinator
built here shards the grid across them. Everything is stdlib
(``socket``/``struct``/``threading``) — the serialization substrate
already exists, because sweep points are canonical
:class:`~repro.spec.ExperimentSpec` dicts and traces are addressed by
digest: a generated workload by its ``WorkloadSpec.cache_key``, a trace
file by its content (:meth:`~repro.trace.events.MultiTrace.digest`),
since a path says nothing about the bytes behind it. ``TRACE_QUERY``'s
``files`` maps each trace file's cache key to that digest, so a worker
evaluates this session's bytes even when it holds another version's
under the same path, or cannot open the path at all.

Wire format (RPFM v4): every frame is a fixed header ``!4sBBxxI`` —
magic ``b"RPFM"``, protocol version, message kind, body length —
followed by a JSON body (insertion-ordered, so RESULT rows keep the
key order a local run produces). ``TRACE_PUT`` carries the trace
container's bytes (:func:`~repro.trace.io.encode_multitrace`, one
uncompressed record), base64-encoded, so nothing on the wire is ever
unpickled. A frame with the wrong magic, an unknown kind, an oversized
length, or a truncated or non-object body raises :class:`FrameError`;
a version field other than :data:`PROTOCOL_VERSION` raises
:class:`ProtocolMismatch` before the body is read, so incompatible
peers are rejected at the first frame —
a live worker answers a foreign version with an ``ERROR`` frame naming
its own version, which the coordinator surfaces as the same typed
:class:`ProtocolMismatch`.

Authentication: a worker started with an auth token challenges every
coordinator after its HELLO (``AUTH_CHALLENGE`` carrying a fresh
nonce); the coordinator proves knowledge of the shared secret with an
HMAC-SHA256 over the nonce (``AUTH_RESPONSE``), and the worker's
``HELLO_ACK`` carries the complementary worker-side proof, so both
directions are gated before any spec, trace, or result crosses the
wire; any other frame first is answered with the auth ``ERROR``, its
body parsed as JSON and nothing else, and until the challenge succeeds
a body over :data:`PREAUTH_MAX_FRAME` is refused from its header. A
bad or missing proof is answered with a *permanent* typed ``ERROR``
(:class:`AuthError` on the coordinator) that is never retried.

Session, coordinator's view of one worker::

    connect  -> HELLO            {"protocol": 4, "points": N, "auth": bool}
    <- AUTH_CHALLENGE            {"nonce"}              (token-gated workers)
    -> AUTH_RESPONSE             {"mac"}
    <- HELLO_ACK                 {"pid", "cpu_count", ["auth"], ...}
    -> TRACE_QUERY               {"digests": [digest, ...],
                                  "files": {cache_key: digest, ...}}
    <- TRACE_HAVE                {"have": [digest, ...]}
    -> TRACE_PUT                 {"key", "workload", "trace": base64 container}
                                 one per digest the worker lacks
    <- TRACE_OK                  per TRACE_PUT
    -> BEGIN
    <- NEXT                      worker pulls; this is the work-stealing
    -> CHUNK                     {"chunk_id", "indices", "specs", ...}
    <- RESULT                    {"chunk_id", "rows", "elapsed"}
    <- NEXT                      ... until the grid drains ...
    -> DONE

Pull-based stealing: workers ask (``NEXT``) whenever idle, so a fast
host simply asks more often — there is no static shard. A chunk is one
point while ``point_timeout`` is set; otherwise it is a quarter of a
fair share of the grid (⌈N/4L⌉ for N points on L links, and
:data:`MAX_CHUNK` points at most), and once a worker's speed is known,
from an EMA of its observed seconds/point, no more than
:data:`CHUNK_TARGET_SECONDS` of its work. Each point is in flight on
one link at a time. Results stream back incrementally and are placed by
point index, so the final row order is deterministic no matter which
worker computed what.

Local links: the same coordinator feeds local worker processes
(``local=N``, which ``sweep_specs`` sets from ``workers``). Each runs
the ``repro worker`` session on its end of a socket pair, so every
link is served by one loop (:meth:`FarmCoordinator._serve`). They are
forked processes, not loopback ``repro worker`` listeners: a process
forked for the sweep already holds every trace the parent built, so it
is offered none, where a socket worker is pushed each trace before
``BEGIN``.

Failure semantics: the coordinator PINGs an idle link every
``heartbeat`` seconds; a worker silent past its liveness ceiling, or
whose connection errors out or closes (a local process that exits), is
declared dead and its in-flight chunk is re-queued to the survivors.
Dropped socket links are then *redialed* with jittered exponential
backoff (``reconnect`` attempts per outage) — the worker's persistent
:class:`~repro.trace.store.TraceStore` answers the re-run trace
negotiation from disk, so a reconnect never re-ships a trace. A worker
that answers its PINGs is alive however long its chunk runs, so only
``point_timeout`` bounds a slow point on a live worker (without it,
idle links wait for the point, or for a requeue to take on). While it
is set every chunk is one point and the coordinator keeps its
deadline; a point still running past it raises
:class:`~repro.analysis.sweep.SweepPointError` naming that point (a
local process running it is killed). A point that fails on a worker
raises the same error, naming the point. Zero reachable workers
raises :class:`FarmUnavailable`, which ``sweep_specs`` answers by
evaluating locally with a warning; if every worker dies mid-sweep, the
leftover points are finished in this process instead of being lost.

Durability: ``on_row(i, row)`` is called with every completed row as
it lands, once per point;
:func:`~repro.analysis.sweep.sweep_specs` records it in its result
stores, so a restarted sweep dispatches only the missing points.
"""

from __future__ import annotations

import base64
import hashlib
import hmac as hmac_mod
import json
import random
import socket
import struct
import threading
import time
import warnings
from collections import deque
from typing import Mapping

from repro.analysis.sweep import SweepPointError, eval_serially, point_failed
from repro.util.errors import ConfigError, ReproError

# -------------------------------------------------------------- wire layer
#: v2 added the AUTH_CHALLENGE/AUTH_RESPONSE handshake leg; v3 makes
#: every body JSON (TRACE_PUT carries container bytes, base64); v4's
#: TRACE_PUT carries the one-record container. Older peers are
#: rejected with a typed :class:`ProtocolMismatch` at the first frame.
PROTOCOL_VERSION = 4
MAGIC = b"RPFM"
HEADER = struct.Struct("!4sBBxxI")  # magic, version, kind, pad, body length
MAX_FRAME = 256 * 1024 * 1024
#: the body ceiling a token-gated worker reads with until a HELLO's
#: challenge succeeds: HELLO and AUTH_RESPONSE bodies are under 100
#: bytes, and a longer declared length is refused from its header
PREAUTH_MAX_FRAME = 64 * 1024

HELLO = 1
HELLO_ACK = 2
TRACE_QUERY = 3
TRACE_HAVE = 4
TRACE_PUT = 5
TRACE_OK = 6
BEGIN = 7
NEXT = 8
CHUNK = 9
RESULT = 10
DONE = 11
PING = 12
PONG = 13
ERROR = 14
AUTH_CHALLENGE = 15
AUTH_RESPONSE = 16

KIND_NAMES = {
    HELLO: "HELLO",
    HELLO_ACK: "HELLO_ACK",
    TRACE_QUERY: "TRACE_QUERY",
    TRACE_HAVE: "TRACE_HAVE",
    TRACE_PUT: "TRACE_PUT",
    TRACE_OK: "TRACE_OK",
    BEGIN: "BEGIN",
    NEXT: "NEXT",
    CHUNK: "CHUNK",
    RESULT: "RESULT",
    DONE: "DONE",
    PING: "PING",
    PONG: "PONG",
    ERROR: "ERROR",
    AUTH_CHALLENGE: "AUTH_CHALLENGE",
    AUTH_RESPONSE: "AUTH_RESPONSE",
}


class FarmError(ReproError):
    """Base class for distributed-farm failures."""


class FrameError(FarmError):
    """A wire frame was truncated, oversized, or malformed."""


class ProtocolMismatch(FrameError):
    """The peer speaks a different farm protocol version."""


class AuthError(FarmError):
    """The authentication handshake failed (bad or missing shared
    secret). Permanent — the coordinator never retries it."""


class FarmUnavailable(FarmError):
    """No farm worker was reachable; callers evaluate locally instead."""


def _header(kind: int, length: int) -> bytes:
    if length > MAX_FRAME:
        raise FrameError(
            f"{KIND_NAMES.get(kind, kind)} body is {length} bytes, "
            f"over the {MAX_FRAME}-byte frame ceiling"
        )
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, length)


def encode_frame(kind: int, payload) -> bytes:
    """One wire frame: header plus JSON body."""
    # insertion order is preserved deliberately: RESULT rows keep the
    # exact key order a local evaluation produces, so farm and local
    # sweeps render byte-identical tables
    body = json.dumps(payload).encode("utf-8")
    return _header(kind, len(body)) + body


def send_frame(sock: socket.socket, kind: int, payload) -> None:
    sock.sendall(encode_frame(kind, payload))


def trace_put_frame(key: str, workload: dict, container: bytes) -> list[bytes]:
    """The TRACE_PUT frame ``{"key", "workload", "trace": base64 of
    container}`` as pieces to send in order: the bytes
    :func:`encode_frame` gives, without its ``str`` copies of the
    base64 text. Base64 needs no JSON escaping, so its bytes are spliced
    into the body as they are; the frame's largest allocation is the
    base64 text itself, 4/3 of the container."""
    head = json.dumps({"key": key, "workload": workload, "trace": ""})[:-2].encode("utf-8")
    text = base64.b64encode(container)
    return [_header(TRACE_PUT, len(head) + len(text) + 2) + head, text, b'"}']


def set_nodelay(sock: socket.socket) -> socket.socket:
    """Turn Nagle's algorithm off on a farm TCP connection.

    The protocol is request/response over small frames, so coalescing
    gains nothing and costs a round trip: a worker writes ``RESULT``
    then ``NEXT``, and with Nagle on ``NEXT`` waits for the
    coordinator's delayed ACK of ``RESULT`` (40 ms on Linux) before it
    leaves the worker.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        piece = sock.recv(n - len(buf))
        if not piece:
            raise FrameError(
                f"connection closed mid-frame ({len(buf)}/{n} bytes read)"
            )
        buf.extend(piece)
    return bytes(buf)


def recv_frame(sock: socket.socket, max_body: int = MAX_FRAME) -> tuple[int, dict]:
    """Read one frame; return ``(kind, payload)``.

    Raises :class:`ProtocolMismatch` on a foreign version (checked
    before the body is read) and :class:`FrameError` on anything else
    that is not a well-formed frame: a declared length over
    ``max_body`` (refused before any body byte is read), or a body
    that is not a JSON object. ``socket.timeout`` passes through so
    callers can interleave heartbeats with blocking reads.
    """
    magic, version, kind, length = HEADER.unpack(_recv_exact(sock, HEADER.size))
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolMismatch(
            f"peer speaks farm protocol v{version}, this side v{PROTOCOL_VERSION}"
        )
    if kind not in KIND_NAMES:
        raise FrameError(f"unknown frame kind {kind}")
    if length > max_body:
        raise FrameError(
            f"{KIND_NAMES[kind]} frame declares {length} bytes, "
            f"over the {max_body}-byte ceiling"
        )
    body = _recv_exact(sock, length)
    try:
        payload = json.loads(body.decode("utf-8"))
    except Exception as exc:
        raise FrameError(f"malformed {KIND_NAMES[kind]} body: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(f"malformed {KIND_NAMES[kind]} body: not a JSON object")
    return kind, payload


def auth_mac(token: str, role: str, nonce: str) -> str:
    """HMAC-SHA256 proof for one side of the challenge-response.

    ``role`` ("coordinator"/"worker") domain-separates the two
    directions so a worker cannot reflect the coordinator's own proof
    back at it; the protocol version is folded in so a proof minted
    under one protocol revision never validates under another.
    """
    msg = f"rpfm-v{PROTOCOL_VERSION}|{role}|{nonce}".encode()
    return hmac_mod.new(token.encode(), msg, hashlib.sha256).hexdigest()


def check_mac(token: str, role: str, nonce: str, mac) -> bool:
    """Constant-time verification of one proof."""
    if not isinstance(mac, str):
        return False
    return hmac_mod.compare_digest(auth_mac(token, role, nonce), mac)


def parse_hostport(addr: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; :class:`FarmError` otherwise."""
    host, sep, port = str(addr).rpartition(":")
    if not sep or not host:
        raise FarmError(f"farm address must be HOST:PORT, got {addr!r}")
    try:
        return host, int(port)
    except ValueError:
        raise FarmError(f"farm address {addr!r} has a non-integer port") from None


# ------------------------------------------------------------- coordinator
CONNECT_TIMEOUT = 3.0
HEARTBEAT_INTERVAL = 1.0
LIVENESS_TIMEOUT = 15.0
CHUNK_TARGET_SECONDS = 0.5
MAX_CHUNK = 64
#: a link asking for work while the rest is in flight elsewhere
#: re-checks for requeued points this often
IDLE_POLL_SECONDS = 0.05
#: seconds an idle local process gets to exit before it is killed
LOCAL_EXIT_SECONDS = 5.0
#: redial attempts per outage before a dropped worker is abandoned
RECONNECT_ATTEMPTS = 2
RECONNECT_BASE_SECONDS = 0.1
RECONNECT_MAX_SECONDS = 10.0

_FARM_KEYS = frozenset({"addrs", "auth_token", "heartbeat", "liveness", "reconnect"})


def normalize_farm(farm) -> dict | None:
    """The ``farm=`` argument as a config dict (or None when absent).

    Accepts the historical list of ``"host:port"`` strings, or a
    mapping with ``addrs`` plus optional ``auth_token`` / ``heartbeat``
    / ``liveness`` / ``reconnect`` overrides. Unknown keys
    raise :class:`~repro.util.errors.ConfigError` naming the options.
    """
    if not farm:
        return None
    if isinstance(farm, Mapping):
        cfg = dict(farm)
        unknown = sorted(set(cfg) - _FARM_KEYS)
        if unknown:
            raise ConfigError(
                f"unknown farm option(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(_FARM_KEYS))}"
            )
        cfg["addrs"] = [str(a) for a in cfg.get("addrs", []) or []]
        return cfg
    return {"addrs": [str(a) for a in farm]}


def _check_intervals(heartbeat: float, liveness: float) -> tuple[float, float]:
    """Validate the heartbeat/liveness pair; returns them as floats."""
    for name, value in (("heartbeat", heartbeat), ("liveness", liveness)):
        if not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(
                f"farm {name} must be a positive number of seconds, got {value!r}"
            )
    if liveness <= heartbeat:
        raise ConfigError(
            f"farm liveness timeout ({liveness}s) must exceed the "
            f"heartbeat interval ({heartbeat}s), or every worker is "
            "declared dead between two pings"
        )
    return float(heartbeat), float(liveness)


class _WorkerLink:
    """Coordinator-side state for one worker (survives redials)."""

    def __init__(self, addr: str, sock: socket.socket | None = None) -> None:
        self.addr = addr
        self.where = f"on worker {addr}"
        self.sock = sock
        self.sec_per_point: float | None = None  # EMA of observed latency
        self.points_done = 0
        self.chunks_done = 0
        self.traces_pushed = 0
        self.reconnects = 0
        self.dead = False
        #: True once the current session got past BEGIN — used to tell
        #: productive outages (worth redialing again) from barren ones
        #: (e.g. a draining worker that accepts TCP but drops the session)
        self.progressed = False


class _LocalLink(_WorkerLink):
    """A local worker process, served over its end of a socket pair."""

    def __init__(self, addr: str, sock: socket.socket, proc) -> None:
        super().__init__(addr, sock)
        self.proc = proc


def _local_worker(sock: socket.socket, inherited, auth_token) -> None:
    """A local link's process: one ``repro worker`` session on its end
    of a socket pair, on a server that never listens and so opens no
    trace store. It ends on DONE or when the coordinator closes its
    end. ``inherited`` are coordinator ends a fork copied into this
    process; closing them lets each process see its own end close."""
    from repro.analysis.worker import WorkerServer

    for other in inherited:
        other.close()
    WorkerServer(idle_timeout=None, auth_token=auth_token).serve_connection(sock)


class FarmCoordinator:
    """Shard one sweep's spec dicts across worker links.

    A link is a socket to a ``repro worker`` (one per ``farm``
    address) or a local worker process (``local`` of them, started for
    this sweep and stopped when it ends). Every link pulls its chunks
    from one pending queue, so chunk sizing, requeue, ``point_timeout``
    and placement by point index are the same for both.

    ``run()`` returns the list of metrics dicts (JSON-canonical, one
    per spec, in spec order) and fills :attr:`stats` with per-worker
    accounting — chunk counts, points, trace pushes, requeues,
    reconnects — which the tests and the bench read directly.
    """

    def __init__(
        self,
        spec_dicts: list[dict],
        farm: list[str] = (),
        point_timeout: float | None = None,
        heartbeat: float = HEARTBEAT_INTERVAL,
        liveness: float = LIVENESS_TIMEOUT,
        reconnect: int = RECONNECT_ATTEMPTS,
        auth_token: str | None = None,
        on_row=None,
        local: int = 0,
    ) -> None:
        if not farm and local < 1:
            raise FarmUnavailable("empty farm address list")
        if not isinstance(reconnect, int) or reconnect < 0:
            raise ConfigError(
                f"farm reconnect must be a non-negative int, got {reconnect!r}"
            )
        self.spec_dicts = list(spec_dicts)
        self.farm = list(farm)
        self.local = local
        self.point_timeout = point_timeout
        self.heartbeat, self.liveness = _check_intervals(heartbeat, liveness)
        self.reconnect = reconnect
        self.auth_token = auth_token
        self.on_row = on_row
        n = len(self.spec_dicts)
        self.rows: list[dict | None] = [None] * n
        self.remaining = n
        self.lock = threading.Lock()
        self.done_evt = threading.Event()
        self.abort_exc: Exception | None = None
        self._share = 1  # chunk size bound, set by run() from grid and links
        self._chunk_ctr = 0
        self._build_lock = threading.Lock()
        # container bytes no trace store keeps: trace files as read,
        # traces this process encoded
        self._containers: dict[str, bytes] = {}
        self._rng = random.Random(0xFA12)  # reconnect jitter only
        # the point indices of each link's chunk awaiting RESULT: a link
        # that fails has them requeued, a busy local process is killed
        self._inflight: dict[_WorkerLink, list[int]] = {}
        self.pending: deque[int] = deque(range(n))
        if self.remaining == 0:
            self.done_evt.set()
        # socket workers are offered every trace by digest; local
        # processes build (or inherit) their own
        self._workload_by_key: dict[str, dict] = {}
        self._files: dict[str, str] = {}  # trace file cache key -> digest
        for spec in self.spec_dicts if self.farm else ():
            if spec.get("workload") is not None:
                self._offer(spec)
        self.stats: dict = {
            "points": n,
            "workers": {},
            "requeues": 0,
            "chunks": 0,
            "trace_pushes": {},
            "local_leftovers": 0,
            "reconnects": 0,
        }

    # -- public entry ------------------------------------------------------
    def run(self) -> list[dict]:
        if self.remaining == 0:
            return self.rows
        # local processes start before this sweep's threads and sockets
        # exist, so a fork copies neither
        links: list[_WorkerLink] = self._start_local()
        try:
            links += self._connect_all()
            if not links and not self.local:
                raise FarmUnavailable(
                    f"no reachable farm workers among {', '.join(self.farm)}"
                )
            self._share = -(-len(self.pending) // (4 * max(1, len(links))))
            threads = [
                threading.Thread(target=self._serve, args=(link,), daemon=True)
                for link in links
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            for link in links:
                if isinstance(link, _LocalLink):
                    self._stop_local(link)
        if self.abort_exc is not None:
            raise self.abort_exc
        leftovers = [i for i, r in enumerate(self.rows) if r is None]
        if leftovers:
            # every worker died mid-sweep: degrade, never lose points
            warnings.warn(
                f"all farm workers died; evaluating {len(leftovers)} "
                "remaining point(s) in this process",
                RuntimeWarning,
                stacklevel=2,
            )
            self.stats["local_leftovers"] = len(leftovers)
            eval_serially(
                [self.spec_dicts[i] for i in leftovers],
                lambda j, row: self._land(leftovers[j], row),
            )
        for link in links:
            self.stats["workers"][link.addr] = {
                "points": link.points_done,
                "chunks": link.chunks_done,
                "sec_per_point": link.sec_per_point,
                "reconnects": link.reconnects,
                "dead": link.dead,
            }
        return self.rows  # fully populated

    def _land(self, index: int, row: dict) -> None:
        self.rows[index] = row
        if self.on_row is not None:
            self.on_row(index, row)

    # -- local processes ---------------------------------------------------
    def _start_local(self) -> list[_LocalLink]:
        """Start the local worker processes. They fork where the
        platform can, so each inherits the traces this process already
        built and starts in milliseconds; a spawned process would
        import the package and rebuild every trace first."""
        import multiprocessing

        if not self.local:
            return []
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        links: list[_LocalLink] = []
        for k in range(self.local):
            sock, child_end = socket.socketpair()
            inherited = [link.sock for link in links] + [sock]
            proc = ctx.Process(
                target=_local_worker,
                args=(child_end, inherited, self.auth_token),
                name=f"repro-local-{k}",
                daemon=True,
            )
            try:
                proc.start()
            except OSError as exc:  # no processes to be had on this host
                warnings.warn(
                    f"cannot start local worker {k}: {exc}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                sock.close()
                break
            finally:
                child_end.close()
            sock.settimeout(max(self.liveness, CONNECT_TIMEOUT))  # as _dial does
            links.append(_LocalLink(f"local-{k}", sock, proc))
        return links

    def _stop_local(self, link: _LocalLink) -> None:
        """End a local process: closing the coordinator's end ends its
        session, so an idle one exits; a busy one (a hung point, an
        aborted sweep) is killed."""
        with self.lock:
            busy = link in self._inflight
        link.sock.close()
        if not busy:
            link.proc.join(LOCAL_EXIT_SECONDS)
        if link.proc.exitcode is None:
            link.proc.kill()
            link.proc.join()

    # -- connection management --------------------------------------------
    def _dial(self, addr: str) -> socket.socket:
        host, port = parse_hostport(addr)
        sock = set_nodelay(
            socket.create_connection((host, port), timeout=CONNECT_TIMEOUT)
        )
        # handshake and trace pushes may legitimately take a while;
        # the serving loop tightens this to the heartbeat interval
        sock.settimeout(max(self.liveness, CONNECT_TIMEOUT))
        return sock

    def _connect_all(self) -> list[_WorkerLink]:
        links = []
        for addr in self.farm:
            try:
                sock = self._dial(addr)
            except OSError as exc:
                warnings.warn(
                    f"farm worker {addr} unreachable: {exc}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            links.append(_WorkerLink(addr, sock))
        return links

    def _handshake(self, link: _WorkerLink) -> None:
        send_frame(
            link.sock,
            HELLO,
            {
                "protocol": PROTOCOL_VERSION,
                "points": len(self.spec_dicts),
                "auth": self.auth_token is not None,
            },
        )
        kind, msg = recv_frame(link.sock)
        nonce = None
        if kind == AUTH_CHALLENGE:
            if self.auth_token is None:
                raise AuthError(
                    f"worker {link.addr} requires authentication; "
                    "pass --auth-token / auth_token with the shared secret"
                )
            nonce = msg.get("nonce")
            if not isinstance(nonce, str) or not nonce:
                raise AuthError(f"worker {link.addr} sent a malformed challenge")
            send_frame(
                link.sock,
                AUTH_RESPONSE,
                {"mac": auth_mac(self.auth_token, "coordinator", nonce)},
            )
            kind, msg = recv_frame(link.sock)
        if kind == ERROR:
            peer_proto = msg.get("protocol")
            if peer_proto is not None and peer_proto != PROTOCOL_VERSION:
                raise ProtocolMismatch(
                    f"worker {link.addr} speaks farm protocol v{peer_proto}, "
                    f"this side v{PROTOCOL_VERSION}"
                )
            if msg.get("auth_failed"):
                raise AuthError(
                    f"worker {link.addr} rejected authentication: "
                    f"{msg.get('message')}"
                )
            raise FarmError(f"worker {link.addr} rejected HELLO: {msg.get('message')}")
        if kind != HELLO_ACK:
            raise FarmError(
                f"worker {link.addr} answered HELLO with "
                f"{KIND_NAMES.get(kind, kind)}"
            )
        if self.auth_token is not None:
            # mutual: the worker must prove it holds the secret too —
            # otherwise specs and traces would flow to an imposter
            if nonce is None:
                raise AuthError(
                    f"worker {link.addr} did not request authentication; "
                    "refusing to send work to an unauthenticated peer"
                )
            if not check_mac(self.auth_token, "worker", nonce, msg.get("auth")):
                raise AuthError(
                    f"worker {link.addr} failed to prove the shared secret"
                )

    def _offer(self, spec: dict) -> None:
        """Offer ``spec``'s trace to socket workers: a generated
        workload under its cache key, a trace file under the digest of
        the bytes it holds now (read once, and pushed as read). A trace
        file this process cannot read fails its point here, as the
        serial loop would, rather than on a worker that reads another
        file at that path."""
        from repro.spec import WorkloadSpec

        wdict = spec["workload"]
        wspec = WorkloadSpec.from_dict(wdict)
        key = wspec.cache_key()
        if wspec.trace_path is None:
            self._workload_by_key.setdefault(key, wdict)
        elif key not in self._files:
            from pathlib import Path

            from repro.trace.io import decode_multitrace
            from repro.util.errors import TraceFormatError

            try:
                data = Path(wspec.trace_path).read_bytes()
                digest = decode_multitrace(data, wspec.trace_path).digest()
            except (OSError, TraceFormatError) as exc:
                raise point_failed(
                    spec, "in this process", f"{type(exc).__name__}: {exc}"
                ) from exc
            self._files[key] = digest
            self._workload_by_key[digest] = wdict
            self._containers[digest] = data

    def _negotiate_traces(self, link: _WorkerLink) -> None:
        """Trace-by-reference: digests first, bodies only where needed.

        After a reconnect the worker's persistent store still holds
        everything already pushed, so the re-negotiation ships nothing.
        A local process is offered nothing: it inherited this process's
        traces and builds any others itself.
        """
        keys = sorted(self._workload_by_key)
        if not keys or isinstance(link, _LocalLink):
            return
        send_frame(link.sock, TRACE_QUERY, {"digests": keys, "files": self._files})
        kind, msg = recv_frame(link.sock)
        if kind != TRACE_HAVE:
            raise FarmError(
                f"worker {link.addr} answered TRACE_QUERY with "
                f"{KIND_NAMES.get(kind, kind)}"
            )
        have = set(msg.get("have", []))
        for key in keys:
            if key in have:
                continue
            for piece in trace_put_frame(key, self._workload_by_key[key], self._trace_for(key)):
                link.sock.sendall(piece)
            kind, msg = recv_frame(link.sock)
            if kind != TRACE_OK or msg.get("key") != key:
                raise FarmError(
                    f"worker {link.addr} did not acknowledge trace {key[:12]}"
                )
            link.traces_pushed += 1
        self.stats["trace_pushes"][link.addr] = link.traces_pushed

    def _trace_for(self, key: str) -> bytes:
        """The container bytes of a trace a worker reported missing:
        this process's trace-store entry when it keeps one (the bytes
        ``build_workload`` wrote), else the trace encoded here, once."""
        with self._build_lock:
            data = self._containers.get(key)
            if data is None:
                from repro.runner import build_workload
                from repro.spec import WorkloadSpec
                from repro.trace.io import encode_multitrace
                from repro.trace.store import active_trace_store

                wdict = self._workload_by_key[key]
                trace = build_workload(WorkloadSpec.from_dict(wdict))
                store = active_trace_store()
                data = store.read_bytes(key) if store is not None else None
                if data is None:
                    data = self._containers[key] = encode_multitrace(trace)
            return data

    # -- work distribution -------------------------------------------------
    def _await_chunk(self, link: _WorkerLink):
        """The next ``(chunk_id, indices)`` for ``link``, or None once
        the sweep has ended or aborted. While the rest of the grid is in
        flight elsewhere, wait on the sweep's end (which also wakes on
        an abort), re-checking for requeued points."""
        assigned = None
        while not self.done_evt.is_set():
            assigned = self._next_chunk(link)
            if assigned is not None or self.done_evt.wait(IDLE_POLL_SECONDS):
                break
        return assigned

    def _next_chunk(self, link: _WorkerLink):
        """Take the next ``(chunk_id, indices)`` off the pending queue
        and register it as in flight on ``link``, so a link that fails
        from here on has it requeued; None while the queue is empty."""
        with self.lock:
            if not self.pending:
                return None
            if self.point_timeout is not None:
                n = 1  # a deadline then names exactly one point
            else:
                # a quarter of a fair share of the grid: few chunk
                # boundaries, so points that share a trace mostly stay
                # on one worker; once the link's speed is known, about
                # CHUNK_TARGET_SECONDS of work at most
                n = min(self._share, MAX_CHUNK)
                spp = link.sec_per_point
                if spp is not None:
                    n = min(n, max(1, int(CHUNK_TARGET_SECONDS / max(spp, 1e-6))))
            indices = [self.pending.popleft() for _ in range(min(n, len(self.pending)))]
            self._inflight[link] = indices
            self._chunk_ctr += 1
            self.stats["chunks"] += 1
            return self._chunk_ctr, indices

    def _finish(self, link: _WorkerLink, indices, rows, error, elapsed) -> bool:
        """Land a chunk's rows. The worker stops at a failing point and
        names its error: the rows before it land, then the sweep aborts
        naming that point. False once aborted."""
        if len(rows) > len(indices) or (error is None and len(rows) < len(indices)):
            raise FarmError(
                f"worker {link.addr} returned {len(rows)} rows for "
                f"{len(indices)} points"
            )
        self._record(link, indices[: len(rows)], rows, elapsed)
        with self.lock:
            self._inflight.pop(link, None)
        if error is None:
            return True
        self._abort(point_failed(self.spec_dicts[indices[len(rows)]], link.where, error))
        return False

    def _timed_out(self, link: _WorkerLink, indices: list[int]) -> None:
        """Abort the sweep: the point in flight on ``link`` outlived
        ``point_timeout``. (A local process running it is killed when
        the sweep's links stop; a socket worker is let go.)"""
        spec = self.spec_dicts[indices[0]]
        self._abort(
            SweepPointError(
                f"sweep point {spec!r} exceeded point_timeout="
                f"{self.point_timeout}s {link.where}",
                point=spec,
            )
        )

    def _record(self, link: _WorkerLink, indices: list[int], rows: list, elapsed) -> None:
        with self.lock:
            for i, row in zip(indices, rows):
                self._land(i, row)
                self.remaining -= 1
            if self.remaining == 0:
                self.done_evt.set()
        spp = float(elapsed) / max(len(indices), 1)
        link.sec_per_point = (
            spp
            if link.sec_per_point is None
            else 0.5 * link.sec_per_point + 0.5 * spp
        )
        link.points_done += len(indices)
        link.chunks_done += 1

    def _requeue(self, link: _WorkerLink) -> None:
        """Declare ``link`` down and return its in-flight points (the
        shared registry is authoritative) to the head of the queue."""
        with self.lock:
            link.dead = True
            indices = self._inflight.pop(link, None)
            if indices is not None:
                undone = [i for i in indices if self.rows[i] is None]
                self.pending.extendleft(reversed(undone))
                if undone:
                    self.stats["requeues"] += 1

    def _abort(self, exc: Exception) -> None:
        with self.lock:
            if self.abort_exc is None:
                self.abort_exc = exc
        self.done_evt.set()

    # -- per-worker serving loop -------------------------------------------
    def _serve(self, link: _WorkerLink) -> None:
        """Serve one link for the whole sweep. A dropped socket link is
        redialed with jittered exponential backoff until the reconnect
        budget for an outage is spent; a local process is never
        redialed. Permanent failures (protocol or auth mismatch) are
        never retried, and a link whose redials keep dying before BEGIN
        (a draining worker still answers TCP from the listen backlog)
        is abandoned after a few barren sessions rather than redialed
        forever."""
        barren = 0
        while True:
            link.progressed = False
            try:
                self._serve_connection(link)
                return  # sweep finished (or aborted) cleanly
            except (ProtocolMismatch, AuthError) as exc:
                self._requeue(link)
                warnings.warn(
                    f"farm worker {link.addr} rejected permanently: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return
            except (FarmError, OSError) as exc:
                self._requeue(link)
                if self.done_evt.is_set() or self.abort_exc is not None:
                    return
                if isinstance(link, _LocalLink):  # never redialed
                    warnings.warn(
                        f"local worker {link.addr} died (exit code "
                        f"{link.proc.exitcode}): {exc}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    return
                barren = 0 if link.progressed else barren + 1
                if barren >= 3 or not self._redial(link, exc):
                    warnings.warn(
                        f"farm worker {link.addr} dropped: {exc}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    return

    def _redial(self, link: _WorkerLink, cause: Exception) -> bool:
        """Try to re-establish a dropped link; True on success."""
        for attempt in range(self.reconnect):
            delay = min(
                RECONNECT_BASE_SECONDS * (2.0 ** attempt), RECONNECT_MAX_SECONDS
            )
            # full jitter: desynchronize a fleet redialing one worker
            time.sleep(delay * (0.5 + self._rng.random()))
            if self.done_evt.is_set() or self.abort_exc is not None:
                return False
            try:
                sock = self._dial(link.addr)
            except OSError:
                continue
            try:
                link.sock.close()
            except OSError:
                pass
            link.sock = sock
            with self.lock:
                link.dead = False
                link.reconnects += 1
                self.stats["reconnects"] += 1
            return True
        return False

    def _serve_connection(self, link: _WorkerLink) -> None:
        inflight = None  # indices of the chunk awaiting RESULT
        chunk_id = deadline = None
        try:
            self._handshake(link)
            self._negotiate_traces(link)
            send_frame(link.sock, BEGIN, {})
            link.progressed = True
            last_frame = time.monotonic()
            while not self.done_evt.is_set() and self.abort_exc is None:
                wait_for = self.heartbeat
                if deadline is not None:
                    wait_for = min(wait_for, max(deadline - time.monotonic(), 1e-3))
                link.sock.settimeout(wait_for)
                try:
                    kind, msg = recv_frame(link.sock)
                except socket.timeout:
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        self._timed_out(link, inflight)
                        break
                    if now - last_frame > self.liveness:
                        raise FarmError(
                            f"worker {link.addr} silent for more than "
                            f"{self.liveness:g}s"
                        )
                    send_frame(link.sock, PING, {})
                    continue
                last_frame = time.monotonic()
                if kind == PONG:
                    continue
                if kind == NEXT:
                    assigned = self._await_chunk(link)
                    if assigned is None:
                        break
                    chunk_id, inflight = assigned
                    if self.point_timeout is not None:
                        deadline = time.monotonic() + self.point_timeout
                    send_frame(
                        link.sock,
                        CHUNK,
                        {
                            "chunk_id": chunk_id,
                            "indices": inflight,
                            "specs": [self.spec_dicts[i] for i in inflight],
                        },
                    )
                    last_frame = time.monotonic()
                    continue
                if kind == RESULT:
                    if inflight is None or msg.get("chunk_id") != chunk_id:
                        raise FarmError(
                            f"worker {link.addr} sent RESULT for an "
                            "unexpected chunk"
                        )
                    error = msg.get("error")
                    if not self._finish(
                        link,
                        inflight,
                        msg["rows"],
                        None if error is None else error.get("message"),
                        msg.get("elapsed", 0.0),
                    ):
                        break
                    inflight = deadline = None
                    continue
                if kind == ERROR:
                    raise FarmError(
                        f"worker {link.addr} reported: {msg.get('message')}"
                    )
                raise FarmError(
                    f"worker {link.addr} sent unexpected "
                    f"{KIND_NAMES.get(kind, kind)}"
                )
        finally:
            # NB: the shared in-flight entry is NOT popped here — on an
            # error path _requeue (in _serve) pops it and returns the
            # undone points to the queue; _finish pops it on the happy
            # path.
            try:
                send_frame(link.sock, DONE, {})
            except OSError:
                pass
            try:
                link.sock.close()
            except OSError:
                pass


def farm_sweep(
    spec_dicts: list[dict],
    farm,
    point_timeout: float | None = None,
    stats_out: dict | None = None,
    on_row=None,
) -> list[dict]:
    """Run ``spec_dicts`` over the socket farm; return metrics dicts in
    order.

    ``farm`` is an address list or a :func:`normalize_farm` config
    mapping, whose keys set the coordinator's options. Raises
    :class:`FarmUnavailable` when no worker is reachable — callers
    (``sweep_specs``) catch that and evaluate locally. ``stats_out``,
    when given, is updated with the coordinator's accounting (chunk
    counts, trace pushes, requeues, reconnects). ``on_row(i, row)`` is
    called with each completed row as it lands, once per point.
    """
    cfg = normalize_farm(farm) or {}
    coord = FarmCoordinator(
        spec_dicts,
        cfg.pop("addrs", []),
        point_timeout=point_timeout,
        on_row=on_row,
        **cfg,
    )
    rows = coord.run()
    if stats_out is not None:
        stats_out.update(coord.stats)
    return rows
