"""Host-level chaos harness for the sweep farm.

PR 5 gave the *simulated* NoC a deterministic fault plane
(:mod:`repro.faults`): every drop/dup/delay is drawn from a PCG64
stream seeded by the SHA-256 of the frozen spec, and folded into a
schedule digest so any run can be replayed bit-for-bit. This module
applies the same discipline to the *host* network under the farm — the
layer the Emu Chick studies treat as a component that degrades rather
than an assumption.

The harness is an in-process TCP proxy: the coordinator dials
:class:`ChaosProxy` frontends instead of the workers, and each proxied
connection byte-pumps both directions while injecting, at planned byte
offsets, four failure shapes:

* **reset** — both sides get an RST (``SO_LINGER 0`` close), the
  bluntest link flap;
* **partial frame** — a prefix of the in-flight buffer is forwarded
  and *then* the reset lands, so the victim holds a truncated frame;
* **stall** — the pump sleeps before forwarding, injecting latency a
  heartbeat must ride out;
* **partition** — one *direction* stops forwarding for a window
  (asymmetric: PONGs may flow while CHUNKs do not), which is what
  drives the liveness timeout rather than the socket error path.

Determinism: a :class:`ChaosSchedule` pre-draws every per-connection
event plan **eagerly at construction** from a PCG64 stream keyed by
the SHA-256 of the frozen :class:`ChaosSpec` — mirroring
:class:`~repro.faults.injector.FaultInjector`. The
:meth:`~ChaosSchedule.schedule_digest` is therefore a pure function of
the spec, independent of traffic timing; *applied* counts (what the
proxy actually hit, which depends on how long each connection lived)
are tracked separately and are allowed to vary.

:func:`chaos_soak` is the acceptance harness behind ``repro
chaos-soak``: N embedded workers behind the proxy, K sweeps, every row
stream compared bit-for-bit (JSON text equality) against a clean
serial reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.analysis.farm import parse_hostport, set_nodelay
from repro.util.errors import ConfigError

ACTIONS = ("reset", "partial", "stall", "partition")
_SO_LINGER_RST = struct.pack("ii", 1, 0)
_RECV_CHUNK = 65536


@dataclass(frozen=True)
class ChaosSpec:
    """Frozen description of one chaos regime.

    ``*_rate`` fields are per-event-slot probabilities (each of the
    ``max_events_per_conn`` slots of a planned connection rolls one
    action, or nothing); their sum must stay at or below 1. Connections
    beyond ``plan_connections`` pass through untouched (the proxy
    counts them), so the digest covers a fixed-size plan no matter how
    chatty a sweep turns out to be.
    """

    seed: int = 0
    reset_rate: float = 0.0
    partial_rate: float = 0.0
    stall_rate: float = 0.0
    partition_rate: float = 0.0
    stall_seconds: float = 0.05
    partition_seconds: float = 0.25
    max_events_per_conn: int = 4
    plan_connections: int = 64
    trigger_span: int = 65536

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigError(f"chaos seed must be an int, got {self.seed!r}")
        total = 0.0
        for name in ("reset_rate", "partial_rate", "stall_rate", "partition_rate"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"chaos {name} must be a probability in [0, 1], got {value!r}"
                )
            total += float(value)
        if total > 1.0 + 1e-9:
            raise ConfigError(
                f"chaos action rates sum to {total:.3f}; at most 1.0 of each "
                "event slot can carry an action"
            )
        for name in ("stall_seconds", "partition_seconds"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigError(
                    f"chaos {name} must be a positive number of seconds, "
                    f"got {value!r}"
                )
        for name in ("max_events_per_conn", "plan_connections", "trigger_span"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"chaos {name} must be a positive int, got {value!r}"
                )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChaosSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown chaos option(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))


class ChaosSchedule:
    """Every event plan, drawn up front; the digest is spec-pure.

    ``plans[c]`` is the (possibly empty) event list for the ``c``-th
    accepted connection, each event
    ``{"after_bytes", "direction", "action", "frac"}`` — trigger
    offset, which pump it rides (``"c2w"``/``"w2c"``), what happens,
    and a unit draw parameterizing it (stall length jitter, partial
    prefix fraction). Drawing everything eagerly — and drawing the
    same number of variates per slot regardless of which action wins —
    keeps the stream, and hence :meth:`schedule_digest`, a pure
    function of the :class:`ChaosSpec`.
    """

    def __init__(self, spec: ChaosSpec) -> None:
        if not isinstance(spec, ChaosSpec):
            raise ConfigError(
                f"ChaosSchedule needs a ChaosSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        from repro.analysis.cache import stable_key

        self._seed_key = stable_key({"chaos-plane": spec.to_dict()})
        rng = np.random.default_rng(int(self._seed_key, 16))
        self._digest = hashlib.sha256()
        self.plans: list[list[dict]] = []
        self.planned_events = 0
        thresholds = np.cumsum(
            [spec.reset_rate, spec.partial_rate, spec.stall_rate, spec.partition_rate]
        )
        for c in range(spec.plan_connections):
            triggers = np.sort(
                rng.integers(64, spec.trigger_span + 1, size=spec.max_events_per_conn)
            )
            events = []
            for e in range(spec.max_events_per_conn):
                u = float(rng.random())
                direction = "c2w" if float(rng.random()) < 0.5 else "w2c"
                frac = float(rng.random())
                action = None
                for name, ceiling in zip(ACTIONS, thresholds):
                    if u < ceiling:
                        action = name
                        break
                if action is None:
                    continue  # this slot stays quiet
                event = {
                    "after_bytes": int(triggers[e]),
                    "direction": direction,
                    "action": action,
                    "frac": frac,
                }
                events.append(event)
                self.planned_events += 1
                self._digest.update(
                    f"{c}:{event['after_bytes']}:{direction}:{action}:"
                    f"{frac:.9f}\n".encode()
                )
            self.plans.append(events)

    def schedule_digest(self) -> str:
        """SHA-256 over every planned event — the replayability witness."""
        return self._digest.hexdigest()

    def plan_for(self, conn_index: int) -> list[dict]:
        """The event plan for the ``conn_index``-th accepted connection
        (empty beyond :attr:`ChaosSpec.plan_connections`)."""
        if conn_index < len(self.plans):
            return [dict(e) for e in self.plans[conn_index]]
        return []


class ChaosProxy:
    """Seeded failure-injecting TCP relay in front of farm workers.

    One frontend listener per upstream worker address; :attr:`addresses`
    (after :meth:`start`) is what the coordinator should dial instead.
    Connection indices are assigned in global accept order across all
    frontends, so the schedule's plans map onto connections
    deterministically for a serial coordinator and merely *plausibly*
    for a concurrent one — the digest never depends on that mapping.
    """

    def __init__(
        self,
        upstreams: list[str],
        schedule: ChaosSchedule,
        host: str = "127.0.0.1",
    ) -> None:
        if not upstreams:
            raise ConfigError("chaos proxy needs at least one upstream address")
        self.upstreams = [str(u) for u in upstreams]
        self.schedule = schedule
        self.host = host
        self.addresses: list[str] = []
        self.connections = 0
        self.unplanned_connections = 0
        self.applied = {name: 0 for name in ACTIONS}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._listeners: list[socket.socket] = []
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ChaosProxy":
        for upstream in self.upstreams:
            peer = parse_hostport(upstream)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, 0))
            sock.listen(16)
            sock.settimeout(0.25)
            self._listeners.append(sock)
            self.addresses.append(f"{self.host}:{sock.getsockname()[1]}")
            th = threading.Thread(
                target=self._accept_loop, args=(sock, peer), daemon=True
            )
            th.start()
            self._threads.append(th)
        return self

    def stop(self) -> None:
        self._stop.set()
        for sock in self._listeners:
            try:
                sock.close()
            except OSError:
                pass
        for th in self._threads:
            th.join(timeout=5.0)

    # -- plumbing ----------------------------------------------------------
    def _accept_loop(self, listener: socket.socket, peer: tuple[str, int]) -> None:
        while not self._stop.is_set():
            try:
                client, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                idx = self.connections
                self.connections += 1
                if idx >= len(self.schedule.plans):
                    self.unplanned_connections += 1
            plan = self.schedule.plan_for(idx)
            try:
                # each recv is forwarded as its own send, so with Nagle
                # on either leg a RESULT+NEXT pair would stall again
                set_nodelay(client)
                upstream = set_nodelay(socket.create_connection(peer, timeout=3.0))
            except OSError:
                try:
                    client.close()
                except OSError:
                    pass
                continue
            c2w = [e for e in plan if e["direction"] == "c2w"]
            w2c = [e for e in plan if e["direction"] == "w2c"]
            # both pumps share the socket pair; the last one out (or the
            # first to error) closes it, so a half-close in one direction
            # never tears down the still-flowing reverse direction
            pair = {"lock": threading.Lock(), "live": 2}
            for src, dst, events in ((client, upstream, c2w), (upstream, client, w2c)):
                threading.Thread(
                    target=self._pump, args=(src, dst, events, pair), daemon=True
                ).start()

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        events: list[dict],
        pair: dict,
    ) -> None:
        """Forward one direction, firing planned events at their byte
        offsets. A reset/partial event terminates the connection; stall
        and partition only delay this direction (partition holds the
        buffered bytes for the whole window, which is what starves the
        peer's liveness clock without corrupting the stream)."""
        spec = self.schedule.spec
        pending = sorted(events, key=lambda e: e["after_bytes"])
        forwarded = 0
        clean_eof = False
        try:
            while not self._stop.is_set():
                try:
                    data = src.recv(_RECV_CHUNK)
                except OSError:
                    break
                if not data:
                    try:
                        dst.shutdown(socket.SHUT_WR)  # propagate the FIN
                    except OSError:
                        pass
                    clean_eof = True
                    break
                forwarded += len(data)
                killed = False
                while pending and forwarded >= pending[0]["after_bytes"]:
                    event = pending.pop(0)
                    action = event["action"]
                    with self._lock:
                        self.applied[action] += 1
                    if action == "stall":
                        time.sleep(spec.stall_seconds * (0.5 + event["frac"]))
                    elif action == "partition":
                        time.sleep(spec.partition_seconds)
                    elif action == "partial":
                        keep = int(len(data) * event["frac"])
                        if keep:
                            try:
                                dst.sendall(data[:keep])
                            except OSError:
                                pass
                        self._reset(src, dst)
                        killed = True
                        break
                    else:  # reset
                        self._reset(src, dst)
                        killed = True
                        break
                if killed:
                    return
                try:
                    dst.sendall(data)
                except OSError:
                    break
        finally:
            with pair["lock"]:
                pair["live"] -= 1
                last_out = pair["live"] == 0
            if last_out or not clean_eof:
                # errors and injected kills tear down both directions;
                # a clean FIN leaves the reverse pump draining until it
                # sees its own EOF
                for sock in (src, dst):
                    try:
                        sock.close()
                    except OSError:
                        pass

    @staticmethod
    def _reset(*socks: socket.socket) -> None:
        """Close with ``SO_LINGER 0`` so both peers see a hard RST."""
        for sock in socks:
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _SO_LINGER_RST)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


def chaos_soak(
    spec_dicts: list[dict],
    chaos: ChaosSpec,
    workers: int = 2,
    sweeps: int = 2,
    point_timeout: float | None = None,
    heartbeat: float = 0.25,
    liveness: float = 2.0,
    reconnect: int = 6,
    auth_token: str | None = None,
    verbose: bool = False,
) -> dict:
    """N workers behind the chaos proxy, K sweeps, bit-identity gate.

    The clean reference is a serial in-process evaluation of the same
    spec dicts (canonical rows); every chaos sweep's row list must
    match it as JSON *text*, which is the same bit-identity contract
    the result store honors. Returns a summary dict with
    ``rows_identical`` (the gate), the spec-pure ``schedule_digest``,
    ``digest_stable`` (every sweep re-derived the same digest), and
    per-sweep stats (elapsed, points/s, applied chaos events, requeue
    and reconnect counts).
    """
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"chaos soak needs >= 1 worker, got {workers!r}")
    if not isinstance(sweeps, int) or sweeps < 1:
        raise ConfigError(f"chaos soak needs >= 1 sweep, got {sweeps!r}")
    from repro.analysis.farm import farm_sweep
    from repro.analysis.sweep import eval_serially
    from repro.analysis.worker import WorkerServer

    reference: list = [None] * len(spec_dicts)
    eval_serially(spec_dicts, reference.__setitem__)
    reference_text = json.dumps(reference)
    servers = [
        WorkerServer(auth_token=auth_token).start_background()
        for _ in range(workers)
    ]
    summary: dict = {
        "points": len(spec_dicts),
        "workers": workers,
        "sweeps": [],
        "rows_identical": True,
        "digest_stable": True,
        "schedule_digest": None,
        "chaos": chaos.to_dict(),
    }
    try:
        for k in range(sweeps):
            schedule = ChaosSchedule(chaos)
            digest = schedule.schedule_digest()
            if summary["schedule_digest"] is None:
                summary["schedule_digest"] = digest
            elif digest != summary["schedule_digest"]:
                summary["digest_stable"] = False
            proxy = ChaosProxy([s.address for s in servers], schedule).start()
            stats: dict = {}
            t0 = time.perf_counter()
            try:
                rows = farm_sweep(
                    spec_dicts,
                    {
                        "addrs": proxy.addresses,
                        "auth_token": auth_token,
                        "heartbeat": heartbeat,
                        "liveness": liveness,
                        "reconnect": reconnect,
                    },
                    point_timeout=point_timeout,
                    stats_out=stats,
                )
            finally:
                elapsed = time.perf_counter() - t0
                proxy.stop()
            identical = json.dumps(rows) == reference_text
            summary["rows_identical"] = summary["rows_identical"] and identical
            summary["sweeps"].append(
                {
                    "sweep": k,
                    "rows_identical": identical,
                    "elapsed_sec": elapsed,
                    "points_per_sec": len(spec_dicts) / max(elapsed, 1e-9),
                    "applied": dict(proxy.applied),
                    "connections": proxy.connections,
                    "unplanned_connections": proxy.unplanned_connections,
                    "requeues": stats.get("requeues", 0),
                    "reconnects": stats.get("reconnects", 0),
                    "local_leftovers": stats.get("local_leftovers", 0),
                }
            )
            if verbose:
                print(
                    f"[chaos-soak] sweep {k}: identical={identical} "
                    f"elapsed={elapsed:.2f}s applied={proxy.applied} "
                    f"reconnects={stats.get('reconnects', 0)}",
                    flush=True,
                )
    finally:
        for server in servers:
            server.stop()
    return summary
