"""Flit-level NoC: credit-based wormhole routers, cycle by cycle.

The message-level model in :mod:`repro.arch.noc.network` charges an
analytical latency; this model actually moves flits through finite
input buffers with credit flow control, one cycle at a time. It exists
for three reasons:

1. **validation** — at zero load its head-flit latency must match the
   analytical formula exactly (asserted in tests and `bench_noc`);
2. **saturation** — congested latency/throughput curves the analytical
   model cannot produce;
3. **deadlock, for real** — the paper's whole virtual-channel argument
   ([10], §3) is about cyclic channel dependencies. On a ring/torus,
   wraparound links close a cycle: uniform traffic on a single VC
   *actually deadlocks* this model (every buffer in the cycle full,
   no flit can advance), while the classic **dateline** discipline
   (switch to the escape VC when crossing the dateline) drains it.
   The tests demonstrate both, making the deadlock-freedom claims of
   the VC plans executable rather than rhetorical.

Model details (standard wormhole router, simplified allocation):

* routers have one input FIFO per (input port, VC) holding
  ``buffer_flits`` flits, with credit counts mirroring each
  downstream buffer;
* routing is deterministic: XY on meshes, fixed-direction on rings;
* a packet holds its VC for its whole path (no VC reallocation
  mid-route) except at a torus/ring dateline, where it moves to the
  paired escape VC;
* each output port forwards at most one flit per cycle; arbitration is
  round-robin over (input port, VC) pairs, switching only at packet
  boundaries (wormhole: a body flit follows its head's allocation);
* a ``progress guard`` raises :class:`~repro.util.errors.DeadlockError`
  when flits remain but none has moved for ``deadlock_cycles`` cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.arch.topology import Mesh2D, RingTopology, Topology
from repro.util.errors import ConfigError, DeadlockError

_pkt_ids = itertools.count()


@dataclass
class Flit:
    pkt: int
    is_head: bool
    is_tail: bool
    dst: int
    vc: int
    injected_at: int = 0
    payload: object = None  # head flit carries the packet metadata


@dataclass
class _Buffer:
    """One (input port, VC) FIFO."""

    capacity: int
    flits: list[Flit] = field(default_factory=list)

    def can_accept(self) -> bool:
        return len(self.flits) < self.capacity

    @property
    def head(self) -> Flit | None:
        return self.flits[0] if self.flits else None


class FlitNetwork:
    """Cycle-accurate wormhole network over a topology.

    Ports are encoded as neighbour core ids plus the special ``-1``
    local (injection/ejection) port. ``on_deliver(packet_payload,
    cycle)`` fires when a tail flit ejects.
    """

    def __init__(
        self,
        topology: Topology,
        num_vcs: int = 2,
        buffer_flits: int = 4,
        deadlock_cycles: int = 10_000,
        dateline: bool = False,
        on_deliver: Callable[[object, int], None] | None = None,
        injector=None,
    ) -> None:
        if num_vcs < 1:
            raise ConfigError("need at least one VC")
        if buffer_flits < 1:
            raise ConfigError("need at least one buffer slot")
        if dateline and num_vcs < 2:
            raise ConfigError("dateline discipline needs >= 2 VCs")
        self.topology = topology
        self.num_vcs = num_vcs
        self.buffer_flits = buffer_flits
        self.deadlock_cycles = deadlock_cycles
        self.dateline = dateline
        self.on_deliver = on_deliver
        self.injector = injector
        if injector is not None:
            injector.bind_topology(topology)
        self.cycle = 0
        self.delivered = 0
        self.dropped = 0
        self.flit_moves = 0
        self._last_progress = 0
        self.latencies: list[int] = []

        # upstream senders of each node, one hop *toward* it, ascending:
        # distinct from out-neighbours on directed topologies (the
        # unidirectional ring), identical on meshes/tori
        self._upstream: list[list[int]] = [[] for _ in range(topology.num_cores)]
        for u, v in topology.links():
            self._upstream[v].append(u)
        # node -> input port (-1 local, or upstream-neighbour id) -> vc -> buffer
        self._ports: dict[int, dict[int, list[_Buffer]]] = {}
        for node in range(topology.num_cores):
            ports = {-1: [_Buffer(buffer_flits) for _ in range(num_vcs)]}
            for nb in self._upstream[node]:
                ports[nb] = [_Buffer(buffer_flits) for _ in range(num_vcs)]
            self._ports[node] = ports
        # (node, out_neighbor_or_-1, vc) -> (in_port, vc) owning that
        # *virtual* channel: packets hold a VC, never the physical link —
        # flits of different VCs interleave on the link, which is
        # precisely how an escape VC bypasses a blocked packet
        self._owner: dict[tuple[int, int, int], tuple[int, int] | None] = {}
        self._rr: dict[tuple[int, int], int] = {}
        self._inject_queue: dict[int, list[list[Flit]]] = {
            n: [] for n in range(topology.num_cores)
        }
        # fault-delayed packets waiting for their release cycle
        self._delayed: dict[int, list[tuple[int, list[Flit]]]] = {
            n: [] for n in range(topology.num_cores)
        }
        self._pkt_payload: dict[int, object] = {}  # head payload until tail ejects

    # -- topology helpers ------------------------------------------------
    def _next_hop(self, node: int, dst: int) -> int:
        route = self.topology.route(node, dst)
        return route[1]

    def _crosses_dateline(self, node: int, nxt: int) -> bool:
        """Dateline = the wraparound edge (max id -> 0 direction)."""
        n = self.topology.num_cores
        return (node == n - 1 and nxt == 0) or (node == 0 and nxt == n - 1)

    # -- injection -----------------------------------------------------------
    def send(self, src: int, dst: int, num_flits: int, vc: int = 0, payload=None) -> None:
        """Queue a packet of ``num_flits`` flits for injection at ``src``."""
        if not (0 <= vc < self.num_vcs):
            raise ConfigError(f"vc {vc} out of range")
        if num_flits < 1:
            raise ConfigError("packet needs at least one flit")
        copies = 1
        delay = 0
        if self.injector is not None and src != dst:
            action, extra = self.injector.on_message(src, dst, float(self.cycle))
            if action == "drop":
                self.dropped += 1
                return
            if action == "dup":
                copies = 2
            elif action == "delay":
                delay = int(extra)
        for _ in range(copies):
            pkt = next(_pkt_ids)
            flits = [
                Flit(
                    pkt=pkt,
                    is_head=(i == 0),
                    is_tail=(i == num_flits - 1),
                    dst=dst,
                    vc=vc,
                    injected_at=self.cycle,
                    payload=payload if i == 0 else None,
                )
                for i in range(num_flits)
            ]
            if delay > 0:
                self._delayed[src].append((self.cycle + delay, flits))
            else:
                self._inject_queue[src].append(flits)

    # -- simulation -------------------------------------------------------
    def _try_inject(self) -> None:
        for node, delayed in self._delayed.items():
            if not delayed:
                continue
            matured = [entry for entry in delayed if entry[0] <= self.cycle]
            if matured:
                self._delayed[node] = [e for e in delayed if e[0] > self.cycle]
                self._inject_queue[node].extend(flits for _, flits in matured)
                self._last_progress = self.cycle
        for node, queue in self._inject_queue.items():
            if not queue:
                continue
            flits = queue[0]
            buf = self._ports[node][-1][flits[0].vc]
            while flits and buf.can_accept():
                buf.flits.append(flits.pop(0))
                self.flit_moves += 1
                self._last_progress = self.cycle
            if not flits:
                queue.pop(0)

    def _output_targets(self, node: int, flit: Flit) -> tuple[int, int]:
        """(next node or -1 for ejection, vc at next hop)."""
        if flit.dst == node:
            return -1, flit.vc
        nxt = self._next_hop(node, flit.dst)
        vc = flit.vc
        if self.dateline and self._crosses_dateline(node, nxt):
            vc = 1  # escape VC past the dateline
        return nxt, vc

    def step(self) -> None:
        """Advance one cycle: each output port moves at most one flit."""
        self.cycle += 1
        self._try_inject()
        moves: list[tuple[int, int, int, int, int]] = []
        # plan phase: (node, in_port, out, vc_now, vc_next)
        for node, ports in self._ports.items():
            candidates: dict[int, list[tuple[int, int, int]]] = {}
            for in_port, bufs in ports.items():
                for vc, buf in enumerate(bufs):
                    flit = buf.head
                    if flit is None:
                        continue
                    out, vc_next = self._output_targets(node, flit)
                    owner = self._owner.get((node, out, vc_next))
                    if owner is not None and owner != (in_port, vc):
                        continue  # that downstream VC belongs to another packet
                    if out == -1 or self._downstream_accepts(node, out, vc_next):
                        candidates.setdefault(out, []).append((in_port, vc, vc_next))
            for out, cands in candidates.items():
                # one flit per physical output port per cycle; round-robin
                # across the competing (in_port, vc) heads
                rr = self._rr.get((node, out), 0)
                pick = cands[rr % len(cands)]
                self._rr[(node, out)] = rr + 1
                moves.append((node, pick[0], out, pick[1], pick[2]))
        # commit phase
        for node, in_port, out, vc, vc_next in moves:
            buf = self._ports[node][in_port][vc]
            flit = buf.flits.pop(0)
            self.flit_moves += 1
            self._last_progress = self.cycle
            key = (node, out, vc_next)
            if out == -1:
                if flit.is_head:
                    self._pkt_payload[flit.pkt] = flit.payload
                if flit.is_tail:
                    self._owner[key] = None
                    self.delivered += 1
                    self.latencies.append(self.cycle - flit.injected_at)
                    payload = self._pkt_payload.pop(flit.pkt, flit.payload)
                    if self.on_deliver is not None:
                        self.on_deliver(payload, self.cycle)
                else:
                    self._owner[key] = (in_port, vc)
            else:
                flit.vc = vc_next
                self._ports[out][node][vc_next].flits.append(flit)
                self._owner[key] = None if flit.is_tail else (in_port, vc)

    def _downstream_accepts(self, node: int, out: int, vc: int) -> bool:
        return self._ports[out][node][vc].can_accept()

    def pending_flits(self) -> int:
        n = sum(
            len(buf.flits)
            for ports in self._ports.values()
            for bufs in ports.values()
            for buf in bufs
        )
        n += sum(len(f) for q in self._inject_queue.values() for f in q)
        n += sum(len(f) for q in self._delayed.values() for _, f in q)
        return n

    def run_until_drained(self, max_cycles: int = 1_000_000) -> int:
        """Run until every packet is delivered; returns the cycle count.

        Raises :class:`DeadlockError` when no flit has moved for
        ``deadlock_cycles`` cycles while flits remain — an *actual*
        routing deadlock (or an unroutable configuration).
        """
        while self.pending_flits() > 0:
            if self.cycle - self._last_progress > self.deadlock_cycles and not any(
                self._delayed.values()  # fault-delayed packets still mature
            ):
                raise DeadlockError(
                    f"no flit progress for {self.deadlock_cycles} cycles; "
                    f"{self.pending_flits()} flits stuck at cycle {self.cycle}"
                )
            if self.cycle >= max_cycles:
                raise DeadlockError(f"exceeded max_cycles={max_cycles}")
            self.step()
        return self.cycle
