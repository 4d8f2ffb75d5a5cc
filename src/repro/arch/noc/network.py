"""Message-level NoC simulator with optional link contention."""

from __future__ import annotations

from collections import defaultdict
from heapq import heappush
from typing import Callable

from repro.arch.config import NocConfig
from repro.arch.noc.packet import Message, VirtualNetwork
from repro.arch.topology import Topology
from repro.sim.engine import Engine, Event
from repro.sim.stats import StatSet


class Network:
    """Transports :class:`Message` objects across a :class:`Topology`.

    Latency model (per message of F flits over H hops):

    * zero-load: ``H * (router_latency + link_latency) + (F - 1)``
      — the head flit pays per-hop pipeline latency, the body flits
      stream behind it (wormhole pipelining).
    * with ``contention=True``, each (directed link, VC) is a resource
      occupied for F cycles per traversal; a message queues behind the
      previous occupant. This is a deliberately simple store-and-
      forward-of-trains approximation — adequate because the paper's
      claims concern serialization (context size) and hop distance, not
      router microarchitecture.

    Statistics: per-vnet message and flit counts, flit-hops (the
    traffic/energy proxy used by the energy model), and, with
    contention, per-link queueing delay. A delivered message carries
    its own latency (:attr:`Message.latency`).

    ``send`` is on the per-access path of every behavioral machine, so
    all loop-invariant work is hoisted into ``__init__``: hop counts
    come from the topology's :attr:`~Topology.hop_table` scalar path
    (resident rows for hot senders, O(1) coordinate math for cold ones),
    per-vnet counter keys are resolved once into integer-bump cells,
    flit counts are memoized by :meth:`NocConfig.message_flits`, and
    the per-hop latency constant is folded.
    """

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        config: NocConfig,
        injector=None,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.config = config
        self.injector = injector
        if injector is not None:
            injector.bind_topology(topology)
        self.stats = StatSet("noc")
        # (src, dst, vc) -> earliest free time, only touched in contention mode
        self._link_free: dict[tuple[int, int, int], float] = defaultdict(float)
        self._hops = topology.hop_table
        self._per_hop = config.router_latency + config.link_latency
        counters = self.stats.counters
        self._vnet_cells = {
            vnet: (
                counters.cell(f"messages.{vnet.name}"),
                counters.cell(f"flits.{vnet.name}"),
            )
            for vnet in VirtualNetwork
        }
        self._flit_hops_cell = counters.cell("flit_hops")
        self._flits_memo = config._flits_memo  # see NocConfig.message_flits

    # ------------------------------------------------------------------
    def zero_load_latency(self, src: int, dst: int, payload_bits: int) -> float:
        """Latency ignoring contention: what :meth:`send` and
        :meth:`send_fast` charge, and, for ``src != dst``, what the
        analytical cost model's ``CostModel._transport`` charges.

        A loopback message (``src == dst``) crosses no link but still
        pays one cycle per flit into and out of the network interface.
        """
        flits = self.config.message_flits(payload_bits)
        if src == dst:
            return flits
        return self._hops.hop(src, dst) * self._per_hop + (flits - 1)

    # ------------------------------------------------------------------
    def send(
        self,
        msg: Message,
        on_deliver: Callable[[Message], None],
        on_drop: Callable[[Message], None] | None = None,
    ) -> Message:
        """Inject ``msg`` now; schedule ``on_deliver(msg)`` at arrival.

        ``on_drop`` (fault plane only) fires synchronously when the
        injector loses this copy in flight — the sender's recovery
        protocol uses it as an ideal failure detector and schedules its
        retry a timeout later. Without an injector it never fires.
        """
        now = self.engine.now
        msg.inject_time = now
        flits = self.config.message_flits(msg.payload_bits)
        hops = self._hops.hop(msg.src, msg.dst)

        msg_cell, flit_cell = self._vnet_cells[msg.vnet]
        msg_cell.n += 1
        flit_cell.n += flits
        self._flit_hops_cell.n += flits * (hops if hops > 0 else 1)

        if msg.src == msg.dst:
            # Loopback: still pays serialization into/out of the NI.
            arrival = now + flits
        elif not self.config.contention:
            arrival = now + hops * self._per_hop + (flits - 1)
        else:
            arrival = self._contended_arrival(msg, flits)

        dup_arrival = None
        injector = self.injector
        if injector is not None and msg.src != msg.dst:
            action, extra = injector.on_message(msg.src, msg.dst, now)
            if action == "drop":
                # Lost in flight: traffic was spent, nothing arrives.
                # The sender's timeout/retry protocol must recover.
                if on_drop is not None:
                    on_drop(msg)
                return msg
            if action == "delay":
                arrival += extra
            elif action == "dup":
                # The duplicate pays its own traversal and traffic; the
                # receiver's dedup logic must suppress it.
                msg_cell.n += 1
                flit_cell.n += flits
                self._flit_hops_cell.n += flits * hops
                dup_arrival = (
                    self._contended_arrival(msg, flits)
                    if self.config.contention
                    else arrival
                )

        def _deliver() -> None:
            msg.deliver_time = self.engine.now
            on_deliver(msg)

        self.engine.schedule_at(arrival, _deliver)
        if dup_arrival is not None:
            self.engine.schedule_at(dup_arrival, _deliver)
        return msg

    def send_fast(self, msg: Message, on_deliver: Callable[[Message], None]) -> Message:
        """Contention-free, injector-free :meth:`send` (same accounting).

        The delivery is ``on_deliver`` itself, armed on the message's
        own recycled event (:attr:`Message.delivery_event`) with the
        message as its argument: no closure, no per-leg ``Event`` and no
        wrapper frame. Reuse is safe because a message is never re-sent
        before its delivery fires. The arrival is known now, so
        ``inject_time`` and ``deliver_time`` are both set here. The event
        is pushed straight onto the engine heap with the time and
        sequence number ``schedule_at`` would give it (times are whole
        numbers). Callers bind it only when ``config.contention`` is off
        and no fault injector is attached; arrival times and counters
        are bit-identical to :meth:`send`.
        """
        eng = self.engine
        now = eng.now
        bits = msg.payload_bits
        flits = self._flits_memo.get(bits)
        if flits is None:
            flits = self.config.message_flits(bits)
        msg_cell, flit_cell = self._vnet_cells[msg.vnet]
        msg_cell.n += 1
        flit_cell.n += flits
        if msg.src == msg.dst:
            # Loopback: still pays serialization into/out of the NI.
            self._flit_hops_cell.n += flits
            arrival = now + flits
        else:
            hops = self._hops.hop(msg.src, msg.dst)
            self._flit_hops_cell.n += flits * hops
            arrival = now + hops * self._per_hop + (flits - 1)
        msg.inject_time = now
        msg.deliver_time = arrival
        seq = eng._seq
        ev = msg.delivery_event
        if ev is None:
            ev = msg.delivery_event = Event(arrival, seq, on_deliver, (msg,))
        else:
            ev.time = arrival
            ev.seq = seq
            ev.callback = on_deliver
        eng._seq = seq + 1
        heappush(eng._queue, (arrival, seq, ev))
        return msg

    def _contended_arrival(self, msg: Message, flits: int) -> float:
        """Walk the route reserving each (link, VC) for ``flits`` cycles."""
        per_hop = self._per_hop
        route = self.topology.route_cached(msg.src, msg.dst)
        vc = int(msg.vnet) % self.config.num_virtual_channels
        link_free = self._link_free
        queueing = self.stats.latency("queueing")
        head = self.engine.now
        prev = route[0]
        for v in route[1:]:
            key = (prev, v, vc)
            start = max(head, link_free[key])
            queued = start - head
            if queued > 0:
                queueing.add(queued)
            link_free[key] = start + flits
            head = start + per_hop
            prev = v
        return head + (flits - 1)

    # ------------------------------------------------------------------
    def flit_hops(self) -> int:
        """Total flit-hops transported so far (energy/traffic proxy)."""
        return self.stats.counters["flit_hops"]

    def message_count(self, vnet: VirtualNetwork | None = None) -> int:
        if vnet is None:
            return sum(
                v for k, v in self.stats.counters.as_dict().items() if k.startswith("messages.")
            )
        return self.stats.counters[f"messages.{vnet.name}"]
