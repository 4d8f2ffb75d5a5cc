"""EM²-RA: the hybrid architecture (Figure 3, executable).

Every non-local access consults a per-core decision procedure:

* MIGRATE — identical to pure EM² (context moves to the home core);
* REMOTE — a request travels on the remote-access virtual subnetwork
  ("separate from the subnetworks used for migrations ... requiring
  six virtual channels in total", §3), the home core performs the
  access against its own cache hierarchy, and the data (read) or ack
  (write) returns to the requesting core, where execution continues.

The decision scheme is any :class:`~repro.core.decision.DecisionScheme`
— including a replayed optimal sequence from the DP, which is how the
"how close to optimal is this scheme" experiments run.
"""

from __future__ import annotations

from repro.arch.noc import Message, VirtualNetwork
from repro.arch.noc.deadlock import VC_PLAN_EM2RA
from repro.arch.config import SystemConfig
from repro.arch.topology import Topology
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.machine import MigrationMachineBase, ThreadState
from repro.placement.base import Placement
from repro.registry import MACHINES
from repro.trace.events import MultiTrace


class EM2RAMachine(MigrationMachineBase):
    """Hybrid migration / remote-cache-access machine."""

    name = "em2-ra"
    vc_plan = VC_PLAN_EM2RA

    def __init__(
        self,
        trace: MultiTrace,
        placement: Placement,
        config: SystemConfig,
        scheme: DecisionScheme,
        topology: Topology | None = None,
        faults=None,
        fast_path: bool = True,
    ) -> None:
        super().__init__(
            trace, placement, config, topology, faults=faults, fast_path=fast_path
        )
        # one scheme instance per thread: the hardware unit is core-local,
        # but its history follows the thread's perspective
        self._schemes = [scheme.clone() for _ in range(trace.num_threads)]
        for s in self._schemes:
            s.reset()
        self._c_remote = self.stats.counters.cell("remote_accesses")
        # index-addressed replay (DP plans) is a property of the scheme's
        # type, so it is tested once here rather than per access
        self._replay = hasattr(scheme, "decision_for")
        self._ra_fixed = config.cost.remote_access_fixed
        # leg payloads indexed by the access's store flag
        self._req_bits = (config.ra_request_bits(False), config.ra_request_bits(True))
        self._rep_bits = (config.ra_reply_bits(False), config.ra_reply_bits(True))

    def _handle_nonlocal(
        self, th: ThreadState, addr: int, write: bool, home: int, delay: float
    ) -> None:
        scheme = self._schemes[th.tid]
        if self._replay:
            decision = scheme.decision_for(th.tid, th.idx)
        else:
            decision = scheme.decide(th.core, home, addr, write)
            scheme.observe(th.core, home, addr, write, decision)
        if decision == Decision.MIGRATE:
            self._migrate(th, home, after_delay=delay)
            return
        self._remote_access(th, addr, write, home, delay)

    # -- remote access round trip ----------------------------------------
    # Each leg is one message and one departure event (see
    # MigrationMachineBase._depart). Every run rewrites the thread's
    # recycled request and reply messages: a thread has at most one
    # remote access in flight, and its request is delivered before the
    # reply is built.
    def _remote_access(
        self, th: ThreadState, addr: int, write: bool, home: int, delay: float
    ) -> None:
        self._c_remote.n += 1
        req_bits = self._req_bits[write]
        msg = th._req_msg
        if msg is None:
            msg = th._req_msg = Message(
                src=th.core, dst=home, payload_bits=req_bits,
                vnet=VirtualNetwork.RA_REQUEST, kind="ra-request", body=(th, addr, write),
            )
        else:
            msg.src = th.core
            msg.dst = home
            msg.payload_bits = req_bits
            msg.body = (th, addr, write)
        self._depart(th, delay + self._ra_fixed, msg, self._ra_at_home)

    def _ra_at_home(self, msg: Message) -> None:
        th, addr, write = msg.body
        home = msg.dst
        # the home core performs the access against its own caches
        lat = self._access_latency(home, addr, write)
        reply_bits = self._rep_bits[write]
        reply = th._rep_msg
        if reply is None:
            reply = th._rep_msg = Message(
                src=home, dst=msg.src, payload_bits=reply_bits,
                vnet=VirtualNetwork.RA_REPLY, kind="ra-reply", body=th,
            )
        else:
            reply.src = home
            reply.dst = msg.src
            reply.payload_bits = reply_bits
        self._depart(th, lat, reply, self._ra_done)

    def _ra_done(self, msg: Message) -> None:
        th: ThreadState = msg.body
        th.idx += 1  # the access completed remotely
        self._push_step(th, self._ra_fixed)
        # the thread is evictable again: a migrant stalled behind this
        # core's pinned guests may now displace it
        if not self.contexts[th.core].is_native(th.tid):
            self._admit_waiter_if_any(th.core)


@MACHINES.register("em2ra", "hybrid migration / remote-access machine (detailed DES)")
def _run_em2ra(trace, placement, config, scheme=None, topology=None, faults=None, fast_path=True):
    if scheme is None:
        from repro.util.errors import ConfigError

        raise ConfigError("machine 'em2ra' requires a decision scheme")
    m = EM2RAMachine(trace, placement, config, scheme, topology, faults=faults, fast_path=fast_path)
    m.run()
    return m.results()
