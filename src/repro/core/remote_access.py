"""Remote-access-only baseline (the architecture of [15]).

Threads never move: every access to a non-local home is a round trip
on the remote-access network. "They must make a separate access for
each word to ensure memory coherence" (§3) — so runs of consecutive
accesses to the same remote core, which EM² amortizes with a single
migration, each pay the full round trip here.

Implemented as EM²-RA with a pinned NeverMigrate scheme (and only the
RA virtual channels in its plan), so any divergence between the two
machines is a bug, not a modeling difference.
"""

from __future__ import annotations

from repro.arch.config import SystemConfig
from repro.arch.noc.deadlock import VCPlan
from repro.arch.noc.packet import VirtualNetwork
from repro.arch.topology import Topology
from repro.core.decision.static import NeverMigrate
from repro.core.em2ra import EM2RAMachine
from repro.placement.base import Placement
from repro.registry import MACHINES
from repro.trace.events import MultiTrace

VC_PLAN_RA_ONLY = VCPlan(
    name="ra-only",
    vc_of={VirtualNetwork.RA_REQUEST: 0, VirtualNetwork.RA_REPLY: 1},
    depends=frozenset({(VirtualNetwork.RA_REQUEST, VirtualNetwork.RA_REPLY)}),
)


class RemoteAccessMachine(EM2RAMachine):
    """Coherence purely via remote cache access; no thread migration."""

    name = "ra-only"
    vc_plan = VC_PLAN_RA_ONLY

    def __init__(
        self,
        trace: MultiTrace,
        placement: Placement,
        config: SystemConfig,
        topology: Topology | None = None,
        faults=None,
        fast_path: bool = True,
    ) -> None:
        super().__init__(
            trace, placement, config, NeverMigrate(), topology,
            faults=faults, fast_path=fast_path,
        )


@MACHINES.register("ra-only", "remote-access-only machine (detailed DES)")
def _run_ra_only(trace, placement, config, scheme=None, topology=None, faults=None, fast_path=True):
    m = RemoteAccessMachine(trace, placement, config, topology, faults=faults, fast_path=fast_path)
    m.run()
    return m.results()
