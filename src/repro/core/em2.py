"""Pure EM²: every non-local access migrates (Figure 1, executable).

The access flow implemented here is exactly the paper's Figure 1:

    memory access in core A
      -> address cacheable in core A?  yes -> access memory, continue
      -> no: migrate thread to home core
           -> # threads exceeded? yes -> migrate another thread back
              to its native core (eviction, separate virtual network)
           -> access memory and continue execution

Sequential consistency holds trivially: each address is only ever
accessed at its home core, so there is a single serialization point
per address (asserted by the conformance tests, not by runtime
checks — the machine cannot even express a remote read).
"""

from __future__ import annotations

from repro.arch.noc.deadlock import VC_PLAN_EM2
from repro.core.machine import MigrationMachineBase, ThreadState
from repro.registry import MACHINES


class EM2Machine(MigrationMachineBase):
    """Migration-only distributed shared memory."""

    name = "em2"
    vc_plan = VC_PLAN_EM2

    def _handle_nonlocal(
        self, th: ThreadState, addr: int, write: bool, home: int, delay: float
    ) -> None:
        # Fig. 1 "no" branch: migrate to the home core; the pending
        # access re-executes there (idx is not advanced).
        self._migrate(th, home, after_delay=delay)


@MACHINES.register("em2", "pure migration machine (detailed DES, Figure 1)")
def _run_em2(trace, placement, config, scheme=None, topology=None, faults=None, fast_path=True):
    m = EM2Machine(trace, placement, config, topology, faults=faults, fast_path=fast_path)
    m.run()
    return m.results()
