"""Post-run protocol audits (see package docstring)."""

from __future__ import annotations

from repro.arch.noc.packet import VirtualNetwork
from repro.coherence.msi import DirState, MSIState
from repro.util.errors import ProtocolError


def audit_home_only_caching(machine) -> dict:
    """Every resident line lives at its home core (EM² §2 premise).

    Applies to the EM² family machines (they share cache + placement
    structure). Returns {'lines_checked': n}.
    """
    checked = 0
    wb = machine.config.word_bytes
    for core, hier in enumerate(machine.caches):
        for byte_addr in hier.l1.resident_addrs() + hier.l2.resident_addrs():
            home = machine.placement.home_of_one(byte_addr // wb)
            if home != core:
                raise ProtocolError(
                    f"line {byte_addr:#x} cached at core {core} but homed at {home}"
                )
            checked += 1
    return {"lines_checked": checked}


def audit_thread_completion(machine) -> dict:
    """All threads done; no context occupied; nothing in flight."""
    for th in machine.threads:
        if not th.done:
            raise ProtocolError(f"thread {th.tid} unfinished at idx {th.idx}")
        if th.in_transit:
            raise ProtocolError(f"thread {th.tid} still in transit")
    for ctx in machine.contexts:
        if ctx.occupancy() != 0:
            raise ProtocolError(
                f"core {ctx.core} still holds {ctx.occupancy()} contexts after drain"
            )
    for core, waiters in enumerate(machine._waiting):
        if waiters:
            raise ProtocolError(f"core {core} has {len(waiters)} stalled arrivals")
    return {"threads": len(machine.threads)}


def audit_message_conservation(machine) -> dict:
    """Requests and replies balance; migrations+evictions delivered.

    Under an active fault plane the equalities relax to inequalities:
    retransmissions and injected duplicates inflate per-vnet message
    counts above the protocol-level transfer counts, so the audit only
    checks that every transfer sent *at least* one message (a count
    below the floor still means messages vanished without recovery).
    """
    faulty = getattr(machine, "faults", None) is not None
    counts = {
        vnet: machine.network.message_count(vnet) for vnet in VirtualNetwork
    }
    req, rep = counts[VirtualNetwork.RA_REQUEST], counts[VirtualNetwork.RA_REPLY]
    remote = machine.stats.counters["remote_accesses"]  # 0 on pure EM²
    if (req != rep) if not faulty else (req < remote or rep < remote):
        raise ProtocolError(
            f"RA requests ({req}) / replies ({rep}) below the "
            f"{remote} completed remote accesses"
            if faulty
            else f"RA requests ({req}) != replies ({rep})"
        )
    migrations = machine.stats.counters["migrations"]
    evictions = machine.stats.counters["evictions"]
    m_msgs = counts[VirtualNetwork.MIGRATION]
    if (m_msgs != migrations) if not faulty else (m_msgs < migrations):
        raise ProtocolError(
            f"migration messages ({m_msgs}) != migration count ({migrations})"
        )
    e_msgs = counts[VirtualNetwork.EVICTION]
    if (e_msgs != evictions) if not faulty else (e_msgs < evictions):
        raise ProtocolError(
            f"eviction messages ({e_msgs}) != eviction count ({evictions})"
        )
    return {k.name: v for k, v in counts.items() if v}


def audit_liveness(machine) -> dict:
    """Every thread finished and every reliable transfer completed.

    The fault-plane acceptance audit: at any drop/dup/delay rate with
    retries enabled, a run that returns must have (a) all threads done
    with nothing in transit or stalled, and (b) no reliable transfer
    still open (sent but neither delivered nor given up). Checks (a)
    via :func:`audit_thread_completion` and adds the recovery ledger.
    """
    out = audit_thread_completion(machine)
    open_transfers = getattr(machine, "_open_transfers", 0)
    if open_transfers:
        raise ProtocolError(
            f"{open_transfers} reliable transfer(s) still open after drain"
        )
    if getattr(machine, "faults", None) is not None:
        counters = machine.stats.counters
        out.update(
            retries=counters["retries"],
            drops_survived=counters["drops_survived"],
            dup_ignored=counters["dup_ignored"],
            faults_injected=machine.faults.fault_count,
        )
    return out


def audit_directory(sim) -> dict:
    """Directory and caches agree (MSI single-writer / sharer exactness).

    ``sim`` is a :class:`~repro.coherence.simulator.DirectoryCCSimulator`.
    """
    lines = 0
    for line, entry in sim.directory.items():
        entry.check_invariants()
        byte_addr = line * sim.config.l2.line_bytes
        holders = {
            c
            for c in range(sim.config.num_cores)
            if sim.caches[c].probe(byte_addr) is not None
        }
        if entry.state == DirState.EXCLUSIVE:
            if holders != {entry.owner}:
                raise ProtocolError(
                    f"line {line:#x} EXCLUSIVE at {entry.owner} but held by {holders}"
                )
            oarr = sim.caches[entry.owner]
            st = MSIState(int(oarr.state[oarr.probe(byte_addr)]))
            if st not in (MSIState.MODIFIED, MSIState.EXCLUSIVE):
                raise ProtocolError(
                    f"line {line:#x} owner cache state {st.name} not M/E"
                )
        elif entry.state == DirState.SHARED:
            if holders != entry.sharers:
                raise ProtocolError(
                    f"line {line:#x} sharers {entry.sharers} but held by {holders}"
                )
        else:  # UNCACHED
            if holders:
                raise ProtocolError(f"line {line:#x} UNCACHED but held by {holders}")
        lines += 1
    return {"directory_lines": lines}


def full_machine_audit(machine) -> dict:
    """All EM²-family audits in one call."""
    out = {}
    out.update(audit_thread_completion(machine))
    out.update(audit_home_only_caching(machine))
    out.update(audit_message_conservation(machine))
    out.update(audit_liveness(machine))
    return out
