"""Figure 1 conformance: the life of a memory access under EM².

Each test walks one branch of the paper's flowchart against the
behavioral machine and checks the observable protocol actions match:

    memory access in core A
      -> cacheable in A?  yes -> access memory, continue      (branch 1)
      -> no -> migrate to home core                            (branch 2)
           -> # threads exceeded? no -> access memory, continue
           -> yes -> migrate another thread back to its native
              core, then access memory, continue               (branch 3)

Plus the global invariants the protocol guarantees: single cache
location per address (sequential consistency argument, §2) and
deadlock-free completion.
"""

import numpy as np
import pytest

from repro.arch.config import small_test_config
from repro.arch.noc.packet import VirtualNetwork
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.em2 import EM2Machine
from repro.core.em2ra import EM2RAMachine
from repro.placement import striped
from repro.trace.events import MultiTrace, make_trace


def _machine(threads, num_cores=4, guests=2, natives=None):
    cfg = small_test_config(num_cores=num_cores, guest_contexts=guests)
    mt = MultiTrace(
        threads=[make_trace(a, writes=w, icounts=1) for a, w in threads],
        thread_native_core=natives or list(range(len(threads))),
    )
    return EM2Machine(mt, striped(num_cores, block_words=16), cfg)


class TestBranch1_LocalAccess:
    def test_cacheable_address_accesses_locally(self):
        m = _machine([([0, 1, 2], [0, 0, 0])])  # block 0 homes at core 0
        m.run()
        r = m.results()
        assert r["local_accesses"] == 3
        assert r["migrations"] == 0
        assert m.network.message_count() == 0  # nothing crossed the NoC


class TestBranch2_Migration:
    def test_noncacheable_address_migrates_to_home(self):
        m = _machine([([16], [0])])  # block 1 homes at core 1
        m.run()
        assert m.results()["migrations"] == 1
        assert m.threads[0].core == 1  # execution continued at the home
        # the migration used the migration virtual network
        assert m.network.message_count(VirtualNetwork.MIGRATION) == 1
        assert m.network.message_count(VirtualNetwork.EVICTION) == 0

    def test_access_executes_at_home_after_migration(self):
        """The home core's cache (not the source's) services the access."""
        m = _machine([([16], [0])])
        m.run()
        assert m.caches[1].l1.misses + m.caches[1].l1.hits == 1
        assert m.caches[0].l1.misses + m.caches[0].l1.hits == 0

    def test_context_size_on_wire_matches_config(self):
        m = _machine([([16], [0])])
        m.run()
        flits_expected = m.config.noc.message_flits(
            m.config.context.full_context_bits
        )
        assert m.network.stats.counters["flits.MIGRATION"] == flits_expected


class TestBranch3_Eviction:
    def test_exceeding_guest_contexts_evicts_to_native(self):
        # 3 guests converge on core 0 which has 1 guest slot
        m = _machine(
            [([0], [0]), ([1], [0]), ([1], [0]), ([1], [0])],
            guests=1,
        )
        m.run()
        r = m.results()
        assert r["evictions"] >= 1
        # evictions travel on their own virtual network (deadlock freedom)
        assert m.network.message_count(VirtualNetwork.EVICTION) == r["evictions"]

    def test_evicted_thread_lands_at_native_context(self):
        m = _machine(
            [([0, 0], [0, 0]), ([1, 17], [0, 0]), ([1, 1], [0, 0]), ([1, 1], [0, 0])],
            guests=1,
        )
        m.run()
        for th in m.threads:
            assert th.done

    def test_native_context_never_evicted(self):
        """Thread 0 sits at its native core; visitors never displace it."""
        m = _machine(
            [([0] * 10, [0] * 10), ([1], [0]), ([1], [0]), ([1], [0])],
            guests=1,
        )
        m.run()
        assert m.threads[0].done
        # thread 0 never migrated nor was evicted
        assert m.network.message_count(VirtualNetwork.EVICTION) >= 0
        assert m.threads[0].core == 0


def _converging(first_delays, accesses):
    """One trace per thread (native cores 1, 2, ...), each hitting
    core 0's block ``accesses`` times after a first-access delay."""
    threads = []
    for delay in first_delays:
        icounts = np.ones(accesses)
        icounts[0] = delay
        threads.append(make_trace([0] * accesses, icounts=icounts))
    return MultiTrace(
        threads=threads, thread_native_core=list(range(1, len(threads) + 1))
    )


def _record_picks(m):
    """Wrap the machine's victim choice: each call's guest slots as
    (thread, admitted at, awaiting a reply) and the victim it chose."""
    picks = []
    pick = m._pick_evictable_victim

    def recorded(core):
        guests = [
            (tid, since, m.threads[tid].pending is None)
            for tid, since in m.contexts[core].guest_slots_info()
        ]
        victim = pick(core)
        picks.append((guests, victim))
        return victim

    m._pick_evictable_victim = recorded
    return picks


class TestGuestVictimChoice:
    """Branch 3's victim: the earliest-admitted guest that can leave.
    ``MigrationMachineBase._try_admit`` is the only admission rule."""

    def test_full_core_displaces_earliest_admitted_guest(self):
        # threads 0, 1, 2 reach core 0 (2 guest slots) in the order
        # 2, 0, 1; each evicted thread comes straight back
        cfg = small_test_config(num_cores=4, guest_contexts=2)
        m = EM2Machine(_converging([40, 80, 1], 40), striped(4, block_words=16), cfg)
        picks = _record_picks(m)
        m.run()
        assert [victim for _, victim in picks] == [2, 0, 1, 2]
        for guests, victim in picks:
            assert victim == min(guests, key=lambda g: g[1])[0]
        # the second victim sat in the second slot: admission order, not
        # slot order, picks it
        assert [g[0] for g in picks[1][0]] == [1, 0]
        assert m.results()["evictions"] == 4
        assert all(th.done for th in m.threads)

    def test_arrival_stalls_rather_than_displace_guest_awaiting_reply(self):
        """Thread 0 migrates to core 0 (1 guest slot), then reads core
        2's data remotely; thread 1 arrives during that round trip. The
        arrival stalls, and displaces thread 0 only once the reply has
        landed."""

        class MigrateToCore0(DecisionScheme):
            def decide(self, current, home, addr, write):
                return Decision.MIGRATE if home == 0 else Decision.REMOTE

        cfg = small_test_config(num_cores=4, guest_contexts=1)
        remote = make_trace([0] + [32] * 20 + [0], icounts=1)
        late = make_trace([0, 0, 0], icounts=[150, 1, 1])
        mt = MultiTrace(threads=[remote, late], thread_native_core=[1, 3])
        m = EM2RAMachine(mt, striped(4, block_words=16), cfg, MigrateToCore0())
        picks = _record_picks(m)
        m.run()
        (stall_guests, stall_victim), (evict_guests, evict_victim) = picks
        assert [(g[0], g[2]) for g in stall_guests] == [(0, True)]
        assert stall_victim is None
        assert [(g[0], g[2]) for g in evict_guests] == [(0, False)]
        assert evict_victim == 0
        assert m.stats.counters["admission_stalls"] == 1
        assert m.results()["evictions"] == 1
        assert all(th.done for th in m.threads)


class TestGlobalInvariants:
    def test_address_only_cached_at_home(self):
        """Sequential consistency's premise: after any run, every cached
        line lives only in its home core's hierarchy (§2)."""
        m = _machine(
            [
                ([0, 16, 32, 48, 0], [1, 1, 1, 1, 0]),
                ([16, 32, 0, 16, 48], [0, 1, 1, 0, 0]),
            ]
        )
        m.run()
        for core, hier in enumerate(m.caches):
            for byte_addr in hier.l1.resident_addrs() + hier.l2.resident_addrs():
                word = byte_addr // m.config.word_bytes
                assert m.placement.home_of_one(word) == core

    def test_all_threads_complete_under_context_pressure(self):
        """Deadlock-freedom: heavy convergence on one core still drains."""
        rng = np.random.default_rng(0)
        threads = []
        for t in range(8):
            addrs = rng.integers(0, 16, 40)  # all home at core 0 (block 0)
            threads.append((addrs.tolist(), [0] * 40))
        m = _machine(threads, num_cores=8, guests=1)
        m.run()
        assert all(th.done for th in m.threads)

    def test_write_then_read_same_address_sees_home_cache(self):
        """Two threads RMW the same word: both migrate to one home, the
        second access hits the line the first brought in."""
        m = _machine([([16], [1]), ([16], [0])])
        m.run()
        assert m.results()["dram_fills"] == 1  # one fill, then a hit
