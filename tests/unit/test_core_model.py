"""Unit tests for native/guest execution contexts (§2)."""

import pytest

from repro.arch.config import small_test_config
from repro.arch.core_model import ContextFile, build_context_files
from repro.core.em2 import EM2Machine
from repro.placement import striped
from repro.trace.events import MultiTrace, make_trace
from repro.util.errors import ProtocolError


def _ctx(guests=2):
    return ContextFile(core=0, native_threads=(0, 1), guest_slots=guests)


def _seat_guest(c, thread, now):
    """Seat ``thread`` in the first free guest slot, as
    ``MigrationMachineBase._try_admit`` does (victim choice, when no
    slot is free, is the machine's; see test_fig1_protocol)."""
    slot = next(s for s in c._guests if s.thread is None)
    slot.thread = thread
    slot.since = now


def _guest_machine(guests, threads):
    """An unstarted EM² machine: 4 cores, ``guests`` guest slots each,
    ``threads`` threads native to cores 1, 2, ... (none to core 0)."""
    cfg = small_test_config(num_cores=4, guest_contexts=guests)
    mt = MultiTrace(
        threads=[make_trace([0], icounts=1) for _ in range(threads)],
        thread_native_core=[1 + t % 3 for t in range(threads)],
    )
    return EM2Machine(mt, striped(4, block_words=16), cfg)


def _arrive_at_core0(m, tid, now):
    """Thread ``tid`` lands at core 0 at ``now`` through the machine's
    admission rule (``_try_admit``, the only one)."""
    m.engine.now = now
    m.threads[tid].in_transit = True
    m._try_admit(m.threads[tid], 0)


class TestContextFile:
    def test_native_admission_always_succeeds(self):
        c = _ctx()
        c.admit_native(0, now=1.0)
        c.admit_native(1, now=2.0)
        assert c.resident(0) and c.resident(1)

    def test_native_slot_is_dedicated(self):
        c = _ctx()
        with pytest.raises(ProtocolError):
            c.admit_native(5, now=0.0)  # thread 5 is not native here

    def test_guest_admission_until_full(self):
        m = _guest_machine(guests=2, threads=3)
        _arrive_at_core0(m, 0, now=0.0)
        _arrive_at_core0(m, 1, now=1.0)
        assert m.contexts[0].guest_threads() == [0, 1]
        assert not any(th.in_transit for th in m.threads[:2])
        _arrive_at_core0(m, 2, now=2.0)
        # the earliest-admitted guest is sent home
        assert m.threads[0].in_transit and not m.contexts[0].resident(0)
        assert m.contexts[0].resident(1) and m.contexts[0].resident(2)

    def test_lru_eviction_uses_admission_time(self):
        m = _guest_machine(guests=2, threads=4)
        _arrive_at_core0(m, 0, now=1.0)
        _arrive_at_core0(m, 1, now=2.0)
        _arrive_at_core0(m, 2, now=3.0)  # displaces 0 from slot 0
        assert m.contexts[0].guest_slots_info() == [(2, 3.0), (1, 2.0)]
        # slot 1's guest was admitted first: it goes, not slot 0's
        _arrive_at_core0(m, 3, now=4.0)
        assert m.threads[1].in_transit
        assert m.contexts[0].guest_slots_info() == [(2, 3.0), (3, 4.0)]

    def test_double_admission_rejected(self):
        c = _ctx()
        c.admit_native(0, now=0.0)
        with pytest.raises(ProtocolError):
            c.admit_native(0, now=1.0)

    def test_release_guest_and_native(self):
        c = _ctx()
        c.admit_native(0, now=0.0)
        _seat_guest(c, 10, now=0.0)
        c.release(0)
        c.release(10)
        assert not c.resident(0) and not c.resident(10)

    def test_release_absent_thread_rejected(self):
        with pytest.raises(ProtocolError):
            _ctx().release(42)

    def test_occupancy_counts_both_kinds(self):
        c = _ctx()
        c.admit_native(0, now=0.0)
        _seat_guest(c, 10, now=0.0)
        assert c.occupancy() == 2

    def test_guest_slots_info_lists_occupied_guests(self):
        """(thread, admission time) per occupied guest slot, in slot
        order: what the machine's victim choice reads."""
        c = _ctx(guests=3)
        _seat_guest(c, 10, now=5.0)
        _seat_guest(c, 11, now=1.0)
        assert c.guest_slots_info() == [(10, 5.0), (11, 1.0)]
        c.release(10)
        assert c.guest_slots_info() == [(11, 1.0)]
        assert c.guest_threads() == [11]

    def test_evicted_guest_slot_reused(self):
        m = _guest_machine(guests=1, threads=2)
        _arrive_at_core0(m, 0, now=0.0)
        _arrive_at_core0(m, 1, now=1.0)
        assert m.threads[0].in_transit
        assert m.contexts[0].guest_slots_info() == [(1, 1.0)]

    def test_zero_guest_slots_rejected(self):
        with pytest.raises(ProtocolError):
            ContextFile(core=0, native_threads=(), guest_slots=0)


class TestBuildContextFiles:
    def test_one_native_slot_per_thread(self):
        files = build_context_files(4, [0, 1, 2, 3], guest_slots=2)
        for t, f in enumerate(files):
            assert f.is_native(t)
            assert not f.is_native((t + 1) % 4)

    def test_multiple_threads_per_core(self):
        files = build_context_files(2, [0, 0, 1], guest_slots=1)
        assert files[0].native_threads == (0, 1)
        assert files[1].native_threads == (2,)

    def test_out_of_range_native_core_rejected(self):
        with pytest.raises(ProtocolError):
            build_context_files(2, [0, 5], guest_slots=1)
