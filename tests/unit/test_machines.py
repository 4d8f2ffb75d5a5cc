"""Unit tests for the behavioral EM²/EM²-RA/RA-only machines."""

import numpy as np
import pytest

from repro.arch.config import small_test_config
from repro.core.costs import CostModel
from repro.core.decision import AlwaysMigrate, DistanceThreshold, NeverMigrate
from repro.core.em2 import EM2Machine
from repro.core.em2ra import EM2RAMachine
from repro.core.remote_access import RemoteAccessMachine
from repro.placement import first_touch, striped
from repro.trace.events import MultiTrace, make_trace
from repro.util.errors import ProtocolError


def _mt(*threads, natives=None):
    return MultiTrace(
        threads=[make_trace(a, writes=w, icounts=1) for a, w in threads],
        thread_native_core=natives or list(range(len(threads))),
    )


@pytest.fixture
def cfg():
    return small_test_config(num_cores=4, guest_contexts=2)


class TestEM2:
    def test_local_only_no_migrations(self, cfg):
        mt = _mt(([0, 1, 2], [1, 1, 1]))  # words 0..2 home at core 0 (striped blk 16)
        m = EM2Machine(mt, striped(4, block_words=16), cfg)
        m.run()
        r = m.results()
        assert r["migrations"] == 0
        assert r["local_accesses"] == 3

    def test_remote_access_migrates_and_returns(self, cfg):
        # word 16 homes at core 1; thread 0 touches it then its own word
        mt = _mt(([0, 16, 0], [0, 0, 0]))
        m = EM2Machine(mt, striped(4, block_words=16), cfg)
        m.run()
        r = m.results()
        assert r["migrations"] == 2  # out and back
        assert r["messages.MIGRATION"] == 2

    def test_thread_ends_wherever_last_access_homes(self, cfg):
        mt = _mt(([16], [0]))
        m = EM2Machine(mt, striped(4, block_words=16), cfg)
        m.run()
        assert m.threads[0].core == 1

    def test_eviction_when_guests_exhausted(self):
        cfg = small_test_config(num_cores=4, guest_contexts=1)
        # threads 1,2,3 all access core 0's word simultaneously
        mt = _mt(
            ([0], [0]),
            ([1], [0]),
            ([1], [0]),
            ([1], [0]),
        )
        m = EM2Machine(mt, striped(4, block_words=16), cfg)
        m.run()
        assert m.results()["evictions"] >= 1
        assert m.results()["messages.EVICTION"] >= 1

    def test_evicted_thread_still_completes(self):
        cfg = small_test_config(num_cores=4, guest_contexts=1)
        mt = _mt(
            ([0, 0, 0], [0, 0, 0]),
            ([1, 17, 1], [0, 0, 0]),
            ([1, 17, 1], [0, 0, 0]),
            ([1, 17, 1], [0, 0, 0]),
        )
        m = EM2Machine(mt, striped(4, block_words=16), cfg)
        m.run()  # raises ProtocolError if any thread is stranded
        assert all(th.done for th in m.threads)

    def test_run_twice_rejected(self, cfg):
        mt = _mt(([0], [0]))
        m = EM2Machine(mt, striped(4), cfg)
        m.run()
        with pytest.raises(ProtocolError):
            m.run()

    def test_completion_time_positive(self, cfg, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        m = EM2Machine(pingpong_small, pl, cfg)
        m.run()
        assert m.completion_time > 0

    def test_run_length_histogram_collected(self, cfg, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        m = EM2Machine(pingpong_small, pl, cfg)
        m.run()
        assert m.stats.histogram("run_length").count > 0


class TestEM2RA:
    def test_never_migrate_scheme_does_only_ra(self, cfg):
        mt = _mt(([16, 16, 16], [0, 0, 0]))
        m = EM2RAMachine(mt, striped(4, block_words=16), cfg, scheme=NeverMigrate())
        m.run()
        r = m.results()
        assert r["migrations"] == 0
        assert r["remote_accesses"] == 3
        assert r["messages.RA_REQUEST"] == 3
        assert r["messages.RA_REPLY"] == 3

    def test_always_migrate_scheme_equals_em2(self, cfg, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        em2 = EM2Machine(pingpong_small, pl, cfg)
        em2.run()
        ra = EM2RAMachine(pingpong_small, pl, cfg, scheme=AlwaysMigrate())
        ra.run()
        assert em2.results() == ra.results()

    def test_ra_write_gets_ack(self, cfg):
        mt = _mt(([16], [1]))
        m = EM2RAMachine(mt, striped(4, block_words=16), cfg, scheme=NeverMigrate())
        m.run()
        assert m.results()["messages.RA_REPLY"] == 1

    def test_threads_keep_context_during_ra(self, cfg):
        """An RA must not release the requester's context."""
        mt = _mt(([16, 0], [0, 0]))
        m = EM2RAMachine(mt, striped(4, block_words=16), cfg, scheme=NeverMigrate())
        m.run()
        assert m.results()["evictions"] == 0
        assert m.threads[0].core == 0  # never moved

    def test_ra_updates_home_cache(self, cfg):
        """The home core's cache services (and caches) the RA."""
        mt = _mt(([16, 16], [0, 0]))
        m = EM2RAMachine(mt, striped(4, block_words=16), cfg, scheme=NeverMigrate())
        m.run()
        # second access hits in the home's cache: exactly one DRAM fill
        assert m.results()["dram_fills"] == 1


class TestRemoteAccessMachine:
    def test_never_migrates(self, cfg, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        m = RemoteAccessMachine(pingpong_small, pl, cfg)
        m.run()
        r = m.results()
        assert r["migrations"] == 0
        assert r["evictions"] == 0
        assert all(th.core == th.native for th in m.threads)

    def test_more_network_crossings_than_em2_on_long_runs(self, cfg):
        """RA-only pays per word; EM² amortizes long runs (§3)."""
        mt = _mt(([16] * 20, [0] * 20))
        pl = striped(4, block_words=16)
        em2 = EM2Machine(mt, pl, cfg)
        em2.run()
        ra = RemoteAccessMachine(mt, pl, cfg)
        ra.run()
        assert ra.results()["messages.RA_REQUEST"] == 20
        assert em2.results()["messages.MIGRATION"] == 1
