"""Unit tests for the behavioral stack-EM² machine (§4)."""

import numpy as np
import pytest

from repro.arch.config import small_test_config
from repro.core.em2 import EM2Machine
from repro.core.stack_em2 import FixedDepth, NeedBasedDepth, StackEM2Machine
from repro.placement import first_touch, striped
from repro.stackmachine import stack_workload
from repro.trace.events import MultiTrace, make_trace
from repro.util.errors import ConfigError, TraceFormatError
from repro.verify import audit_message_conservation, audit_thread_completion


def _stack_mt(*threads):
    built = []
    for addrs, spops, spushes in threads:
        built.append(
            make_trace(
                addrs,
                icounts=[1] * len(addrs),
                spops=spops,
                spushes=spushes,
            )
        )
    return MultiTrace(threads=built)


@pytest.fixture
def cfg():
    return small_test_config(num_cores=4, guest_contexts=2)


class TestBasics:
    def test_plain_trace_rejected(self, cfg):
        mt = MultiTrace(threads=[make_trace([0])])
        with pytest.raises(TraceFormatError, match="stack-annotated"):
            StackEM2Machine(mt, striped(4), cfg, FixedDepth(2))

    def test_local_run_free_of_migrations(self, cfg):
        mt = _stack_mt(([0, 1, 2], [1, 1, 1], [1, 1, 1]))
        m = StackEM2Machine(mt, striped(4, block_words=16), cfg, FixedDepth(2))
        m.run()
        assert m.results()["migrations"] == 0

    def test_remote_access_migrates_with_stack_context(self, cfg):
        mt = _stack_mt(([16], [1], [1]))
        m = StackEM2Machine(mt, striped(4, block_words=16), cfg, FixedDepth(3))
        m.run()
        r = m.results()
        assert r["migrations"] == 1
        assert r["migrated_stack_words"] == 3
        # context on the wire is stack-sized, not register-file-sized
        flits = m.network.stats.counters["flits.MIGRATION"]
        assert flits < cfg.noc.message_flits(cfg.context.full_context_bits)

    def test_invalid_window_rejected(self, cfg):
        mt = _stack_mt(([0], [0], [0]))
        with pytest.raises(ConfigError):
            StackEM2Machine(mt, striped(4), cfg, FixedDepth(2), window=0)


class TestStepDispatch:
    """The stack step is the machine's only step, whatever the config."""

    def _run(self, cfg):
        # out to core 1 and back home: two migrations carrying 2 words
        mt = _stack_mt(([0, 16, 17, 0], [0, 0, 0, 0], [0, 0, 0, 0]))
        m = StackEM2Machine(mt, striped(4, block_words=16), cfg, FixedDepth(2))
        m.run()
        return m

    def test_no_epoch_stepper_is_built(self, cfg):
        m = self._run(cfg)
        assert m._stepper is None
        assert m.results()["fast_path"]["engaged"] is False

    def test_context_multiplexing_rejected_at_construction(self):
        cfg = small_test_config(num_cores=4, multiplex_contexts=True)
        mt = _stack_mt(([0, 16], [0, 0], [0, 0]))
        with pytest.raises(ConfigError, match="multiplex"):
            StackEM2Machine(mt, striped(4, block_words=16), cfg, FixedDepth(2))


class TestForcedReturns:
    def test_underflow_bounces_home(self, cfg):
        # access 0: migrate out carrying 0; access 1: segment pops 3 -> underflow
        mt = _stack_mt(([16, 16], [0, 3], [0, 0]))
        m = StackEM2Machine(mt, striped(4, block_words=16), cfg, FixedDepth(0))
        m.run()
        r = m.results()
        assert r["underflow_returns"] >= 1
        assert r["migrations"] >= 3  # out, forced home, out again

    def test_overflow_bounces_home(self, cfg):
        # carrying the full window leaves no room for a pushing segment
        mt = _stack_mt(([16, 16], [0, 0], [0, 4]))
        m = StackEM2Machine(
            mt, striped(4, block_words=16), cfg, FixedDepth(4), window=4
        )
        m.run()
        assert m.results()["overflow_returns"] >= 1

    def test_adequate_depth_avoids_returns(self, cfg):
        mt = _stack_mt(([16, 16], [0, 3], [0, 0]))
        m = StackEM2Machine(
            mt, striped(4, block_words=16), cfg, FixedDepth(4), window=8
        )
        m.run()
        r = m.results()
        assert r["underflow_returns"] == 0
        assert r["overflow_returns"] == 0
        assert r["migrations"] == 1

    def test_flush_on_partial_carry_between_guests(self, cfg):
        # guest->guest migration carrying less than held flushes the rest
        mt = _stack_mt(([16, 32], [0, 0], [0, 0]))
        m = StackEM2Machine(
            mt, striped(4, block_words=16), cfg, FixedDepth(4), window=8
        )
        # first migration carries 4 from native; second (guest->guest)
        # also wants 4 but FixedDepth(4) == held, no flush. Use a
        # scheme that reduces depth:
        class Shrinking(FixedDepth):
            def __init__(self):
                super().__init__(0)
                self.calls = 0

            def carry_depth(self, tid, idx, held, window):
                self.calls += 1
                return 4 if self.calls == 1 else 1

        m = StackEM2Machine(
            mt, striped(4, block_words=16), cfg, Shrinking(), window=8
        )
        m.run()
        assert m.results()["flushes"] == 1


class TestSchemes:
    def test_full_lookahead_no_underflow_when_need_fits_window(self, cfg):
        """When every thread's whole-future stack requirement fits the
        window, full-lookahead carries eliminate underflow returns.

        (Thread 0's init phase in stack_workload has a cumulative
        drawdown larger than any window — its mid-run refills are
        *mandatory* §4 behaviour, so it is excluded here; the kernel
        threads' requirement is ~4 <= window 8.)"""
        full = stack_workload("dot", num_threads=4, n=24, shared_fraction=1.0)
        mt = MultiTrace(
            threads=list(full.threads[1:]),
            thread_native_core=[1, 2, 3],
            name="dot-kernels",
        )
        pl = first_touch(full, 4)  # placement from the full run (incl. init)
        m = StackEM2Machine(
            mt, pl, cfg, NeedBasedDepth(mt, lookahead=200), window=8
        )
        m.run()
        assert m.results()["underflow_returns"] == 0

    def test_requirement_beyond_window_forces_refills(self, cfg):
        """The dual claim: a segment chain whose cumulative drawdown
        exceeds the window forces returns regardless of the scheme —
        §4's automatic migrate-back, not a scheme deficiency."""
        # drain 3 entries per segment, 4 segments: requirement 12 > window 8
        mt = _stack_mt(
            ([16, 16, 16, 16, 16], [0, 3, 3, 3, 3], [0, 0, 0, 0, 0])
        )
        m = StackEM2Machine(
            mt, striped(4, block_words=16), cfg,
            NeedBasedDepth(mt, lookahead=200), window=8,
        )
        m.run()
        assert m.results()["underflow_returns"] >= 1

    def test_need_based_beats_zero_depth(self, cfg):
        """Even short lookahead cuts forced returns vs carrying nothing."""
        mt = stack_workload("dot", num_threads=4, n=24, shared_fraction=1.0)
        pl = first_touch(mt, 4)
        zero = StackEM2Machine(mt, pl, cfg, FixedDepth(0), window=8)
        zero.run()
        need = StackEM2Machine(
            mt, pl, cfg, NeedBasedDepth(mt, lookahead=4), window=8
        )
        need.run()
        assert (
            need.results()["underflow_returns"]
            < max(zero.results()["underflow_returns"], 1)
        )

    def test_carry_clamped_when_scheme_overreaches(self, cfg):
        mt = _stack_mt(([16, 32], [0, 0], [0, 0]))
        m = StackEM2Machine(
            mt, striped(4, block_words=16), cfg, FixedDepth(8), window=8
        )
        m.run()
        # second migration holds only what the first carried... held==8
        # from native; guest->guest holds 8, carry 8: no clamp. Build a
        # case with a popping segment first:
        mt2 = _stack_mt(([16, 32], [0, 6], [0, 0]))
        m2 = StackEM2Machine(
            mt2, striped(4, block_words=16), cfg, FixedDepth(8), window=8
        )
        m2.run()
        assert m2.results()["carry_clamped"] >= 1

    def test_negative_fixed_depth_rejected(self):
        with pytest.raises(ConfigError):
            FixedDepth(-1)


class TestReplayDepth:
    def test_planned_depths_are_used(self, cfg):
        from repro.core.costs import CostModel
        from repro.core.stack_em2 import ReplayDepth

        mt = _stack_mt(([16, 16, 0], [0, 1, 1], [2, 1, 0]))
        pl = striped(4, block_words=16)
        cm = CostModel(cfg)
        scheme = ReplayDepth.from_dp(mt, pl, cm, max_depth=8)
        m = StackEM2Machine(mt, pl, cfg, scheme, window=8)
        m.run()
        r = m.results()
        # with one thread and no disturbances, carried words match the plan
        planned = sum(d for d in scheme.depths[0] if d >= 0)
        assert r["migrated_stack_words"] == planned

    def test_fallback_covers_unplanned_migrations(self, cfg):
        """Under eviction pressure the machine migrates where the plan
        did not; the fallback must answer and the run still drains."""
        from repro.core.costs import CostModel
        from repro.core.stack_em2 import ReplayDepth

        cfg1 = small_test_config(num_cores=4, guest_contexts=1)
        mt = stack_workload("dot", num_threads=4, n=16, shared_fraction=1.0)
        pl = first_touch(mt, 4)
        scheme = ReplayDepth.from_dp(mt, pl, CostModel(cfg1), max_depth=8)
        m = StackEM2Machine(mt, pl, cfg1, scheme, window=8)
        m.run()
        audit_thread_completion(m)

    def test_replay_competitive_with_fixed_depths(self, cfg):
        from repro.core.costs import CostModel
        from repro.core.stack_em2 import ReplayDepth

        mt = stack_workload("reduce", num_threads=4, n=24, shared_fraction=1.0)
        pl = first_touch(mt, 4)
        cm = CostModel(cfg)
        replay = StackEM2Machine(
            mt, pl, cfg, ReplayDepth.from_dp(mt, pl, cm, max_depth=8), window=8
        )
        replay.run()
        worst = None
        for d in (0, 8):
            fixed = StackEM2Machine(mt, pl, cfg, FixedDepth(d), window=8)
            fixed.run()
            flits = fixed.network.stats.counters["flits.MIGRATION"]
            worst = flits if worst is None else max(worst, flits)
        assert (
            replay.network.stats.counters["flits.MIGRATION"] <= worst
        )


class TestVsRegisterFileEM2:
    def test_stack_traffic_far_below_register_em2(self, cfg):
        """§4's headline, behaviorally: same workload, same protocol,
        a fraction of the migration traffic."""
        mt = stack_workload("reduce", num_threads=4, n=32, shared_fraction=1.0)
        pl = first_touch(mt, 4)
        stack = StackEM2Machine(mt, pl, cfg, NeedBasedDepth(mt), window=8)
        stack.run()
        reg = EM2Machine(mt, pl, cfg)
        reg.run()
        s_flits = stack.network.stats.counters["flits.MIGRATION"]
        r_flits = reg.network.stats.counters["flits.MIGRATION"]
        assert s_flits < 0.6 * r_flits

    def test_audits_clean(self, cfg):
        mt = stack_workload("hist", num_threads=4, n=24, shared_fraction=0.75)
        pl = first_touch(mt, 4)
        m = StackEM2Machine(mt, pl, cfg, NeedBasedDepth(mt), window=8)
        m.run()
        audit_thread_completion(m)
        # note: flush messages ride the eviction vnet by design, so
        # message conservation for evictions does not apply here;
        # migrations must still balance
        assert (
            m.network.message_count()
            >= m.stats.counters["migrations"]
        )


class TestPerCoreCounts:
    """The per-core matrix counts every migration into and eviction out
    of each core, for the stack machine as for register-file EM²."""

    @pytest.mark.parametrize("machine", ["em2", "stack-em2"])
    def test_core_matrix_sums_to_the_totals(self, machine):
        mt = stack_workload("dot", num_threads=8, n=48, shared_fraction=0.75)
        pl = first_touch(mt, 4)
        cfg = small_test_config(num_cores=4, guest_contexts=1)
        if machine == "em2":
            m = EM2Machine(mt, pl, cfg)
        else:
            m = StackEM2Machine(mt, pl, cfg, FixedDepth(2))
        m.run()
        r = m.results()
        stats = m.stats.as_dict()
        assert r["migrations"] > 0 and r["evictions"] > 0
        assert stats["mat.core.migrations_in"] == r["migrations"]
        assert stats["mat.core.evictions_out"] == r["evictions"]
