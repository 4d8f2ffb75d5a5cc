"""Behavioral stack-machine EM² (§4 as an executable protocol).

The analytical stack-depth DP (:mod:`repro.core.decision.stack_optimal`)
evaluates depth policies one thread at a time; this machine runs them
concurrently with everything the behavioral substrate provides —
guest contexts, evictions, backpressure, VC'd transport — while
migrations carry a *variable-size* context:

* every thread tracks its resident guest-stack depth ``d``;
* before an access, the segment's stack activity applies: ``spop > d``
  underflows, ``d - spop + spush > window`` overflows — either way the
  thread migrates back to its native core (where its stack memory
  lives), exactly the automatic-return behaviour §4 describes;
* a migration to a non-native home consults a :class:`DepthScheme`
  for the carry depth; the context on the wire is
  ``pc + status + depth * word`` bits — so migration cost varies
  per migration, unlike register-file EM²;
* flushed entries (carry < held) travel to the native core as a
  separate data message on the eviction virtual network.

Evicted threads lose their guest window (the context that travels on
eviction is the carried stack; on arrival home the stack memory is
local again), matching the model in the DP.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.arch.config import SystemConfig
from repro.arch.noc import Message, VirtualNetwork
from repro.arch.noc.deadlock import VC_PLAN_EM2
from repro.arch.topology import Topology
from repro.core.machine import MigrationMachineBase, ThreadState
from repro.placement.base import Placement
from repro.trace.events import MultiTrace
from repro.util.errors import ConfigError, TraceFormatError


class DepthScheme(ABC):
    """Chooses the carried stack depth for each migration."""

    name = "abstract-depth"

    @abstractmethod
    def carry_depth(self, tid: int, idx: int, held: int, window: int) -> int:
        """Entries to carry for thread ``tid`` migrating at access
        ``idx``; must be <= ``held`` when leaving a guest core (you
        cannot carry entries you do not hold) — the machine clamps and
        counts violations."""


class FixedDepth(DepthScheme):
    """Always carry ``depth`` (clamped to what is held/fits)."""

    name = "fixed-depth"

    def __init__(self, depth: int) -> None:
        if depth < 0:
            raise ConfigError("depth must be >= 0")
        self.depth = depth

    def carry_depth(self, tid: int, idx: int, held: int, window: int) -> int:
        return min(self.depth, window)


class NeedBasedDepth(DepthScheme):
    """Carry the cumulative drawdown of the next few segments.

    The hardware-plausible heuristic §4 gestures at ("based, for
    example, on the operands of the next few instructions"): look
    ``lookahead`` segments ahead and carry the depth required so none
    of them underflows. For segments s = idx+1..idx+L, starting from a
    carried depth d, segment s underflows iff
    ``spop_s > d - sum_{k<s}(spop_k - spush_k)``; the required carry is

        max over s of ( spop_s + sum_{k<s}(spop_k - spush_k) )

    ``headroom`` extra (beyond the requirement, capped at the window)
    trades off overflow-forced returns on push-heavy runs.
    """

    name = "need-based-depth"

    def __init__(self, trace: MultiTrace, lookahead: int = 4, headroom: int = 0) -> None:
        if headroom < 0 or lookahead < 1:
            raise ConfigError("headroom must be >= 0, lookahead >= 1")
        self.spops = [tr["spop"].astype(int) for tr in trace.threads]
        self.spushes = [tr["spush"].astype(int) for tr in trace.threads]
        self.lookahead = lookahead
        self.headroom = headroom

    def carry_depth(self, tid: int, idx: int, held: int, window: int) -> int:
        spops, spushes = self.spops[tid], self.spushes[tid]
        need = 0
        drained = 0  # net entries consumed by earlier lookahead segments
        for k in range(idx + 1, min(idx + 1 + self.lookahead, len(spops))):
            need = max(need, drained + int(spops[k]))
            drained += int(spops[k]) - int(spushes[k])
        return min(need + self.headroom, window)


class ReplayDepth(DepthScheme):
    """Replay per-access carry depths from the §4 DP.

    ``depths_per_thread[t][idx]`` is the DP's carry for thread ``t``'s
    access ``idx`` (−1 where the DP planned no migration). Evictions
    and forced returns can make the machine migrate where the plan did
    not; those consultations fall back to ``fallback`` (default: carry
    the next segments' need).
    """

    name = "replay-depth"

    def __init__(self, depths_per_thread, fallback: DepthScheme) -> None:
        self.depths = [list(map(int, d)) for d in depths_per_thread]
        self.fallback = fallback

    @classmethod
    def from_dp(cls, trace: MultiTrace, placement: Placement, cost_model,
                max_depth: int = 8) -> "ReplayDepth":
        """Run the stack-depth DP per thread and wrap the results."""
        from repro.core.decision.stack_optimal import optimal_stack_depths

        depths = []
        for t, tr in enumerate(trace.threads):
            if tr.size == 0:
                depths.append([])
                continue
            homes = placement.home_of(tr["addr"])
            native = trace.thread_native_core[t] % cost_model.config.num_cores
            res = optimal_stack_depths(
                homes, tr["spop"], tr["spush"], native, cost_model, max_depth
            )
            depths.append(res.depths.tolist())
        return cls(depths, fallback=NeedBasedDepth(trace))

    def carry_depth(self, tid: int, idx: int, held: int, window: int) -> int:
        planned = self.depths[tid][idx] if idx < len(self.depths[tid]) else -1
        if planned >= 0:
            return min(planned, window)
        return self.fallback.carry_depth(tid, idx, held, window)


class StackEM2Machine(MigrationMachineBase):
    """EM² with stack-window contexts instead of a register file."""

    name = "stack-em2"
    vc_plan = VC_PLAN_EM2

    def __init__(
        self,
        trace: MultiTrace,
        placement: Placement,
        config: SystemConfig,
        depth_scheme: DepthScheme,
        window: int = 8,
        topology: Topology | None = None,
        cache_detail: bool = True,
    ) -> None:
        if not trace.is_stack:
            raise TraceFormatError(
                "StackEM2Machine needs a stack-annotated trace "
                "(spop/spush fields; see repro.stackmachine)"
            )
        if window < 1:
            raise ConfigError("window must be >= 1")
        if config.multiplex_contexts:
            raise ConfigError(
                "StackEM2Machine does not model context multiplexing; "
                "use multiplex_contexts=False"
            )
        # the stack step below is this machine's only step: the epoch
        # stepper batches the register-file walk, so it is never built
        super().__init__(
            trace, placement, config, topology, cache_detail, fast_path=False
        )
        self.depth_scheme = depth_scheme
        self.window = window
        # per-thread resident guest depth; meaningless while at native
        self._depth = [0] * trace.num_threads
        self._clamped = 0
        # columnar decode of the stack fields (base decodes addr/write/
        # icount/home); the step loop below never touches numpy records
        self._spops = [tr["spop"].tolist() for tr in trace.threads]
        self._spushes = [tr["spush"].tolist() for tr in trace.threads]

    # ------------------------------------------------------------------
    def _stack_bits(self, depth: int) -> int:
        return self.config.context.stack_context_bits(depth)

    def _step_slow(self, th: ThreadState) -> None:  # overrides the base walk
        th.pending = None
        tid = th.tid
        idx = th.idx
        if idx >= th.size:
            self._finish(th)
            return
        home = th.homes[idx]
        delay = th.icounts[idx]
        first_execution = idx != th.last_recorded_idx
        self._record_run(th, home)

        # ---- segment stack activity (only meaningful away from home base)
        if first_execution and th.core != th.native:
            spop, spush = self._spops[tid][idx], self._spushes[tid][idx]
            d = self._depth[tid]
            if spop > d:
                self.stats.counters.add("underflow_returns")
                self._migrate_stack(th, th.native, self._depth[tid], delay)
                return
            d2 = d - spop + spush
            if d2 > self.window:
                self.stats.counters.add("overflow_returns")
                self._depth[tid] = self.window
                self._migrate_stack(th, th.native, self.window, delay)
                return
            self._depth[tid] = d2

        # ---- the access itself
        if home == th.core:
            if first_execution:
                self._c_local.n += 1
            lat = self._access_latency(th.core, th.addrs[idx], th.writes[idx])
            th.idx = idx + 1
            th.pending = self._schedule(delay + lat, self._step_cb, th)
            return

        # migrate to the home, choosing a carry depth
        held = self.window if th.core == th.native else self._depth[tid]
        carry = self.depth_scheme.carry_depth(tid, idx, held, self.window)
        if carry > held:
            carry = held
            self._clamped += 1
        if th.core != th.native and carry < held:
            # flush the rest to the native stack memory (data message)
            flush_words = held - carry
            self._flush(th.core, th.native, flush_words)
        self._depth[tid] = carry
        self._migrate_stack(th, home, carry, delay)

    # ------------------------------------------------------------------
    def _migrate_stack(self, th: ThreadState, dest: int, depth: int, delay: float) -> None:
        src = th.core
        self.contexts[src].release(th.tid)
        th.in_transit = True
        self._c_migrations.n += 1
        self.stats.counters.add("migrated_stack_words", depth)
        msg = Message(
            src=src,
            dst=dest,
            payload_bits=self._stack_bits(depth),
            vnet=VirtualNetwork.MIGRATION,
            kind="stack-migration",
            body=th,
        )
        self._admit_waiter_if_any(src)
        self.engine.schedule(
            delay + self.config.cost.migration_fixed,
            lambda: self.network.send(msg, self._arrive),
        )

    def _flush(self, src: int, dst: int, words: int) -> None:
        self.stats.counters.add("flushes")
        msg = Message(
            src=src,
            dst=dst,
            payload_bits=64 + words * self.config.word_bits,
            vnet=VirtualNetwork.EVICTION,  # returns toward the native core
            kind="stack-flush",
            body=None,
        )
        self.network.send(msg, lambda m: None)

    # eviction of a stack thread carries its current window home
    def _evict(self, victim_tid: int, core: int) -> None:
        # reuse the base bookkeeping but with stack-sized payload: the
        # base implementation uses full_context_bits, so replicate with
        # the right size
        victim = self.threads[victim_tid]
        if victim.in_transit or victim.core != core:
            from repro.util.errors import ProtocolError

            raise ProtocolError(
                f"evicting thread {victim_tid} not resident at core {core}"
            )
        if victim.pending is not None:
            victim.pending.cancel()
            victim.pending = None
        victim.in_transit = True
        self._c_evictions.n += 1
        depth = self._depth[victim_tid]
        msg = Message(
            src=core,
            dst=victim.native,
            payload_bits=self._stack_bits(depth),
            vnet=VirtualNetwork.EVICTION,
            kind="stack-eviction",
            body=victim,
        )
        self.engine.schedule(
            self.config.cost.eviction_fixed,
            lambda: self.network.send(msg, self._evict_arrive),
        )

    def _handle_nonlocal(self, th, addr, write, home, delay):  # pragma: no cover
        raise NotImplementedError("StackEM2Machine overrides _step_slow directly")

    def results(self) -> dict:
        out = super().results()
        out["underflow_returns"] = self.stats.counters["underflow_returns"]
        out["overflow_returns"] = self.stats.counters["overflow_returns"]
        out["flushes"] = self.stats.counters["flushes"]
        out["migrated_stack_words"] = self.stats.counters["migrated_stack_words"]
        out["carry_clamped"] = self._clamped
        return out
