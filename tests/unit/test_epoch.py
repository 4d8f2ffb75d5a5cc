"""Unit tests for the EM² epoch-batched fast path.

Three contracts:

* **Bit parity** — the fast path produces results *identical* to the
  event-driven path, for every migration machine family, on traces
  that exercise migrations, evictions, remote accesses, and DRAM
  fills. The directory-CC machines have one driver and ignore the
  spec's ``fast_path``: both settings give the same row, with no
  fast-path diagnostics.
* **Boundary detection** — windows end exactly at the events where
  threads interact: non-local accesses (migration/RA decisions), DRAM
  fills, and finish-waits; boundary-free local runs are batched.
* **Fault-plane auto-disable** — attaching a fault injector routes
  every access through the event engine (the stepper is never built),
  keeping the recovery plane untouched.
"""

import pytest

from repro.runner import build, run
from repro.spec import (
    ExperimentSpec,
    FaultSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    WorkloadSpec,
)


def _spec(workload, params, machine, fast_path=True, scheme=None, faults=None,
          cores=8):
    return ExperimentSpec(
        workload=WorkloadSpec(name=workload, params=params),
        machine=MachineSpec(
            name=machine, cores=cores, preset="small-test", fast_path=fast_path
        ),
        scheme=SchemeSpec(name=scheme or "history"),
        placement=PlacementSpec(name="first-touch"),
        faults=faults,
    )


def _strip(res):
    """Drop the fast_path diagnostics sub-dict before parity compares:
    it reports *engagement* (which legitimately differs between the
    fast and event-driven runs), never simulated outcome."""
    return {k: v for k, v in res.items() if k != "fast_path"}


WORKLOADS = [
    ("pingpong", dict(num_threads=4, rounds=20, run=6)),
    ("pingpong", dict(num_threads=4, rounds=4, run=96)),
    ("uniform", dict(num_threads=4, accesses_per_thread=256, region_words=256)),
    ("private", dict(num_threads=4, accesses_per_thread=512, working_set=96)),
]

MACHINES = ["em2", "em2ra", "ra-only", "cc-msi", "cc-mesi"]


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("workload,params", WORKLOADS)
def test_fast_path_bit_parity(machine, workload, params):
    fast = run(_spec(workload, params, machine, fast_path=True))
    slow = run(_spec(workload, params, machine, fast_path=False))
    assert _strip(fast) == _strip(slow)
    if machine.startswith("cc-"):
        # one driver: the factory drops the knob, no diagnostics ride
        assert "fast_path" not in fast and "fast_path" not in slow
        return
    # diagnostics ride along: the fast run reports engagement (or a
    # self-disable reason), the forced-off run reports why it's off
    assert fast["fast_path"]["engaged"] or fast["fast_path"]["disabled_reason"]
    assert not slow["fast_path"]["engaged"]
    assert slow["fast_path"]["disabled_reason"] == "off"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known EM² fast-path parity defect on the 64-core SPLASH stand-ins: "
        "on LU the fast path makes 193 migrations and 131 evictions where the "
        "event-driven engine makes 192 and 128; the first difference is two "
        "migrations issued at the same cycle (t=634) in swapped order "
        "(docs/architecture.md, 'Known parity defect')"
    ),
)
def test_fast_path_parity_lu_64_cores():
    """The des-splash64 benchmark's LU point: em2 on 64 cores, default preset."""

    def spec(fast_path):
        return ExperimentSpec(
            workload=WorkloadSpec(
                name="lu", params={"blocks": 4, "num_threads": 64, "seed": 3}
            ),
            machine=MachineSpec(
                name="em2", cores=64, preset="default", fast_path=fast_path
            ),
            scheme=SchemeSpec(name="history"),
            placement=PlacementSpec(name="first-touch"),
        )

    assert _strip(run(spec(True))) == _strip(run(spec(False)))


# ---------------------------------------------------------------- boundaries
def _em2_machine(workload, params, fast_path=True, cores=8):
    from repro.core.em2 import EM2Machine

    built = build(_spec(workload, params, "em2", fast_path=fast_path,
                        cores=cores))
    return EM2Machine(
        built.trace, built.placement, built.config, fast_path=fast_path
    )


def test_local_runs_are_batched():
    """A boundary-free local trace runs almost entirely inside windows."""
    m = _em2_machine("private", dict(num_threads=4, accesses_per_thread=512,
                                     working_set=96))
    m.run()
    s = m._stepper
    assert s is not None
    assert s.windows > 0
    assert s.batched_accesses > 0.9 * m.trace.total_accesses


def test_nonlocal_access_is_a_boundary():
    """Shared-buffer pingpong forces migrations: every one must close
    its window through the non-local boundary, never inside a batch."""
    m = _em2_machine("pingpong", dict(num_threads=4, rounds=10, run=48))
    m.run()
    s = m._stepper
    assert s.windows > 0
    assert s.boundaries["nonlocal"] > 0


def test_dram_fill_is_a_boundary():
    """A working set far beyond L2 forces DRAM fills; each must be a
    boundary (the stateful DRAM queue needs exact event times)."""
    m = _em2_machine("private", dict(num_threads=2, accesses_per_thread=512,
                                     working_set=8192))
    m.run()
    s = m._stepper
    assert s.boundaries["dram"] > 0


def test_stepper_disables_itself_on_boundary_dense_traces():
    """Migration-saturated traces yield tiny windows; after the probe
    period the stepper must turn itself off (never slower than slow)."""
    m = _em2_machine("pingpong", dict(num_threads=8, rounds=250, run=8),
                     cores=16)
    m.run()
    s = m._stepper
    assert s.disabled
    assert s.windows >= 64  # it probed before giving up


#: Results of tiny OCEAN (the perfbench self-test size: 16 threads on
#: 16 cores, default preset) with the fast path on. The stepper
#: latches off (``boundary_dense``) after 128 windows on both machines;
#: leaving the step dispatch afterwards must change none of them,
#: diagnostics included.
OCEAN_TINY = {
    "em2": {
        "completion_time": 5579.0,
        "dram_fills": 81,
        "evictions": 6,
        "fast_path": {
            "batched_accesses": 1708,
            "boundaries": {"dram": 3, "finish_wait": 0, "nonlocal": 49},
            "cross_core_windows": 128,
            "disabled_reason": "boundary_dense",
            "engaged": False,
            "epochs_batched": 128,
            "max_window": 241,
            "max_window_cores": 16,
            "mean_window": 13.34375,
        },
        "flit_hops": 39312,
        "local_accesses": 5683,
        "messages.EVICTION": 6,
        "messages.MIGRATION": 1861,
        "migrations": 1861,
        "remote_accesses": 0,
    },
    "em2ra": {
        "completion_time": 3675.0,
        "dram_fills": 81,
        "evictions": 0,
        "fast_path": {
            "batched_accesses": 2318,
            "boundaries": {"dram": 3, "finish_wait": 0, "nonlocal": 43},
            "cross_core_windows": 128,
            "disabled_reason": "boundary_dense",
            "engaged": False,
            "epochs_batched": 128,
            "max_window": 241,
            "max_window_cores": 16,
            "mean_window": 18.109375,
        },
        "flit_hops": 7917,
        "local_accesses": 6410,
        "messages.MIGRATION": 28,
        "messages.RA_REPLY": 1106,
        "messages.RA_REQUEST": 1106,
        "migrations": 28,
        "remote_accesses": 1106,
    },
}


@pytest.mark.parametrize("machine", sorted(OCEAN_TINY))
def test_latched_off_stepper_leaves_the_step_dispatch(machine):
    """After the stepper latches off, no step goes through the dispatch
    wrapper: every step event calls the slow step directly."""
    from repro.core.em2 import EM2Machine
    from repro.core.em2ra import EM2RAMachine

    base = EM2Machine if machine == "em2" else EM2RAMachine

    class Probe(base):
        after_latch = 0

        def _step(self, th):
            if self._stepper.disabled:
                self.after_latch += 1
            super()._step(th)

    built = build(ExperimentSpec(
        workload=WorkloadSpec(name="ocean", params={
            "grid_n": 32, "iterations": 1, "num_threads": 16, "seed": 0}),
        machine=MachineSpec(name=machine, cores=16, preset="default"),
        scheme=SchemeSpec(name="history"),
        placement=PlacementSpec(name="first-touch"),
    ))
    args = (built.trace, built.placement, built.config)
    if machine == "em2ra":
        args += (built.scheme,)
    m = Probe(*args, topology=built.topology)
    m.run()
    assert m._stepper.disabled
    assert m.after_latch == 0
    assert m._step_cb == m._step_slow
    assert m.results() == OCEAN_TINY[machine]


def test_fast_path_off_means_no_stepper():
    m = _em2_machine("pingpong", dict(num_threads=4, rounds=4, run=8),
                     fast_path=False)
    assert m._stepper is None


# ---------------------------------------------------------------- L2 widening
def _stream_machine(lines=96, sweeps=6, writes_on=False, fast_path=True):
    """One thread sweeping ``lines`` cache lines repeatedly: after the
    first (DRAM-filling) sweep, every access is an L1-miss/L2-hit in
    LRU streaming order — the regime the widened fast path batches."""
    import numpy as np

    from repro.arch.config import small_test_config
    from repro.core.em2 import EM2Machine
    from repro.registry import PLACEMENTS
    from repro.trace.events import MultiTrace, make_trace

    config = small_test_config(num_cores=4)
    words_per_line = config.l1.line_bytes // config.word_bytes
    addrs = np.tile(np.arange(lines, dtype=np.uint64) * words_per_line, sweeps)
    wcol = None
    if writes_on:
        wcol = (np.arange(len(addrs)) % 3 == 0).astype(np.uint8)
    trace = MultiTrace(
        threads=[make_trace(addrs, writes=wcol, icounts=np.ones(len(addrs)))],
        name="stream",
    )
    placement = PLACEMENTS.get("first-touch")(trace, config.num_cores)
    return EM2Machine(trace, placement, config, fast_path=fast_path)


@pytest.mark.parametrize("writes_on", [False, True])
def test_l2_streak_widening_bit_parity(writes_on):
    fast_m = _stream_machine(writes_on=writes_on)
    fast_m.run()
    slow_m = _stream_machine(writes_on=writes_on, fast_path=False)
    slow_m.run()
    assert _strip(fast_m.results()) == _strip(slow_m.results())


def test_l2_streak_widening_engages():
    """A read-only streaming sweep between L1 and L2 capacity must be
    batched through the widened (L2-service) classifier, not walked
    scalar: the working set misses L1 on every access, so the plain
    hit-prefix path alone would batch nothing."""
    m = _stream_machine(writes_on=False)
    m.run()
    s = m._stepper
    assert s.l2_fills_batched > 50
    assert s.batched_accesses > 0


# ---------------------------------------------------------------- fault plane
def test_fault_injector_disables_machine_stepper():
    from repro.core.em2 import EM2Machine
    from repro.faults.injector import FaultInjector

    spec = _spec("pingpong", dict(num_threads=4, rounds=4, run=8), "em2")
    built = build(spec)
    injector = FaultInjector(FaultSpec(name="iid", params={}, seed=0))
    m = EM2Machine(built.trace, built.placement, built.config,
                   faults=injector, fast_path=True)
    assert m._stepper is None


# ---------------------------------------------------------------- mesh-1024
@pytest.mark.parametrize("machine", ["em2"])
def test_mesh1024_fast_path_parity(machine):
    """One scaling-preset point: the 1024-core mesh that motivated the
    cross-core windows, fast path on vs off, bit-identical results.
    Sized like a scaled-down bench_scaling weak point (one thread per
    16 cores, ~32 accesses each) so it exercises the pooled-store
    scatter across many cores while staying CI-fast."""
    spec = ExperimentSpec(
        workload=WorkloadSpec(name="uniform", params=dict(
            num_threads=64, accesses_per_thread=32,
            region_words=64 * 1024, seed=1,
        )),
        machine=MachineSpec(name=machine, cores=1024, preset="mesh-1024"),
        placement=PlacementSpec(name="striped"),
    )
    fast = run(spec)
    off = ExperimentSpec(
        workload=spec.workload,
        machine=MachineSpec(name=machine, cores=1024, preset="mesh-1024",
                            fast_path=False),
        placement=spec.placement,
    )
    slow = run(off)
    assert _strip(fast) == _strip(slow)
    assert not slow["fast_path"]["engaged"]


# ---------------------------------------------------------------- spec knob
def test_fast_path_spec_round_trip():
    """fast_path serializes only when disabled (golden spec dicts and
    cache keys from before the knob existed are unchanged)."""
    on = MachineSpec(name="em2", fast_path=True)
    off = MachineSpec(name="em2", fast_path=False)
    assert "fast_path" not in on.to_dict()
    assert off.to_dict()["fast_path"] is False
    assert MachineSpec.from_dict(on.to_dict()).fast_path is True
    assert MachineSpec.from_dict(off.to_dict()).fast_path is False
