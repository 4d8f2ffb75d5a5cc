"""Cross-checks between the behavioral machines and the analytical
evaluators: the two evaluation paths must agree on protocol *counts*
and the traffic those counts carry (they intentionally differ in
timing fidelity)."""

import numpy as np
import pytest

from repro import runner
from repro.arch.config import small_test_config
from repro.core.costs import CostModel
from repro.core.decision import AlwaysMigrate, NeverMigrate
from repro.core.decision.optimal import optimal_cost
from repro.core.em2 import EM2Machine
from repro.core.em2ra import EM2RAMachine
from repro.core.evaluation import evaluate_scheme, run_table
from repro.core.remote_access import RemoteAccessMachine
from repro.placement import first_touch
from repro.registry import SCHEMES, TOPOLOGIES
from repro.runner import run
from repro.spec import (
    ExperimentSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.trace.synthetic import make_workload

#: The SPLASH stand-ins at perfbench's ``tiny`` sizes, run as 16
#: threads on 16 ``small-test`` cores.
TINY_SPLASH = {
    "ocean": {"grid_n": 32, "iterations": 1},
    "radix": {"keys_per_thread": 8},
    "barnes": {"bodies_per_thread": 2, "tree_depth": 3},
    "lu": {"blocks": 2, "block_words": 16},
}


@pytest.fixture(scope="module")
def setup():
    cfg = small_test_config(num_cores=4, guest_contexts=4)
    trace = make_workload("pingpong", num_threads=4, rounds=24, run=3)
    pl = first_touch(trace, 4)
    return cfg, trace, pl


@pytest.fixture(scope="module")
def cases(setup):
    """(name, config, trace, placement): pingpong on 4 cores, then the
    tiny stand-ins, each with a guest context per thread so no
    migration ever evicts."""
    out = [("pingpong", *setup)]
    cfg = small_test_config(num_cores=16, guest_contexts=16)
    for name, params in TINY_SPLASH.items():
        trace = make_workload(name, num_threads=16, **params)
        out.append((name, cfg, trace, first_touch(trace, 16)))
    return out


class TestCountsAgree:
    def test_em2_migration_count_matches_analytical(self, cases):
        for name, cfg, trace, pl in cases:
            machine = EM2Machine(trace, pl, cfg)
            machine.run()
            res = machine.results()
            analytical = evaluate_scheme(trace, pl, AlwaysMigrate(), CostModel(cfg))
            # with enough guest contexts there are no evictions, so the
            # machine's migrations, and the context flits they carry,
            # equal the analytical model's
            assert res["evictions"] == 0, name
            assert res["migrations"] == analytical.migrations, name
            assert res["local_accesses"] == analytical.local_accesses, name
            flits = machine.network.stats.counters["flits.MIGRATION"]
            assert flits * cfg.noc.flit_bits == analytical.traffic_bits, name

    def test_ra_only_count_matches_analytical(self, cases):
        for name, cfg, trace, pl in cases:
            machine = RemoteAccessMachine(trace, pl, cfg)
            machine.run()
            res = machine.results()
            analytical = evaluate_scheme(trace, pl, NeverMigrate(), CostModel(cfg))
            assert res["remote_accesses"] == analytical.remote_accesses, name
            assert res["local_accesses"] == analytical.local_accesses, name
            counters = machine.network.stats.counters
            flits = counters["flits.RA_REQUEST"] + counters["flits.RA_REPLY"]
            assert flits * cfg.noc.flit_bits == analytical.traffic_bits, name

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast-path", "no-fast-path"])
    def test_machine_run_length_histogram_matches_offline(self, cases, fast_path):
        """Figure 2 measured two ways: the EM² DES's online run-length
        histogram equals the analytical one bin for bin, on pingpong and
        the tiny stand-ins, with the epoch stepper on and off."""
        for name, cfg, trace, pl in cases:
            machine = EM2Machine(trace, pl, cfg, fast_path=fast_path)
            machine.run()
            online = machine.stats.histogram("run_length")
            offline = run_table(trace, pl).histogram()
            assert online.count > 0, name
            assert online.bins() == offline.bins(), name

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known EM²-RA scheme-learning defect: EM2RAMachine calls "
            "scheme.observe only from _handle_nonlocal, so local accesses never "
            "reach the history predictor and it never learns a remote run that "
            "ends in a local access (analytical 2 migrations / 142 remote / 2160 "
            "local, em2ra 0 / 1024 / 1280; docs/model.md, 'Scheme learning in "
            "the EM²-RA machine')"
        ),
    )
    def test_em2ra_history_counts_match_analytical(self):
        """Without evictions the detailed EM²-RA machine and the
        analytical evaluator make the same decisions, so they must make
        the same migrations, remote and local accesses."""

        def counts(machine):
            res = run(ExperimentSpec(
                workload=WorkloadSpec(name="pingpong", params={
                    "num_threads": 4, "rounds": 64, "run": 8}),
                machine=MachineSpec(name=machine, cores=4, preset="small-test"),
                placement=PlacementSpec(name="first-touch"),
                scheme=SchemeSpec(name="history"),
            ))
            assert res.get("evictions", 0) == 0
            return {k: res[k] for k in
                    ("migrations", "remote_accesses", "local_accesses")}

        assert counts("em2ra") == counts("analytical")


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast-path", "no-fast-path"])
def test_em2ra_under_a_static_scheme_is_the_fixed_machine(fast_path):
    """EM²-RA that never migrates is the remote-access machine, and
    EM²-RA that always migrates is EM², evictions included: on
    pingpong and the tiny stand-ins at 16 cores of the ``default``
    preset (2 guest contexts a core), each pair returns the same
    results dict, fast-path diagnostics aside."""
    evictions = 0
    for name, params in {"pingpong": {"rounds": 24, "run": 3}, **TINY_SPLASH}.items():

        def result(machine, scheme="history"):
            res = run(ExperimentSpec(
                workload=WorkloadSpec(name=name, params={**params, "num_threads": 16}),
                machine=MachineSpec(
                    name=machine, cores=16, preset="default", fast_path=fast_path
                ),
                placement=PlacementSpec(name="first-touch"),
                scheme=SchemeSpec(name=scheme),
            ))
            return {k: v for k, v in res.items() if k != "fast_path"}

        assert result("em2ra", "never-migrate") == result("ra-only"), name
        em2 = result("em2")
        assert result("em2ra", "always-migrate") == em2, name
        evictions += em2["evictions"]
    assert evictions > 0  # the guest-context limit is part of what is compared


@pytest.mark.parametrize("topology", TOPOLOGIES.names())
def test_dp_optimum_bounds_every_scheme(topology):
    """On every registered topology, the per-thread DP optimum is a
    lower bound on the analytical cost of every registered scheme, and
    every scheme accounts for each access exactly once."""
    for name, params in TINY_SPLASH.items():
        spec = ExperimentSpec(
            workload=WorkloadSpec(name=name, params={**params, "num_threads": 16}),
            machine=MachineSpec(name="analytical", cores=16, preset="small-test"),
            placement=PlacementSpec(name="first-touch"),
            topology=TopologySpec(name=topology),
        )
        built = runner.build(spec)
        trace, pl = built.trace, built.placement
        optimum = sum(
            optimal_cost(
                pl.home_of(tr["addr"]), tr["write"], trace.thread_native_core[t] % 16, built.cost
            )
            for t, tr in enumerate(trace.threads)
            if tr.size
        )
        for scheme in SCHEMES.names():
            res = run(spec.replace(scheme=SchemeSpec(name=scheme)))
            label = f"{name}/{scheme}@{topology}"
            assert res["total_cost"] >= optimum, label
            done = res["local_accesses"] + res["remote_accesses"] + res["migrations"]
            assert done == trace.total_accesses, label


class TestOrderings:
    """Directional claims that must hold between architectures (§3)."""

    def test_em2_traffic_exceeds_ra_on_single_access_runs(self):
        cfg = small_test_config(num_cores=4, guest_contexts=4)
        trace = make_workload("pingpong", num_threads=4, rounds=30, run=1)
        pl = first_touch(trace, 4)
        em2 = EM2Machine(trace, pl, cfg)
        em2.run()
        ra = RemoteAccessMachine(trace, pl, cfg)
        ra.run()
        # run length 1: every migration hauls a full context for one word
        assert em2.results()["flit_hops"] > ra.results()["flit_hops"]

    def test_em2_traffic_beats_ra_on_long_runs(self):
        cfg = small_test_config(num_cores=4, guest_contexts=4)
        trace = make_workload("pingpong", num_threads=4, rounds=10, run=24)
        pl = first_touch(trace, 4)
        em2 = EM2Machine(trace, pl, cfg)
        em2.run()
        ra = RemoteAccessMachine(trace, pl, cfg)
        ra.run()
        # long runs: one migration amortizes over 24 accesses
        assert em2.results()["flit_hops"] < ra.results()["flit_hops"]

    def test_hybrid_never_worse_than_both_with_oracle_threshold(self):
        """EM²-RA with a well-chosen scheme beats at least one of the
        pure architectures on mixed workloads (the hybrid's raison
        d'etre)."""
        from repro.core.decision import HistoryRunLength

        cfg = small_test_config(num_cores=4, guest_contexts=4)
        trace = make_workload("pingpong", num_threads=4, rounds=30, run=6)
        pl = first_touch(trace, 4)
        cm = CostModel(cfg)
        em2 = evaluate_scheme(trace, pl, AlwaysMigrate(), cm).total_cost
        ra = evaluate_scheme(trace, pl, NeverMigrate(), cm).total_cost
        hybrid = evaluate_scheme(
            trace, pl, HistoryRunLength(threshold=4.0), cm
        ).total_cost
        assert hybrid <= max(em2, ra) + 1e-9
