"""End-to-end flows: workload -> placement -> architecture -> report.

These exercise the whole public API the way the examples and benches
do, on scaled-down configurations.
"""

import numpy as np
import pytest

from repro import (
    AlwaysMigrate,
    CostModel,
    DirectoryCCSimulator,
    EM2Machine,
    EnergyModel,
    HistoryRunLength,
    NeverMigrate,
    evaluate_scheme,
    first_touch,
    make_workload,
    optimal_decisions,
    small_test_config,
    stack_workload,
    optimal_stack_depths,
    fixed_depth_cost,
)
from repro.analysis.reports import runlength_table
from repro.core.evaluation import run_table
from repro.trace.runlength import fraction_single_access_runs


class TestFigure2Pipeline:
    """The Figure 2 experiment end-to-end at reduced scale."""

    def test_ocean_run_length_distribution(self):
        trace = make_workload("ocean", num_threads=16, grid_n=98, iterations=2)
        pl = first_touch(trace, 16)
        hist = run_table(trace, pl).histogram()
        frac1 = fraction_single_access_runs(hist)
        # the paper: "about half of the accesses migrate after one
        # memory reference, while the other half keep accessing memory
        # at the core where they have migrated"
        assert 0.3 <= frac1 <= 0.7
        table = runlength_table(hist)
        assert "run_length" in table

    def test_behavioral_machine_agrees_on_fig2(self):
        cfg = small_test_config(num_cores=8, guest_contexts=8)
        trace = make_workload("ocean", num_threads=8, grid_n=50, iterations=1)
        pl = first_touch(trace, 8)
        m = EM2Machine(trace, pl, cfg)
        m.run()
        hist = m.stats.histogram("run_length")
        assert 0.2 <= hist.fraction_at(1) <= 0.8


class TestDecisionPipeline:
    def test_dp_vs_schemes_on_real_workload(self):
        cfg = small_test_config(num_cores=8)
        cm = CostModel(cfg)
        trace = make_workload("pingpong", num_threads=8, rounds=30, run=4)
        pl = first_touch(trace, 8)
        # optimal per thread
        opt_total = 0.0
        for t, tr in enumerate(trace.threads):
            homes = pl.home_of(tr["addr"])
            res = optimal_decisions(homes, tr["write"], t, cm)
            opt_total += res.total_cost
        em2 = evaluate_scheme(trace, pl, AlwaysMigrate(), cm).total_cost
        ra = evaluate_scheme(trace, pl, NeverMigrate(), cm).total_cost
        hist = evaluate_scheme(trace, pl, HistoryRunLength(threshold=4.0), cm).total_cost
        assert opt_total <= min(em2, ra, hist) + 1e-6
        # and the history scheme should land between optimal and the
        # worse of the static extremes on this learnable workload
        assert hist <= max(em2, ra)


class TestStackPipeline:
    def test_stack_workload_through_depth_dp(self):
        cfg = small_test_config(num_cores=4)
        cm = CostModel(cfg)
        mt = stack_workload("reduce", num_threads=4, n=24, shared_fraction=1.0)
        pl = first_touch(mt, 4)
        total_opt = total_fixed = 0.0
        for t, tr in enumerate(mt.threads):
            homes = pl.home_of(tr["addr"])
            opt = optimal_stack_depths(
                homes, tr["spop"], tr["spush"], t, cm, max_depth=8
            )
            fix = fixed_depth_cost(
                homes, tr["spop"], tr["spush"], t, cm, depth=8, max_depth=8
            )
            total_opt += opt.total_cost
            total_fixed += fix.total_cost
            # §4: migrated bits must undercut full-context EM²
            if opt.migrations:
                assert (
                    opt.migrated_bits
                    < opt.migrations * cfg.context.full_context_bits
                )
        assert total_opt <= total_fixed + 1e-9


class TestCrossArchitecture:
    def test_cc_vs_em2_on_shared_heavy_workload(self):
        """Writes to actively shared lines cost CC invalidations; EM²
        serializes at the home instead. Both must at least complete and
        report sane traffic."""
        cfg = small_test_config(num_cores=4, guest_contexts=4)
        trace = make_workload("hotspot", num_threads=4, accesses_per_thread=128,
                              hot_fraction=0.5, seed=1)
        pl = first_touch(trace, 4)
        cc = DirectoryCCSimulator(trace, pl, cfg).run()
        m = EM2Machine(trace, pl, cfg)
        m.run()
        assert cc.invalidations > 0  # CC pays coherence on the hot block
        assert m.results()["migrations"] > 0  # EM² pays migrations instead
        assert cc.traffic_bits > 0 and m.results()["flit_hops"] > 0

    def test_energy_report_pipeline(self):
        cfg = small_test_config(num_cores=4, guest_contexts=4)
        trace = make_workload("pingpong", num_threads=4, rounds=16, run=2)
        pl = first_touch(trace, 4)
        m = EM2Machine(trace, pl, cfg)
        m.run()
        em = EnergyModel()
        r = m.results()
        report = em.report(
            bit_hops=r["flit_hops"] * cfg.noc.flit_bits,
            dram_accesses=r["dram_fills"],
            migrations=r["migrations"],
        )
        assert report.total_pj > 0
        assert report.network_pj > 0


class TestPersistenceRoundTrip:
    def test_save_load_evaluate(self, tmp_path):
        from repro import load_multitrace, save_multitrace

        cfg = small_test_config(num_cores=4)
        trace = make_workload("uniform", num_threads=4, accesses_per_thread=64)
        save_multitrace(trace, tmp_path / "t.npz")
        loaded = load_multitrace(tmp_path / "t.npz")
        pl = first_touch(loaded, 4)
        r1 = evaluate_scheme(loaded, pl, AlwaysMigrate(), CostModel(cfg))
        r2 = evaluate_scheme(trace, first_touch(trace, 4), AlwaysMigrate(), CostModel(cfg))
        assert r1.total_cost == r2.total_cost
