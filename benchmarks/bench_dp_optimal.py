"""Experiment ex-dp: the optimal offline decision DP (§3).

Two things the paper claims about the algorithm itself:

* it computes the optimal migrate-vs-RA sequence from a trace + data
  placement (we report optimal cost vs the static extremes);
* it runs in O(N * P^2) time — our single-home formulation is O(N * P);
  the scaling sweep measures runtime vs N and P and the bench table
  shows time/N/P ratios staying flat.
"""

import time

import numpy as np
import pytest

from conftest import cached_first_touch, cached_workload, emit
from repro.analysis.reports import format_table
from repro.analysis.sweep import grid, sweep
from repro.arch.config import SystemConfig
from repro.core.costs import CostModel
from repro.core.decision import AlwaysMigrate, NeverMigrate
from repro.core.decision.optimal import optimal_cost, optimal_decisions
from repro.core.evaluation import evaluate_scheme


@pytest.fixture(scope="module")
def pingpong16():
    trace = cached_workload("pingpong", num_threads=16, rounds=128, run=4)
    return trace, cached_first_touch(trace, 16)


def test_dp_optimal_vs_static_extremes(benchmark, bench_cost, pingpong16):
    trace, placement = pingpong16

    def run_dp():
        total = 0.0
        migs = ras = 0
        for t, tr in enumerate(trace.threads):
            homes = placement.home_of(tr["addr"])
            res = optimal_decisions(homes, tr["write"], t, bench_cost)
            total += res.total_cost
            migs += res.num_migrations
            ras += res.num_remote_accesses
        return total, migs, ras

    opt_total, migs, ras = benchmark(run_dp)
    em2 = evaluate_scheme(trace, placement, AlwaysMigrate(), bench_cost)
    ra = evaluate_scheme(trace, placement, NeverMigrate(), bench_cost)
    rows = [
        {"policy": "optimal (DP)", "network_cost": opt_total, "migrations": migs,
         "remote_accesses": ras},
        {"policy": "always-migrate (EM2)", "network_cost": em2.total_cost,
         "migrations": em2.migrations, "remote_accesses": em2.remote_accesses},
        {"policy": "never-migrate (RA-only)", "network_cost": ra.total_cost,
         "migrations": ra.migrations, "remote_accesses": ra.remote_accesses},
    ]
    emit("ex-dp: optimal decision DP vs static extremes (pingpong, 16 cores)",
         format_table(rows))
    assert opt_total <= min(em2.total_cost, ra.total_cost) + 1e-6
    assert migs > 0 and ras > 0  # a true hybrid wins here


def test_dp_runtime_scaling(benchmark):
    """Measure T(N, P); report T / (N*P) — flat ratios mean O(N*P)."""

    def eval_point(P, N):
        rng = np.random.default_rng(P * 100003 + N)
        cm = CostModel(SystemConfig(num_cores=P))
        homes = rng.integers(0, P, N)
        writes = rng.random(N) < 0.3
        t0 = time.perf_counter()
        optimal_cost(homes, writes, 0, cm)
        dt = time.perf_counter() - t0
        return {"seconds": dt,
                "ns_per_NP": dt / (N * P) * 1e9,
                "ns_per_NP2": dt / (N * P * P) * 1e9}

    def run_sweep():
        return sweep(grid(P=[16, 64, 256], N=[2000, 8000]), eval_point)

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("ex-dp: DP runtime scaling (paper bound O(N*P^2); ours O(N*P))",
         format_table(rows))
    # doubling checks are noisy in CI; assert the gross property instead:
    # runtime grows far slower than N*P^2 (i.e. ns_per_NP2 shrinks with P)
    by_p = {r["P"]: r["ns_per_NP2"] for r in rows if r["N"] == 8000}
    assert by_p[256] < by_p[16]


def test_dp_on_splash_like_workload(benchmark, bench_cost):
    """Optimal vs extremes on ocean (the paper's Figure 2 workload)."""
    trace = cached_workload("ocean", num_threads=16, grid_n=98, iterations=1)
    placement = cached_first_touch(trace, 16)

    def one_thread():
        tr = trace.threads[5]
        homes = placement.home_of(tr["addr"])
        return optimal_decisions(homes, tr["write"], 5, bench_cost)

    res = benchmark(one_thread)
    tr = trace.threads[5]
    homes = placement.home_of(tr["addr"])
    em2_cost, *_ = _eval(homes, tr["write"], 5, AlwaysMigrate(), bench_cost)
    ra_cost, *_ = _eval(homes, tr["write"], 5, NeverMigrate(), bench_cost)
    emit(
        "ex-dp: ocean thread 5",
        format_table(
            [
                {"policy": "optimal", "cost": res.total_cost},
                {"policy": "EM2", "cost": em2_cost},
                {"policy": "RA-only", "cost": ra_cost},
            ]
        ),
    )
    assert res.total_cost <= min(em2_cost, ra_cost) + 1e-6


def _eval(homes, writes, start, scheme, cm):
    from repro.core.evaluation import evaluate_thread

    return evaluate_thread(homes, writes, start, scheme, cm)
