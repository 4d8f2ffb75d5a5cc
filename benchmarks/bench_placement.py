"""Experiment ex-placement: data placement drives the migration rate.

§2: "a good data placement method (one which keeps a thread's private
data assigned to that thread's native core, and allocates shared data
among the sharers) is critical". Compare first-touch (the paper's
choice), striped (no affinity information), and the profile-driven
oracle on migration rate, network cost, and the Figure 2 shape.
"""

import pytest

from conftest import cached_workload, emit
from repro.analysis.reports import format_table
from repro.core.decision import AlwaysMigrate, NeverMigrate
from repro.core.evaluation import evaluate_scheme, run_table
from repro.placement import first_touch, profile_optimal, striped
from repro.trace.runlength import fraction_single_access_runs

WORKLOADS = {
    "ocean": dict(name="ocean", num_threads=16, grid_n=98, iterations=1),
    "water": dict(name="water", num_threads=16, molecules_per_thread=24,
                  timesteps=2),
    "raytrace": dict(name="raytrace", num_threads=16, rays_per_thread=48,
                     scene_words=2048),
}


def _placements(trace):
    return [
        ("striped", striped(16)),
        ("first-touch", first_touch(trace, 16)),
        ("profile-opt", profile_optimal(trace, 16)),
    ]


@pytest.mark.parametrize("wl", sorted(WORKLOADS))
def test_placement_comparison(benchmark, bench_cost, wl):
    params = dict(WORKLOADS[wl])
    name = params.pop("name")
    trace = cached_workload(name, **params)

    def compare():
        rows = []
        for label, pl in _placements(trace):
            r = evaluate_scheme(trace, pl, AlwaysMigrate(), bench_cost)
            # placement quality proper: fraction of accesses homed away
            # from the thread's native core (NeverMigrate counts exactly
            # those as remote accesses)
            q = evaluate_scheme(trace, pl, NeverMigrate(), bench_cost)
            rows.append(
                {
                    "placement": label,
                    "nonlocal_frac": q.remote_accesses / q.total_accesses,
                    "migration_rate": r.migrations / r.total_accesses,
                    "network_cost": r.total_cost,
                    "frac_runlen_1": fraction_single_access_runs(run_table(trace, pl).histogram()),
                }
            )
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    emit(f"ex-placement [{wl}]: placement policy comparison", format_table(rows))
    by = {r["placement"]: r for r in rows}
    # the §2 ordering on placement *quality* (fraction of accesses that
    # leave the native core): striped (no affinity) >> first-touch, and
    # the profile oracle is optimal among static placements
    assert by["striped"]["nonlocal_frac"] > by["first-touch"]["nonlocal_frac"]
    assert (
        by["profile-opt"]["nonlocal_frac"]
        <= by["first-touch"]["nonlocal_frac"] + 1e-9
    )


def test_placement_build_cost(benchmark):
    """Placement construction itself must scale: time first-touch on
    the full 64-thread Figure 2 trace (~1.8M accesses)."""
    trace = cached_workload("ocean", num_threads=64, grid_n=386, iterations=2)
    pl = benchmark(first_touch, trace, 64)
    assert pl.num_mapped_blocks() > 0
