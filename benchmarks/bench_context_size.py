"""Experiment ex-context: migration cost vs execution-context size.

§2: "each migration must transfer the entire execution context (1-2
Kbits in a 32-bit Atom-like processor) over the on-chip network,
causing significant power consumption"; §5: reducing context size
"improves both latency (especially on low-bandwidth interconnects)
and power dissipation".

Sweep context size and link width; report EM² total network cost and
energy on a migration-heavy workload. The paper's two remedies bracket
the sweep: EM²-RA (small RA packets for short runs) and stack-EM²
(small contexts always).
"""

import pytest

from conftest import cached_first_touch, cached_workload, emit
from repro.analysis.energy import EnergyModel
from repro.analysis.reports import format_table
from repro.analysis.sweep import grid, sweep
from repro.arch.config import ContextConfig, NocConfig, SystemConfig
from repro.core.costs import CostModel
from repro.core.decision import AlwaysMigrate, HistoryRunLength, NeverMigrate
from repro.core.evaluation import evaluate_scheme


def _config_with(context_bits: int, flit_bits: int = 128) -> SystemConfig:
    # register_bits carries the sweep; pc/extra fixed small
    return SystemConfig(
        num_cores=16,
        context=ContextConfig(
            register_bits=max(context_bits - 96, 0), pc_bits=32, extra_state_bits=64
        ),
        noc=NocConfig(flit_bits=flit_bits),
    )


@pytest.fixture(scope="module")
def workload():
    trace = cached_workload("ocean", num_threads=16, grid_n=98, iterations=1)
    return trace, cached_first_touch(trace, 16)


def test_context_size_sweep(benchmark, workload):
    trace, placement = workload
    energy = EnergyModel()

    def eval_point(context_bits):
        cm = CostModel(_config_with(context_bits))
        r = evaluate_scheme(trace, placement, AlwaysMigrate(), cm)
        return {
            "em2_cost": r.total_cost,
            "traffic_Mbit": r.traffic_bits / 1e6,
            "network_energy_uJ": energy.network_energy(r.traffic_bits * 4) / 1e6,
        }

    def run_sweep():
        return sweep(
            grid(context_bits=[256, 512, 1024, 1536, 2048, 4096]),
            eval_point,
        )

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("ex-context: EM2 cost/traffic vs context size (ocean, 16 cores)",
         format_table(rows))
    costs = [r["em2_cost"] for r in rows]
    assert costs == sorted(costs)  # monotone in context size
    # the paper's 1-2 Kbit context pays >1.5x the network cost of a
    # hypothetical 256-bit context on this workload
    assert costs[3] > 1.2 * costs[0]


def test_link_width_sweep(benchmark, workload):
    """'especially on low-bandwidth interconnects' (§5): narrower flits
    hurt pure EM² much more than the RA-heavy hybrid."""
    trace, placement = workload

    def eval_point(flit_bits):
        cm = CostModel(_config_with(1536, flit_bits=flit_bits))
        em2 = evaluate_scheme(trace, placement, AlwaysMigrate(), cm)
        ra = evaluate_scheme(trace, placement, NeverMigrate(), cm)
        return {
            "em2_cost": em2.total_cost,
            "ra_cost": ra.total_cost,
            "em2_over_ra": em2.total_cost / ra.total_cost,
        }

    def run_sweep():
        return sweep(grid(flit_bits=[32, 64, 128, 256]), eval_point)

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("ex-context: link-width sensitivity (EM2 vs RA-only)", format_table(rows))
    # EM2's relative penalty must grow as links narrow
    ratios = [r["em2_over_ra"] for r in rows]
    assert ratios[0] > ratios[-1]


def test_remedies_reduce_traffic(benchmark, workload):
    """Both §3 and §4 remedies cut traffic vs pure EM² at 1.5 Kbit."""
    trace, placement = workload

    def measure():
        cm = CostModel(_config_with(1536))
        be = cm.break_even_run_length(0, 15)
        em2 = evaluate_scheme(trace, placement, AlwaysMigrate(), cm)
        hybrid = evaluate_scheme(
            trace, placement, HistoryRunLength(threshold=be), cm
        )
        return em2, hybrid

    em2, hybrid = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "ex-context: EM2 vs EM2-RA traffic at 1.5 Kbit contexts",
        format_table(
            [
                {"arch": "EM2", "traffic_Mbit": em2.traffic_bits / 1e6,
                 "cost": em2.total_cost},
                {"arch": "EM2-RA (history)", "traffic_Mbit": hybrid.traffic_bits / 1e6,
                 "cost": hybrid.total_cost},
            ]
        ),
    )
    assert hybrid.traffic_bits < em2.traffic_bits
