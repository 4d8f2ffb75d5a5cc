"""Pinned rows of every registered scheme through the analytical machine.

The golden fixtures and the transport pins hold no analytical row, so
the scheme evaluator's results are pinned here: every scheme in
``SCHEMES`` on the pingpong, uniform and hotspot micro-workloads at 4
and 16 cores, and on the four SPLASH stand-ins (OCEAN, RADIX, BARNES,
LU) at the perfbench ``tiny`` sizes on 16 cores. Each pin is the whole
canonical result row (JSON round-tripped), so a failure names the
statistic that moved.

The rows in ``tests/fixtures/analytical_pins.json`` were recorded at
commit ``2425b91``, before the evaluator scored schemes in one walk over
home runs. Re-record them (``PYTHONPATH=src python
tests/integration/test_analytical_pins.py``) only in a change that is
meant to alter results, and say which rows moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cache import canonical_rows
from repro.core.evaluation import run_table
from repro.registry import SCHEMES
from repro.runner import build, clear_build_memo, run
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, SchemeSpec, WorkloadSpec

PIN_FILE = Path(__file__).resolve().parents[1] / "fixtures" / "analytical_pins.json"

MICRO = {
    "pingpong": {"num_threads": 8, "rounds": 64, "run": 3},
    "uniform": {"num_threads": 8, "accesses_per_thread": 256},
    "hotspot": {"num_threads": 8, "accesses_per_thread": 256, "hot_fraction": 0.3, "burst": 2},
}

#: perfbench's ``tiny`` stand-in sizes, 16 threads
STAND_INS = {
    "ocean": {"grid_n": 32, "iterations": 1},
    "radix": {"keys_per_thread": 8},
    "barnes": {"bodies_per_thread": 2, "tree_depth": 3},
    "lu": {"blocks": 2, "block_words": 16},
}

POINTS = [(w, cores, "small-test") for w in MICRO for cores in (4, 16)] + [
    (w, 16, "default") for w in STAND_INS
]

SCENARIOS = [f"{w}-{cores}-{s}" for w, cores, _ in POINTS for s in SCHEMES.names()]


def scenario_spec(sid: str) -> ExperimentSpec:
    workload, cores, scheme = sid.split("-", 2)
    preset = "default" if workload in STAND_INS else "small-test"
    params = MICRO.get(workload) or {**STAND_INS[workload], "num_threads": 16}
    return ExperimentSpec(
        workload=WorkloadSpec(name=workload, params=params),
        machine=MachineSpec(name="analytical", cores=int(cores), preset=preset),
        placement=PlacementSpec(name="first-touch"),
        scheme=SchemeSpec(name=scheme),
    )


def scenario_row(sid: str) -> dict:
    return canonical_rows([run(scenario_spec(sid))])[0]


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PIN_FILE.read_text())


@pytest.mark.parametrize("sid", SCENARIOS)
def test_analytical_row_pinned(sid, pins):
    assert scenario_row(sid) == pins[sid]


@pytest.mark.parametrize("point", POINTS[::3], ids=lambda p: f"{p[0]}-{p[1]}")
def test_rows_pinned_with_one_cost_model_per_point(point, pins):
    """Every scheme of a point, in reverse order, shares the build
    memo's one cost model and still gives the pinned rows."""
    workload, cores, _ = point
    clear_build_memo()
    sids = [f"{workload}-{cores}-{s}" for s in reversed(SCHEMES.names())]
    models = {id(build(scenario_spec(sid)).cost) for sid in sids}
    assert len(models) == 1
    assert [scenario_row(sid) for sid in sids] == [pins[sid] for sid in sids]
    clear_build_memo()


@pytest.mark.parametrize("workload", STAND_INS)
def test_planned_rows_equal_walked_rows(workload):
    """Every scheme with a plan gives the row the walk gives with the
    plan hidden, on each stand-in at 16 cores."""
    planned = 0
    for name in SCHEMES.names():
        spec = scenario_spec(f"{workload}-16-{name}")
        built = build(spec)
        if built.scheme.plan(run_table(built.trace, built.placement)) is None:
            continue
        planned += 1
        row = run(spec)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(type(built.scheme), "plan", lambda self, table: None)
            assert run(spec) == row, name
    assert planned == 5


def test_every_scenario_is_pinned(pins):
    assert len(SCENARIOS) == 90
    assert sorted(pins) == sorted(SCENARIOS)


if __name__ == "__main__":
    rows = {sid: scenario_row(sid) for sid in SCENARIOS}
    PIN_FILE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {PIN_FILE}")
