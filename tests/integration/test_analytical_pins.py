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
from repro.registry import SCHEMES
from repro.runner import run
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


def test_every_scenario_is_pinned(pins):
    assert len(SCENARIOS) == 90
    assert sorted(pins) == sorted(SCENARIOS)


if __name__ == "__main__":
    rows = {sid: scenario_row(sid) for sid in SCENARIOS}
    PIN_FILE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {PIN_FILE}")
