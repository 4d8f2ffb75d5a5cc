"""Pinned results of the fault-plane, contended and stack-machine runs.

The golden fixtures and the perfbench digests pin fault-free,
uncontended register-file runs only. Every other transport path —
a contended NoC, a lossy fabric with its retry and dedup protocol,
fractional fault-plane times, and the stack machine's variable-size
migrations and flushes — is pinned here: one digest per scenario, the
canonical result row (diagnostics removed, JSON round-tripped, keys
sorted) hashed the way ``perfbench/workloads.py::digest`` hashes a
benchmark point. A change that alters the order or timing of any
message in these runs changes a digest.

The pins were recorded at commit ``6056b61``. Re-record them only in a
change that is meant to alter results, and say which ones moved. The
CC baseline cannot model a contended NoC, so its contended scenarios
pin the :class:`~repro.util.errors.ConfigError` instead of a digest.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.analysis.cache import canonical_rows
from repro.arch.config import NocConfig, small_test_config
from repro.core.costs import CostModel
from repro.core.stack_em2 import FixedDepth, NeedBasedDepth, ReplayDepth, StackEM2Machine
from repro.placement import first_touch
from repro.runner import run
from repro.spec import (
    ExperimentSpec,
    FaultSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    WorkloadSpec,
)
from repro.stackmachine import stack_workload
from repro.util.errors import ConfigError

#: label -> (machine, decision scheme); the detailed machines read the
#: scheme only for em2ra. Under ``history`` em2ra never migrates on these
#: traces, so ``random`` adds a mix of migrations, remote accesses and
#: evictions on one lossy fabric.
MACHINES = {
    "em2": ("em2", "history"),
    "em2ra": ("em2ra", "history"),
    "em2ra/random": ("em2ra", "random"),
    "ra-only": ("ra-only", "history"),
    "cc-msi": ("cc-msi", "history"),
}

WORKLOADS = {
    "pingpong": {"num_threads": 8, "rounds": 32, "run": 3},
    "hotspot": {"num_threads": 8, "accesses_per_thread": 256, "hot_fraction": 0.3, "burst": 2},
}

NOCS = {"quiet": {}, "contended": {"noc": {"contention": True}}}

#: fault plans; the odd cycle counts put fractional times on the heap
FAULT_PLANS = {
    "none": None,
    "drop": FaultSpec(params={"drop_rate": 0.05}),
    "dup": FaultSpec(params={"dup_rate": 0.1}),
    "delay": FaultSpec(params={"delay_rate": 0.1, "delay_cycles": 13.37}),
    "mix": FaultSpec(
        params={
            "drop_rate": 0.05,
            "dup_rate": 0.05,
            "delay_rate": 0.05,
            "delay_cycles": 7.25,
            "stall_rate": 0.01,
            "stall_cycles": 3.3,
        },
        retry_timeout=33.3,
        retry_backoff=1.7,
    ),
    "bursty": FaultSpec(name="bursty", params={"p_bad": 0.05, "dup_rate": 0.05}),
    "linkdown": FaultSpec(
        params={
            "link_down_count": 3,
            "link_down_cycles": 300.5,
            "link_down_horizon": 4000.0,
            "drop_rate": 0.01,
        }
    ),
}

SCENARIOS = [
    f"{m}-{w}-{n}-{f}"
    for m, w, n, f in itertools.product(MACHINES, WORKLOADS, NOCS, FAULT_PLANS)
]

#: the CC baseline has no clock to queue messages on: these raise
REFUSED = [sid for sid in SCENARIOS if sid.startswith("cc-msi-") and "-contended-" in sid]

STACK_SCHEMES = ("fixed3", "need", "replay")
STACK_SCENARIOS = [
    f"stack-{k}-{s}-g{g}-{n}"
    for k, s, g, n in itertools.product(("dot", "hist"), STACK_SCHEMES, (1, 2), NOCS)
]


def _digest(metrics: dict) -> str:
    bare = {k: v for k, v in metrics.items() if k != "fast_path"}
    canon = json.dumps(canonical_rows([bare])[0], sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:20]


def scenario_spec(sid: str) -> ExperimentSpec:
    label, workload, noc, plan = sid.rsplit("-", 3)
    machine, scheme = MACHINES[label]
    return ExperimentSpec(
        workload=WorkloadSpec(name=workload, params=WORKLOADS[workload]),
        machine=MachineSpec(
            name=machine,
            cores=8,
            preset="small-test",
            config={"guest_contexts": 1, **NOCS[noc]},
        ),
        scheme=SchemeSpec(name=scheme),
        placement=PlacementSpec(name="first-touch"),
        faults=FAULT_PLANS[plan],
    )


def stack_results(sid: str) -> dict:
    _, kernel, scheme, guests, noc = sid.split("-")
    cfg = small_test_config(
        num_cores=4,
        guest_contexts=int(guests[1:]),
        noc=NocConfig(contention=noc == "contended"),
    )
    mt = stack_workload(kernel, num_threads=4, n=24, shared_fraction=0.75)
    pl = first_touch(mt, 4)
    if scheme == "fixed3":
        depth = FixedDepth(3)
    elif scheme == "need":
        depth = NeedBasedDepth(mt)
    else:
        depth = ReplayDepth.from_dp(mt, pl, CostModel(cfg), max_depth=8)
    m = StackEM2Machine(mt, pl, cfg, depth, window=8)
    m.run()
    return m.results()


#: scenario -> result digest, recorded at commit 6056b61 (the contended
#: cc-msi digests, equal to their quiet twins, became REFUSED)
PINS = {
    "em2-pingpong-quiet-none": "b7b5792e9b8ed66f072a",
    "em2-pingpong-quiet-drop": "10e6877ee61c8312e6d6",
    "em2-pingpong-quiet-dup": "9f81b80ef4bc6353a851",
    "em2-pingpong-quiet-delay": "abf1fb689de928fcf3d3",
    "em2-pingpong-quiet-mix": "cc6dbd5db9f0cb219401",
    "em2-pingpong-quiet-bursty": "f9cd33b4a3754e0143ba",
    "em2-pingpong-quiet-linkdown": "9f65c2d254b1bc6258ba",
    "em2-pingpong-contended-none": "b7b5792e9b8ed66f072a",
    "em2-pingpong-contended-drop": "10e6877ee61c8312e6d6",
    "em2-pingpong-contended-dup": "9f81b80ef4bc6353a851",
    "em2-pingpong-contended-delay": "abf1fb689de928fcf3d3",
    "em2-pingpong-contended-mix": "cc6dbd5db9f0cb219401",
    "em2-pingpong-contended-bursty": "f9cd33b4a3754e0143ba",
    "em2-pingpong-contended-linkdown": "9f65c2d254b1bc6258ba",
    "em2-hotspot-quiet-none": "8ea5abe9d0b60f403d48",
    "em2-hotspot-quiet-drop": "65a833e82b1765fa08c2",
    "em2-hotspot-quiet-dup": "11231bcc80a95898bec6",
    "em2-hotspot-quiet-delay": "b23e063485adaaee1841",
    "em2-hotspot-quiet-mix": "82e75dd34a074a831d7a",
    "em2-hotspot-quiet-bursty": "00391dc59f19ad98ca50",
    "em2-hotspot-quiet-linkdown": "aee69b3e126cf3b26457",
    "em2-hotspot-contended-none": "e9828505a1c00241c54f",
    "em2-hotspot-contended-drop": "3c37f23453aaf8fb427b",
    "em2-hotspot-contended-dup": "d90b9fd22459d7c43852",
    "em2-hotspot-contended-delay": "cdbf38c1b645dc38c102",
    "em2-hotspot-contended-mix": "1ca419b3018f9e84b60a",
    "em2-hotspot-contended-bursty": "0abd5f9b9d3bc3da35d0",
    "em2-hotspot-contended-linkdown": "3dac2c13321292e08c14",
    "em2ra-pingpong-quiet-none": "d73ea1f66de3f0bf1062",
    "em2ra-pingpong-quiet-drop": "d10aa858d6c1cfe5ff3e",
    "em2ra-pingpong-quiet-dup": "def0db51cdb488657bca",
    "em2ra-pingpong-quiet-delay": "562b4245a44a765bc1a6",
    "em2ra-pingpong-quiet-mix": "adf321ab5372ea347817",
    "em2ra-pingpong-quiet-bursty": "c76d12962cb0d20a3015",
    "em2ra-pingpong-quiet-linkdown": "775f45f924d6383dbd48",
    "em2ra-pingpong-contended-none": "d73ea1f66de3f0bf1062",
    "em2ra-pingpong-contended-drop": "d10aa858d6c1cfe5ff3e",
    "em2ra-pingpong-contended-dup": "def0db51cdb488657bca",
    "em2ra-pingpong-contended-delay": "562b4245a44a765bc1a6",
    "em2ra-pingpong-contended-mix": "adf321ab5372ea347817",
    "em2ra-pingpong-contended-bursty": "c76d12962cb0d20a3015",
    "em2ra-pingpong-contended-linkdown": "775f45f924d6383dbd48",
    "em2ra-hotspot-quiet-none": "6e4493baffdd2f982485",
    "em2ra-hotspot-quiet-drop": "9e49554c33cd7e8914df",
    "em2ra-hotspot-quiet-dup": "3e12afbd9550e0dbfba7",
    "em2ra-hotspot-quiet-delay": "f791c28bbf25036accb1",
    "em2ra-hotspot-quiet-mix": "a662c804a00fdd087016",
    "em2ra-hotspot-quiet-bursty": "5c2980db6d50c12039b3",
    "em2ra-hotspot-quiet-linkdown": "f7cf22918b8d2b4dcf92",
    "em2ra-hotspot-contended-none": "044ff767c792e252ee06",
    "em2ra-hotspot-contended-drop": "86646c73613a3d15bc8d",
    "em2ra-hotspot-contended-dup": "7a2daa2312140a95df71",
    "em2ra-hotspot-contended-delay": "988efd9bc9eb8d712ca6",
    "em2ra-hotspot-contended-mix": "3c7b335ff2e37bfcae0b",
    "em2ra-hotspot-contended-bursty": "d0ece392532bab90015b",
    "em2ra-hotspot-contended-linkdown": "9466d66e249cddd472ac",
    "em2ra/random-pingpong-quiet-none": "67df598f7bbb54ce0a6e",
    "em2ra/random-pingpong-quiet-drop": "a331c20d3921abbc92df",
    "em2ra/random-pingpong-quiet-dup": "feb401929e9b20dead5d",
    "em2ra/random-pingpong-quiet-delay": "dd7b95ea9b94e40cf93c",
    "em2ra/random-pingpong-quiet-mix": "79b93e406d20fa3e09e0",
    "em2ra/random-pingpong-quiet-bursty": "083fd9480e19edc6f23d",
    "em2ra/random-pingpong-quiet-linkdown": "754341afe2eb7e8a49b0",
    "em2ra/random-pingpong-contended-none": "67df598f7bbb54ce0a6e",
    "em2ra/random-pingpong-contended-drop": "a331c20d3921abbc92df",
    "em2ra/random-pingpong-contended-dup": "feb401929e9b20dead5d",
    "em2ra/random-pingpong-contended-delay": "dd7b95ea9b94e40cf93c",
    "em2ra/random-pingpong-contended-mix": "79b93e406d20fa3e09e0",
    "em2ra/random-pingpong-contended-bursty": "083fd9480e19edc6f23d",
    "em2ra/random-pingpong-contended-linkdown": "754341afe2eb7e8a49b0",
    "em2ra/random-hotspot-quiet-none": "1925439ba78250fe184b",
    "em2ra/random-hotspot-quiet-drop": "dfd3019be44f607ae425",
    "em2ra/random-hotspot-quiet-dup": "d21ed505ca4927c518fe",
    "em2ra/random-hotspot-quiet-delay": "7013a0a5adcf9f1f39d3",
    "em2ra/random-hotspot-quiet-mix": "f9064fc32f3123a4375a",
    "em2ra/random-hotspot-quiet-bursty": "4fd3ed8babe46add5fd4",
    "em2ra/random-hotspot-quiet-linkdown": "600cd9be7a841696d4d6",
    "em2ra/random-hotspot-contended-none": "3b03c9c8006d326d8532",
    "em2ra/random-hotspot-contended-drop": "7a6eb70cdd87d08edf16",
    "em2ra/random-hotspot-contended-dup": "4a2f0ef7ae7bb28123ac",
    "em2ra/random-hotspot-contended-delay": "77908aa1254ce3218f8b",
    "em2ra/random-hotspot-contended-mix": "3c7429ae35e8e0cdf7c0",
    "em2ra/random-hotspot-contended-bursty": "71f5d551f35a3b2d079f",
    "em2ra/random-hotspot-contended-linkdown": "88c8edef5a69852da9b1",
    "ra-only-pingpong-quiet-none": "d73ea1f66de3f0bf1062",
    "ra-only-pingpong-quiet-drop": "d10aa858d6c1cfe5ff3e",
    "ra-only-pingpong-quiet-dup": "def0db51cdb488657bca",
    "ra-only-pingpong-quiet-delay": "562b4245a44a765bc1a6",
    "ra-only-pingpong-quiet-mix": "adf321ab5372ea347817",
    "ra-only-pingpong-quiet-bursty": "c76d12962cb0d20a3015",
    "ra-only-pingpong-quiet-linkdown": "775f45f924d6383dbd48",
    "ra-only-pingpong-contended-none": "d73ea1f66de3f0bf1062",
    "ra-only-pingpong-contended-drop": "d10aa858d6c1cfe5ff3e",
    "ra-only-pingpong-contended-dup": "def0db51cdb488657bca",
    "ra-only-pingpong-contended-delay": "562b4245a44a765bc1a6",
    "ra-only-pingpong-contended-mix": "adf321ab5372ea347817",
    "ra-only-pingpong-contended-bursty": "c76d12962cb0d20a3015",
    "ra-only-pingpong-contended-linkdown": "775f45f924d6383dbd48",
    "ra-only-hotspot-quiet-none": "6e4493baffdd2f982485",
    "ra-only-hotspot-quiet-drop": "9e49554c33cd7e8914df",
    "ra-only-hotspot-quiet-dup": "3e12afbd9550e0dbfba7",
    "ra-only-hotspot-quiet-delay": "f791c28bbf25036accb1",
    "ra-only-hotspot-quiet-mix": "a662c804a00fdd087016",
    "ra-only-hotspot-quiet-bursty": "5c2980db6d50c12039b3",
    "ra-only-hotspot-quiet-linkdown": "f7cf22918b8d2b4dcf92",
    "ra-only-hotspot-contended-none": "044ff767c792e252ee06",
    "ra-only-hotspot-contended-drop": "86646c73613a3d15bc8d",
    "ra-only-hotspot-contended-dup": "7a2daa2312140a95df71",
    "ra-only-hotspot-contended-delay": "988efd9bc9eb8d712ca6",
    "ra-only-hotspot-contended-mix": "3c7b335ff2e37bfcae0b",
    "ra-only-hotspot-contended-bursty": "d0ece392532bab90015b",
    "ra-only-hotspot-contended-linkdown": "9466d66e249cddd472ac",
    "cc-msi-pingpong-quiet-none": "37e82981bf597419abac",
    "cc-msi-pingpong-quiet-drop": "84c0d85baa2749310505",
    "cc-msi-pingpong-quiet-dup": "35d7312458a027862eed",
    "cc-msi-pingpong-quiet-delay": "9022db8ad565d98d7b54",
    "cc-msi-pingpong-quiet-mix": "d7ce771e286847f21fb3",
    "cc-msi-pingpong-quiet-bursty": "3e34418b70af8bd85284",
    "cc-msi-pingpong-quiet-linkdown": "b18cf257d4c3b337ff61",
    "cc-msi-hotspot-quiet-none": "ee91c5c884e12bdea6d5",
    "cc-msi-hotspot-quiet-drop": "e5dba0e76184113596f9",
    "cc-msi-hotspot-quiet-dup": "a4f7144d18631e41564d",
    "cc-msi-hotspot-quiet-delay": "0f257f3a4080a719c9e3",
    "cc-msi-hotspot-quiet-mix": "740b6e180b3e7c51f753",
    "cc-msi-hotspot-quiet-bursty": "2246bb105b4ed6ec0eb0",
    "cc-msi-hotspot-quiet-linkdown": "846756893400fa57aab6",
    "stack-dot-fixed3-g1-quiet": "5973709559d44a7a2b13",
    "stack-dot-fixed3-g1-contended": "5973709559d44a7a2b13",
    "stack-dot-fixed3-g2-quiet": "1388d15faacd400738fc",
    "stack-dot-fixed3-g2-contended": "c3b7d83eec8408d5bf92",
    "stack-dot-need-g1-quiet": "e93abb9829f9350d51f4",
    "stack-dot-need-g1-contended": "4da558d0fc89161b6f67",
    "stack-dot-need-g2-quiet": "0324fd131cad54ad00e9",
    "stack-dot-need-g2-contended": "e92cb84d13e8f319c267",
    "stack-dot-replay-g1-quiet": "c8263fca1b2a9d6adbe8",
    "stack-dot-replay-g1-contended": "06bec1e88c4f86f5a5cb",
    "stack-dot-replay-g2-quiet": "a2ef196d136cfcfde610",
    "stack-dot-replay-g2-contended": "a2ef196d136cfcfde610",
    "stack-hist-fixed3-g1-quiet": "316ff9e63297e0c3c4e3",
    "stack-hist-fixed3-g1-contended": "316ff9e63297e0c3c4e3",
    "stack-hist-fixed3-g2-quiet": "6006c8d6b633bc49b0b5",
    "stack-hist-fixed3-g2-contended": "6006c8d6b633bc49b0b5",
    "stack-hist-need-g1-quiet": "b2c30df9ffdbd35f0578",
    "stack-hist-need-g1-contended": "b2c30df9ffdbd35f0578",
    "stack-hist-need-g2-quiet": "d1142093f4f465ad6195",
    "stack-hist-need-g2-contended": "d1142093f4f465ad6195",
    "stack-hist-replay-g1-quiet": "ef0edb2580bd5155baee",
    "stack-hist-replay-g1-contended": "ef0edb2580bd5155baee",
    "stack-hist-replay-g2-quiet": "25cc3864544bc0333e7e",
    "stack-hist-replay-g2-contended": "25cc3864544bc0333e7e",
}


@pytest.mark.parametrize("sid", SCENARIOS)
def test_machine_result_pinned(sid):
    if sid in REFUSED:
        with pytest.raises(ConfigError, match="noc.contention"):
            run(scenario_spec(sid))
        return
    metrics = run(scenario_spec(sid))
    label, _, _, plan = sid.rsplit("-", 3)
    if plan != "none" and label != "cc-msi":
        # cc-msi has no simulated clock, so link-down windows never
        # reach it, and a low drop rate may inject nothing
        assert metrics["faults.total"] > 0
    assert _digest(metrics) == PINS[sid]


@pytest.mark.parametrize("sid", STACK_SCENARIOS)
def test_stack_machine_result_pinned(sid):
    assert _digest(stack_results(sid)) == PINS[sid]


def test_every_scenario_is_pinned():
    assert len(REFUSED) == 14
    assert sorted(PINS) == sorted(set(SCENARIOS + STACK_SCENARIOS) - set(REFUSED))
