"""Weak/strong-scaling study: the machine substrate from 64 to 4096 cores.

The companion measurement to the 1024+-core refactor (columnar tile
state, lazy topology geometry, hierarchical cluster topology). Two
curves per machine family:

* **weak scaling** — work per core held constant (threads and address
  region grow with the machine), so a flat accesses/second curve means
  the *simulator* substrate scales: no O(P²) table or per-core Python
  object graph is re-growing with core count.
* **strong scaling** — a fixed workload spread over ever more cores,
  which is the *simulated* machine's story: migration traffic (EM²)
  versus coherence traffic (directory MSI) as the same threads are
  striped across a larger, farther-apart address space.

Every point also records the measured per-tile substrate footprint
(:func:`repro.analysis.memsize.tile_state_bytes`) and the run fails if
any point exceeds :data:`~repro.analysis.memsize.BYTES_PER_TILE_BUDGET`
— the budget is a gate here, not a comment. The largest size also runs
EM² on the hierarchical ``cluster`` topology next to the flat mesh, so
the hub/express-link geometry shows up as a hop-count delta in the
same report.

Results merge into ``BENCH_perf.json`` (preserving whatever
``bench_perf.py`` wrote there) under a ``scaling`` section, plus flat
``scaling_*`` metrics for ``check_regression.py``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scaling.py [--smoke]

or via pytest (smoke configuration only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.analysis.memsize import BYTES_PER_TILE_BUDGET, tile_state_bytes
from repro.coherence.simulator import DirectoryCCSimulator
from repro.core.em2 import EM2Machine
from repro.runner import build
from repro.spec import (
    ExperimentSpec,
    MachineSpec,
    PlacementSpec,
    TopologySpec,
    WorkloadSpec,
)

#: core counts per mode; every size uses the ``mesh-1024`` preset's
#: trimmed tile caches so curves compare substrate scaling, not cache
#: capacity differences
SIZES = {"smoke": [64, 256], "full": [64, 256, 1024, 4096]}

#: accesses per thread (weak: per-core work unit; strong: fixed total)
WEAK_APT = {"smoke": 128, "full": 1024}
STRONG_APT = {"smoke": 256, "full": 4096}
STRONG_THREADS = 32

PRESET = "mesh-1024"


def _spec(machine: str, cores: int, workload_params: dict,
          topology: str = "auto") -> ExperimentSpec:
    return ExperimentSpec(
        workload=WorkloadSpec(name="uniform", params=workload_params),
        machine=MachineSpec(name=machine, cores=cores, preset=PRESET),
        placement=PlacementSpec(name="striped"),
        topology=TopologySpec(name=topology),
    )


def _weak_params(mode: str, cores: int) -> dict:
    # one thread per 16 cores, address region proportional to the
    # machine: per-core work and per-core data are both constant
    return dict(
        num_threads=max(4, cores // 16),
        accesses_per_thread=WEAK_APT[mode],
        region_words=64 * cores,
        seed=1,
    )


def _strong_params(mode: str) -> dict:
    # identical workload at every size; only the machine grows
    return dict(
        num_threads=STRONG_THREADS,
        accesses_per_thread=STRONG_APT[mode],
        region_words=64 * 1024,
        seed=1,
    )


def _run_point(machine: str, cores: int, params: dict, repeats: int,
               topology: str = "auto") -> dict:
    """Build once, run ``repeats`` fresh instances, keep the best rate."""
    built = build(_spec(machine, cores, params, topology))
    trace = built.trace
    point: dict = {
        "cores": cores,
        "threads": int(params["num_threads"]),
        "accesses": trace.total_accesses,
        "topology": topology,
    }
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        if machine == "em2":
            m = EM2Machine(trace, built.placement, built.config,
                           topology=built.topology)
            build_s = time.perf_counter() - t0
            t1 = time.perf_counter()
            m.run()
            run_s = time.perf_counter() - t1
            res = m.results()
            point.update(
                completion_time=res["completion_time"],
                migrations=res["migrations"],
                evictions=res["evictions"],
                flit_hops=res["flit_hops"],
                fast_path=res["fast_path"],
            )
            mem = tile_state_bytes(m)
        else:
            m = DirectoryCCSimulator(trace, built.placement, built.config,
                                     topology=built.topology, protocol="msi")
            build_s = time.perf_counter() - t0
            t1 = time.perf_counter()
            r = m.run()
            run_s = time.perf_counter() - t1
            point.update(
                completion_time=r.completion_time,
                traffic_bits=r.traffic_bits,
            )
            mem = tile_state_bytes(m)
        best = max(best, trace.total_accesses / run_s)
        point["build_seconds"] = build_s
        point["run_seconds"] = run_s
    point["accesses_per_sec"] = best
    point["bytes_per_tile"] = mem["bytes_per_tile"]
    point["within_budget"] = mem["bytes_per_tile"] <= BYTES_PER_TILE_BUDGET
    return point


def mesh1024_fastpath_parity() -> bool:
    """Bit-parity of the EM² fast path at the scaling preset's
    motivating size: one P=1024 mesh em2 point (64 threads, 32 accesses
    each — small enough for CI, wide enough to cross many cores) run
    with ``fast_path`` on and off; every simulated metric must match.
    The ``fast_path`` sub-dict is engagement diagnostics and is
    excluded from the comparison."""
    from repro.runner import run

    params = dict(num_threads=64, accesses_per_thread=32,
                  region_words=64 * 1024, seed=1)
    results = []
    for fast in (True, False):
        spec = ExperimentSpec(
            workload=WorkloadSpec(name="uniform", params=params),
            machine=MachineSpec(name="em2", cores=1024, preset=PRESET,
                                fast_path=fast),
            placement=PlacementSpec(name="striped"),
        )
        res = run(spec)
        res.pop("fast_path", None)
        results.append(res)
    return results[0] == results[1]


def run_scaling(mode: str = "full", repeats: int = 2) -> dict:
    """The full study: weak + strong curves for EM² and directory-MSI,
    plus the cluster-vs-mesh comparison at the largest size."""
    sizes = SIZES[mode]
    report: dict = {
        "mode": mode,
        "sizes": sizes,
        "preset": PRESET,
        "budget_bytes_per_tile": BYTES_PER_TILE_BUDGET,
        "weak": {},
        "strong": {},
    }
    for machine in ("em2", "cc-msi"):
        report["weak"][machine] = [
            _run_point(machine, n, _weak_params(mode, n), repeats) for n in sizes
        ]
        report["strong"][machine] = [
            _run_point(machine, n, _strong_params(mode), repeats) for n in sizes
        ]

    # per-P EM² fast-path engagement next to the throughput it bought:
    # window widths/counts per size so a future regression shows up as
    # "windows stopped forming at P=1024", not just a slower number
    report["fastpath"] = {
        f"scaling_fastpath_em2_p{p['cores']}": dict(
            accesses_per_sec=p["accesses_per_sec"], **p["fast_path"]
        )
        for p in report["weak"]["em2"]
    }

    # hierarchical topology at the top size: same workload, mesh vs
    # cluster geometry — the hop-count delta is the express links
    top = sizes[-1]
    report["cluster_vs_mesh"] = {
        "mesh": _run_point("em2", top, _strong_params(mode), repeats),
        "cluster": _run_point("em2", top, _strong_params(mode), repeats,
                              topology="cluster"),
    }

    points = (
        [p for pts in report["weak"].values() for p in pts]
        + [p for pts in report["strong"].values() for p in pts]
        + list(report["cluster_vs_mesh"].values())
    )
    report["bytes_per_tile_max"] = max(p["bytes_per_tile"] for p in points)
    report["within_budget"] = all(p["within_budget"] for p in points)
    report["fastpath_parity"] = mesh1024_fastpath_parity()
    return report


def flat_metrics(report: dict) -> dict:
    """Top-level BENCH_perf.json keys for ``check_regression.py``."""
    top_weak_em2 = report["weak"]["em2"][-1]
    top_weak_cc = report["weak"]["cc-msi"][-1]
    return {
        "scaling_em2_accesses_per_sec": top_weak_em2["accesses_per_sec"],
        "scaling_cc_accesses_per_sec": top_weak_cc["accesses_per_sec"],
        "scaling_bytes_per_tile": report["bytes_per_tile_max"],
        "scaling_within_budget": report["within_budget"],
        "scaling_fastpath_parity": report["fastpath_parity"],
    }


def merge_into(out_path: Path, report: dict) -> None:
    """Read-modify-write ``BENCH_perf.json``: bench_perf.py's sections
    survive, the ``scaling`` section and flat metrics are replaced."""
    try:
        merged = json.loads(out_path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged["scaling"] = report
    merged.update(flat_metrics(report))
    merged.setdefault("mode", report["mode"])
    merged.setdefault("cpu_count", os.cpu_count())
    out_path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- pytest
def test_scaling_smoke():
    """Smoke configuration: both families scale to 256 cores within the
    per-tile budget, and the cluster topology runs end to end."""
    report = run_scaling(mode="smoke", repeats=1)
    assert report["within_budget"], report["bytes_per_tile_max"]
    for machine in ("em2", "cc-msi"):
        for section in ("weak", "strong"):
            for p in report[section][machine]:
                assert p["accesses_per_sec"] > 0
                assert p["completion_time"] > 0
    cvm = report["cluster_vs_mesh"]
    assert cvm["cluster"]["topology"] == "cluster"
    assert cvm["cluster"]["accesses_per_sec"] > 0
    # same workload, same cores: only the geometry may differ
    assert cvm["cluster"]["accesses"] == cvm["mesh"]["accesses"]
    # EM² fast-path engagement is recorded per size
    for key, fp in report["fastpath"].items():
        assert key.startswith("scaling_fastpath_")
        assert "engaged" in fp and fp["accesses_per_sec"] > 0
    # the mesh-1024 on/off parity gate ran and held
    assert report["fastpath_parity"] is True


# ---------------------------------------------------------------- script
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="64/256 cores only")
    ap.add_argument("--repeats", type=int, default=2,
                    help="runs per point (best-of)")
    ap.add_argument("--out", default=None,
                    help="report path (default: <repo>/BENCH_perf.json, "
                         "merged — bench_perf.py sections are preserved)")
    ap.add_argument("--profile", nargs="?", type=int, const=25, default=None,
                    metavar="N",
                    help="run the study under cProfile and print the top N "
                         "functions (default 25)")
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    if args.profile is not None:
        from repro.cli import run_profiled

        report = run_profiled(
            lambda: run_scaling(mode=mode, repeats=args.repeats), args.profile
        )
    else:
        report = run_scaling(mode=mode, repeats=args.repeats)

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_perf.json"
    )
    merge_into(out, report)

    for machine in ("em2", "cc-msi"):
        for section in ("weak", "strong"):
            for p in report[section][machine]:
                traffic = (
                    f"migrations {p['migrations']}, flit-hops {p['flit_hops']}"
                    if machine == "em2"
                    else f"traffic {p['traffic_bits']} bits"
                )
                print(
                    f"{section:6s} {machine:6s} P={p['cores']:<5d} "
                    f"{p['accesses_per_sec']:>10.0f} acc/s  "
                    f"{p['bytes_per_tile'] / 1024:6.1f} KB/tile  {traffic}"
                )
    cvm = report["cluster_vs_mesh"]
    print(
        f"cluster-vs-mesh @ P={cvm['mesh']['cores']}: "
        f"mesh {cvm['mesh']['flit_hops']} flit-hops, "
        f"cluster {cvm['cluster']['flit_hops']} flit-hops"
    )
    print(
        f"bytes/tile max {report['bytes_per_tile_max'] / 1024:.1f} KB "
        f"(budget {BYTES_PER_TILE_BUDGET / 1024:.0f} KB) — "
        f"within budget: {report['within_budget']}"
    )
    print(f"mesh-1024 fast-path on/off parity: {report['fastpath_parity']}")
    if not report["within_budget"]:
        print("FAIL: a point exceeded the per-tile memory budget")
        return 1
    if not report["fastpath_parity"]:
        print("FAIL: mesh-1024 fast-path on/off results diverged")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
