"""Sweep-throughput harness: serial vs parallel, cold vs warm cache.

This is the measurement companion to ISSUE 1's performance layer. It
runs one multi-point (workload x scheme) sweep four ways —

1. serial        (``workers=1``, no cache)
2. parallel      (``workers=N`` local worker processes, no cache)
3. cold cache    (parallel + empty content-addressed cache)
4. warm cache    (parallel + the cache populated by run 3)

— verifies all four produce identical result rows, and writes
timings, speedups, and cache hit/miss counters to ``BENCH_perf.json``.
Two further sections cover the trace plane: generation throughput of
the vectorized synthetic generators (gated by the golden-trace
bit-identity fixture) and the on-disk trace store (cold generate+persist
vs warm load-from-disk sweep).

Every point is a partial :class:`~repro.spec.ExperimentSpec` overlay
swept through :func:`repro.analysis.sweep.sweep_specs`: worker
processes receive serialized spec dicts and rebuild through the
registries (:func:`repro.runner.run_spec_dict`), so nothing here needs
to pickle beyond plain dicts, and cache keys derive from the canonical
spec dict rather than ad-hoc context.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf.py [--smoke] [--workers N]

or via pytest (smoke configuration only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf.py

Note: parallel speedup is bounded by the machine. The report records
``cpu_count`` so a 1-core CI box showing ~1x is interpretable; the
>=2x acceptance target applies on >=4-core hardware.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.cache import ResultCache, canonical_rows
from repro.analysis.sweep import effective_workers, sweep_specs
from repro.registry import WORKLOADS
from repro.runner import build, clear_build_memo
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.trace.store import TraceStore, set_trace_store

CORES = 16

# Workload sub-spec overlays per sweep axis value. Workers rebuild each
# point's trace from its spec (memoized per process), so the generation
# + sequential scheme walk is the unit of work being parallelized.
WORKLOAD_PARAMS = {
    "full": {
        "ocean": dict(name="ocean", num_threads=16, grid_n=130, iterations=2),
        "fft": dict(name="fft", num_threads=16, points_per_thread=1024),
        "pingpong": dict(name="pingpong", num_threads=16, rounds=2048, run=4),
        "uniform": dict(name="uniform", num_threads=16, accesses_per_thread=16384),
    },
    "smoke": {
        "pingpong": dict(name="pingpong", num_threads=8, rounds=24, run=4),
        "uniform": dict(name="uniform", num_threads=8, accesses_per_thread=128),
    },
}

SCHEMES = {
    "full": ["history", "addr-history", "costaware"],
    "smoke": ["history", "costaware"],
}

# ---------------------------------------------------------------- throughput
# Detailed-simulator throughput: accesses/second through the behavioral
# EM2 machine (event-driven) and the directory-CC simulator (round-robin).
# These exercise the per-access hot paths (columnar trace decode, cached
# NoC tables, counter cells) that the sweep harness above never touches.
THROUGHPUT_PARAMS = {
    "full": {
        "machine": dict(name="pingpong", num_threads=16, rounds=1500, run=8),
        "cc": dict(name="uniform", num_threads=16, accesses_per_thread=8192,
                   region_words=4096),
        "machine_fast": dict(name="pingpong", num_threads=16, rounds=120, run=256),
    },
    "smoke": {
        "machine": dict(name="pingpong", num_threads=8, rounds=250, run=8),
        "cc": dict(name="uniform", num_threads=8, accesses_per_thread=1024,
                   region_words=1024),
        "machine_fast": dict(name="pingpong", num_threads=8, rounds=60, run=256),
    },
}

# The ``machine``/``cc`` entries are boundary-dense (a migration or a
# miss every handful of accesses). ``machine`` measures the EM²
# *event-driven* hot path, so it pins ``fast_path=False`` for metric
# continuity; ``cc`` times the one directory-CC driver. The
# ``machine_fast`` entry is the EM² epoch-batched fast path's target
# regime — long runs of local work punctuated by rare boundary events —
# and runs with the fast path on (the default).

# Pre-optimization accesses/second, measured on the commit before the
# hot-path overhaul (best of 3 on the same parameters above, CORES=16).
# The speedup the report prints is relative to these; they are fixed
# reference points, not re-measured.
PRE_PR_BASELINE = {
    "full": {"machine": 108913.0, "cc": 34082.0},
    "smoke": {"machine": 111222.0, "cc": 44167.0},
}

#: the previous committed baseline (benchmarks/baseline_throughput.json)
#: — unlike the frozen PRE_PR_BASELINE above, this moves with every PR
#: that re-records it, so speedups against it show the *trajectory*
#: since the last landed optimization rather than since the first one.
COMMITTED_BASELINE_PATH = Path(__file__).resolve().parent / "baseline_throughput.json"

# ---------------------------------------------------------------- tracegen
# Synthetic-generator throughput: accesses/second of MultiTrace
# generation itself (the cost the trace store amortizes away, and the
# thing the vectorization PR made ~18x faster).
TRACEGEN_PARAMS = {
    "full": {
        "ocean": dict(num_threads=32, grid_n=258, iterations=2),
        "lu": dict(num_threads=16, blocks=12, block_words=256),
        "fft": dict(num_threads=16, points_per_thread=4096, butterfly_stages=5),
        "radix": dict(num_threads=16, keys_per_thread=4096, passes=3),
        "water": dict(num_threads=16, molecules_per_thread=128, timesteps=3),
        "barnes": dict(num_threads=16, bodies_per_thread=128, tree_depth=5, timesteps=2),
        "raytrace": dict(num_threads=16, rays_per_thread=256, nodes_per_ray=8),
    },
    "smoke": {
        "ocean": dict(num_threads=8, grid_n=66, iterations=2),
        "lu": dict(num_threads=8, blocks=8, block_words=64),
        "fft": dict(num_threads=8, points_per_thread=512, butterfly_stages=4),
        "radix": dict(num_threads=8, keys_per_thread=512, passes=2),
        "water": dict(num_threads=8, molecules_per_thread=32, timesteps=2),
        "barnes": dict(num_threads=8, bodies_per_thread=32, tree_depth=4, timesteps=2),
        "raytrace": dict(num_threads=8, rays_per_thread=64, nodes_per_ray=8),
    },
}

# Generation throughput on the commit before the vectorization PR
# (best of 2 per generator on the parameters above; the aggregate is
# accesses-weighted: total accesses / sum of per-generator times).
# Fixed reference points, not re-measured.
TRACEGEN_PRE_PR = {
    "full": {
        "ocean": 20499485.6, "lu": 13745925.8, "fft": 41650367.5,
        "radix": 47375466.0, "water": 743219.5, "barnes": 182520.4,
        "raytrace": 115924.6, "_aggregate": 1712509.2,
    },
    "smoke": {
        "ocean": 7379811.9, "lu": 3563818.2, "fft": 11840623.4,
        "radix": 17271433.5, "water": 547563.3, "barnes": 197400.2,
        "raytrace": 196367.4, "_aggregate": 937537.2,
    },
}


def _base_spec() -> ExperimentSpec:
    """Shared base for every sweep point; points overlay workload/scheme."""
    return ExperimentSpec(
        machine=MachineSpec(name="analytical", cores=CORES, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )


def _points(mode: str) -> list[dict]:
    """(workload x scheme) grid as partial-spec overlays."""
    pts = []
    for workload in sorted(WORKLOAD_PARAMS[mode]):
        params = dict(WORKLOAD_PARAMS[mode][workload])
        name = params.pop("name")
        for scheme in SCHEMES[mode]:
            pts.append(
                {"workload": {"name": name, "params": params}, "scheme": scheme}
            )
    return pts


def _throughput_built(mode: str, which: str, machine: str):
    """Build (never run) the throughput spec's live pieces via the
    registry path; the bench times the machine's run() alone."""
    params = dict(THROUGHPUT_PARAMS[mode][which])
    name = params.pop("name")
    spec = ExperimentSpec(
        workload=WorkloadSpec(name=name, params=params),
        machine=MachineSpec(name=machine, cores=CORES, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )
    return build(spec)


def _bench_machine(mode: str, repeats: int, which: str = "machine",
                   fast_path: bool = False) -> dict:
    from repro.core.em2 import EM2Machine

    built = _throughput_built(mode, which, "em2")
    trace = built.trace
    best = 0.0
    for _ in range(repeats):
        m = EM2Machine(trace, built.placement, built.config, fast_path=fast_path)
        t0 = time.perf_counter()
        m.run()
        best = max(best, trace.total_accesses / (time.perf_counter() - t0))
    return {"accesses": trace.total_accesses, "accesses_per_sec": best}


def _bench_cc(mode: str, repeats: int) -> dict:
    from repro.coherence.simulator import DirectoryCCSimulator

    built = _throughput_built(mode, "cc", "cc-msi")
    trace = built.trace
    best = 0.0
    for _ in range(repeats):
        sim = DirectoryCCSimulator(trace, built.placement, built.config)
        t0 = time.perf_counter()
        sim.run()
        best = max(best, trace.total_accesses / (time.perf_counter() - t0))
    return {"accesses": trace.total_accesses, "accesses_per_sec": best}


def golden_parity() -> bool:
    """Recompute every golden scenario and compare against the committed
    fixture — the gate that makes a throughput number trustworthy: fast
    but wrong is a fail, not a win."""
    bench_dir = Path(__file__).resolve().parent
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    import make_golden_fixtures as golden

    committed = json.loads(golden.FIXTURE_PATH.read_text())
    return golden.scenario_results() == committed


def fastpath_golden_parity() -> bool:
    """Bit-parity of the EM² epoch-batched fast path.

    Re-runs every golden scenario of the migration machines twice —
    fast path forced on and forced off — and requires both to equal the
    committed fixture. The fixtures were recorded on the pure
    event-driven path, so the fast path may only be fast, never
    different. The directory-CC scenarios have one driver, which
    :func:`golden_parity` already checks.
    """
    bench_dir = Path(__file__).resolve().parent
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    import make_golden_fixtures as golden

    from repro.runner import run
    from repro.spec import ExperimentSpec

    committed = json.loads(golden.FIXTURE_PATH.read_text())
    for key, spec_dict in golden.scenario_specs().items():
        if spec_dict["machine"]["name"].startswith("cc"):
            continue
        for fast in (True, False):
            sd = json.loads(json.dumps(spec_dict))
            sd["machine"]["fast_path"] = fast
            res = run(ExperimentSpec.from_dict(sd))
            res.pop("fast_path", None)  # diagnostics, not simulated outcome
            if res != committed[key]:
                return False
    return True


#: results() keys that exist only when a fault plane is attached — the
#: recovery ledger, stripped before comparing against the (fault-free)
#: golden fixture.
FAULT_RESULT_KEYS = (
    "retries",
    "drops_survived",
    "dup_ignored",
    "recovery_stall_cycles",
)


def fault_zero_golden_parity() -> bool:
    """Run every golden scenario with a quiet fault plane attached (an
    injector at all-zero rates) and compare against the committed
    fixture after stripping the fault-only ledger keys — the proof that
    an *idle* fault plane is observationally free on every machine, not
    just absent."""
    bench_dir = Path(__file__).resolve().parent
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    import make_golden_fixtures as golden

    from repro.runner import run
    from repro.spec import ExperimentSpec

    committed = json.loads(golden.FIXTURE_PATH.read_text())
    for key, spec_dict in golden.scenario_specs().items():
        spec_dict = dict(spec_dict)
        spec_dict["faults"] = {"name": "iid", "params": {}, "seed": 0}
        res = run(ExperimentSpec.from_dict(spec_dict))
        stripped = {
            k: v
            for k, v in res.items()
            if k not in FAULT_RESULT_KEYS
            and k != "fast_path"  # diagnostics, not simulated outcome
            and not k.startswith("faults.")
        }
        if stripped != committed[key]:
            return False
    return True


def tracegen_golden_parity() -> bool:
    """Regenerate every golden-trace scenario and compare SHA-256
    digests against the committed fixture — the bit-identity contract
    of the generator vectorization (same gate as
    ``tests/unit/test_golden_traces.py``, run here so a fast-but-drifted
    generator can never post a throughput win)."""
    bench_dir = Path(__file__).resolve().parent
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    import make_golden_traces as golden

    committed = json.loads(golden.FIXTURE_PATH.read_text())
    return golden.scenario_digests() == committed


def run_tracegen(mode: str = "full", repeats: int = 2) -> dict:
    """Trace-generation throughput per generator plus the parity gate.

    Per generator: best-of-``repeats`` accesses/second. The aggregate is
    accesses-weighted (total accesses / total best-run time), matching
    how the pre-PR baseline was measured — loop-bound generators like
    barnes/water dominate it, exactly the ones vectorization targets.
    """
    per_gen = {}
    total_acc = 0.0
    total_time = 0.0
    for name, params in TRACEGEN_PARAMS[mode].items():
        best = 0.0
        acc = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            mt = WORKLOADS.get(name)(seed=0, **params).generate()
            dt = time.perf_counter() - t0
            acc = mt.total_accesses
            best = max(best, acc / dt)
        per_gen[name] = best
        total_acc += acc
        total_time += acc / best
    aggregate = total_acc / total_time
    base = TRACEGEN_PRE_PR[mode]
    return {
        "tracegen_accesses_per_sec": aggregate,
        "tracegen_speedup_vs_pre_pr": aggregate / base["_aggregate"],
        "tracegen_per_generator": per_gen,
        "tracegen_per_generator_speedup": {
            name: per_gen[name] / base[name] for name in per_gen
        },
        "tracegen_pre_pr_baseline": base,
        "tracegen_golden_parity": tracegen_golden_parity(),
    }


def run_trace_store(mode: str, base: ExperimentSpec, points: list[dict]) -> dict:
    """Warm-trace-cache sweep: the same sweep serially, first against an
    empty on-disk trace store (cold: generate + persist), then again in
    a fresh "process" (memo cleared) so every trace loads from disk."""
    store_dir = tempfile.mkdtemp(prefix="bench_perf_traces_")
    out: dict = {}
    try:
        store = TraceStore(store_dir)
        set_trace_store(store)

        clear_build_memo()
        t0 = time.perf_counter()
        rows_cold = sweep_specs(base, points, workers=1)
        out["trace_store_cold_seconds"] = time.perf_counter() - t0
        out["trace_store_cold_stats"] = store.stats()

        store.hits = store.misses = 0
        clear_build_memo()  # simulate a fresh process: disk is the only cache
        t0 = time.perf_counter()
        rows_warm = sweep_specs(base, points, workers=1)
        out["trace_store_warm_seconds"] = time.perf_counter() - t0
        out["trace_store_warm_stats"] = store.stats()
        out["trace_store_warm_speedup"] = (
            out["trace_store_cold_seconds"] / out["trace_store_warm_seconds"]
        )
        out["trace_store_rows_identical"] = rows_warm == rows_cold
    finally:
        set_trace_store(None)
        clear_build_memo()
        shutil.rmtree(store_dir, ignore_errors=True)
    return out


def _committed_baseline() -> tuple[dict, str | None]:
    """Per-metric ``key -> (value, mode)`` from the committed baseline.

    The baseline records each metric as ``{"value", "mode",
    "cpu_count"}`` so a smoke-mode CI run is never hard-compared against
    a full-mode number (the regression noise ISSUE 7 fixes); bare
    scalars from older baselines inherit the file-level ``mode``.
    """
    try:
        data = json.loads(COMMITTED_BASELINE_PATH.read_text())
    except (OSError, ValueError):
        return {}, None
    file_mode = data.get("mode")

    def entry(e):
        if isinstance(e, dict):
            return float(e.get("value", 0.0)), e.get("mode", file_mode)
        return float(e), file_mode

    metrics = {}
    for key, raw in dict(data.get("metrics", {})).items():
        if isinstance(raw, list):
            # multi-mode floors (one entry per mode, e.g. the scaling_*
            # smoke + full pair): keep them all; consumers pick the
            # entry recorded in their own mode
            metrics[key] = [entry(e) for e in raw]
        else:
            metrics[key] = entry(raw)
    return metrics, file_mode


FARM_SEEDS = {"smoke": 4, "full": 8}


def _farm_grid(mode: str) -> tuple[ExperimentSpec, list[dict]]:
    """Generation-heavy grid for the farm benchmark.

    ``hotspot`` generation costs ~20x its analytical evaluation, so the
    grid isolates what the farm actually ships: each distinct seed is a
    distinct trace the coordinator builds once and pushes by reference,
    while the serial reference pays generation per seed from a cold
    memo. Two schemes per seed exercise trace reuse across points (the
    digest must move to a worker at most once).
    """
    base = ExperimentSpec(
        machine=MachineSpec(name="analytical", cores=8, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )
    points = [
        {
            "workload": {
                "name": "hotspot",
                "params": {
                    "num_threads": 8,
                    "accesses_per_thread": 2048,
                    "seed": seed,
                },
            },
            "scheme": scheme,
        }
        for seed in range(FARM_SEEDS[mode])
        for scheme in ("never-migrate", "history")
    ]
    return base, points


def run_farm(mode: str, num_workers: int = 2) -> dict:
    """Distributed-farm sweep over loopback ``repro worker`` processes.

    Spawns ``num_workers`` workers on ephemeral ports and runs a
    generation-heavy grid (see :func:`_farm_grid`) twice: serially from
    a cold build memo, then through the socket coordinator (traces
    pushed by reference, pull-based work stealing). The timing is gated
    on bit-identity with the serial rows. On a 1-core host the farm's
    win is the same one the parallel/warm numbers report: the
    coordinator ships each trace once instead of every evaluation
    paying generation.
    """
    import subprocess

    base, points = _farm_grid(mode)
    out: dict = {"farm_workers": 0, "farm_points": len(points)}
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    procs: list = []
    addrs: list[str] = []
    try:
        for _ in range(num_workers):
            p = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            procs.append(p)
            line = (p.stdout.readline() or "").strip()
            if line.startswith("repro worker listening on "):
                addrs.append(line.rsplit(" ", 1)[-1])
        out["farm_workers"] = len(addrs)
        if not addrs:
            out["farm_rows_identical"] = False
            return out
        clear_build_memo()  # the serial reference pays full generation
        t0 = time.perf_counter()
        rows_serial = sweep_specs(base, points, workers=1)
        out["farm_serial_seconds"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        rows_farm = sweep_specs(base, points, farm=addrs)
        out["farm_seconds"] = time.perf_counter() - t0
        out["farm_points_per_sec"] = len(points) / out["farm_seconds"]
        out["farm_speedup_vs_serial"] = (
            out["farm_serial_seconds"] / out["farm_seconds"]
        )
        out["farm_rows_identical"] = rows_farm == canonical_rows(rows_serial)
    finally:
        for p in procs:
            p.terminate()
        for p in procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
    return out


# sweeps through the chaos proxy per mode; one sweep is enough for the
# smoke gate, two additionally pin digest stability across schedules
CHAOS_SWEEPS = {"full": 2, "smoke": 1}


def run_chaos(mode: str, num_workers: int = 2) -> dict:
    """Farm sweep under the seeded host-chaos proxy (ISSUE 10).

    Embedded workers behind :class:`~repro.analysis.chaos.ChaosProxy`
    with nonzero reset/partial/stall/partition rates; the throughput
    number only counts if every sweep's rows are bit-identical to the
    clean serial reference and the schedule digest re-derives, so a
    regression here means the recovery path (reconnect, requeue,
    hedging) got slower or broke — not that chaos "won".
    """
    from repro.analysis.chaos import ChaosSpec, chaos_soak
    from repro.registry import SCHEMES as SCHEME_REGISTRY
    from repro.runner import merge_spec

    base = ExperimentSpec(
        workload=WorkloadSpec(
            name="pingpong", params={"num_threads": 4, "rounds": 16}
        ),
        machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )
    spec_dicts = [
        merge_spec(base, {"scheme": s}).to_dict()
        for s in sorted(SCHEME_REGISTRY.names())
    ]
    chaos = ChaosSpec(
        seed=11,
        reset_rate=0.10,
        partial_rate=0.10,
        stall_rate=0.15,
        partition_rate=0.05,
        trigger_span=1500,
        max_events_per_conn=6,
    )
    summary = chaos_soak(
        spec_dicts,
        chaos,
        workers=num_workers,
        sweeps=CHAOS_SWEEPS[mode],
        heartbeat=0.25,
        liveness=2.0,
    )
    sweeps = summary["sweeps"]
    applied: dict[str, int] = {}
    for s in sweeps:
        for name, n in s["applied"].items():
            applied[name] = applied.get(name, 0) + n
    return {
        "farm_chaos_points": summary["points"],
        "farm_chaos_sweeps": len(sweeps),
        "farm_chaos_rows_identical": summary["rows_identical"],
        "farm_chaos_digest_stable": summary["digest_stable"],
        "farm_chaos_schedule_digest": summary["schedule_digest"],
        "farm_chaos_points_per_sec": min(s["points_per_sec"] for s in sweeps),
        "farm_chaos_applied": applied,
        "farm_chaos_reconnects": sum(s["reconnects"] for s in sweeps),
        "farm_chaos_requeues": sum(s["requeues"] for s in sweeps),
    }


def run_throughput(mode: str = "full", repeats: int = 3) -> dict:
    """Throughput section of the report.

    The event-driven EM² metric (``machine``) runs with the fast path
    pinned off and ``cc`` times the one directory-CC driver;
    ``machine_fastpath`` runs the ``machine_fast`` regime with the epoch
    stepper on. Speedups are reported against both the frozen
    PRE_PR_BASELINE and the previous committed baseline, and the
    fastpath number is only trusted alongside its bit-parity gate.
    """
    machine = _bench_machine(mode, repeats)
    cc = _bench_cc(mode, repeats)
    machine_fast = _bench_machine(mode, repeats, which="machine_fast",
                                  fast_path=True)
    base = PRE_PR_BASELINE[mode]
    committed, committed_mode = _committed_baseline()
    report = {
        "machine_accesses": machine["accesses"],
        "machine_accesses_per_sec": machine["accesses_per_sec"],
        "machine_speedup_vs_pre_pr": machine["accesses_per_sec"] / base["machine"],
        "cc_accesses": cc["accesses"],
        "cc_accesses_per_sec": cc["accesses_per_sec"],
        "cc_speedup_vs_pre_pr": cc["accesses_per_sec"] / base["cc"],
        "machine_fastpath_accesses": machine_fast["accesses"],
        "machine_fastpath_accesses_per_sec": machine_fast["accesses_per_sec"],
        "pre_pr_baseline": base,
        "committed_baseline_mode": committed_mode,
        "golden_parity": golden_parity(),
        "fault_zero_golden_parity": fault_zero_golden_parity(),
        "machine_fastpath_golden_parity": fastpath_golden_parity(),
    }
    # trajectory since the last committed baseline, strictly
    # like-for-like: each metric against its *own* baseline entry (the
    # old loop divided fastpath rates by event-driven baselines), and
    # only when that entry was recorded in the same mode
    for rep_key in (
        "machine_speedup_vs_baseline",
        "cc_speedup_vs_baseline",
        "machine_fastpath_speedup_vs_baseline",
    ):
        metric = rep_key.replace("_speedup_vs_baseline", "_accesses_per_sec")
        found = committed.get(metric, (0.0, None))
        if isinstance(found, list):
            found = next((e for e in found if e[1] == mode), found[0])
        bval, bmode = found
        if bval > 0 and bmode in (None, mode):
            report[rep_key] = report[metric] / bval
    return report


def run_harness(mode: str = "full", workers: int = 4, cache_dir: str | None = None) -> dict:
    base = _base_spec()
    points = _points(mode)
    effective = effective_workers(workers)
    report: dict = {
        "mode": mode,
        "workers": effective,
        "workers_requested": workers,
        "workers_effective": effective,
        "points": len(points),
        "cpu_count": os.cpu_count(),
    }

    clear_build_memo()  # the serial run pays full generation cost
    t0 = time.perf_counter()
    rows_serial = sweep_specs(base, points, workers=1)
    report["serial_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows_parallel = sweep_specs(base, points, workers=workers)
    report["parallel_seconds"] = time.perf_counter() - t0
    report["parallel_speedup"] = report["serial_seconds"] / report["parallel_seconds"]
    report["parallel_rows_identical"] = rows_parallel == rows_serial

    own_tmp = cache_dir is None
    if own_tmp:
        cache_dir = tempfile.mkdtemp(prefix="bench_perf_cache_")
    store = os.path.join(cache_dir, "results.rpjl")
    try:
        with ResultCache(store) as cold:
            cold.clear()
            t0 = time.perf_counter()
            rows_cold = sweep_specs(base, points, workers=workers, cache=cold)
            report["cold_cache_seconds"] = time.perf_counter() - t0
        report["cold_cache_stats"] = cold.stats()

        with ResultCache(store) as warm:
            t0 = time.perf_counter()
            rows_warm = sweep_specs(base, points, workers=workers, cache=warm)
            report["warm_cache_seconds"] = time.perf_counter() - t0
        report["warm_cache_stats"] = warm.stats()
        total = warm.hits + warm.misses
        report["warm_skip_fraction"] = warm.hits / total if total else 0.0
        report["warm_speedup_vs_serial"] = (
            report["serial_seconds"] / report["warm_cache_seconds"]
        )
        canon = canonical_rows(rows_serial)
        report["cold_rows_identical"] = rows_cold == canon
        report["warm_rows_identical"] = rows_warm == canon
    finally:
        if own_tmp:
            shutil.rmtree(cache_dir, ignore_errors=True)

    report.update(run_trace_store(mode, base, points))
    report.update(run_farm(mode))
    report.update(run_chaos(mode))
    return report


# ---------------------------------------------------------------- pytest
def test_perf_smoke():
    """Smoke configuration: correctness of the four paths, not speed."""
    report = run_harness(mode="smoke", workers=2)
    assert report["parallel_rows_identical"]
    assert report["cold_rows_identical"]
    assert report["warm_rows_identical"]
    assert report["warm_skip_fraction"] >= 0.9
    assert report["cold_cache_stats"]["hits"] == 0
    assert report["workers_effective"] <= (os.cpu_count() or 1)
    assert report["trace_store_rows_identical"]
    assert report["trace_store_cold_stats"]["hits"] == 0
    assert report["trace_store_warm_stats"]["misses"] == 0


def test_throughput_smoke():
    """Throughput section runs and the parity gate holds (no speed
    assertion here — CI hardware varies; speed is judged by the
    regression-diff step against the committed baseline)."""
    report = run_throughput(mode="smoke", repeats=1)
    assert report["golden_parity"]
    assert report["fault_zero_golden_parity"]
    assert report["machine_fastpath_golden_parity"]
    assert report["machine_accesses_per_sec"] > 0
    assert report["cc_accesses_per_sec"] > 0
    assert report["machine_fastpath_accesses_per_sec"] > 0


def test_chaos_smoke():
    """Chaos section runs and both hard gates hold (bit-identity under
    injected faults, spec-pure schedule digest)."""
    report = run_chaos(mode="smoke")
    assert report["farm_chaos_rows_identical"]
    assert report["farm_chaos_digest_stable"]
    assert report["farm_chaos_points_per_sec"] > 0
    assert len(report["farm_chaos_schedule_digest"]) == 64


def test_tracegen_smoke():
    """Generation throughput runs and the bit-identity gate holds."""
    report = run_tracegen(mode="smoke", repeats=1)
    assert report["tracegen_golden_parity"]
    assert report["tracegen_accesses_per_sec"] > 0
    assert set(report["tracegen_per_generator"]) == set(TRACEGEN_PARAMS["smoke"])


# ---------------------------------------------------------------- script
def merge_into(out_path: Path, report: dict) -> None:
    """Read-modify-write ``BENCH_perf.json``: bench_scaling.py's
    ``scaling`` section and ``scaling_*`` metrics survive, every other
    key is this report's."""
    try:
        old = json.loads(out_path.read_text())
    except (OSError, ValueError):
        old = {}
    kept = {k: v for k, v in old.items() if k == "scaling" or k.startswith("scaling_")}
    out_path.write_text(json.dumps({**kept, **report}, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small fast configuration")
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--cache-dir", default=None,
                    help="cache dir to use (default: fresh tempdir; cleared "
                         "at start so the cold run is genuinely cold)")
    ap.add_argument("--out", default=None,
                    help="report path (default: <repo>/BENCH_perf.json)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="throughput repetitions per simulator (best-of)")
    ap.add_argument("--profile", nargs="?", type=int, const=25, default=None,
                    metavar="N",
                    help="profile the throughput section under cProfile and "
                         "print the top N functions (default 25)")
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    report = run_harness(mode=mode, workers=args.workers, cache_dir=args.cache_dir)

    if args.profile is not None:
        from repro.cli import run_profiled

        throughput = run_profiled(
            lambda: run_throughput(mode=mode, repeats=args.repeats), args.profile
        )
    else:
        throughput = run_throughput(mode=mode, repeats=args.repeats)
    report.update(throughput)
    report.update(run_tracegen(mode=mode, repeats=max(args.repeats // 2, 1)))

    out = Path(args.out) if args.out else Path(__file__).resolve().parent.parent / "BENCH_perf.json"
    merge_into(out, report)

    print(json.dumps(report, indent=2, sort_keys=True))
    ok = (
        report["parallel_rows_identical"]
        and report["cold_rows_identical"]
        and report["warm_rows_identical"]
        and report["trace_store_rows_identical"]
        and report["farm_rows_identical"]
        and report["farm_chaos_rows_identical"]
        and report["farm_chaos_digest_stable"]
        and report["warm_skip_fraction"] >= 0.9
        and report["golden_parity"]
        and report["fault_zero_golden_parity"]
        and report["machine_fastpath_golden_parity"]
        and report["tracegen_golden_parity"]
    )
    print(
        f"\nserial {report['serial_seconds']:.2f}s | "
        f"parallel({report['workers_effective']} of {args.workers} requested) "
        f"{report['parallel_seconds']:.2f}s "
        f"({report['parallel_speedup']:.2f}x) | "
        f"warm cache {report['warm_cache_seconds']:.2f}s "
        f"(skips {report['warm_skip_fraction']:.0%} of evaluations) | "
        f"rows identical: {ok}"
    )
    print(
        f"machine {report['machine_accesses_per_sec']:.0f} acc/s "
        f"({report['machine_speedup_vs_pre_pr']:.2f}x pre-PR) | "
        f"cc {report['cc_accesses_per_sec']:.0f} acc/s "
        f"({report['cc_speedup_vs_pre_pr']:.2f}x pre-PR) | "
        f"golden parity: {report['golden_parity']} | "
        f"fault-zero parity: {report['fault_zero_golden_parity']}"
    )
    print(
        f"fastpath machine {report['machine_fastpath_accesses_per_sec']:.0f} acc/s "
        f"({report.get('machine_fastpath_speedup_vs_baseline', float('nan')):.2f}x "
        f"committed baseline) | "
        f"fastpath parity: {report['machine_fastpath_golden_parity']}"
    )
    print(
        f"farm({report['farm_workers']} workers) "
        f"{report.get('farm_seconds', float('nan')):.2f}s "
        f"({report.get('farm_speedup_vs_serial', float('nan')):.2f}x vs serial, "
        f"{report.get('farm_points_per_sec', float('nan')):.1f} points/s) | "
        f"farm rows identical: {report['farm_rows_identical']}"
    )
    print(
        f"chaos({report['farm_chaos_sweeps']} sweep(s)) "
        f"{report['farm_chaos_points_per_sec']:.1f} points/s | "
        f"applied {report['farm_chaos_applied']} | "
        f"reconnects {report['farm_chaos_reconnects']} | "
        f"rows identical: {report['farm_chaos_rows_identical']} | "
        f"digest stable: {report['farm_chaos_digest_stable']}"
    )
    print(
        f"tracegen {report['tracegen_accesses_per_sec']:.0f} acc/s "
        f"({report['tracegen_speedup_vs_pre_pr']:.2f}x pre-PR) | "
        f"trace store warm {report['trace_store_warm_seconds']:.2f}s "
        f"({report['trace_store_warm_speedup']:.2f}x vs cold) | "
        f"trace parity: {report['tracegen_golden_parity']}"
    )
    if not ok:
        print(
            "FAIL: row mismatch, warm cache skipped < 90%, or a golden "
            "parity gate (results or traces) broken",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
