#!/usr/bin/env python3
"""End-to-end benchmark of the paper's own artifacts.

Run from the root of a checkout::

    python3 perfbench/run.py --workload des-splash64 --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``des-splash64`` (the EM² / EM²-RA /
directory-CC shootout on the SPLASH stand-ins at 64 cores),
``analytical-splash64`` (Figure 2 on OCEAN, every scheme through the
analytical machine, the DP optimum) and ``sweep-farm`` (extending a
stored sweep over a loopback ``repro worker``).

A run times the set-up several times, then runs timed passes until
``--seconds`` have gone by, and checks every pass's outputs. A pass is
a list of units timed one by one, with a fixed probe of the host's
speed (``calibrate.py``) run in the gaps between them; pass timings
report the median pass at the probe's reference speed: its CPU seconds
scaled by the probe's reference time over its time in that pass, plus
the seconds it waited (see ``README.md``). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (tracing off); with ``--trace 1`` they are the
per-layer ones, from traced passes interleaved with untraced ones.
A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import workloads as wl_mod

ROOT = wl_mod.ROOT
REFERENCE = Path(__file__).resolve().parent / "reference.json"
IMPORT_REPS = 3
MIN_PASSES = 3
#: probes per pass, spread over the gaps around its units
PROBES_PER_PASS = 12

END_TO_END = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "norm_accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

_TIME_LAYERS = {
    "trace.generate_s": ["trace.generate"],
    "trace.store_get_s": ["trace.store_get"],
    "trace.store_put_s": ["trace.store_put"],
    "trace.runlength_s": ["trace.runlength"],
    "placement.build_s": ["placement.build"],
    "runner.build_s": ["runner.build", "runner.build_workload"],
    "runner.dispatch_s": ["runner.run_spec_dict"],
    "em2.construct_s": ["em2.construct"],
    "em2ra.construct_s": ["em2ra.construct"],
    "cc-msi.construct_s": ["cc-msi.construct"],
    "em2.run_s": ["em2.run"],
    "em2ra.run_s": ["em2ra.run"],
    "cc-msi.run_s": ["cc-msi.run"],
    "analytical.eval_s": ["analytical.eval"],
    "dp.optimal_s": ["dp.optimal"],
    "sweep.overhead_s": ["sweep.specs"],
    "cache.get_s": ["cache.get"],
    "cache.put_s": ["cache.put"],
    "journal.open_s": ["journal.open"],
    "journal.append_s": ["journal.append"],
    "journal.flush_s": ["journal.flush"],
    "farm.sweep_s": ["farm.sweep"],
    "reports.format_s": ["reports.format"],
}
_COUNT_LAYERS = (
    "trace.generated_accesses",
    "trace.store_hits",
    "trace.store_misses",
    "placement.builds",
    "cache.hits",
    "cache.misses",
    "journal.appends",
    "farm.chunks",
    "farm.trace_pushes",
    "farm.requeues",
    "farm.reconnects",
    "farm.hedges",
)
_SIM = {
    "em2": {"sim_cycles": "cycles", "migrations": "count", "evictions": "count",
            "dram_fills": "count", "flit_hops": "count"},
    "em2ra": {"sim_cycles": "cycles", "migrations": "count",
              "remote_accesses": "count", "flit_hops": "count"},
    "cc-msi": {"sim_cycles": "cycles", "misses": "count",
               "invalidations": "count", "traffic_bits": "bits"},
}


def _per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in _TIME_LAYERS}
    units.update({name: "count" for name in _COUNT_LAYERS})
    units["trace.store_hit_rate"] = "fraction"
    for m in wl_mod.DES_MACHINES:
        units[f"{m}.ns_per_access"] = "ns"
        units[f"{m}.batched_frac"] = "fraction"
        units[f"{m}.mean_window"] = "accesses"
    for m in ("em2", "em2ra"):
        units[f"{m}.engaged_frac"] = "fraction"
        for b in ("nonlocal", "dram", "finish_wait"):
            units[f"{m}.boundaries.{b}"] = "count"
    for m, stats in _SIM.items():
        units.update({f"{m}.{k}": u for k, u in stats.items()})
    units["fig2.frac_run1"] = "fraction"
    units["shootout.x_optimal_min"] = "ratio"
    units["analytical.ns_per_access"] = "ns"
    units["dp.ns_per_access_core"] = "ns"
    units["layers.covered_frac"] = "fraction"
    units["trace_overhead_frac"] = "fraction"
    units["pass.wall_s"] = "s"
    units["pass.accesses_per_s"] = "1/s"
    units["host.probe_s"] = "s"
    units["pass.cpu_frac"] = "fraction"
    units["setup.host_s"] = "s"
    units["setup.import_s"] = "s"
    units["setup.generate_s"] = "s"
    units["setup.store_put_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def _layer_metrics(tracer, root: int, wall: float, summary: dict) -> dict:
    """Per-layer values of one traced pass."""
    self_t = tracer.self_times(root)
    counts = tracer.counts
    out = {
        name: sum(self_t.get(s, 0.0) for s in spans)
        for name, spans in _TIME_LAYERS.items()
    }
    out.update({name: counts.get(name, 0) for name in _COUNT_LAYERS})
    looked_up = out["trace.store_hits"] + out["trace.store_misses"]
    out["trace.store_hit_rate"] = out["trace.store_hits"] / looked_up if looked_up else 0.0

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    for m in wl_mod.DES_MACHINES:
        out[f"{m}.ns_per_access"] = per(out[f"{m}.run_s"] * 1e9, counts.get(f"{m}.accesses", 0))
    out["analytical.ns_per_access"] = per(
        out["analytical.eval_s"] * 1e9, counts.get("analytical.accesses", 0)
    )
    out["dp.ns_per_access_core"] = per(
        out["dp.optimal_s"] * 1e9, counts.get("dp.access_cores", 0)
    )
    out["layers.covered_frac"] = sum(self_t.values()) / wall
    out.update(summary["sim"])
    out.update(summary["diag"])
    return out


def _child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work / "tmp")
    return env


def _import_seconds(env: dict) -> float:
    """``import repro`` timed in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _at_reference(passes) -> list[float]:
    """Each pass's seconds at the probe's reference speed. CPU seconds
    move with the host's speed, waiting does not: the run is pinned to
    one CPU, so a pass waited for its host seconds minus CPU seconds."""
    return [
        calibrate.at_reference(min(c, w), ps) + max(w - c, 0.0)
        for w, c, ps, _ in passes
    ]


def run(args, work: Path) -> dict:
    from tracer import Tracer, install

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    env = _child_env(work)
    reference = {}
    if args.seed == 0 and args.scale == "full" and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})

    workload = wl_mod.WORKLOADS[args.workload](args.seed, args.scale, work)
    try:
        imports = [calibrate.timed(lambda: _import_seconds(env)) for _ in range(IMPORT_REPS)]
        # the child's own clock for the import, scaled by the parent's probes
        import_s = statistics.median(i for i, _, _ in imports)
        import_ref_s = statistics.median(ref * i / secs for i, secs, ref in imports)
        setup_times, setup_refs, setup_layers = [], [], []
        for rep in range(workload.setup_reps):
            if tracer is not None:
                tracer.reset()
                tracer.active = True
                root = tracer.open("setup")
            _, secs, ref = calibrate.timed(functools.partial(workload.setup, rep))
            setup_times.append(secs)
            setup_refs.append(ref)
            if tracer is not None:
                tracer.close(root)
                tracer.active = False
                self_t = tracer.self_times(root)
                setup_layers.append(
                    (self_t.get("trace.generate", 0.0), self_t.get("trace.store_put", 0.0))
                )

        digests: dict[str, str] = {}
        failures: list[str] = []
        attempted = failed = 0
        # untraced passes: (host seconds, CPU seconds of the run and its
        # subprocesses, probe seconds, accesses of the passing points)
        passes: list[tuple[float, float, list[float], int]] = []
        traced, traced_walls, layer_rows = [], [], []
        summary = None
        deadline = time.perf_counter() + args.seconds
        n = 0
        min_passes = 4 if tracer is not None else MIN_PASSES
        while n < min_passes or time.perf_counter() < deadline:
            is_traced = tracer is not None and n % 2 == 1
            workload.prepare_pass()
            gc.collect()
            if is_traced:
                tracer.reset()
                tracer.active = True
                root = tracer.open("pass")
            units = workload.pass_units()
            per_gap = -(-PROBES_PER_PASS // (len(units) + 1))
            points, probes, wall, cpu = [], [], 0.0, 0.0
            for fn in units:
                probes += [calibrate.probe() for _ in range(per_gap)]
                c0 = time.process_time() + workload.child_cpu_s()
                t0 = time.perf_counter()
                points += fn()
                wall += time.perf_counter() - t0
                cpu += time.process_time() + workload.child_cpu_s() - c0
            probes += [calibrate.probe() for _ in range(per_gap)]
            if is_traced:
                tracer.close(root)
                tracer.active = False
            summary = workload.check(points)
            for p in points:
                attempted += 1
                if p.error is None:
                    d = wl_mod.digest(p.metrics)
                    if digests.setdefault(p.label, d) != d:
                        p.error = "simulated statistics differ between passes"
                    elif reference and reference.get(p.label) != d:
                        p.error = "simulated statistics differ from the recorded reference"
                if p.error is not None:
                    failed += 1
                    failures.append(f"{p.label}: {p.error}")
            ok = sum(p.accesses for p in points if p.error is None)
            if is_traced:
                traced.append((wall, cpu, probes, ok))
                traced_walls.append(wall)
                layer_rows.append(_layer_metrics(tracer, root, wall, summary))
            else:
                passes.append((wall, cpu, probes, ok))
            n += 1
    finally:
        workload.close()

    walls = [w for w, _, _, _ in passes]
    if args.trace:
        best_row = layer_rows[traced_walls.index(min(traced_walls))]
        metrics = {name: best_row.get(name, 0) for name in PER_LAYER}
        metrics["trace_overhead_frac"] = (
            statistics.median(_at_reference(traced)) / statistics.median(_at_reference(passes))
            - 1.0
        )
        metrics["pass.wall_s"] = statistics.median(walls)
        metrics["pass.accesses_per_s"] = statistics.median(a / w for w, _, _, a in passes)
        metrics["pass.cpu_frac"] = statistics.median(c / w for w, c, _, _ in passes)
        metrics["host.probe_s"] = statistics.median(p for _, _, ps, _ in passes for p in ps)
        metrics["setup.host_s"] = import_s + statistics.median(setup_times)
        metrics["setup.import_s"] = import_s
        metrics["setup.generate_s"] = statistics.median(g for g, _ in setup_layers)
        metrics["setup.store_put_s"] = statistics.median(p for _, p in setup_layers)
        units = PER_LAYER
    else:
        norm = _at_reference(passes)
        metrics = {
            "setup_s": import_ref_s + statistics.median(setup_refs),
            "norm_wall_s": statistics.median(norm),
            "norm_accesses_per_s": statistics.median(
                a / s for s, (_, _, _, a) in zip(norm, passes)
            ),
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "_failures": failures,
        "_digests": digests,
        "_sim": summary["sim"] if summary else {},
        "_pids": list(getattr(workload, "spawned_pids", [])),
        "_passes": n,
        "_passes_s": passes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(wl_mod.SCALES), default="full",
                    help="input sizes (tiny is for the self-test)")
    ap.add_argument("--dump", help="also write the point digests, simulated "
                    "statistics and spawned process ids to this JSON file")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's point digests as the reference "
                    "for the default seed (seed 0, full scale only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != 0 or args.scale != "full"):
        ap.error("--record-reference needs --seed 0 and --scale full")
    # One CPU for the run and the processes it starts: host noise differs
    # between CPUs, and the probe must share the CPU with the work it scales.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.record_reference:
        if not result["correct"]:
            print("perfbench: not recording a reference from a failed run", file=sys.stderr)
            return 1
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        ref[args.workload] = result["_digests"]
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    if args.dump:
        Path(args.dump).write_text(json.dumps(
            {"digests": result["_digests"], "sim": result["_sim"],
             "pids": result["_pids"], "metrics": result["metrics"]},
            indent=1, sort_keys=True,
        ))
    print(f"{args.workload} seed={args.seed} passes={result['_passes']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.4f}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print("  untraced passes (host s / CPU s / mean probe s): " + " ".join(
        f"{w:.3f}/{c:.3f}/{statistics.mean(ps):.4f}" for w, c, ps, _ in result["_passes_s"]),
        file=sys.stderr)
    for line in result["_failures"][:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
