"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``info`` — version, available workloads and schemes.
* ``list`` — every registered machine, scheme, placement, workload,
  and topology with one-line descriptions.
* ``workload`` — generate a synthetic workload and save it as ``.npz``.
* ``fig2`` — print the Figure 2 run-length table for an ocean run.
* ``evaluate`` — score a decision scheme on a workload (or saved trace).
* ``optimal`` — run the §3 optimal DP on one thread and summarize.
* ``shootout`` — analytical EM² / RA-only / history / optimal comparison.
* ``trace`` — manage the on-disk trace store (``build``/``ls``/``gc``).
* ``faults`` — fault-injection sweep (machines × drop rates) with a
  zero-fault golden-parity check; ``--smoke`` is the CI gate.
* ``chaos-soak`` — run the sweep farm under seeded *host*-level chaos
  (resets, partial frames, stalls, partitions) and gate on row streams
  staying bit-identical to a clean serial run; ``--smoke`` is the CI
  gate.

Every command resolves component names through the registries
(:mod:`repro.registry`) and constructs experiments through
:class:`~repro.spec.ExperimentSpec` + :mod:`repro.runner` — the same
path the benches and golden fixtures use. Unknown names raise
:class:`~repro.util.errors.ConfigError` listing the registered
options; exit status is nonzero on invalid arguments so the CLI is
scriptable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from repro import __version__
from repro.analysis.cache import ResultCache
from repro.analysis.reports import format_table, runlength_table
from repro.analysis.sweep import sweep_specs
from repro.core.decision.optimal import optimal_cost, optimal_decisions
from repro.core.evaluation import home_run_tables
from repro.registry import (
    ALL_REGISTRIES,
    MACHINES,
    PLACEMENTS,
    SCHEMES,
    WORKLOADS,
)
from repro.runner import build, build_scheme, build_workload
from repro.spec import (
    ExperimentSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.trace.io import save_multitrace
from repro.trace.runlength import (
    fraction_single_access_runs,
    merge_histograms,
    runs_histogram,
)
from repro.util.errors import ConfigError, ReproError


def _parse_params(pairs: list[str]) -> dict:
    """key=value pairs; values parsed as int, then float, else str."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        for cast in (int, float):
            try:
                out[key] = cast(raw)
                break
            except ValueError:
                continue
        else:
            out[key] = raw
    return out


def _workload_spec(args) -> WorkloadSpec:
    """The workload the command line describes: a saved trace by path,
    or a registered generator by name (validated eagerly so typos fail
    with the registry's sorted-options message, not mid-sweep)."""
    if getattr(args, "trace", None):
        return WorkloadSpec(name="trace-file", trace_path=args.trace)
    WORKLOADS.entry(args.workload)  # raises ConfigError listing options
    params = _parse_params(getattr(args, "param", []) or [])
    params.setdefault("num_threads", args.threads)
    return WorkloadSpec(name=args.workload, params=params)


def _base_spec(args, machine: str = "analytical") -> ExperimentSpec:
    """The ExperimentSpec shared by every point of a command's sweep."""
    PLACEMENTS.entry(args.placement)
    topology = getattr(args, "topology", None) or "auto"
    return ExperimentSpec(
        workload=_workload_spec(args),
        machine=MachineSpec(
            name=machine,
            cores=args.cores,
            preset=getattr(args, "preset", "default"),
        ),
        placement=PlacementSpec(name=args.placement),
        topology=TopologySpec(name=topology),
    )


def _scheme_names(args) -> list[str]:
    if args.scheme == "all":
        return SCHEMES.names()
    SCHEMES.entry(args.scheme)  # raises ConfigError listing options
    return [args.scheme]


def _cache_for(args) -> ResultCache | None:
    """The result store implied by --cache-dir/--no-cache: the log
    ``DIR/results.rpjl``, or None when caching is off (no directory
    configured, or --no-cache given — which bypasses reads and writes).
    """
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get("REPRO_CACHE_DIR")
    if cache_dir is None or getattr(args, "no_cache", False):
        return None
    return ResultCache(Path(cache_dir) / "results.rpjl")


def _close_cache(cache: ResultCache | None) -> None:
    """Close the result store and report its hit/miss counts on stderr."""
    if cache is not None:
        cache.close()
        print(f"cache: {cache.stats()}", file=sys.stderr)


# ---------------------------------------------------------------- commands
def cmd_info(args) -> int:
    print(f"repro {__version__} — EM2 (SPAA'11) reproduction")
    print(f"workloads: {', '.join(WORKLOADS.names())}")
    print(f"schemes:   {', '.join(SCHEMES.names())}")
    print(f"placements: {', '.join(PLACEMENTS.names())}")
    print(f"machines:  {', '.join(MACHINES.names())}")
    return 0


def cmd_list(args) -> int:
    """Enumerate every registry, then the CLI commands themselves."""
    for family, registry in ALL_REGISTRIES.items():
        print(f"{family}:")
        width = max((len(e.name) for e in registry.items()), default=0)
        for entry in registry.items():
            print(f"  {entry.name:<{width}}  {entry.description}")
    sub = next(
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    print("commands:")
    width = max(len(ca.dest) for ca in sub._choices_actions)
    for ca in sub._choices_actions:
        print(f"  {ca.dest:<{width}}  {ca.help}")
    print(
        "farm: run `repro worker --listen HOST:PORT` on each host, then "
        "pass --farm HOST:PORT,... to evaluate/shootout/faults"
    )
    return 0


def cmd_worker(args) -> int:
    from repro.analysis.worker import main as worker_main

    return worker_main(args)


def cmd_workload(args) -> int:
    trace = build_workload(_workload_spec(args))
    path = save_multitrace(trace, args.out)
    s = trace.summary()
    print(format_table([s]))
    print(f"saved to {path}")
    return 0


def cmd_fig2(args) -> int:
    spec = ExperimentSpec(
        workload=WorkloadSpec(
            name="ocean",
            params=dict(
                num_threads=args.threads, grid_n=args.grid, iterations=args.iterations
            ),
        ),
        machine=MachineSpec(cores=args.cores),
        placement=PlacementSpec(name="first-touch"),
    )
    built = build(spec)
    trace = built.trace
    hists = [
        runs_histogram(runs.homes, runs.lengths, trace.thread_native_core[t])
        for t, runs in enumerate(home_run_tables(trace, built.placement))
    ]
    hist = merge_histograms(hists)
    print(runlength_table(hist, max_rows=args.rows))
    print(f"\nfraction at run length 1: {fraction_single_access_runs(hist):.3f}")
    return 0


def _farm_of(args) -> dict | None:
    """The ``--farm`` flag (plus its companions) as a farm config dict
    for :func:`repro.analysis.farm.normalize_farm` (None when absent).

    ``--auth-token`` falls back to ``$REPRO_FARM_TOKEN`` so the secret
    can stay out of shell history; ``--heartbeat``/``--worker-timeout``
    only appear in the config when given, so the farm's own validated
    defaults apply otherwise."""
    raw = getattr(args, "farm", None)
    if not raw:
        return None
    cfg: dict = {"addrs": [a.strip() for a in raw.split(",") if a.strip()]}
    token = getattr(args, "auth_token", None) or os.environ.get("REPRO_FARM_TOKEN")
    if token:
        cfg["auth_token"] = token
    if getattr(args, "heartbeat", None) is not None:
        cfg["heartbeat"] = args.heartbeat
    if getattr(args, "worker_timeout", None) is not None:
        cfg["liveness"] = args.worker_timeout
    return cfg


def cmd_evaluate(args) -> int:
    MACHINES.entry(args.machine)  # raises ConfigError listing options
    base = _base_spec(args, machine=args.machine)
    names = _scheme_names(args)
    cache = _cache_for(args)
    rows = sweep_specs(
        base,
        [{"scheme": name} for name in names],
        workers=args.workers,
        cache=cache,
        farm=_farm_of(args),
        resume=getattr(args, "resume", None),
    )
    _close_cache(cache)
    if getattr(args, "csv", False):
        from repro.analysis.reports import to_csv

        print(to_csv(rows), end="")
    else:
        print(format_table(rows))
    return 0


def cmd_optimal(args) -> int:
    built = build(_base_spec(args))
    trace, placement, cost = built.trace, built.placement, built.cost
    tr = trace.threads[args.thread]
    homes = placement.home_of(tr["addr"])
    start = trace.thread_native_core[args.thread] % args.cores
    res = optimal_decisions(homes, tr["write"], start, cost)
    print(
        format_table(
            [
                {
                    "thread": args.thread,
                    "accesses": tr.size,
                    "optimal_cost": res.total_cost,
                    "migrations": res.num_migrations,
                    "remote_accesses": res.num_remote_accesses,
                    "local": res.num_local,
                    "end_core": res.end_core,
                }
            ]
        )
    )
    return 0


def cmd_shootout(args) -> int:
    base = _base_spec(args)
    built = build(base)
    trace = built.trace
    # the evaluator's home runs, which the serial scheme sweep reuses
    tables = home_run_tables(trace, built.placement)
    opt = sum(
        optimal_cost(
            np.repeat(runs.homes, runs.lengths),
            tr["write"],
            trace.thread_native_core[t] % args.cores,
            built.cost,
        )
        for t, (tr, runs) in enumerate(zip(trace.threads, tables))
        if tr.size
    )
    cache = _cache_for(args)
    scheme_rows = sweep_specs(
        base,
        [{"scheme": name} for name in SCHEMES.names()],
        workers=args.workers,
        cache=cache,
        farm=_farm_of(args),
        resume=getattr(args, "resume", None),
    )
    _close_cache(cache)
    rows = [{"scheme": "optimal (DP)", "total_cost": opt, "x_optimal": 1.0}]
    for r in scheme_rows:
        rows.append(
            {
                "scheme": r["scheme"],
                "total_cost": r["total_cost"],
                "x_optimal": r["total_cost"] / opt if opt else float("nan"),
            }
        )
    print(format_table(rows))
    return 0


def cmd_stackdepth(args) -> int:
    from repro.core.decision.stack_optimal import fixed_depth_cost, optimal_stack_depths
    from repro.core.costs import CostModel
    from repro.arch.config import SystemConfig
    from repro.placement import first_touch
    from repro.stackmachine import stack_workload

    mt = stack_workload(args.kernel, num_threads=args.threads, n=args.n,
                        shared_fraction=0.75)
    config = SystemConfig(num_cores=args.cores)
    cost = CostModel(config)
    placement = first_touch(mt, args.cores)
    rows = []
    opt_cost = opt_bits = 0.0
    for t, tr in enumerate(mt.threads):
        homes = placement.home_of(tr["addr"])
        r = optimal_stack_depths(
            homes, tr["spop"], tr["spush"], t, cost, args.max_depth
        )
        opt_cost += r.total_cost
        opt_bits += r.migrated_bits
    rows.append({"depth": "optimal", "cost": opt_cost, "migrated_kbit": opt_bits / 1000})
    for depth in range(args.max_depth + 1):
        c = b = 0.0
        for t, tr in enumerate(mt.threads):
            homes = placement.home_of(tr["addr"])
            r = fixed_depth_cost(
                homes, tr["spop"], tr["spush"], t, cost, depth, args.max_depth
            )
            c += r.total_cost
            b += r.migrated_bits
        rows.append({"depth": depth, "cost": c, "migrated_kbit": b / 1000})
    print(format_table(rows))
    return 0


def _trace_store(args) -> "TraceStore":
    from repro.trace.store import TraceStore, _ENV_DIR

    root = args.dir or os.environ.get(_ENV_DIR)
    if root is None:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro", "traces")
    return TraceStore(root)


def cmd_trace(args) -> int:
    """Manage the content-addressed trace store (see repro.trace.store)."""
    store = _trace_store(args)
    if args.trace_cmd == "build":
        wspec = _workload_spec(args)
        if wspec.trace_path is not None:
            raise ReproError("`trace build` generates workloads; --trace is not valid here")
        key = wspec.cache_key()
        cached = store.get(key)
        if cached is not None:
            print(f"already cached: {store.path_for(key)}")
            return 0
        from repro.registry import WORKLOADS as _W

        mt = _W.get(wspec.name)(**wspec.params).generate()
        path = store.put(key, mt)
        print(format_table([mt.summary()]))
        print(f"stored to {path}")
        return 0
    if args.trace_cmd == "ls":
        entries = store.entries()
        if not entries:
            print(f"trace store {store.root} is empty")
            return 0
        rows = [
            {
                "name": e.get("name", "?"),
                "threads": e.get("threads", "?"),
                "accesses": e.get("accesses", "?"),
                "mbytes": round(e["bytes"] / 1e6, 2),
                "key": e["key"][:12],
            }
            for e in entries
        ]
        print(format_table(rows))
        print(f"{len(entries)} entries, {store.total_bytes() / 1e6:.1f} MB in {store.root}")
        return 0
    if args.trace_cmd == "gc":
        evicted = store.gc(int(args.max_mbytes * 1e6))
        print(
            f"evicted {len(evicted)} entries; "
            f"{store.total_bytes() / 1e6:.1f} MB remain in {store.root}"
        )
        return 0
    raise ReproError(f"unknown trace sub-command {args.trace_cmd!r}")


def cmd_dynamic(args) -> int:
    from repro.placement.dynamic import evaluate_dynamic_placement

    built = build(_base_spec(args))
    trace, cost = built.trace, built.cost
    res = evaluate_dynamic_placement(
        trace, args.cores, build_scheme(SchemeSpec(name="never-migrate"), cost), cost,
        num_epochs=args.epochs, oracle=args.oracle,
    )
    print(
        format_table(
            [
                {
                    "mode": "oracle" if args.oracle else "reactive",
                    "epochs": args.epochs,
                    "dynamic_cost": res.total_cost,
                    "static_cost": res.static_cost,
                    "gain": res.improvement_over_static,
                    "rehomed_kbit": res.rehoming_bits / 1000,
                }
            ]
        )
    )
    return 0


def cmd_faults(args) -> int:
    """Fault-injection sweep: detailed machines × message drop rates.

    Every point runs the same workload under a seeded fault plane, so
    the table shows how completion time and the recovery ledger
    (retries, drops survived, stall cycles) scale with the drop rate.
    Zero-rate points are additionally compared field for field against
    a ``faults=None`` run of the same spec — the golden-parity gate
    proving the fault plane is free when disabled. ``--smoke`` pins a
    tiny deterministic configuration for CI and exits nonzero if the
    parity gate fails.
    """
    from repro.analysis.cache import canonical_rows
    from repro.runner import merge_spec, run

    if args.smoke:
        # tiny deterministic CI configuration; overrides the trace args
        args.workload, args.trace = "pingpong", None
        args.threads = args.cores = 4
        args.param = ["rounds=16"]
        args.machines = "em2,em2ra,cc-msi"
        args.rates = "0,0.1"
        args.preset = "small-test"
    machines = [m.strip() for m in args.machines.split(",") if m.strip()]
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    if not machines or not rates:
        raise ConfigError("faults sweep needs at least one machine and one rate")
    for name in machines:
        MACHINES.entry(name)  # raises ConfigError listing options
    SCHEMES.entry(args.scheme)
    base = _base_spec(args, machine=machines[0]).replace(
        machine=MachineSpec(
            name=machines[0], cores=args.cores, preset=args.preset
        ),
        scheme=SchemeSpec(name=args.scheme),
    )
    # --rates sweeps the model's drop knob: per-message for iid,
    # bad-state for the bursty Gilbert-Elliott channel
    rate_key = {"bursty": "drop_rate_bad"}.get(args.model, "drop_rate")
    points = [
        {
            "machine": {"name": name},
            "faults": {
                "name": args.model,
                "seed": args.fault_seed,
                "params": {
                    rate_key: rate,
                    "dup_rate": args.dup_rate,
                    "delay_rate": args.delay_rate,
                },
            },
        }
        for name in machines
        for rate in rates
    ]
    cache = _cache_for(args)
    rows = sweep_specs(
        base,
        points,
        workers=args.workers,
        cache=cache,
        point_timeout=args.point_timeout,
        farm=_farm_of(args),
        resume=getattr(args, "resume", None),
    )

    display = []
    parity_failures = []
    parity_checked = 0
    for point, row in zip(points, rows):
        name = point["machine"]["name"]
        rate = point["faults"]["params"][rate_key]
        disp = {
            "machine": name,
            "drop_rate": rate,
            "completion_time": row.get("completion_time"),
            "retries": row.get("retries", 0),
            "drops_survived": row.get("drops_survived", 0),
            "dup_ignored": row.get("dup_ignored", 0),
            "recovery_stall": row.get("recovery_stall_cycles", 0.0),
            "faults_injected": row.get("faults.total", 0),
        }
        if rate == 0.0 and args.dup_rate == 0.0 and args.delay_rate == 0.0:
            # the parity gate: a fully quiet fault plane must reproduce
            # the fault-free run bit for bit on every shared metric
            # (skipped when --dup-rate/--delay-rate keep faults active)
            clean = canonical_rows(
                [run(merge_spec(base, {"machine": {"name": name}}))]
            )[0]
            faulted = canonical_rows([row])[0]
            mismatched = [
                k for k, v in clean.items()
                # fast_path is engagement diagnostics: the clean run
                # batches, the faulted run (by design) cannot
                if k != "fast_path" and faulted.get(k, object()) != v
            ]
            parity_checked += 1
            if mismatched:
                parity_failures.append((name, mismatched))
            disp["zero_fault_parity"] = "FAIL" if mismatched else "ok"
        display.append(disp)
    columns = list(display[0].keys())
    if parity_checked and "zero_fault_parity" not in columns:
        columns.append("zero_fault_parity")
    print(format_table(display, columns=columns))
    _close_cache(cache)
    if parity_failures:
        for name, keys in parity_failures:
            print(
                f"zero-fault parity FAIL: {name}: "
                f"{', '.join(keys[:8])}{'…' if len(keys) > 8 else ''}",
                file=sys.stderr,
            )
        return 1
    if parity_checked:
        print(f"zero-fault parity: ok ({parity_checked} machine(s))")
    return 0


def cmd_chaos_soak(args) -> int:
    """Soak the sweep farm under seeded host chaos and gate bit-identity.

    Spins up N embedded workers behind the deterministic chaos proxy
    (:mod:`repro.analysis.chaos`), runs the scheme sweep K times under
    injected resets/partial frames/stalls/partitions, and compares each
    run's rows byte-for-byte against a clean serial reference. Exits
    nonzero unless every sweep's rows were identical *and* every sweep
    re-derived the same injected-event schedule digest. ``--smoke``
    pins a tiny deterministic configuration for CI.
    """
    from repro.analysis.chaos import ChaosSpec, chaos_soak
    from repro.runner import merge_spec

    if args.smoke:
        # tiny deterministic CI configuration; overrides the trace args
        args.workload, args.trace = "pingpong", None
        args.threads = args.cores = 4
        args.param = ["rounds=16"]
        args.num_workers = 2
        args.sweeps = 2
        args.reset_rate = 0.10
        args.partial_rate = 0.10
        args.stall_rate = 0.15
        args.partition_rate = 0.05
        # the smoke sweep's control traffic is small, so plant the
        # event triggers shallow enough to actually fire
        args.trigger_span = 1500
        args.max_events = 6
    base = _base_spec(args)
    points = [{"scheme": name} for name in SCHEMES.names()]
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]
    chaos = ChaosSpec(
        seed=args.chaos_seed,
        reset_rate=args.reset_rate,
        partial_rate=args.partial_rate,
        stall_rate=args.stall_rate,
        partition_rate=args.partition_rate,
        trigger_span=args.trigger_span,
        max_events_per_conn=args.max_events,
    )
    summary = chaos_soak(
        spec_dicts,
        chaos,
        workers=args.num_workers,
        sweeps=args.sweeps,
        heartbeat=args.heartbeat if args.heartbeat is not None else 0.25,
        liveness=args.worker_timeout if args.worker_timeout is not None else 2.0,
        auth_token=args.auth_token or os.environ.get("REPRO_FARM_TOKEN") or None,
        verbose=args.verbose,
    )
    display = [
        {
            "sweep": s["sweep"],
            "identical": "ok" if s["rows_identical"] else "FAIL",
            "points_per_sec": round(s["points_per_sec"], 2),
            "resets": s["applied"]["reset"],
            "partials": s["applied"]["partial"],
            "stalls": s["applied"]["stall"],
            "partitions": s["applied"]["partition"],
            "requeues": s["requeues"],
            "reconnects": s["reconnects"],
        }
        for s in summary["sweeps"]
    ]
    print(format_table(display))
    print(f"schedule digest: {summary['schedule_digest']}")
    ok = summary["rows_identical"] and summary["digest_stable"]
    if ok:
        print(
            f"chaos-soak: {len(summary['sweeps'])} sweep(s) x "
            f"{summary['points']} points bit-identical to the clean "
            "serial reference"
        )
        return 0
    if not summary["rows_identical"]:
        print("chaos-soak FAIL: rows diverged from the clean reference",
              file=sys.stderr)
    if not summary["digest_stable"]:
        print("chaos-soak FAIL: schedule digest varied across sweeps",
              file=sys.stderr)
    return 1


# ---------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="EM2 (SPAA'11) reproduction toolkit"
    )
    p.add_argument(
        "--profile",
        nargs="?",
        type=int,
        const=25,
        default=None,
        metavar="N",
        help="run the command under cProfile and print the top N "
        "functions by cumulative time (default 25)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version + available components").set_defaults(
        fn=cmd_info
    )

    sub.add_parser(
        "list", help="registered machines/schemes/placements/workloads"
    ).set_defaults(fn=cmd_list)

    # Component names deliberately have no argparse `choices`: the
    # registries validate them and their ConfigError lists the options.
    def add_trace_args(sp, with_out=False):
        sp.add_argument("--workload", default="ocean",
                        help="registered workload name (see `repro list`)")
        sp.add_argument("--trace", help="load a saved .npz trace instead")
        sp.add_argument("--threads", type=int, default=16)
        sp.add_argument("--cores", type=int, default=16)
        sp.add_argument("--placement", default="first-touch",
                        help="registered placement name (see `repro list`)")
        sp.add_argument(
            "--param", action="append", default=[], help="generator key=value"
        )
        sp.add_argument("--preset", default="default",
                        help="registered SystemConfig preset (see `repro list`)")
        sp.add_argument("--topology", default="auto",
                        help="registered topology name (see `repro list`)")

    def add_perf_args(sp):
        sp.add_argument(
            "--workers",
            type=int,
            default=1,
            help="evaluate sweep points in N parallel processes (default 1)",
        )
        sp.add_argument(
            "--cache-dir",
            default=None,
            help="result store directory: rows are kept in DIR/results.rpjl "
            "under a code-salted key (default: $REPRO_CACHE_DIR, unset = "
            "no caching; *.json entries of older versions are ignored)",
        )
        sp.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the result cache entirely (no reads, no writes)",
        )
        sp.add_argument(
            "--farm",
            default=None,
            metavar="HOST:PORT,...",
            help="comma-separated addresses of running `repro worker` "
            "processes; sweep points are dispatched to them with "
            "work-stealing (an unreachable farm degrades to local "
            "evaluation)",
        )
        add_farm_tuning(sp)
        add_heartbeat(sp)
        sp.add_argument(
            "--resume",
            default=None,
            metavar="FILE",
            help="result store file: every finished sweep point is "
            "recorded in it as it lands, and a re-run evaluates only the "
            "points it lacks (rows stay bit-identical to an "
            "uninterrupted run; same format as --cache-dir's store)",
        )

    def add_farm_tuning(sp):
        """Auth/liveness knobs shared by both farm surfaces
        (coordinator-side sweeps and the worker itself)."""
        sp.add_argument(
            "--auth-token",
            default=None,
            metavar="SECRET",
            help="shared secret for the HMAC challenge-response handshake "
            "(default: $REPRO_FARM_TOKEN; unset = unauthenticated)",
        )
        sp.add_argument(
            "--worker-timeout",
            type=float,
            default=None,
            metavar="SEC",
            help="declare a silent peer dead after this many seconds; must "
            "exceed the heartbeat interval",
        )

    def add_heartbeat(sp):
        sp.add_argument(
            "--heartbeat",
            type=float,
            default=None,
            metavar="SEC",
            help="coordinator PING cadence in seconds; must be positive",
        )

    sp = sub.add_parser(
        "worker", help="serve sweep points to a farm coordinator"
    )
    sp.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address; port 0 picks an ephemeral port, printed on "
        "the first stdout line (default 127.0.0.1:0)",
    )
    sp.add_argument(
        "--trace-dir",
        default=None,
        help="worker-local trace store directory for pushed traces "
        "(default: a private temp dir, removed on exit)",
    )
    add_farm_tuning(sp)
    sp.add_argument("--verbose", action="store_true", help="log protocol events")
    sp.set_defaults(fn=cmd_worker)

    sp = sub.add_parser("workload", help="generate + save a workload")
    add_trace_args(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_workload)

    sp = sub.add_parser("fig2", help="Figure 2 run-length table")
    sp.add_argument("--threads", type=int, default=64)
    sp.add_argument("--cores", type=int, default=64)
    sp.add_argument("--grid", type=int, default=386)
    sp.add_argument("--iterations", type=int, default=2)
    sp.add_argument("--rows", type=int, default=25)
    sp.set_defaults(fn=cmd_fig2)

    sp = sub.add_parser("evaluate", help="score a scheme on a workload")
    add_trace_args(sp)
    add_perf_args(sp)
    sp.add_argument("--scheme", default="all",
                    help="registered scheme name, or 'all' (see `repro list`)")
    sp.add_argument("--machine", default="analytical",
                    help="registered machine name (see `repro list`); "
                    "e.g. em2 for the detailed simulator")
    sp.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("optimal", help="optimal DP on one thread")
    add_trace_args(sp)
    sp.add_argument("--thread", type=int, default=0)
    sp.set_defaults(fn=cmd_optimal)

    sp = sub.add_parser("shootout", help="all schemes vs the DP optimum")
    add_trace_args(sp)
    add_perf_args(sp)
    sp.set_defaults(fn=cmd_shootout)

    sp = sub.add_parser("stackdepth", help="stack-EM2 depth DP vs fixed depths")
    sp.add_argument("--kernel", default="dot", choices=["dot", "reduce", "hist"])
    sp.add_argument("--threads", type=int, default=8)
    sp.add_argument("--cores", type=int, default=8)
    sp.add_argument("--n", type=int, default=48)
    sp.add_argument("--max-depth", type=int, default=8)
    sp.set_defaults(fn=cmd_stackdepth)

    sp = sub.add_parser("trace", help="manage the on-disk trace store")
    tsub = sp.add_subparsers(dest="trace_cmd", required=True)

    def add_store_dir(tsp):
        tsp.add_argument(
            "--dir",
            default=None,
            help="trace store directory (default: $REPRO_TRACE_DIR, "
            "else ~/.cache/repro/traces)",
        )

    tsp = tsub.add_parser("build", help="generate a workload into the store")
    add_trace_args(tsp)
    add_store_dir(tsp)
    tsp.set_defaults(fn=cmd_trace)
    tsp = tsub.add_parser("ls", help="list stored traces")
    add_store_dir(tsp)
    tsp.set_defaults(fn=cmd_trace)
    tsp = tsub.add_parser("gc", help="evict LRU entries over a size cap")
    add_store_dir(tsp)
    tsp.add_argument(
        "--max-mbytes",
        type=float,
        default=512.0,
        help="keep at most this many MB of traces (default 512)",
    )
    tsp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("dynamic", help="epoch re-placement vs static first-touch")
    add_trace_args(sp)
    sp.add_argument("--epochs", type=int, default=4)
    sp.add_argument("--oracle", action="store_true")
    sp.set_defaults(fn=cmd_dynamic)

    sp = sub.add_parser(
        "faults", help="fault-injection sweep + zero-fault parity gate"
    )
    add_trace_args(sp)
    add_perf_args(sp)
    sp.add_argument(
        "--machines",
        default="em2,em2ra,ra-only,cc-msi",
        help="comma-separated detailed machine names (see `repro list`)",
    )
    sp.add_argument(
        "--rates",
        default="0,0.01,0.05,0.1",
        help="comma-separated message drop rates; 0 triggers the parity check",
    )
    sp.add_argument("--scheme", default="history",
                    help="migration decision scheme for the EM2 machines")
    sp.add_argument("--model", default="iid",
                    help="registered fault model (see `repro list`)")
    sp.add_argument("--fault-seed", type=int, default=0,
                    help="fault-plane PCG64 seed (schedule is a pure "
                    "function of spec + seed)")
    sp.add_argument("--dup-rate", type=float, default=0.0)
    sp.add_argument("--delay-rate", type=float, default=0.0)
    sp.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        help="kill any sweep point running longer than this many seconds",
    )
    sp.add_argument(
        "--smoke",
        action="store_true",
        help="tiny deterministic CI sweep (overrides workload/machines/"
        "rates) gated on zero-fault parity",
    )
    sp.set_defaults(fn=cmd_faults)

    sp = sub.add_parser(
        "chaos-soak",
        help="soak the farm under seeded host chaos; gate on bit-identity",
    )
    add_trace_args(sp)
    add_farm_tuning(sp)
    add_heartbeat(sp)
    sp.add_argument("--num-workers", type=int, default=2,
                    help="embedded farm workers behind the chaos proxy")
    sp.add_argument("--sweeps", type=int, default=2,
                    help="how many chaos sweeps to run against the reference")
    sp.add_argument("--chaos-seed", type=int, default=0,
                    help="ChaosSpec seed (the event schedule is a pure "
                    "function of the spec)")
    sp.add_argument("--reset-rate", type=float, default=0.05,
                    help="per-event-slot probability of a connection RST")
    sp.add_argument("--partial-rate", type=float, default=0.05,
                    help="probability of a truncated frame followed by RST")
    sp.add_argument("--stall-rate", type=float, default=0.10,
                    help="probability of an injected forwarding stall")
    sp.add_argument("--partition-rate", type=float, default=0.05,
                    help="probability of a one-direction partition window")
    sp.add_argument("--trigger-span", type=int, default=65536,
                    help="event triggers are planted in the first N bytes "
                    "of each connection (smaller = chaos fires earlier)")
    sp.add_argument("--max-events", type=int, default=4,
                    help="planned event slots per connection")
    sp.add_argument("--verbose", action="store_true",
                    help="log per-sweep chaos accounting")
    sp.add_argument(
        "--smoke",
        action="store_true",
        help="tiny deterministic CI soak (overrides workload/rates) gated "
        "on row bit-identity and digest stability",
    )
    sp.set_defaults(fn=cmd_chaos_soak)

    return p


def run_profiled(fn, top_n: int = 25, stream=None):
    """Run ``fn()`` under cProfile; print the top ``top_n`` functions
    by cumulative time to ``stream`` (default stderr). Returns ``fn``'s
    result. Shared by the CLI ``--profile`` flag and the benchmark
    harness so hot-path regressions are one flag away from a profile."""
    import cProfile
    import pstats

    stream = stream if stream is not None else sys.stderr
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(
            top_n
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.profile is not None:
            return run_profiled(lambda: args.fn(args), args.profile)
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
