"""The benchmark's workloads: the paper's artifacts run end to end.

Each workload has the same life cycle, driven by ``run.py``:

* ``setup(rep)`` — one timed set-up repetition: build the workload's
  traces cold into a fresh trace store, plus the workload's own set-up.
  The last repetition's state is what the passes use.
* ``prepare_pass()`` — untimed: put the state back to what a pass
  starts from (build memo cleared, trace store warm).
* ``pass_units()`` — the timed pass as an ordered list of units, each
  timed on its own; calling a unit returns one :class:`Point` per
  evaluated point or DP solve. Units of one pass share state (the
  build memo, results a later unit tabulates), so they run in order.
* ``check(points)`` — output invariants and the simulated-stat digest
  of every point; returns the simulated statistics (``sim``) and run
  diagnostics (``diag``) the traced run reports per layer.

Inputs come from ``--seed``: every workload generator's ``seed``
parameter is derived from it, so the same seed gives the same traces.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: Keys of a result dict that describe the run, not the simulated
#: design. They never enter a digest; the traced run reports them per
#: layer instead.
DIAGNOSTIC_KEYS = ("fast_path",)

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent

DES_MACHINES = ("em2", "em2ra", "cc-msi")
FARM_WORKLOADS = ("hotspot", "uniform", "pingpong", "private")
FARM_SCHEMES = (
    "always-migrate",
    "never-migrate",
    "history",
    "distance-1",
    "native-first",
    "costaware",
)
FIG2_BAND = (0.35, 0.65)

#: Input sizes. ``full`` is what the benchmark measures; ``tiny`` is for
#: the self-test. SPLASH stand-ins run 64 threads on the 64-core
#: ``default`` preset; the farm grid runs 16 threads on ``small-test``.
SCALES = {
    "full": {
        "splash": {
            "ocean": {"grid_n": 128, "iterations": 1},
            "radix": {"keys_per_thread": 32},
            "barnes": {"bodies_per_thread": 4},
            "lu": {"blocks": 4},
        },
        "cores": 64,
        "farm_seeds": 4,
        "farm_params": {
            "hotspot": {"accesses_per_thread": 512},
            "uniform": {"accesses_per_thread": 512},
            "pingpong": {"rounds": 128},
            "private": {"accesses_per_thread": 512},
        },
    },
    "tiny": {
        "splash": {
            "ocean": {"grid_n": 32, "iterations": 1},
            "radix": {"keys_per_thread": 8},
            "barnes": {"bodies_per_thread": 2, "tree_depth": 3},
            "lu": {"blocks": 2, "block_words": 16},
        },
        "cores": 16,
        "farm_seeds": 2,
        "farm_params": {
            "hotspot": {"accesses_per_thread": 64},
            "uniform": {"accesses_per_thread": 64},
            "pingpong": {"rounds": 16},
            "private": {"accesses_per_thread": 64},
        },
    },
}


@dataclass
class Point:
    """One attempted unit of work and what became of it."""

    label: str
    metrics: dict | None = None
    accesses: int = 0
    error: str | None = None


def digest(metrics: dict) -> str:
    """Digest of the simulated statistics: diagnostics removed, values
    JSON-canonical, keys sorted."""
    from repro.analysis.cache import canonical_rows

    bare = {k: v for k, v in metrics.items() if k not in DIAGNOSTIC_KEYS}
    canon = json.dumps(canonical_rows([bare])[0], sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:20]


def _sweep_points(base, points, labels, accesses, **kwargs) -> list[Point]:
    """Run one ``sweep_specs`` call; a raised error fails all its points."""
    # the package re-exports a function named ``sweep`` over the module
    sweep = importlib.import_module("repro.analysis.sweep")
    try:
        rows = sweep.sweep_specs(base, points, **kwargs)
    except Exception as exc:  # a failed point must not end the run
        return [Point(lb, error=f"{type(exc).__name__}: {exc}") for lb in labels]
    out = []
    for point, label, row, acc in zip(points, labels, rows, accesses):
        metrics = {k: v for k, v in row.items() if k not in point}
        out.append(Point(label, metrics=metrics, accesses=acc))
    return out


def _guarded(label: str, fn, accesses: int = 0) -> Point:
    """One point computed outside ``sweep_specs``; a raised error fails it."""
    try:
        return Point(label, metrics=fn(), accesses=accesses)
    except Exception as exc:  # a failed point must not end the run
        return Point(label, error=f"{type(exc).__name__}: {exc}")


class Workload:
    name = ""
    setup_reps = 3

    def __init__(self, seed: int, scale: str, work: Path) -> None:
        self.seed = seed
        self.scale = SCALES[scale]
        self.work = work

    def _fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def child_cpu_s(self) -> float:
        """CPU seconds used so far by the workload's live subprocesses."""
        return 0.0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- SPLASH
class _Splash(Workload):
    """Shared set-up of the two workloads over the SPLASH stand-ins."""

    def __init__(self, seed, scale, work) -> None:
        super().__init__(seed, scale, work)
        from repro.spec import WorkloadSpec

        self.cores = self.scale["cores"]
        self.wspecs = {
            name: WorkloadSpec(
                name=name,
                params={
                    **params,
                    "num_threads": self.cores,
                    "seed": seed * 1000 + i,
                },
            )
            for i, (name, params) in enumerate(self.scale["splash"].items())
        }
        self.accesses: dict[str, int] = {}

    def base_spec(self, name: str, machine: str):
        from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, SchemeSpec

        return ExperimentSpec(
            workload=self.wspecs[name],
            machine=MachineSpec(name=machine, cores=self.cores, preset="default"),
            placement=PlacementSpec(name="first-touch"),
            scheme=SchemeSpec(name="history"),
        )

    def setup(self, rep: int) -> None:
        from repro import runner
        from repro.trace.store import set_trace_store

        set_trace_store(self._fresh_dir(f"setup{rep}") / "traces")
        runner.clear_build_memo()
        for name, wspec in self.wspecs.items():
            self.accesses[name] = runner.build_workload(wspec).total_accesses

    def prepare_pass(self) -> None:
        from repro import runner

        runner.clear_build_memo()


class DesSplash(_Splash):
    """em2, em2ra (history) and cc-msi on each stand-in, dispatched as
    ``repro evaluate`` does: serial ``sweep_specs``, no result store."""

    name = "des-splash64"

    def pass_units(self) -> list:
        return [
            functools.partial(self._point, name, m)
            for name in self.wspecs
            for m in DES_MACHINES
        ]

    def _point(self, name: str, machine: str) -> list[Point]:
        return _sweep_points(
            self.base_spec(name, "em2"),
            [{"machine": {"name": machine}}],
            [f"{name}/{machine}"],
            [self.accesses[name]],
        )

    def check(self, points: list[Point]) -> dict:
        sim: dict[str, float] = {}
        agg: dict[str, dict[str, float]] = {m: {} for m in DES_MACHINES}
        for p in points:
            if p.metrics is None:
                continue
            name, machine = p.label.split("/")
            r, a = p.metrics, self.accesses[name]
            if machine == "cc-msi":
                stats = r["stats"]
                if stats["count.hits"] + stats["count.misses"] != a:
                    p.error = "cc-msi hits + misses != trace accesses"
                add = {
                    "sim_cycles": r["completion_time"],
                    "misses": stats["count.misses"],
                    "invalidations": stats["count.invalidations"],
                    "traffic_bits": r["traffic_bits"],
                }
            else:
                # An eviction can interrupt a migrated thread before its
                # pending access executes; the access then migrates again,
                # so each eviction may add one migration to the sum.
                done = r["local_accesses"] + r["migrations"]
                if machine == "em2ra":
                    done += r["remote_accesses"]
                if not a <= done <= a + r["evictions"]:
                    p.error = f"{machine} accounts for {done} of {a} accesses"
                if machine == "em2":
                    foreign = [
                        k
                        for k in r
                        if k.startswith("messages.")
                        and k not in ("messages.MIGRATION", "messages.EVICTION")
                    ]
                    if r.get("invalidations", 0) or r["remote_accesses"] or foreign:
                        p.error = "em2 sent invalidations or remote accesses"
                    add = {
                        "sim_cycles": r["completion_time"],
                        "migrations": r["migrations"],
                        "evictions": r["evictions"],
                        "dram_fills": r["dram_fills"],
                        "flit_hops": r["flit_hops"],
                    }
                else:
                    add = {
                        "sim_cycles": r["completion_time"],
                        "migrations": r["migrations"],
                        "remote_accesses": r["remote_accesses"],
                        "flit_hops": r["flit_hops"],
                    }
            for k, v in add.items():
                sim[f"{machine}.{k}"] = sim.get(f"{machine}.{k}", 0) + v
            fp = r.get("fast_path", {})
            g = agg[machine]
            g["points"] = g.get("points", 0) + 1
            g["accesses"] = g.get("accesses", 0) + a
            g["engaged"] = g.get("engaged", 0) + bool(fp.get("engaged"))
            g["batched"] = g.get("batched", 0) + fp.get("batched_accesses", 0)
            g["windows"] = g.get("windows", 0) + fp.get("epochs_batched", 0)
            for k, v in fp.get("boundaries", {}).items():
                g[f"boundaries.{k}"] = g.get(f"boundaries.{k}", 0) + v
        diag = {}
        for machine, g in agg.items():
            if not g:
                continue
            diag[f"{machine}.batched_frac"] = g["batched"] / g["accesses"]
            diag[f"{machine}.engaged_frac"] = g["engaged"] / g["points"]
            diag[f"{machine}.mean_window"] = (
                g["batched"] / g["windows"] if g["windows"] else 0.0
            )
            for k, v in g.items():
                if k.startswith("boundaries."):
                    diag[f"{machine}.{k}"] = v
        return {"sim": sim, "diag": diag}


class AnalyticalSplash(_Splash):
    """Figure 2 on OCEAN, every registered scheme on each stand-in
    through the ``analytical`` machine, and the DP optimum the shootout
    compares them against."""

    name = "analytical-splash64"

    def pass_units(self) -> list:
        done: dict[str, list[Point]] = {}
        units = [lambda: [_guarded("ocean/fig2", self._fig2)]]
        for name in self.wspecs:
            units.append(functools.partial(self._dp, name, done))
            units.append(functools.partial(self._schemes, name, done))
        units.append(functools.partial(self._table, done))
        return units

    def _dp(self, name: str, done: dict) -> list[Point]:
        base = self.base_spec(name, "analytical")
        dp = _guarded(f"{name}/dp", lambda: self._optimum(base), self.accesses[name])
        done[f"{name}/dp"] = [dp]
        return [dp]

    def _schemes(self, name: str, done: dict) -> list[Point]:
        from repro.registry import SCHEMES

        schemes = SCHEMES.names()
        scored = _sweep_points(
            self.base_spec(name, "analytical"),
            [{"scheme": s} for s in schemes],
            [f"{name}/{s}" for s in schemes],
            [self.accesses[name]] * len(schemes),
        )
        done[f"{name}/schemes"] = scored
        return scored

    def _table(self, done: dict) -> list[Point]:
        """The shootout table against the DP optimum, as ``repro
        shootout`` prints it."""
        from repro.analysis import reports

        table = []
        for name in self.wspecs:
            (dp,) = done[f"{name}/dp"]
            if dp.metrics is None:
                continue
            opt = dp.metrics["total_cost"]
            table.append({"scheme": f"{name}/optimal (DP)", "total_cost": opt, "x_optimal": 1.0})
            table += [
                {"scheme": p.label, "total_cost": p.metrics["total_cost"],
                 "x_optimal": p.metrics["total_cost"] / opt}
                for p in done[f"{name}/schemes"]
                if p.metrics is not None
            ]
        reports.format_table(table)
        return []

    def _fig2(self) -> dict:
        """The Figure 2 run-length table on OCEAN, as ``repro fig2``
        builds it."""
        from repro import runner
        from repro.analysis import reports
        from repro.trace import runlength

        built = runner.build(self.base_spec("ocean", "analytical"))
        trace, placement = built.trace, built.placement
        hist = runlength.merge_histograms(
            [
                runlength.run_length_histogram(
                    placement.home_of(tr["addr"]), trace.thread_native_core[t]
                )
                for t, tr in enumerate(trace.threads)
            ]
        )
        reports.runlength_table(hist)
        return {"frac_run1": runlength.fraction_single_access_runs(hist)}

    def _optimum(self, base) -> dict:
        """The offline DP optimum over every thread, as ``repro
        shootout`` computes it."""
        from repro import runner
        from repro.core.decision import optimal

        built = runner.build(base)
        trace, placement, cost = built.trace, built.placement, built.cost
        total = sum(
            optimal.optimal_cost(
                placement.home_of(tr["addr"]),
                tr["write"],
                trace.thread_native_core[t] % self.cores,
                cost,
            )
            for t, tr in enumerate(trace.threads)
            if tr.size
        )
        return {"total_cost": total}

    def check(self, points: list[Point]) -> dict:
        sim = {}
        opt = {
            p.label.split("/")[0]: p.metrics["total_cost"]
            for p in points
            if p.label.endswith("/dp") and p.metrics is not None
        }
        ratios = []
        for p in points:
            if p.metrics is None:
                continue
            name, what = p.label.split("/")
            if what == "fig2":
                sim["fig2.frac_run1"] = p.metrics["frac_run1"]
                lo, hi = FIG2_BAND
                if not lo <= p.metrics["frac_run1"] <= hi:
                    p.error = f"fig2 run-length-1 fraction outside [{lo}, {hi}]"
            elif what != "dp":
                r = p.metrics
                done = r["local_accesses"] + r["remote_accesses"] + r["migrations"]
                if done != self.accesses[name]:
                    p.error = f"{what} accounts for {done} of {self.accesses[name]} accesses"
                if name in opt:
                    if opt[name] > r["total_cost"] * (1 + 1e-12) + 1e-9:
                        p.error = f"DP optimum {opt[name]} exceeds {what} cost {r['total_cost']}"
                    ratios.append(r["total_cost"] / opt[name])
        if ratios:
            sim["shootout.x_optimal_min"] = min(ratios)
        return {"sim": sim, "diag": {}}


# ---------------------------------------------------------------- farm
class WorkerProcess:
    """One loopback ``repro worker`` subprocess."""

    def __init__(self, root: Path, trace_dir: Path, log: Path, env: dict) -> None:
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0",
             "--trace-dir", str(trace_dir)],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=root,
        )
        try:
            self.addr = self._wait_for_address(log)
        except BaseException:
            self.stop()
            raise

    def _wait_for_address(self, log: Path) -> str:
        """The address from the worker's first stdout line."""
        deadline = time.monotonic() + 60
        prefix = "repro worker listening on "
        while True:
            for line in log.read_text().splitlines():
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"farm worker did not start: {log.read_text()}")
            time.sleep(0.005)

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the worker, all its threads."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        # after the command name: state is field 3, utime and stime 14, 15
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class SweepFarm(Workload):
    """Extend a finished sweep of small 16-core analytical points over a
    loopback farm worker, with a result store and a resume journal.

    The grid is workloads x seeds x schemes. Set-up spawns the worker
    and stores the first half of the seeds; each pass reads that half
    from the result store and evaluates, stores and journals the rest,
    whose traces the coordinator generates and pushes to the worker.
    """

    name = "sweep-farm"

    def __init__(self, seed, scale, work) -> None:
        super().__init__(seed, scale, work)
        from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec

        self.base = ExperimentSpec(
            workload=WorkloadSpec(name="uniform"),
            machine=MachineSpec(name="analytical", cores=16, preset="small-test"),
            placement=PlacementSpec(name="first-touch"),
        )
        n = self.scale["farm_seeds"]
        seeds = [seed * 1000 + 500 + i for i in range(n)]
        self.points, self.stored = [], []
        for s_i, s in enumerate(seeds):
            for wl in FARM_WORKLOADS:
                params = {**self.scale["farm_params"][wl], "num_threads": 16, "seed": s}
                for scheme in FARM_SCHEMES:
                    point = {"workload": {"name": wl, "params": params}, "scheme": scheme}
                    self.points.append(point)
                    self.stored.append(s_i < n // 2)
        self.labels = [
            f"{p['workload']['name']}@{p['workload']['params']['seed']}/{p['scheme']}"
            for p in self.points
        ]
        self.worker: WorkerProcess | None = None
        self.spawned_pids: list[int] = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(work / "tmp")
        self.accesses: dict[str, int] = {}

    def _spawn(self, trace_dir: Path) -> None:
        self._stop_worker()
        self.worker = WorkerProcess(ROOT, trace_dir, self.work / "worker.log", self.env)
        self.spawned_pids.append(self.worker.proc.pid)

    def _stop_worker(self) -> None:
        if self.worker is not None:
            self.worker.stop()
            self.worker = None

    def _sweep(self, state: Path, points, labels) -> list[Point]:
        from repro.analysis.cache import ResultCache

        return _sweep_points(
            self.base,
            points,
            labels,
            [0] * len(points),
            cache=ResultCache(state / "cache"),
            resume=str(state / "journal.rpjl"),
            farm=[self.worker.addr],
        )

    def setup(self, rep: int) -> None:
        from repro import runner
        from repro.trace.store import set_trace_store

        from repro.spec import WorkloadSpec

        state = self._fresh_dir(f"setup{rep}")
        set_trace_store(state / "traces")
        runner.clear_build_memo()
        for p, stored in zip(self.points, self.stored):
            if stored:
                runner.build_workload(WorkloadSpec.from_dict(p["workload"]))
        self._spawn(state / "worker-traces")
        half = [i for i, s in enumerate(self.stored) if s]
        done = self._sweep(state, [self.points[i] for i in half], [self.labels[i] for i in half])
        failed = [p for p in done if p.error]
        if failed:
            raise RuntimeError(f"sweep-farm set-up failed: {failed[0].label}: {failed[0].error}")
        self.template = state

    def prepare_pass(self) -> None:
        from repro import runner
        from repro.trace.store import set_trace_store

        self._stop_worker()
        self.state = self.work / "pass"
        shutil.rmtree(self.state, ignore_errors=True)
        shutil.copytree(self.template, self.state)
        self._spawn(self.state / "worker-traces")
        set_trace_store(self.state / "traces")
        runner.clear_build_memo()

    def pass_units(self) -> list:
        # one unit: the farm chunks the whole grid
        return [self._extend]

    def _extend(self) -> list[Point]:
        from repro.analysis import reports

        out = self._sweep(self.state, self.points, self.labels)
        reports.format_table([{**p.metrics, "point": p.label} for p in out if p.metrics])
        # only freshly evaluated points processed their trace
        for p, stored in zip(out, self.stored):
            if p.metrics is not None and not stored:
                r = p.metrics
                p.accesses = r["local_accesses"] + r["remote_accesses"] + r["migrations"]
        return out

    def child_cpu_s(self) -> float:
        return self.worker.cpu_s() if self.worker is not None else 0.0

    def expected_accesses(self) -> None:
        """Trace sizes of every grid point, generated directly (untimed)
        as an independent check of the machine's accounting."""
        from repro.registry import WORKLOADS

        for p, label in zip(self.points, self.labels):
            key = label.split("/")[0]
            if key not in self.accesses:
                w = p["workload"]
                self.accesses[key] = WORKLOADS.get(w["name"])(**w["params"]).generate().total_accesses

    def check(self, points: list[Point]) -> dict:
        if not self.accesses:
            self.expected_accesses()
        for p in points:
            if p.metrics is None:
                continue
            r = p.metrics
            done = r["local_accesses"] + r["remote_accesses"] + r["migrations"]
            expect = self.accesses[p.label.split("/")[0]]
            if done != expect:
                p.error = f"accounts for {done} of {expect} accesses"
        return {"sim": {}, "diag": {}}

    def close(self) -> None:
        self._stop_worker()


WORKLOADS = {w.name: w for w in (DesSplash, AnalyticalSplash, SweepFarm)}
