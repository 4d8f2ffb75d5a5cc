"""Apply a decision scheme to whole application traces.

This is the O(N) "computing the equivalent cost of a specific
decision" procedure of §3, wrapped for multi-threaded traces. A thread's
accesses are taken one *home run* at a time: a maximal stretch of
consecutive accesses homed at one core.

Homes depend only on the trace and the placement, so each thread's run
table (:class:`HomeRuns`) is built once per (trace, placement) pair and
kept while the placement lives (:func:`home_run_tables`). Every scheme,
and the Figure 2 histogram, reads it: ``placement.home_of`` runs once
per trace, not once per scheme.

:func:`_walk` scores a scheme in one pass over a thread's runs. A run
homed where the thread sits is local. In a run homed elsewhere the
thread goes remote up to the first access it migrates on, and the rest
of the run is local at the home. So each run is charged in a few
operations from the cost-matrix rows of the thread's core, and the walk
consults the scheme as rarely as its declared properties
(:class:`~repro.core.decision.base.DecisionScheme`) allow:

* ``stateless`` (``decide`` reads only the current core, the home and
  the write flag): once per (current, home) pair of a thread, for both
  write flags;
* ``decides_per_access`` (``decide`` reads the address or draws a
  random number): access by access, only inside runs homed away from
  the thread, until it migrates;
* any other scheme (the history schemes, whose ``decide`` reads state
  that changes only where a run begins): at a run's first access, then
  once more for the rest of the run (once per write flag the rest
  holds).

A scheme that is not stateless learns each run once, through
``observe_run``, after its first access is decided: that is where its
per-access ``observe`` would have learned it. Every cost is a whole
number (the configs reject non-integral latencies), so these per-run
sums equal the access-by-access ones exactly, whatever the order of
addition.

:func:`evaluate_thread` is that access-by-access walk. It is the test
oracle, and the route for a scheme that overrides ``observe`` with no
per-run form (``observes_per_access``).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.costs import CostModel, MatrixRows
from repro.core.decision.base import Decision, DecisionScheme
from repro.placement.base import Placement
from repro.registry import MACHINES
from repro.sim.stats import Histogram
from repro.trace.events import MultiTrace
from repro.trace.runlength import home_runs, merge_histograms, runs_histogram

MIGRATE = Decision.MIGRATE


@dataclass
class EvalResult:
    """Aggregate outcome of evaluating one scheme on one trace."""

    scheme: str
    total_cost: float = 0.0
    migrations: int = 0
    remote_accesses: int = 0
    local_accesses: int = 0
    traffic_bits: int = 0
    per_thread_cost: list[float] = field(default_factory=list)
    run_length_hist: Histogram | None = None

    @property
    def total_accesses(self) -> int:
        return self.migrations + self.remote_accesses + self.local_accesses

    @property
    def nonlocal_fraction(self) -> float:
        n = self.total_accesses
        return (self.migrations + self.remote_accesses) / n if n else float("nan")

    @property
    def avg_cost_per_access(self) -> float:
        n = self.total_accesses
        return self.total_cost / n if n else float("nan")

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "total_cost": self.total_cost,
            "migrations": self.migrations,
            "remote_accesses": self.remote_accesses,
            "local_accesses": self.local_accesses,
            "traffic_bits": self.traffic_bits,
            "avg_cost_per_access": self.avg_cost_per_access,
        }


def _message_bits(cost_model: CostModel) -> tuple[int, int, int]:
    """Bits on the network per migration, remote read and remote write."""
    return (
        cost_model.migration_bits(),
        cost_model.remote_access_bits(write=False),
        cost_model.remote_access_bits(write=True),
    )


def _traffic_bits(
    message_bits: tuple[int, int, int], n_mig: int, n_ra: int, n_ra_writes: int
) -> int:
    mig, ra_r, ra_w = message_bits
    return n_mig * mig + (n_ra - n_ra_writes) * ra_r + n_ra_writes * ra_w


def evaluate_thread(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    scheme: DecisionScheme,
    cost_model: CostModel,
    addrs: np.ndarray | None = None,
) -> tuple[float, int, int, int, int, np.ndarray]:
    """Sequential evaluation of one thread, one decide/observe per access:
    the oracle the walk is tested against.

    Returns (cost, migrations, remote, local, traffic_bits, exec_cores)
    where ``exec_cores[k]`` is the core where access k executed (home
    for MIGRATE/LOCAL, the thread's position for REMOTE). ``addrs``
    feeds address-indexed schemes; omitted, schemes see address 0.
    """
    homes = np.asarray(homes, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    if addrs is None:
        addrs_l = [0] * homes.size
    else:
        addrs_l = np.asarray(addrs, dtype=np.int64).tolist()
    decide, observe = scheme.decide, scheme.observe
    mig, ra = cost_model.migration, (cost_model.remote_read, cost_model.remote_write)

    cur = int(start_core)
    cost = 0.0
    n_mig = n_ra = n_ra_w = 0
    exec_list: list[int] = []
    for h, w, a in zip(homes.tolist(), writes.tolist(), addrs_l):
        if h == cur:
            d = Decision.LOCAL
        else:
            d = decide(cur, h, a, w)
            if d == MIGRATE:
                cost += float(mig[cur, h])
                n_mig += 1
                cur = h
            else:
                cost += float(ra[w][cur, h])
                n_ra += 1
                n_ra_w += w
        exec_list.append(cur)
        observe(cur, h, a, w, d)
    bits = _traffic_bits(_message_bits(cost_model), n_mig, n_ra, n_ra_w)
    n_loc = homes.size - n_mig - n_ra
    return cost, n_mig, n_ra, n_loc, bits, np.array(exec_list, dtype=np.int64)


# ------------------------------------------------------------ home runs
class HomeRuns(NamedTuple):
    """One thread's home runs, in trace order: run ``i`` is the
    ``lengths[i]`` accesses from ``starts[i]`` on, all homed at
    ``homes[i]``, ``writes[i]`` of them writes, the first a write when
    ``first_write[i]``."""

    homes: list[int]
    starts: np.ndarray
    lengths: list[int]
    writes: list[int]
    first_write: list[bool]


#: placement -> (trace, the trace's HomeRuns under it); an entry is
#: dropped with its placement
_runs_memo: "weakref.WeakKeyDictionary[Placement, tuple[MultiTrace, list[HomeRuns]]]" = (
    weakref.WeakKeyDictionary()
)


def _thread_runs(homes: np.ndarray, writes: np.ndarray) -> HomeRuns:
    run_homes, lengths, n_w = home_runs(homes, writes)
    starts = np.cumsum(lengths) - lengths
    return HomeRuns(
        run_homes.tolist(), starts, lengths.tolist(), n_w.tolist(), writes[starts].tolist()
    )


def home_run_tables(trace: MultiTrace, placement: Placement) -> list[HomeRuns]:
    """Every thread's :class:`HomeRuns` under ``placement``.

    Built once per (trace, placement) pair, both checked by identity,
    and kept as long as the placement lives; traces and placements are
    immutable."""
    hit = _runs_memo.get(placement)
    if hit is not None and hit[0] is trace:
        return hit[1]
    tables = [
        _thread_runs(placement.home_of(tr["addr"]), tr["write"].astype(bool))
        for tr in trace.threads
    ]
    _runs_memo[placement] = (trace, tables)
    return tables


# ----------------------------------------------------------------- walk
def _first_at_home(m: int, lo: int, e: int, n_w: int, writes: np.ndarray) -> int:
    """The first access in ``[lo, e)`` (one run's, ``n_w`` of them
    writes) whose write flag migrates under ``m`` (bit 0 set: reads
    migrate; bit 1: writes), or ``e`` if none."""
    mig_r = m & 1 and n_w < e - lo
    mig_w = m & 2 and n_w > 0
    if not (mig_r or mig_w):
        return e
    if mig_r and mig_w or n_w in (0, e - lo):
        return lo
    # one flag migrates, the other goes remote until it comes up
    return lo + int(np.argmax(writes[lo:e] == bool(mig_w)))


def _walk(runs: HomeRuns, start: int, scheme: DecisionScheme, rows: MatrixRows, tr: np.ndarray):
    """One thread's (cost, migrations, remote accesses, remote writes,
    local accesses) under ``scheme``, from the thread's start core."""
    decide, learn = scheme.decide, scheme.observe_run
    stateless, per_access = scheme.stateless, scheme.decides_per_access
    writes = tr["write"]
    if stateless:
        first_addrs = itertools.repeat(0)
        pairs: dict[int, dict[int, int]] = {}  # current -> home -> flavours
    else:
        first_addrs = tr["addr"][runs.starts].astype(np.int64).tolist()
    if per_access:
        addr_l = tr["addr"].astype(np.int64).tolist()
        write_l = writes.astype(bool).tolist()

    cur = start
    mig, rr, rw = rows[cur]
    if stateless:
        at_cur = pairs[cur] = {}
    cost = 0.0
    n_mig = n_ra = n_ra_w = n_loc = 0
    e = 0
    for h, n, n_w, w0, a0 in zip(
        runs.homes, runs.lengths, runs.writes, runs.first_write, first_addrs
    ):
        s = e
        e += n
        if h == cur:
            n_loc += n
            if not stateless:
                learn(h, n, a0)
            continue
        # k: the first access of the run executed at the home
        if stateless:
            m = at_cur.get(h)
            if m is None:
                m = at_cur[h] = (decide(cur, h, 0, False) == MIGRATE) | (
                    decide(cur, h, 0, True) == MIGRATE
                ) << 1
            k = s if m == 3 else e if m == 0 else _first_at_home(m, s, e, n_w, writes)
        else:
            # the first access is decided before the scheme learns the run
            first = decide(cur, h, a0, w0) == MIGRATE
            learn(h, n, a0)
            if first:
                k = s
            elif per_access:
                k = e
                for j in range(s + 1, e):
                    if decide(cur, h, addr_l[j], write_l[j]) == MIGRATE:
                        k = j
                        break
            else:
                # the rest: consulted once for each write flag it holds
                rest_w = n_w - w0
                m = (rest_w < n - 1 and decide(cur, h, 0, False) == MIGRATE) | (
                    rest_w > 0 and decide(cur, h, 0, True) == MIGRATE
                ) << 1
                k = e if m == 0 else _first_at_home(m, s + 1, e, rest_w, writes)
        if k > s:
            ra = k - s
            ra_w = n_w if k == e else w0 if ra == 1 else int(np.count_nonzero(writes[s:k]))
            cost += (ra - ra_w) * rr[h] + ra_w * rw[h]
            n_ra += ra
            n_ra_w += ra_w
        if k < e:
            cost += mig[h]
            n_mig += 1
            n_loc += e - k - 1
            cur = h
            mig, rr, rw = rows[cur]
            if stateless:
                at_cur = pairs.get(cur)
                if at_cur is None:
                    at_cur = pairs[cur] = {}
    return cost, n_mig, n_ra, n_ra_w, n_loc


def evaluate_scheme(
    trace: MultiTrace,
    placement: Placement,
    scheme: DecisionScheme,
    cost_model: CostModel,
    collect_run_lengths: bool = False,
) -> EvalResult:
    """Evaluate ``scheme`` over every thread of ``trace``, each thread
    on a fresh clone."""
    result = EvalResult(scheme=scheme.name)
    # each core's cost rows as lists, taken when a walk first visits it
    rows = MatrixRows(cost_model.migration, cost_model.remote_read, cost_model.remote_write)
    message_bits = _message_bits(cost_model)
    hists = []
    for t, (tr, runs) in enumerate(zip(trace.threads, home_run_tables(trace, placement))):
        start = trace.thread_native_core[t] % cost_model.config.num_cores
        per_thread = scheme.clone()
        per_thread.reset()
        if per_thread.observes_per_access:
            homes = np.repeat(runs.homes, runs.lengths)
            cost, n_mig, n_ra, n_loc, bits, _ = evaluate_thread(
                homes, tr["write"], start, per_thread, cost_model, addrs=tr["addr"]
            )
        else:
            cost, n_mig, n_ra, n_ra_w, n_loc = _walk(runs, start, per_thread, rows, tr)
            bits = _traffic_bits(message_bits, n_mig, n_ra, n_ra_w)
        result.total_cost += cost
        result.migrations += n_mig
        result.remote_accesses += n_ra
        result.local_accesses += n_loc
        result.traffic_bits += bits
        result.per_thread_cost.append(cost)
        if collect_run_lengths:
            hists.append(runs_histogram(runs.homes, runs.lengths, start))
    if collect_run_lengths:
        result.run_length_hist = merge_histograms(hists)
    return result


@MACHINES.register(
    "analytical", "fast trace-driven scheme evaluation (the paper's cost model)"
)
def _run_analytical(
    trace, placement, config, scheme=None, topology=None, faults=None, fast_path=True
):
    # fast_path is the EM² stepper's knob; a no-op here
    from repro.util.errors import ConfigError

    if scheme is None:
        raise ConfigError("machine 'analytical' requires a decision scheme")
    if faults is not None:
        raise ConfigError(
            "machine 'analytical' cannot model faults; use a detailed "
            "machine (em2, em2ra, ra-only, cc-msi, cc-mesi)"
        )
    from repro.runner import machine_cost_model

    cost = machine_cost_model(config, topology)
    return evaluate_scheme(trace, placement, scheme, cost).as_dict()
