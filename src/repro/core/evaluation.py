"""Apply a decision scheme to whole application traces.

This is the O(N) "computing the equivalent cost of a specific
decision" procedure of §3, wrapped for multi-threaded traces. For each
thread it finds the core each access executes at (the home for
MIGRATE/LOCAL, the thread's position for REMOTE); :func:`_score` then
charges the cost model and gathers the statistics every bench in this
repo reports (cost, migration/RA counts, network traffic in bits) from
that core sequence with a few vectorized gathers. Every cost is a whole
number (the configs reject non-integral latencies), so these sums equal
the access-by-access ones exactly, whatever the order of addition.

The cores come from one of three routes:

* ``AlwaysMigrate`` and ``NeverMigrate`` need no walk: the cores are
  the homes, or the start core throughout.
* Stateless schemes (``DecisionScheme.stateless``: decide depends only
  on (current, home, write), observe is a no-op) and run-learned ones
  (subclasses of :class:`~repro.core.decision.history.RunLengthScheme`:
  the history schemes, whose predictor learns only where a home run
  begins) take the segment kernel :func:`evaluate_thread_batched`. It
  consults the scheme a few times per *home run* instead of once per
  access, so its Python work is O(R) for R runs, not O(N).
* Any other scheme (random, address-indexed history) takes the
  sequential walk, one decide/observe per access on plain Python lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import CostModel
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.decision.history import RunLengthScheme
from repro.core.decision.static import AlwaysMigrate, NeverMigrate
from repro.placement.base import Placement
from repro.registry import MACHINES
from repro.sim.stats import Histogram
from repro.trace.events import MultiTrace
from repro.trace.runlength import home_runs, merge_histograms, run_length_histogram


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


def _score(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    exec_cores: np.ndarray,
    cost_model: CostModel,
) -> tuple[float, int, int, int, int, np.ndarray]:
    """One thread's statistics from the core each access executed at.

    The thread sits at ``exec_cores[k]`` after access k, so access k
    migrated exactly when that differs from where the thread sat before
    it, and went remote exactly when ``exec_cores[k]`` is not its home.
    Returns (cost, migrations, remote, local, traffic_bits, exec_cores).
    """
    n = homes.size
    if n == 0:
        return 0.0, 0, 0, 0, 0, exec_cores
    prev = np.concatenate(([start_core], exec_cores[:-1]))
    moved = np.flatnonzero(prev != exec_cores)
    remote = np.flatnonzero(exec_cores != homes)
    w = writes[remote]
    src, dst = exec_cores[remote], homes[remote]
    cost = (
        cost_model.migration[prev[moved], exec_cores[moved]].sum()
        + cost_model.remote_read[src[~w], dst[~w]].sum()
        + cost_model.remote_write[src[w], dst[w]].sum()
    )
    n_mig, n_ra, n_w = moved.size, remote.size, int(w.sum())
    bits = (
        n_mig * cost_model.migration_bits()
        + (n_ra - n_w) * cost_model.remote_access_bits(write=False)
        + n_w * cost_model.remote_access_bits(write=True)
    )
    return float(cost), n_mig, n_ra, n - n_mig - n_ra, bits, exec_cores


def evaluate_thread(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    scheme: DecisionScheme,
    cost_model: CostModel,
    addrs: np.ndarray | None = None,
) -> tuple[float, int, int, int, int, np.ndarray]:
    """Sequential evaluation of one thread.

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
    MIGRATE, LOCAL = Decision.MIGRATE, Decision.LOCAL
    decide, observe = scheme.decide, scheme.observe

    # hot loop: plain lists keep every per-access operation in native
    # Python objects; costs are charged afterwards by _score
    cur = int(start_core)
    exec_list: list[int] = []
    append = exec_list.append
    for h, w, a in zip(homes.tolist(), writes.tolist(), addrs_l):
        if h == cur:
            d = LOCAL
        else:
            d = decide(cur, h, a, w)
            if d == MIGRATE:
                cur = h
        append(cur)
        observe(cur, h, a, w, d)
    exec_cores = np.array(exec_list, dtype=np.int64)
    return _score(homes, writes, start_core, exec_cores, cost_model)


def _first_migrating(decide, cur, h, writes, lo, e, n_w):
    """First access in ``[lo, e)`` (all homed at ``h``, the thread at
    ``cur``, ``n_w`` of them writes) the scheme migrates on; ``e`` if
    none. Only the read and write flavours of the decision can differ."""
    has_r, has_w = n_w < e - lo, n_w > 0
    mig_r = has_r and decide(cur, h, 0, False) == Decision.MIGRATE
    mig_w = has_w and decide(cur, h, 0, True) == Decision.MIGRATE
    if not (mig_r or mig_w):
        return e
    if mig_r == mig_w or not (has_r and has_w):
        return lo
    # one flavour migrates, the other goes remote until it comes up
    return lo + int(np.argmax(writes[lo:e] if mig_w else ~writes[lo:e]))


def evaluate_thread_batched(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    scheme: DecisionScheme,
    cost_model: CostModel,
) -> tuple[float, int, int, int, int, np.ndarray]:
    """Segment-batched evaluation for stateless and run-learned schemes.

    While the thread and the home stay put, a stateless scheme's
    decision can change only with the write flag. A run-learned scheme
    decides a run's first access before it learns the run before
    (``observe`` follows ``decide``) and every later access after, so
    its decision can change once more, after the first access. The
    trace is therefore processed one *home run* at a time: each run
    splits into an RA part and a part executed at the home, found with
    at most three consultations, and a run-learned scheme observes the
    run once (:meth:`~repro.core.decision.history.RunLengthScheme.observe_run`).
    Python work is O(runs), not O(accesses); exact parity with
    :func:`evaluate_thread` is enforced by the unit tests.
    """
    learns = isinstance(scheme, RunLengthScheme)
    if not (scheme.stateless or learns):
        raise ValueError(
            f"scheme {scheme.name!r} is not stateless and does not learn per run"
        )
    homes = np.asarray(homes, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    run_homes, lengths, n_w = home_runs(homes, writes)

    decide = scheme.decide
    MIGRATE = Decision.MIGRATE
    cur = int(start_core)
    seg_core: list[int] = []  # the exec cores, as (core, length) segments
    seg_len: list[int] = []
    e = 0
    for h, length, nw in zip(run_homes.tolist(), lengths.tolist(), n_w.tolist()):
        s, e = e, e + length
        lo, k = s, None  # k: the first access executed at the home
        if h == cur:
            k = s
        elif learns:
            # the first access is decided before the scheme learns the
            # previous run, the rest of the run after
            w = bool(writes[s])
            if decide(cur, h, 0, w) == MIGRATE:
                k = s
            else:
                lo, nw = s + 1, nw - w
        if learns:
            scheme.observe_run(h, length)
        if k is None:
            k = _first_migrating(decide, cur, h, writes, lo, e, nw)
        if k > s:
            seg_core.append(cur)
            seg_len.append(k - s)
        if k < e:
            cur = h
            seg_core.append(h)
            seg_len.append(e - k)
    exec_cores = np.repeat(np.array(seg_core, dtype=np.int64), seg_len)
    return _score(homes, writes, start_core, exec_cores, cost_model)


def evaluate_scheme(
    trace: MultiTrace,
    placement: Placement,
    scheme: DecisionScheme,
    cost_model: CostModel,
    collect_run_lengths: bool = False,
) -> EvalResult:
    """Evaluate ``scheme`` over every thread of ``trace``."""
    result = EvalResult(scheme=scheme.name)
    hists = []
    for t, tr in enumerate(trace.threads):
        if tr.size == 0:
            result.per_thread_cost.append(0.0)
            continue
        homes = np.asarray(placement.home_of(tr["addr"]), dtype=np.int64)
        writes = tr["write"].astype(bool)
        start = trace.thread_native_core[t] % cost_model.config.num_cores
        if isinstance(scheme, AlwaysMigrate):
            out = _score(homes, writes, start, homes, cost_model)
        elif isinstance(scheme, NeverMigrate):
            stay = np.full(homes.size, start, dtype=np.int64)
            out = _score(homes, writes, start, stay, cost_model)
        elif scheme.stateless or isinstance(scheme, RunLengthScheme):
            per_thread = scheme.clone()
            per_thread.reset()
            out = evaluate_thread_batched(homes, writes, start, per_thread, cost_model)
        else:
            per_thread = scheme.clone()
            per_thread.reset()
            out = evaluate_thread(
                homes,
                writes,
                start,
                per_thread,
                cost_model,
                addrs=tr["addr"].astype(np.int64),
            )
        cost, n_mig, n_ra, n_loc, bits, _cores = out
        result.total_cost += cost
        result.migrations += n_mig
        result.remote_accesses += n_ra
        result.local_accesses += n_loc
        result.traffic_bits += bits
        result.per_thread_cost.append(cost)
        if collect_run_lengths:
            hists.append(run_length_histogram(homes, start))
    if collect_run_lengths:
        result.run_length_hist = merge_histograms(hists)
    return result


@MACHINES.register(
    "analytical", "fast trace-driven scheme evaluation (the paper's cost model)"
)
def _run_analytical(trace, placement, config, scheme=None, topology=None, **params):
    from repro.util.errors import ConfigError

    if scheme is None:
        raise ConfigError("machine 'analytical' requires a decision scheme")
    if params.get("faults") is not None:
        raise ConfigError(
            "machine 'analytical' cannot model faults; use a detailed "
            "machine (em2, em2ra, ra-only, cc-msi, cc-mesi)"
        )
    params.pop("faults", None)
    params.pop("fast_path", None)  # the EM² stepper's knob; no-op here
    cost = CostModel(config, topology)
    return evaluate_scheme(trace, placement, scheme, cost, **params).as_dict()
