"""Optimal offline migrate-vs-RA decisions (the paper's dynamic program, §3).

Recurrence (verbatim from the paper, with OPT(k, c) the optimal cost
of serving accesses m_1..m_k with the thread ending at core c):

* core miss (c != d(m_{k+1})):
      OPT(k+1, c) = OPT(k, c) + cost_ra(c, d(m_{k+1}))
* core hit (c == d(m_{k+1})):
      OPT(k+1, c) = min( OPT(k, c),
                         min_{i != c} OPT(k, i) + cost_mig(i, c) )

The paper states O(N * P^2) time. Because each access has a *single*
home core, only one entry per step takes the inner min — every other
entry is a vector add — so a step costs O(P). The implementation below
goes further and steps once per **home run** (a maximal stretch of
accesses with the same home), for **O(R * P)** time with R <= N runs:

* the run's first access takes the full step above;
* every later access of the run keeps the home entry where it is.
  Since the first access, every other entry i has only added RA costs
  (>= 0), so its arrival ``OPT(k, i) + cost_mig(i, h)`` is at least the
  ``OPT(s, i) + cost_mig(i, h)`` the home entry already beat at the
  run's first access s. Staying dominates (ties keep ``stay``, as the
  per-access step does), and every other entry just adds its RA cost:
  the run's tail is one summed RA row,
  ``n_r * ra_r[:, h] + n_w * ra_w[:, h]``.

The regrouped sums equal the per-access ones bit for bit because every
cost is a whole number (the configs reject non-integral latencies) and
the totals stay far below 2**53, so no addition rounds.

A thread only ever sits on its start core or on the home of one of its
runs, so every other entry stays +inf for the whole trace. The DP
therefore steps only the K occupied cores, {start} ∪ {run homes}
(K <= min(P, R + 1); at most 4 of 64 on OCEAN), for **O(R * K)** time,
in one of two steps that give the same predecessors, totals and end
core:

* up to ``_FEW_CORES`` occupied cores, each run takes a step of plain
  Python floats over the entries already reached
  (:func:`_step_occupied`). It keeps ``D[i] = cost[i] - S[i]``, where
  ``S`` is the prefix sum of the runs' RA rows, so a run reads the
  reached entries and writes only its home's; ``D + S`` is exact for
  the same reason as above;
* above it, the numpy step over all P entries (:func:`_step_all`),
  whose per-run cost does not grow with K.

Both step the occupied cores in core order, so equal arrivals go to the
lowest core (``argmin``'s rule) and ``stay`` still wins a tie with an
arrival. Both stay because the benchmark's stand-ins sit on each side
of the crossover: OCEAN and LU threads occupy at most 4 and 7 cores,
RADIX and BARNES threads 23–35, where the scalar step is slower.

Path reconstruction stores one predecessor per run: for end cores
c != home the predecessor is trivially c itself (the thread stayed and
did an RA), so only the home entry's argmin needs recording — O(R)
memory instead of O(N * P).

Semantics notes, matching the paper's model:

* a local access (thread already at the home) is free;
* the model "considers one thread at a time", ignores evictions and
  local memory delays — costs are the network costs from
  :class:`~repro.core.costs.CostModel`;
* the thread starts at its native core ``start_core``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.core.costs import CostModel
from repro.core.decision.base import Decision
from repro.trace.runlength import home_runs
from repro.util.errors import ConfigError

_INF = np.inf


@dataclass
class OptimalResult:
    """Output of the DP: cost, per-access decisions, and the core path."""

    total_cost: float
    decisions: np.ndarray  # (N,) Decision values
    cores: np.ndarray  # (N,) core where each access executed
    end_core: int

    @property
    def num_migrations(self) -> int:
        return int((self.decisions == Decision.MIGRATE).sum())

    @property
    def num_remote_accesses(self) -> int:
        return int((self.decisions == Decision.REMOTE).sum())

    @property
    def num_local(self) -> int:
        return int((self.decisions == Decision.LOCAL).sum())


def _cost_matrices(cost_model: CostModel):
    mig = np.asarray(cost_model.migration, dtype=np.float64)
    ra_r = np.asarray(cost_model.remote_read, dtype=np.float64)
    ra_w = np.asarray(cost_model.remote_write, dtype=np.float64)
    return mig, ra_r, ra_w


def optimal_cost(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    cost_model: CostModel,
) -> float:
    """Forward DP only (no path reconstruction)."""
    res = _run_dp(homes, writes, start_core, cost_model, reconstruct=False)
    return res[0]


def optimal_decisions(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    cost_model: CostModel,
) -> OptimalResult:
    """Full DP with per-access decision/core reconstruction."""
    total, decisions, cores, end_core = _run_dp(
        homes, writes, start_core, cost_model, reconstruct=True
    )
    return OptimalResult(
        total_cost=total, decisions=decisions, cores=cores, end_core=end_core
    )


#: Per-run RA rows are built this many (run, core) cells at a time, so
#: the DP's scratch memory stays bounded however many runs a thread has.
_BLOCK_CELLS = 1 << 16

#: A thread occupying at most this many cores takes the scalar step
#: (:func:`_step_occupied`), any other the numpy step over every core
#: (:func:`_step_all`). Measured per run at 64 cores, one CPU of a
#: 2-vCPU shared Xeon: the scalar step costs 0.25–0.4 µs plus
#: 0.08–0.13 µs per occupied core, the numpy step 1.8–2.2 µs whatever
#: the count, so the two cross at 12–20 cores; the constant takes the
#: low end, where the host's noise cannot make the scalar step slower.
#: On the SPLASH stand-ins a thread occupies at most 7 cores (OCEAN,
#: LU) or at least 23 (RADIX, BARNES), which pick the same step
#: anywhere in that range.
_FEW_CORES = 12


def _run_dp(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    cost_model: CostModel,
    reconstruct: bool,
):
    homes = np.asarray(homes, dtype=np.int64)
    writes = np.asarray(writes).astype(bool)
    if homes.shape != writes.shape or homes.ndim != 1:
        raise ConfigError("homes and writes must be 1-D arrays of equal length")
    mig, ra_r, ra_w = _cost_matrices(cost_model)
    P = mig.shape[0]
    if homes.size and not (0 <= homes.min() and homes.max() < P):
        raise ConfigError(f"home core out of range [0, {P})")
    if not (0 <= start_core < P):
        raise ConfigError(f"start_core {start_core} out of range [0, {P})")

    run_homes, lengths, n_w = home_runs(homes, writes)
    n_r = lengths - n_w
    # the thread only ever sits on its start core or a run's home
    at = np.bincount(run_homes, minlength=P) > 0
    at[start_core] = True
    occupied = np.flatnonzero(at)
    if occupied.size <= _FEW_CORES:
        pred, end_core, total = _step_occupied(
            occupied, run_homes, n_r, n_w, start_core, mig, ra_r, ra_w
        )
    else:
        pred, end_core, total = _step_all(run_homes, n_r, n_w, start_core, mig, ra_r, ra_w)

    if not reconstruct:
        return total, None, None, end_core

    # walk the runs backward: a run homed where the thread sits after it
    # was served at home (its first access migrated in unless the thread
    # was already there); any other run was served by RA from that core
    R = run_homes.size
    run_core = [0] * R
    moved_in = [False] * R
    cur = end_core
    for r, h in zip(range(R - 1, -1, -1), reversed(run_homes.tolist())):
        run_core[r] = cur
        if h == cur:
            cur = pred[r]
            moved_in[r] = cur != h
    cores = np.repeat(np.array(run_core, dtype=np.int64), lengths)
    decisions = np.where(cores == homes, Decision.LOCAL, Decision.REMOTE)
    starts = np.cumsum(lengths) - lengths
    decisions[starts[np.array(moved_in, dtype=bool)]] = Decision.MIGRATE
    return total, decisions.astype(np.int8), cores, end_core


def _step_all(run_homes, n_r, n_w, start_core, mig, ra_r, ra_w):
    """The forward pass over every core, one numpy step per run.

    Returns (pred, end core, total): ``pred[r]`` is the predecessor
    core of the home entry at run ``r``'s first access."""
    P = mig.shape[0]
    R = run_homes.size
    # mig_in[h] = migration cost INTO core h from each source; the inf
    # diagonal keeps staying (the stay term) apart from a self-migration
    mig_in = mig.T.copy()
    np.fill_diagonal(mig_in, _INF)
    ra_r_in, ra_w_in = ra_r.T, ra_w.T  # ra_*_in[h] = RA cost to h from each core
    cost = np.full(P, _INF)
    cost[start_core] = 0.0
    pred = [0] * R
    block = max(1, _BLOCK_CELLS // P)
    for b in range(0, R, block):
        hs = run_homes[b : b + block]
        # every core but the home pays the whole run by RA
        rows = (
            n_r[b : b + block, None] * ra_r_in[hs]
            + n_w[b : b + block, None] * ra_w_in[hs]
        )
        for j, h in enumerate(hs.tolist()):
            arrive = cost + mig_in[h]
            best_src = int(arrive.argmin())
            best_arrive = arrive[best_src]
            stay_home = cost[h]
            cost += rows[j]
            if stay_home <= best_arrive:
                cost[h] = stay_home
                best_src = h
            else:
                cost[h] = best_arrive
            pred[b + j] = best_src
    end_core = int(np.argmin(cost))
    return pred, end_core, float(cost[end_core])


def _step_occupied(occupied, run_homes, n_r, n_w, start_core, mig, ra_r, ra_w):
    """:func:`_step_all` over the ``occupied`` cores only (sorted), one
    step of Python floats per run.

    Entry ``i`` holds ``D[i] = cost[i] - S[i]``, where ``S`` is the
    prefix sum of the runs' RA rows so far. A run adds its row to every
    entry, which moves ``S`` and leaves ``D`` alone, except at its home,
    where the row is 0 (the RA diagonal). So a run reads the entries
    already reached (``cost = D + S``) and writes only its home's. Every
    cost and prefix sum is a whole number below 2**53, so ``D + S``
    equals the numpy step's running sum bit for bit. The cores are in
    order, so the first minimum is the lowest core, as ``argmin`` takes
    it, and staying still wins a tie."""
    K = occupied.tolist()
    R = run_homes.size
    # [h][i]: from the i-th occupied core into (or to) the h-th
    grid = occupied * mig.shape[0] + occupied[:, None]
    mig_k = mig.take(grid)
    np.fill_diagonal(mig_k, _INF)
    mig_k = mig_k.tolist()
    ra_r_k, ra_w_k = ra_r.take(grid), ra_w.take(grid)
    hks = np.searchsorted(occupied, run_homes)  # run homes as positions
    start = K.index(start_core)
    D = [_INF] * len(K)
    D[start] = 0.0
    reached = [start]  # positions of the finite entries, in order
    S = [0.0] * len(K)
    pred = [0] * R
    block = max(1, _BLOCK_CELLS // len(K))
    for b in range(0, R, block):
        hk = hks[b : b + block]
        rows = n_r[b : b + block, None] * ra_r_k[hk] + n_w[b : b + block, None] * ra_w_k[hk]
        rows[0] += S  # carry the prefix sum across blocks
        prefix = rows.cumsum(axis=0).tolist()
        for j, h in enumerate(hk.tolist()):
            m = mig_k[h]
            best_arrive = _INF
            best_src = h
            for i in reached:
                arrive = D[i] + S[i] + m[i]
                if arrive < best_arrive:
                    best_arrive = arrive
                    best_src = i
            if D[h] + S[h] <= best_arrive:
                best_src = h
            else:
                if D[h] == _INF:
                    bisect.insort(reached, h)
                D[h] = best_arrive - S[h]
            pred[b + j] = K[best_src]
            S = prefix[j]
    costs = [D[i] + S[i] for i in reached]
    total = min(costs)
    return pred, K[reached[costs.index(total)]], total


def decision_cost(
    homes: np.ndarray,
    writes: np.ndarray,
    decisions: np.ndarray,
    start_core: int,
    cost_model: CostModel,
) -> float:
    """Cost of an explicit decision sequence (the O(N) evaluation, §3).

    Validates consistency: a LOCAL decision requires the thread to be
    at the home, MIGRATE moves it there, REMOTE leaves it in place.

    Fully vectorized: the thread's position before access ``k`` is the
    home of the most recent MIGRATE before ``k`` (or ``start_core``),
    recoverable with one ``maximum.accumulate`` over migrate indices —
    no per-access Python loop.
    """
    homes = np.asarray(homes, dtype=np.int64)
    writes = np.asarray(writes).astype(bool)
    decisions = np.asarray(decisions, dtype=np.int64)
    n = homes.size
    if n == 0:
        return 0.0
    mig, ra_r, ra_w = _cost_matrices(cost_model)

    is_local = decisions == Decision.LOCAL
    is_mig = decisions == Decision.MIGRATE
    is_ra = decisions == Decision.REMOTE
    unknown = ~(is_local | is_mig | is_ra)

    # position before access k: home of the latest MIGRATE strictly
    # before k, else the start core
    idx = np.arange(n)
    last_mig = np.maximum.accumulate(np.where(is_mig, idx, -1))
    prev_mig = np.concatenate(([-1], last_mig[:-1]))
    cur = np.where(prev_mig >= 0, homes[np.maximum(prev_mig, 0)], start_core)

    bad_local = is_local & (cur != homes)
    # report the earliest violation, matching the sequential walk
    first_unknown = int(np.argmax(unknown)) if unknown.any() else n
    first_bad = int(np.argmax(bad_local)) if bad_local.any() else n
    if first_unknown < first_bad:
        raise ConfigError(
            f"access {first_unknown}: unknown decision {int(decisions[first_unknown])}"
        )
    if first_bad < n:
        raise ConfigError(
            f"access {first_bad}: LOCAL decision but thread at "
            f"{int(cur[first_bad])}, home {int(homes[first_bad])}"
        )

    total = float(mig[cur[is_mig], homes[is_mig]].sum())
    ra_read = is_ra & ~writes
    ra_write = is_ra & writes
    total += float(ra_r[cur[ra_read], homes[ra_read]].sum())
    total += float(ra_w[cur[ra_write], homes[ra_write]].sum())
    return total
