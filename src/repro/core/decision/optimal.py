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
    """Forward DP only (no path reconstruction) — minimal memory."""
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
    R = run_homes.size

    cost = np.full(P, _INF)
    cost[start_core] = 0.0
    # pred[r]: predecessor core of the *home* entry at run r's first access
    pred = [0] * R if reconstruct else None

    # mig_in[h] = migration cost INTO core h from each source; the inf
    # diagonal keeps staying (the stay term) apart from a self-migration
    mig_in = mig.T.copy()
    np.fill_diagonal(mig_in, _INF)
    ra_r_in, ra_w_in = ra_r.T, ra_w.T  # ra_*_in[h] = RA cost to h from each core
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
            if reconstruct:
                pred[b + j] = best_src

    end_core = int(np.argmin(cost))
    total = float(cost[end_core])

    if not reconstruct:
        return total, None, None, end_core

    # walk the runs backward: a run homed where the thread sits after it
    # was served at home (its first access migrated in unless the thread
    # was already there); any other run was served by RA from that core
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
