"""Optimal per-migration stack depths for stack-EM² (§4).

The paper: "to evaluate such schemes, we can use the same analytical
model described for the EM²-RA case and a similar optimization
formulation to compute the optimal stack depths (instead of the binary
migrate-vs-RA decision, the algorithm considers the various stack
depths)".

Model
-----
Every access executes at its home core (pure EM², no RA). A thread's
stack memory is homed at its **native** core; a migration carries the
top ``delta`` stack entries (``0 <= delta <= K``, the guest stack-cache
window). Traces carry per-access segment stack activity: ``spop``
entries consumed and ``spush`` produced by the instructions *preceding*
each access.

State space: NATIVE (at the native core, full stack local) or
GUEST(c, d) — at core ``c != native`` holding ``d`` valid entries.

Per access, two phases:

1. **segment**: at NATIVE, free. At GUEST(c, d):
   * ``spop > d`` → **underflow**: the thread migrates back to its
     native core carrying its ``d`` entries (the paper's "the offending
     thread will automatically migrate back to its native core"),
     then runs the segment there for free → NATIVE;
   * else ``d' = d - spop + spush``; ``d' > K`` → **overflow**:
     migrate home carrying the full window ``K`` → NATIVE;
   * else → GUEST(c, d').
2. **access at home h**: states not at ``h`` must migrate there:
   * NATIVE → GUEST(h, delta), any ``delta`` (stack memory is local,
     nothing to flush): cost ``mig_base(n0,h) + ser(delta)``;
   * GUEST(c, d) → GUEST(h, delta ≤ d): carry ``delta``, **flush** the
     remaining ``d - delta`` entries to the native stack memory as a
     separate message (the paper's "flush the rest to the stack memory
     prior to migration"): cost ``mig_base(c,h) + ser(delta) +
     flush(c, d - delta)``;
   * GUEST(c, d) → NATIVE (h == native): carry everything home:
     ``mig_base(c,n0) + ser(d)``;
   * already at ``h``: free.

``ser(delta)`` is the wormhole serialization of a context of
``pc+status + delta*word`` bits; ``mig_base`` is fixed overhead + hop
latency; ``flush`` is a one-way message of ``f`` words to the native
core. All from :class:`~repro.core.costs.CostModel`'s config.

Complexity: O(N * P * K^2) with small constants (vectorized over the
(P, K+1) state table per access); reconstruction stores O(K) ints per
access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import CostModel
from repro.util.errors import ConfigError

_INF = np.inf
_NATIVE = -1  # state id for the native state


@dataclass
class StackOptimalResult:
    total_cost: float
    depths: np.ndarray  # (N,) carried depth per access; -1 = no migration
    migrations: int
    forced_returns: int  # underflow/overflow round trips home
    migrated_bits: int  # total context bits carried by migrations

    @property
    def mean_migrated_depth(self) -> float:
        m = self.depths[self.depths >= 0]
        return float(m.mean()) if m.size else float("nan")


class _StackCosts:
    """Precomputed cost pieces shared by the DP and the fixed scheme."""

    def __init__(self, cost_model: CostModel, native: int, max_depth: int) -> None:
        cfg = cost_model.config
        topo = cost_model.topology
        P = cfg.num_cores
        if not (0 <= native < P):
            raise ConfigError(f"native core {native} out of range")
        if max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        self.P, self.K, self.native = P, max_depth, native
        noc = cfg.noc
        hops = topo.distance_matrix.astype(np.float64)
        # a migration's zero-load latency is a hop term (a header-only
        # message) plus a serialization term (zero hops), so the DP adds
        # mig_base[c, h] + ser[d] instead of holding a (K+1, P, P) table
        self.mig_base = cfg.cost.migration_fixed + noc.zero_load_latency(hops, 0)
        self.ser = np.array(
            [
                noc.zero_load_latency(0, cfg.context.stack_context_bits(d))
                for d in range(max_depth + 1)
            ],
            dtype=np.float64,
        )
        # flush of f words from core c to native: one-way data message
        self.flush = np.zeros((P, max_depth + 1), dtype=np.float64)
        for f in range(1, max_depth + 1):
            self.flush[:, f] = cfg.cost.remote_access_fixed + noc.zero_load_latency(
                hops[:, native], cfg.stack_flush_bits(f)
            )
        self.ctx_bits = np.array(
            [cfg.context.stack_context_bits(d) for d in range(max_depth + 1)],
            dtype=np.int64,
        )


def _validate_stack_trace(homes, spops, spushes, K):
    homes = np.asarray(homes, dtype=np.int64)
    spops = np.asarray(spops, dtype=np.int64)
    spushes = np.asarray(spushes, dtype=np.int64)
    if not (homes.shape == spops.shape == spushes.shape) or homes.ndim != 1:
        raise ConfigError("homes/spops/spushes must be 1-D arrays of equal length")
    if spops.size and (spops.max() > K or spushes.max() > K):
        raise ConfigError(
            f"segment stack activity exceeds window K={K}; "
            "increase max_depth or regenerate the trace"
        )
    return homes, spops, spushes


def optimal_stack_depths(
    homes: np.ndarray,
    spops: np.ndarray,
    spushes: np.ndarray,
    native: int,
    cost_model: CostModel,
    max_depth: int = 8,
) -> StackOptimalResult:
    """DP over (location, held depth) minimizing total network cost."""
    C = _StackCosts(cost_model, native, max_depth)
    homes, spops, spushes = _validate_stack_trace(homes, spops, spushes, C.K)
    P, K, n0 = C.P, C.K, C.native
    N = homes.size

    guest = np.full((P, K + 1), _INF)  # guest[c, d]; row n0 unused (inf)
    nat = 0.0  # thread starts at its native core
    depth_axis = np.arange(K + 1, dtype=np.int64)

    # reconstruction logs
    ph1_nat_pred = np.full(N, _NATIVE, dtype=np.int32)  # best guest feeding native in ph1
    ph2_pred = np.full((N, K + 1), _NATIVE, dtype=np.int32)  # pred state of (h, delta)
    ph2_nat_pred = np.full(N, _NATIVE, dtype=np.int32)  # pred when h == native

    def sid(c, d):  # state id
        return c * (K + 1) + d

    for k in range(N):
        h = int(homes[k])
        spop = int(spops[k])
        spush = int(spushes[k])
        delta_shift = spush - spop

        # ---- phase 1: segment execution --------------------------------
        new_guest = np.full((P, K + 1), _INF)
        # surviving guests: d >= spop and d + shift <= K
        lo = spop
        hi = K - max(delta_shift, 0) if delta_shift > 0 else K
        # valid source depths: lo..hi (inclusive), target depth = d + shift
        forced_cost = _INF
        forced_pred = _NATIVE
        if lo <= hi:
            src = guest[:, lo : hi + 1]
            new_guest[:, lo + delta_shift : hi + delta_shift + 1] = src
        # underflow: d < spop  → home carrying d
        if spop > 0:
            under = guest[:, :spop] + C.mig_base[:, n0][:, None] + C.ser[:spop][None, :]
            idx = int(np.argmin(under))
            if under.flat[idx] < forced_cost:
                forced_cost = under.flat[idx]
                forced_pred = sid(idx // spop, idx % spop)
        # overflow: d > hi (only when shift > 0) → home carrying K
        if delta_shift > 0 and hi < K:
            over = guest[:, hi + 1 :] + C.mig_base[:, n0][:, None] + C.ser[K]
            idx = int(np.argmin(over))
            if over.flat[idx] < forced_cost:
                forced_cost = over.flat[idx]
                ncols = K - hi
                forced_pred = sid(idx // ncols, hi + 1 + idx % ncols)
        new_nat = nat
        if forced_cost < new_nat:
            new_nat = forced_cost
            ph1_nat_pred[k] = forced_pred

        # ---- phase 2: execute access at home h ---------------------------
        if h == n0:
            # everyone must come home; guests carry all their entries
            cand = new_guest + C.mig_base[:, n0][:, None] + C.ser[None, :]
            idx = int(np.argmin(cand))
            best_guest_cost = cand.flat[idx]
            if best_guest_cost < new_nat:
                nat = float(best_guest_cost)
                ph2_nat_pred[k] = sid(idx // (K + 1), idx % (K + 1))
            else:
                nat = float(new_nat)
                ph2_nat_pred[k] = _NATIVE
            guest = np.full((P, K + 1), _INF)
        else:
            final = np.full(K + 1, _INF)
            pred = np.full(K + 1, _NATIVE, dtype=np.int32)
            # stay: already at (h, d)
            stay = new_guest[h]
            better = stay < final
            final = np.where(better, stay, final)
            pred[better] = sid(h, depth_axis[better])
            # from native: any delta
            from_nat = new_nat + C.mig_base[n0, h] + C.ser
            better = from_nat < final
            final = np.where(better, from_nat, final)
            pred[better] = _NATIVE
            # from other guests (c != h, c != n0): carry delta <= d, flush rest
            # tensor [c, d, delta] = cost + mig_base[c,h] + ser[delta] + flush[c, d-delta]
            gcost = new_guest.copy()
            gcost[h] = _INF  # staying handled above
            d_grid = depth_axis[:, None]
            delta_grid = depth_axis[None, :]
            valid = delta_grid <= d_grid  # (d, delta)
            fidx = np.where(valid, d_grid - delta_grid, 0)  # flush amount
            # cand[c, d, delta]
            cand = (
                gcost[:, :, None]
                + C.mig_base[:, h][:, None, None]
                + C.ser[None, None, :]
                + C.flush[:, fidx]  # (P, d, delta) via fancy indexing on axis 1
            )
            cand = np.where(valid[None, :, :], cand, _INF)
            flat = cand.reshape(-1, K + 1)  # (P*(K+1), delta)
            best_idx = np.argmin(flat, axis=0)
            best_cost = flat[best_idx, depth_axis]
            better = best_cost < final
            final = np.where(better, best_cost, final)
            pred[better] = best_idx[better].astype(np.int32)  # state id = c*(K+1)+d
            guest = np.full((P, K + 1), _INF)
            guest[h] = final
            nat = _INF
            ph2_pred[k] = pred

    # ---- select end state & reconstruct ---------------------------------
    end_guest_idx = int(np.argmin(guest))
    end_guest_cost = guest.flat[end_guest_idx]
    if nat <= end_guest_cost:
        total = float(nat)
        cur = _NATIVE
    else:
        total = float(end_guest_cost)
        cur = end_guest_idx

    depths = np.full(N, -1, dtype=np.int64)
    migrations = 0
    forced = 0
    bits = 0
    for k in range(N - 1, -1, -1):
        h = int(homes[k])
        spop = int(spops[k])
        spush = int(spushes[k])
        shift = spush - spop
        # invert phase 2
        if h == n0:
            assert cur == _NATIVE
            prev2 = int(ph2_nat_pred[k])
            if prev2 != _NATIVE:
                migrations += 1
                depths[k] = prev2 % (K + 1)
                bits += int(C.ctx_bits[prev2 % (K + 1)])
        else:
            assert cur != _NATIVE and cur // (K + 1) == h
            delta = cur % (K + 1)
            prev2 = int(ph2_pred[k, delta])
            if prev2 == _NATIVE or prev2 // (K + 1) != h:
                migrations += 1
                depths[k] = delta
                bits += int(C.ctx_bits[delta])
        # invert phase 1: prev2 is the post-phase1 state
        if prev2 == _NATIVE:
            p1 = int(ph1_nat_pred[k])
            if p1 != _NATIVE:
                forced += 1
                carried = min(p1 % (K + 1), K)
                bits += int(C.ctx_bits[carried])
                cur = p1
            else:
                cur = _NATIVE
        else:
            c, d_post = prev2 // (K + 1), prev2 % (K + 1)
            cur = sid(c, d_post - shift)  # undo the segment shift

    return StackOptimalResult(
        total_cost=total,
        depths=depths,
        migrations=migrations,
        forced_returns=forced,
        migrated_bits=bits,
    )


def fixed_depth_cost(
    homes: np.ndarray,
    spops: np.ndarray,
    spushes: np.ndarray,
    native: int,
    cost_model: CostModel,
    depth: int,
    max_depth: int = 8,
) -> StackOptimalResult:
    """Sequential evaluation of the 'always carry ``depth``' scheme.

    The hardware-trivial baseline: every migration carries
    ``min(depth, available)`` entries. Underflow/overflow semantics
    identical to the DP, so its cost is directly comparable (and, by
    optimality, always >= the DP's).
    """
    C = _StackCosts(cost_model, native, max_depth)
    homes, spops, spushes = _validate_stack_trace(homes, spops, spushes, C.K)
    if not (0 <= depth <= C.K):
        raise ConfigError(f"depth must be in [0, {C.K}]")
    n0, K = C.native, C.K

    at_native = True
    c, d = n0, 0
    total = 0.0
    migrations = 0
    forced = 0
    bits = 0
    depths = np.full(homes.size, -1, dtype=np.int64)

    for k in range(homes.size):
        h = int(homes[k])
        spop = int(spops[k])
        spush = int(spushes[k])
        # phase 1: segment
        if not at_native:
            if spop > d:  # underflow
                total += C.mig_base[c, n0] + C.ser[d]
                bits += int(C.ctx_bits[d])
                forced += 1
                at_native = True
            else:
                d2 = d - spop + spush
                if d2 > K:  # overflow
                    total += C.mig_base[c, n0] + C.ser[K]
                    bits += int(C.ctx_bits[K])
                    forced += 1
                    at_native = True
                else:
                    d = d2
        # phase 2: access at h
        if h == n0:
            if not at_native:
                total += C.mig_base[c, n0] + C.ser[d]
                bits += int(C.ctx_bits[d])
                migrations += 1
                depths[k] = d
                at_native = True
        else:
            if at_native:
                carry = depth
                total += C.mig_base[n0, h] + C.ser[carry]
                bits += int(C.ctx_bits[carry])
                migrations += 1
                depths[k] = carry
                at_native, c, d = False, h, carry
            elif c != h:
                carry = min(depth, d)
                fl = d - carry
                total += C.mig_base[c, h] + C.ser[carry]
                if fl > 0:
                    total += C.flush[c, fl]
                bits += int(C.ctx_bits[carry])
                migrations += 1
                depths[k] = carry
                c, d = h, carry
    return StackOptimalResult(
        total_cost=total,
        depths=depths,
        migrations=migrations,
        forced_returns=forced,
        migrated_bits=bits,
    )
