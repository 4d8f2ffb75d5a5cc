"""Epoch-based dynamic data placement.

The announcement fixes first-touch placement and cites OS-level and
EM²-specific placement optimization ([11], [12]) as the complementary
lever. A natural extension evaluated here: re-home blocks between
*epochs* based on the previous epoch's access profile, paying a data-
movement cost for each re-homed block.

Model
-----
The trace is cut into ``num_epochs`` equal slices per thread. For
epoch ``e`` the placement is:

* ``oracle=False`` (reactive): the profile-optimal placement of epoch
  ``e-1`` (epoch 0 uses first-touch) — what an OS/hardware profiler
  could actually do;
* ``oracle=True``: the profile-optimal placement of epoch ``e``
  itself — the upper bound for epoch-granular re-placement.

Re-homing a block from core ``a`` to ``b`` moves one cache line over
the network: ``line-size`` payload, hop distance ``dist(a, b)``; the
total reconfiguration traffic is charged between epochs.

:func:`evaluate_dynamic_placement` returns per-epoch costs plus the
static-placement baseline, so benches can report when re-placement
pays off (phase-changing workloads) and when it does not (stable ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import CostModel
from repro.core.decision.base import DecisionScheme
from repro.core.evaluation import evaluate_scheme
from repro.placement.base import Placement
from repro.placement.first_touch import FirstTouchPlacement
from repro.placement.profile_opt import ProfileOptPlacement
from repro.trace.events import MultiTrace
from repro.util.errors import ConfigError


def slice_epochs(trace: MultiTrace, num_epochs: int) -> list[MultiTrace]:
    """Cut every thread's trace into ``num_epochs`` equal index slices."""
    if num_epochs < 1:
        raise ConfigError("num_epochs must be >= 1")
    epochs = []
    for e in range(num_epochs):
        threads = []
        for tr in trace.threads:
            lo = (tr.size * e) // num_epochs
            hi = (tr.size * (e + 1)) // num_epochs
            threads.append(tr[lo:hi])
        epochs.append(
            MultiTrace(
                threads=threads,
                thread_native_core=list(trace.thread_native_core),
                name=f"{trace.name}@epoch{e}",
                params=dict(trace.params),
            )
        )
    return epochs


def rehoming_traffic_bits(
    old: Placement, new: Placement, blocks: np.ndarray, cost_model: CostModel
) -> tuple[int, float]:
    """(bits moved, total transport cost) to re-home ``blocks``.

    Only blocks whose home changes move; each moves one line of
    ``block_words`` words plus a control header.
    """
    blocks = np.unique(np.asarray(blocks, dtype=np.int64))
    if blocks.size == 0:
        return 0, 0.0
    word_addrs = blocks * old.block_words
    src = old.home_of(word_addrs)
    dst = new.home_of(word_addrs)
    moved = src != dst
    if not moved.any():
        return 0, 0.0
    cfg = cost_model.config
    line_bits = old.block_words * cfg.word_bits + 64
    noc = cfg.noc
    flits = noc.message_flits(line_bits)
    hops = cost_model.topology.distance_matrix[src[moved], dst[moved]]
    bits = int(moved.sum()) * flits * noc.flit_bits
    cost = float(noc.zero_load_latency(hops, line_bits).sum())
    return bits, cost


@dataclass
class DynamicPlacementResult:
    epoch_costs: list[float]
    rehoming_bits: int
    rehoming_cost: float
    static_cost: float
    migrations: int = 0
    remote_accesses: int = 0

    @property
    def total_cost(self) -> float:
        return sum(self.epoch_costs) + self.rehoming_cost

    @property
    def improvement_over_static(self) -> float:
        """>1 means dynamic re-placement won (cost ratio static/dynamic)."""
        return self.static_cost / self.total_cost if self.total_cost else float("inf")


def evaluate_dynamic_placement(
    trace: MultiTrace,
    num_cores: int,
    scheme: DecisionScheme,
    cost_model: CostModel,
    num_epochs: int = 4,
    oracle: bool = False,
    block_words: int = 16,
) -> DynamicPlacementResult:
    """Epoch-wise re-placement vs a single static first-touch placement."""
    epochs = slice_epochs(trace, num_epochs)
    static = FirstTouchPlacement(trace, num_cores, block_words)
    static_cost = evaluate_scheme(trace, static, scheme, cost_model).total_cost

    # hardware first-touch homes a block at its first access regardless
    # of epoch; blocks never re-homed keep that assignment, so the full
    # first-touch map is the base of the fallback chain
    current: Placement = static
    epoch_costs: list[float] = []
    total_bits = 0
    total_rehoming = 0.0
    migrations = remote = 0
    for e, epoch in enumerate(epochs):
        if e > 0:
            profile_src = epoch if oracle else epochs[e - 1]
            # unprofiled blocks keep their current homes (fallback chain)
            proposed = ProfileOptPlacement(
                profile_src, num_cores, block_words, fallback=current
            )
            touched = np.unique(
                np.concatenate(
                    [current.block_of(tr["addr"]) for tr in epoch.threads if tr.size]
                    or [np.zeros(0, dtype=np.int64)]
                )
            )
            bits, cost = rehoming_traffic_bits(current, proposed, touched, cost_model)
            total_bits += bits
            total_rehoming += cost
            current = proposed
        r = evaluate_scheme(epoch, current, scheme, cost_model)
        epoch_costs.append(r.total_cost)
        migrations += r.migrations
        remote += r.remote_accesses
    return DynamicPlacementResult(
        epoch_costs=epoch_costs,
        rehoming_bits=total_bits,
        rehoming_cost=total_rehoming,
        static_cost=static_cost,
        migrations=migrations,
        remote_accesses=remote,
    )
