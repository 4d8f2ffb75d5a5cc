"""The simplified analytical cost model of §3.

The paper's model "ignores local memory access delays (since the
migration-vs-RA decision mainly affects network delays)" and considers
one thread at a time. Costs are therefore pure network costs:

* ``migration(i, j)`` — one-way transport of the full execution
  context (1–2 Kbit) from core *i* to core *j*: fixed protocol
  overhead + head-flit route latency + context serialization.
* ``remote_access(i, j)`` — round trip: a small request (address +
  opcode, one word for stores) to *j* and a reply (data word for
  loads, ack for stores) back to *i*.

Both are exposed as precomputed ``(P, P)`` matrices so the DP and the
scheme evaluators are fully vectorizable. Stack-EM² migration costs
(context size varying with carried depth, §4) come from
:meth:`CostModel.stack_migration`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.arch.config import SystemConfig
from repro.arch.topology import Topology, topology_for


class MatrixRows(dict):
    """core -> that core's row of each given ``(P, P)`` matrix as a
    list, converted the first time the core is looked up: per-access
    code indexes Python lists, and only consulted cores' rows are
    ever converted."""

    def __init__(self, *matrices: np.ndarray) -> None:
        super().__init__()
        self.matrices = matrices

    def __missing__(self, core: int) -> tuple[list[float], ...]:
        rows = self[core] = tuple(m[core].tolist() for m in self.matrices)
        return rows


class CostModel:
    """Precomputed migration / remote-access cost matrices."""

    def __init__(self, config: SystemConfig, topology: Topology | None = None) -> None:
        self.config = config
        self.topology = topology if topology is not None else topology_for(config)
        if self.topology.num_cores != config.num_cores:
            from repro.util.errors import ConfigError

            raise ConfigError(
                f"topology has {self.topology.num_cores} cores, config says {config.num_cores}"
            )

    # -- one formula per cost, over a hop count or an array of them ----
    def _migration(self, hops, context_bits: int):
        """One-way context transfer: fixed overhead plus transport."""
        cfg = self.config
        return cfg.cost.migration_fixed + cfg.noc.zero_load_latency(hops, context_bits)

    def _round_trip(self, hops, write: bool):
        """Remote-access round trip: request out, reply back."""
        cfg = self.config
        noc = cfg.noc
        return (
            2 * cfg.cost.remote_access_fixed
            + noc.zero_load_latency(hops, cfg.ra_request_bits(write))
            + noc.zero_load_latency(hops, cfg.ra_reply_bits(write))
        )

    # -- scalar queries ----------------------------------------------------
    # One entry each, over a single ``topology.distance`` lookup: scalar
    # queries (scheme default thresholds, spot checks) must not pin an
    # O(P²) table onto a topology shared with a thousand-core machine.
    def migration_cost(self, src: int, dst: int) -> float:
        """One ``migration[src, dst]`` entry without the (P, P) matrix."""
        if src == dst:
            return 0.0
        hops = float(self.topology.distance(src, dst))
        return self._migration(hops, self.config.context.full_context_bits)

    def remote_access_cost(self, src: int, dst: int, write: bool) -> float:
        """One remote-access round-trip entry without the (P, P) matrix."""
        if src == dst:
            return 0.0
        return self._round_trip(float(self.topology.distance(src, dst)), write)

    # -- matrices ----------------------------------------------------------
    @cached_property
    def _hops(self) -> np.ndarray:
        return self.topology.distance_matrix.astype(np.float64)

    @staticmethod
    def _matrix(costs: np.ndarray) -> np.ndarray:
        """A (P, P) cost matrix: free diagonal, read-only."""
        np.fill_diagonal(costs, 0.0)
        costs.setflags(write=False)
        return costs

    @cached_property
    def migration(self) -> np.ndarray:
        """(P, P) one-way migration cost; diagonal is 0 (no migration)."""
        return self.migration_with_context(self.config.context.full_context_bits)

    def migration_with_context(self, context_bits: int) -> np.ndarray:
        """Migration matrix for an arbitrary context size (sweeps, §5)."""
        return self._matrix(self._migration(self._hops, context_bits))

    @cached_property
    def remote_read(self) -> np.ndarray:
        """(P, P) remote-access round-trip cost for loads; diagonal 0."""
        return self._matrix(self._round_trip(self._hops, write=False))

    @cached_property
    def remote_write(self) -> np.ndarray:
        """(P, P) remote-access round trip for stores (data out, ack back)."""
        return self._matrix(self._round_trip(self._hops, write=True))

    def remote_access(self, write: bool) -> np.ndarray:
        return self.remote_write if write else self.remote_read

    def stack_migration(self, depth: int) -> np.ndarray:
        """(P, P) one-way stack-EM² migration carrying ``depth`` entries."""
        bits = self.config.context.stack_context_bits(depth)
        return self.migration_with_context(bits)

    # -- traffic (bits on the network, the power proxy of §5) -------------
    def migration_bits(self, context_bits: int | None = None) -> int:
        ctx = self.config.context.full_context_bits if context_bits is None else context_bits
        flits = self.config.noc.message_flits(ctx)
        return flits * self.config.noc.flit_bits

    def remote_access_bits(self, write: bool) -> int:
        cfg = self.config
        noc = cfg.noc
        flits = noc.message_flits(cfg.ra_request_bits(write)) + noc.message_flits(
            cfg.ra_reply_bits(write)
        )
        return flits * noc.flit_bits

    # -- break-even analysis ------------------------------------------------
    def break_even_run_length(self, src: int, dst: int, write_fraction: float = 0.0) -> float:
        """Run length at which migrating to ``dst`` beats repeated RA.

        Migrating costs ``2 * migration`` (there and eventually back)
        amortized over L accesses; RA costs ``L * remote_access``.
        Solving L * ra >= 2 * mig gives the crossover — the analytical
        knob behind run-length-based decision schemes.
        """
        ra = (1 - write_fraction) * self.remote_access_cost(
            src, dst, write=False
        ) + write_fraction * self.remote_access_cost(src, dst, write=True)
        if ra <= 0:
            return float("inf")
        return 2.0 * self.migration_cost(src, dst) / ra
