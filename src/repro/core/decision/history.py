"""History-based decision schemes.

Figure 2 shows the decisive statistic is the *run length* at the
remote core: length-1 runs should use RA, long runs should migrate.
A hardware unit can't see the future, but run lengths are strongly
repetitive (stencil codes revisit the same boundary in the same way
every iteration), so last-value prediction on the observed run length
is the natural learned scheme — this is the flavour of scheme the
paper's conclusion says the model is built to evaluate.

:class:`HistoryRunLength` keeps a small direct-mapped table indexed by
home core: it records the length of the last completed remote run at
that home and migrates when the prediction meets the break-even
threshold (2 x migration / remote-access, from the cost model).

Both schemes here learn from every run, whatever was decided, and
decide from the predictor alone, so their choices over a whole trace
follow from the run sequence: each gives a
:meth:`~repro.core.decision.base.DecisionScheme.plan`. A prediction is
the length of the thread's latest earlier run with the same key, or the
initial prediction if there is none; for a run's first access the
earlier runs end two runs back (the previous run's length lands after
that access is decided), for the rest of the run one run back.
"""

from __future__ import annotations

import numpy as np

from repro.core.decision.base import Decision, DecisionScheme
from repro.registry import SCHEMES
from repro.util.errors import ConfigError


class PerHomePredictor:
    """Direct-mapped last-run-length table, indexed by home core.

    ``table_size`` models a finite hardware table (homes alias when
    P > table_size); a real implementation would index by PC or
    address region — home-core indexing is the cheapest useful choice.
    """

    def __init__(self, table_size: int = 64, initial: float = 1.0) -> None:
        if table_size <= 0:
            raise ConfigError("table_size must be positive")
        self.table_size = table_size
        self.initial = initial
        self._table = [initial] * table_size

    def predict(self, home: int) -> float:
        return self._table[home % self.table_size]

    def update(self, home: int, run_length: int) -> None:
        self._table[home % self.table_size] = float(run_length)

    def reset(self) -> None:
        self._table = [self.initial] * self.table_size


def _predictor(table, run_keys: np.ndarray, initial: float):
    """Every thread's last-run-length table over ``table`` at once, with
    run ``r`` keyed by ``run_keys[r]``.

    Returns ``predict(keys, runs, lag)``: per query, the length of the
    latest run at or before ``runs - lag`` of ``runs``' thread whose key
    is ``keys``, or ``initial``. One ``searchsorted`` answers all
    queries, over the runs sorted by the composite ``key * R + run``,
    which fits in int64: a key is below the table size, and the scheme
    holds a table of that many entries in memory. A hit in an earlier
    thread means the thread has no such run."""
    R = run_keys.size
    known = np.sort(run_keys * R + np.arange(R))

    def predict(keys: np.ndarray, runs: np.ndarray, lag: int) -> np.ndarray:
        pos = np.searchsorted(known, keys * R + runs - lag + 1) - 1
        j = known[np.maximum(pos, 0)]
        found = (pos >= 0) & (j // R == keys)
        j %= R
        found &= table.thread[j] == table.thread[runs]
        return np.where(found, table.lengths[j], initial)

    return predict


#: how a run-length scheme learns a run and under which key: a plan
#: holds for a subclass only if it keeps these (and ``decide``)
_LEARNS = ("observe_run", "_key")


class RunLengthScheme(DecisionScheme):
    """A last-run-length predictor that learns at run boundaries.

    The scheme watches the stream of homes via :meth:`observe`. A run at
    home h starts when the thread begins accessing home h and ends at
    the first access homed elsewhere, where its length updates the
    predictor entry the run is keyed by (:meth:`_key`: its home, here).
    The update lands *after* the ``decide`` of that next run's first
    access, because ``observe`` follows ``decide``. Between boundaries
    the predictor is fixed, so the per-access ``observe`` calls of a run
    amount to one :meth:`observe_run`, which the evaluator calls
    instead. Subclasses supply ``decide`` from the predictor; one whose
    ``decide`` reads the address declares ``decides_per_access``.
    """

    def __init__(self, table_size: int, initial_prediction: float) -> None:
        self.table_size = table_size
        self.initial_prediction = initial_prediction
        self.predictor = PerHomePredictor(table_size, initial_prediction)
        self.reset()

    def _key(self, home: int, addr: int) -> int:
        """The predictor entry a run starting at ``addr`` updates."""
        return home

    def observe(self, current: int, home: int, addr: int, write: bool, decision: Decision) -> None:
        if home == self._run_home:
            self._run_len += 1
        else:
            self.observe_run(home, 1, addr)

    def observe_run(self, home: int, length: int, addr: int) -> None:
        """A run of ``length`` accesses at ``home`` begins at ``addr``:
        the previous run's length updates the predictor."""
        if self._run_home is not None:
            self.predictor.update(self._run_key, self._run_len)
        self._run_home = home
        self._run_key = self._key(home, addr)
        self._run_len = length

    def reset(self) -> None:
        self.predictor.reset()
        self._run_home = None
        self._run_key = 0
        self._run_len = 0


class HistoryRunLength(RunLengthScheme):
    """Migrate when the predicted run length >= ``threshold``.

    ``threshold`` should be the migration/RA break-even run length
    (:meth:`repro.core.costs.CostModel.break_even_run_length`); a
    scalar threshold keeps the hardware a single comparator.
    """

    name = "history-runlength"

    def __init__(
        self,
        threshold: float,
        table_size: int = 64,
        initial_prediction: float = 1.0,
    ) -> None:
        if threshold < 0:
            raise ConfigError("threshold must be >= 0")
        super().__init__(table_size, initial_prediction)
        self.threshold = threshold

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        if self.predictor.predict(home) >= self.threshold:
            return Decision.MIGRATE
        return Decision.REMOTE

    def plan(self, table) -> np.ndarray | None:
        """A run migrates at its first access, at its second, or not at
        all, as its home's entry predicts before and after the previous
        run is learned."""
        if not self._inherits(HistoryRunLength, "decide", *_LEARNS):
            return None
        keys = table.homes.astype(np.int64) % self.table_size
        runs = np.arange(keys.size)
        predict = _predictor(table, keys, self.initial_prediction)
        first = predict(keys, runs, 2) >= self.threshold
        rest = predict(keys, runs, 1) >= self.threshold
        return np.where(first, 0, np.where(rest, 1, table.lengths))

    def clone(self) -> "HistoryRunLength":
        return type(self)(self.threshold, self.table_size, self.initial_prediction)


class AddressIndexedHistory(RunLengthScheme):
    """Run-length prediction indexed by address *block*, not home core.

    The EM² hardware predictors index their tables by instruction or
    data address rather than destination core: two different data
    structures homed at the same core can have very different run
    behaviours (e.g. a lock word vs a boundary row), which a per-home
    table conflates. The table is direct-mapped over address blocks
    (aliasing models finite hardware). A run's length updates the entry
    of the block of its first access; each access is decided by the
    entry of its own block.
    """

    name = "addr-history"
    decides_per_access = True

    def __init__(
        self,
        threshold: float,
        table_size: int = 256,
        block_words: int = 16,
        initial_prediction: float = 1.0,
    ) -> None:
        if threshold < 0:
            raise ConfigError("threshold must be >= 0")
        if block_words <= 0:
            raise ConfigError("block_words must be positive")
        super().__init__(table_size, initial_prediction)
        self.threshold = threshold
        self.block_words = block_words

    def _key(self, home: int, addr: int) -> int:
        return (addr // self.block_words) % self.table_size

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        if self.predictor.predict(self._key(home, addr)) >= self.threshold:
            return Decision.MIGRATE
        return Decision.REMOTE

    def plan(self, table) -> np.ndarray | None:
        """A run's first access is decided by its own block's entry, the
        rest of the run access by access by each one's block's entry once
        the previous run is learned. Within the rest an entry is fixed,
        so only an access whose block differs from the one before can be
        the first to migrate; only those are looked up, in blocks of
        whole runs."""
        if not self._inherits(AddressIndexedHistory, "decide", *_LEARNS):
            return None
        n = table.lengths
        runs = np.arange(n.size)
        run_keys = table.first_addrs() // self.block_words % self.table_size
        predict = _predictor(table, run_keys, self.initial_prediction)
        k = np.where(predict(run_keys, runs, 2) >= self.threshold, 0, n)
        for r0, r1, addrs in table.addr_blocks():
            m = n[r0:r1]
            run_of = np.repeat(runs[r0:r1], m)
            keys = addrs.astype(np.int64) // self.block_words % self.table_size
            starts = np.cumsum(m) - m
            ask = np.diff(keys, prepend=-1) != 0
            ask[starts[m > 1] + 1] = True  # where the rest of a run begins
            ask[starts] = False  # a first access is decided above
            ask &= k[run_of] > 0
            at = np.flatnonzero(ask)
            hit = at[predict(keys[at], run_of[at], 1) >= self.threshold]
            first = hit[np.flatnonzero(np.diff(run_of[hit], prepend=-1))]
            k[run_of[first]] = first - starts[run_of[first] - r0]
        return k

    def clone(self) -> "AddressIndexedHistory":
        return type(self)(
            self.threshold, self.table_size, self.block_words, self.initial_prediction
        )


# ------------------------------------------------------------- registry
def _default_threshold(cost) -> float:
    """The scalar threshold the paper's comparator would be fused with:
    the migrate/RA break-even run length for the longest mesh hop."""
    return cost.break_even_run_length(0, cost.config.num_cores - 1)


@SCHEMES.register("history", "per-home last-run-length prediction vs break-even")
def _make_history(
    cost,
    threshold: float | None = None,
    table_size: int = 64,
    initial_prediction: float = 1.0,
):
    if threshold is None:
        threshold = _default_threshold(cost)
    return HistoryRunLength(threshold, table_size, initial_prediction)


@SCHEMES.register("addr-history", "run-length prediction indexed by address block")
def _make_addr_history(
    cost,
    threshold: float | None = None,
    table_size: int = 256,
    block_words: int = 16,
    initial_prediction: float = 1.0,
):
    if threshold is None:
        threshold = _default_threshold(cost)
    return AddressIndexedHistory(threshold, table_size, block_words, initial_prediction)
