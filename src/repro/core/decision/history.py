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
"""

from __future__ import annotations

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

    def clone(self) -> "HistoryRunLength":
        return HistoryRunLength(self.threshold, self.table_size, self.initial_prediction)


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

    def clone(self) -> "AddressIndexedHistory":
        return AddressIndexedHistory(
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
