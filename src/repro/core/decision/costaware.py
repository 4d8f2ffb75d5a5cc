"""Cost-aware history scheme: per-pair break-even comparison.

:class:`~repro.core.decision.history.HistoryRunLength` compares the
predicted run length against one global threshold — a single
comparator, but blind to *where* the home is: the migration/RA
break-even run length varies with hop distance (serialization is
fixed, hops are not).

:class:`CostAwareHistory` keeps the same last-run-length predictor but
decides by evaluating the actual cost inequality for this (current,
home) pair:

    migrate  iff  L_pred * cost_ra(cur, home) > cost_mig(cur, home) +
                  cost_mig(home, cur)

In hardware this is the same predictor table plus two small ROM
lookups and one multiply-compare — still cheap, and it removes the
threshold tuning knob entirely. The benches show it dominating the
scalar-threshold scheme across workloads.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import CostModel
from repro.core.decision.base import Decision
from repro.core.decision.history import RunLengthScheme
from repro.registry import SCHEMES


class CostAwareHistory(RunLengthScheme):
    """Last-run-length prediction + per-pair break-even decision."""

    name = "costaware-history"

    def __init__(
        self,
        cost_model: CostModel,
        table_size: int = 64,
        initial_prediction: float = 1.0,
        write_fraction_hint: float = 0.2,
    ) -> None:
        super().__init__(table_size, initial_prediction)
        self.cost_model = cost_model
        self.write_fraction_hint = write_fraction_hint
        mig = np.asarray(cost_model.migration)
        ra_r = np.asarray(cost_model.remote_read)
        ra_w = np.asarray(cost_model.remote_write)
        # expected per-access RA cost blends reads/writes by the hint
        self._ra = (1 - write_fraction_hint) * ra_r + write_fraction_hint * ra_w
        self._round_trip = mig + mig.T

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        L = self.predictor.predict(home)
        if L * self._ra[current, home] > self._round_trip[current, home]:
            return Decision.MIGRATE
        return Decision.REMOTE

    def clone(self) -> "CostAwareHistory":
        return CostAwareHistory(
            self.cost_model,
            self.table_size,
            self.initial_prediction,
            self.write_fraction_hint,
        )


@SCHEMES.register("costaware", "run-length prediction + per-pair break-even test")
def _make_costaware(
    cost,
    table_size: int = 64,
    initial_prediction: float = 1.0,
    write_fraction_hint: float = 0.2,
):
    return CostAwareHistory(cost, table_size, initial_prediction, write_fraction_hint)
