"""Striped (modulo) placement: block ``b`` homes at core ``b % P``.

The zero-information baseline: it balances capacity perfectly but
ignores affinity entirely, so private data lands on arbitrary cores
and the migration rate explodes — the foil that shows why placement
matters (§2).
"""

from __future__ import annotations

from repro.placement.base import Placement
from repro.registry import PLACEMENTS


class StripedPlacement(Placement):
    """Pure-function placement; no map is materialized (the fallback
    stripe in :class:`~repro.placement.base.Placement` IS the policy)."""

    def __init__(self, num_cores: int, block_words: int = 16) -> None:
        super().__init__(num_cores, block_words)


def striped(num_cores: int, block_words: int = 16) -> StripedPlacement:
    return StripedPlacement(num_cores, block_words)


@PLACEMENTS.register("striped", "round-robin blocks over cores (pessimal baseline)")
def _make_striped(trace, num_cores: int, block_words: int = 16) -> StripedPlacement:
    return striped(num_cores, block_words)
