"""Statistics primitives shared by all architecture models.

Three primitives cover everything the paper reports:

* :class:`Counter` — monotone event counts (migrations, RA round trips,
  cache hits) with named sub-keys.
* :class:`Histogram` — integer-binned distributions; used for the
  run-length histogram of Figure 2.
* :class:`LatencyStat` — accumulates (count, sum, min, max, sum-of-
  squares) so mean/std are O(1) memory.

A :class:`StatSet` groups them under string names and renders a flat
``dict`` for reporting, so benchmark harnesses don't reach into model
internals.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


class CounterCell:
    """A single-slot integer accumulator bound to one counter key.

    The hot-path alternative to string-keyed :meth:`Counter.add`: a
    simulator hoists ``cell = counters.cell("hits")`` out of its
    per-access loop and bumps ``cell.n += 1`` — one integer add, no
    string hashing or dict lookup per event. Pending bumps are folded
    into the owning counter lazily on any read, so observers see
    exactly the totals they would have seen with ``add``.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


class CounterMatrix:
    """Pooled per-row × per-metric integer counters (e.g. per-core).

    One ``(num_rows, num_metrics)`` numpy matrix replaces ``num_rows *
    num_metrics`` Python attribute counters or dicts — at 4096 cores a
    three-metric matrix is ~96 KB of shared storage instead of
    thousands of boxed ints. Bumps write straight into the matrix;
    scalar totals fold lazily on read (:meth:`totals`), so nothing is
    materialized until somebody asks.
    """

    __slots__ = ("metrics", "data")

    def __init__(self, num_rows: int, metrics: tuple[str, ...]) -> None:
        self.metrics = tuple(metrics)
        self.data = np.zeros((num_rows, len(self.metrics)), dtype=np.int64)

    def totals(self) -> dict[str, int]:
        """Lazy fold: per-metric totals summed over all rows."""
        sums = self.data.sum(axis=0)
        return {m: int(v) for m, v in zip(self.metrics, sums)}

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


class Counter:
    """Named monotone counters. Missing keys read as zero."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = defaultdict(int)
        self._cells: dict[str, CounterCell] = {}

    def add(self, key: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"Counter.add amount must be >= 0, got {amount}")
        self._counts[key] += amount

    def cell(self, key: str) -> CounterCell:
        """Return the integer-bump accumulator for ``key`` (created on
        first request; one cell per key, shared by all callers)."""
        c = self._cells.get(key)
        if c is None:
            c = self._cells[key] = CounterCell()
        return c

    def _fold_cells(self) -> None:
        """Drain pending cell bumps into the key-value store. A key
        whose cell was never bumped stays absent, matching ``add``."""
        for key, c in self._cells.items():
            if c.n:
                self._counts[key] += c.n
                c.n = 0

    def __getitem__(self, key: str) -> int:
        self._fold_cells()
        return self._counts.get(key, 0)

    def keys(self) -> Iterable[str]:
        self._fold_cells()
        return self._counts.keys()

    def total(self) -> int:
        self._fold_cells()
        return sum(self._counts.values())

    def as_dict(self) -> dict[str, int]:
        self._fold_cells()
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._fold_cells()
        return f"Counter({dict(self._counts)!r})"


class Histogram:
    """Histogram over non-negative integer values (e.g. run lengths).

    Values above ``max_bin`` accumulate into the overflow bin so memory
    stays bounded for pathological inputs.
    """

    def __init__(self, max_bin: int = 4096) -> None:
        if max_bin <= 0:
            raise ValueError("max_bin must be positive")
        self.max_bin = max_bin
        self._bins: dict[int, int] = defaultdict(int)
        self.overflow = 0
        self.count = 0
        self.total = 0

    def add(self, value: int, weight: int = 1) -> None:
        if value < 0:
            raise ValueError(f"Histogram values must be >= 0, got {value}")
        self.count += weight
        self.total += value * weight
        if value > self.max_bin:
            self.overflow += weight
        else:
            self._bins[value] += weight

    def __getitem__(self, value: int) -> int:
        return self._bins.get(value, 0)

    def bins(self) -> dict[int, int]:
        """Populated bins as a plain dict (sorted by bin value)."""
        return {k: self._bins[k] for k in sorted(self._bins)}

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def fraction_at(self, value: int) -> float:
        """Fraction of samples exactly equal to ``value``."""
        return self[value] / self.count if self.count else float("nan")



@dataclass
class LatencyStat:
    """Streaming mean/min/max/std accumulator."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    min_value: float = field(default=math.inf)
    max_value: float = field(default=-math.inf)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def std(self) -> float:
        if self.count < 2:
            return 0.0 if self.count == 1 else float("nan")
        var = self.total_sq / self.count - self.mean() ** 2
        return math.sqrt(max(var, 0.0))

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min_value if self.count else float("nan"),
            "max": self.max_value if self.count else float("nan"),
            "std": self.std(),
        }


class StatSet:
    """A named group of statistics owned by one model component."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters = Counter()
        self._histograms: dict[str, Histogram] = {}
        self._latencies: dict[str, LatencyStat] = {}
        self._matrices: dict[str, CounterMatrix] = {}

    def matrix(self, key: str, num_rows: int, metrics: tuple[str, ...]) -> CounterMatrix:
        """Pooled per-row counters (see :class:`CounterMatrix`)."""
        if key not in self._matrices:
            self._matrices[key] = CounterMatrix(num_rows, metrics)
        return self._matrices[key]

    def histogram(self, key: str, max_bin: int = 4096) -> Histogram:
        if key not in self._histograms:
            self._histograms[key] = Histogram(max_bin=max_bin)
        return self._histograms[key]

    def latency(self, key: str) -> LatencyStat:
        if key not in self._latencies:
            self._latencies[key] = LatencyStat()
        return self._latencies[key]

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {f"count.{k}": v for k, v in self.counters.as_dict().items()}
        for k, h in self._histograms.items():
            out[f"hist.{k}.mean"] = h.mean()
            out[f"hist.{k}.count"] = h.count
        for k, lat in self._latencies.items():
            for sk, sv in lat.as_dict().items():
                out[f"lat.{k}.{sk}"] = sv
        for k, mat in self._matrices.items():
            for m, v in mat.totals().items():
                out[f"mat.{k}.{m}"] = v
        return out
