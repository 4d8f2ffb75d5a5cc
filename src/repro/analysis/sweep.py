"""Parameter-sweep utilities for the benchmark harness and examples.

A sweep is a cartesian product over named parameter lists, evaluated
by a callback returning a result dict per point. Results accumulate
into table rows ready for :func:`repro.analysis.reports.format_table`.

``sweep`` fans callback points out over
:func:`repro.analysis.parallel.parallel_sweep`. ``sweep_specs`` runs
experiment specs and has three paths: the result stores
(:class:`repro.analysis.cache.ResultCache`) answer the points they
hold, the farm evaluates the rest when one is given, and the local
pool (or the serial loop) otherwise.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import Callable, Iterable, Mapping

from repro.analysis.parallel import parallel_sweep
from repro.util.errors import ConfigError


def grid(**params: Iterable) -> list[dict]:
    """Cartesian product of parameter lists as a list of dicts.

    >>> grid(a=[1, 2], b=["x"])
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    if not params:
        return [{}]
    keys = list(params)
    values = [list(params[k]) for k in keys]
    for k, v in zip(keys, values):
        if not v:
            raise ConfigError(f"sweep parameter {k!r} has no values")
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def sweep(
    points: Iterable[Mapping],
    fn: Callable[..., Mapping],
    workers: int = 1,
    chunk: int | None = None,
    point_timeout: float | None = None,
) -> list[dict]:
    """Evaluate ``fn(**point)`` for every point; each row merges the
    point's parameters with the returned metrics. A metric key that
    collides with a parameter key raises :class:`ConfigError` naming
    the key — silent overwrites corrupt result tables.

    ``workers > 1`` evaluates points in parallel processes (row order
    still matches point order; see
    :func:`repro.analysis.parallel.parallel_sweep`). Sweeps whose rows
    should be stored go through :func:`sweep_specs`, whose points are
    specs and so have row keys.
    """
    return parallel_sweep(
        points, fn, workers=workers, chunk=chunk, point_timeout=point_timeout
    )


def _evaluate(
    spec_dicts: list[dict],
    on_row: Callable[[int, Mapping], None],
    workers: int,
    chunk: int | None,
    point_timeout: float | None,
    farm,
) -> None:
    """Evaluate ``spec_dicts`` on the farm, or on the local pool (or
    serially) when there is no farm or none of its workers answers;
    ``on_row(i, row)`` receives each row as it lands."""
    if farm:
        from repro.analysis import farm as farm_mod

        try:
            farm_mod.farm_sweep(
                spec_dicts, farm, point_timeout=point_timeout, chunk=chunk,
                on_row=on_row,
            )
            return
        except farm_mod.FarmUnavailable as exc:
            warnings.warn(
                f"farm has no reachable workers ({exc}); "
                "degrading to the local pool",
                RuntimeWarning,
                stacklevel=3,
            )
    from repro.runner import run_spec_dict

    parallel_sweep(
        [{"spec": d} for d in spec_dicts],
        run_spec_dict,
        workers=workers,
        chunk=chunk,
        point_timeout=point_timeout,
        on_row=on_row,
    )


def sweep_specs(
    base_spec,
    points: Iterable[Mapping],
    workers: int = 1,
    chunk: int | None = None,
    cache: "ResultCache | None" = None,
    point_timeout: float | None = None,
    farm=None,
    resume=None,
) -> list[dict]:
    """Spec-driven sweep: merge each partial ``point`` into
    ``base_spec`` (:func:`repro.runner.merge_spec`), run the resulting
    :class:`~repro.spec.ExperimentSpec` via :func:`repro.runner.run`,
    and return one row per point merging the point's parameters with
    the metrics.

    Differences from :func:`sweep`:

    * Workers receive **serialized spec dicts**, never closures — the
      callback is the module-level :func:`repro.runner.run_spec_dict`,
      so the parallel path works for every spec the parent can
      describe (no silent serial fallback on unpicklable captures).
    * A metric key colliding with a point key (e.g. a ``scheme``
      metric under a ``scheme`` sweep axis) keeps the point's value —
      the axis label is authoritative for its own column.
    * ``cache`` (a :class:`~repro.analysis.cache.ResultCache`) and
      ``resume`` (a path, opened as ``ResultCache(resume)``) are result
      stores. Every point is looked up in them first, by the salted
      row key of :func:`~repro.analysis.cache.row_keys`; only the
      misses are evaluated, each row is recorded in every store as it
      lands (so a sweep that dies at point k has points before k on
      disk), and the stores are flushed before returning. With a store
      attached every row is JSON-canonical, so stored, resumed and
      fresh rows are bit-identical.
    * ``farm`` is a list of ``"host:port"`` addresses of running
      ``repro worker`` processes — or a mapping with ``addrs`` plus
      optional ``auth_token`` / ``heartbeat`` / ``liveness`` /
      ``reconnect`` / ``chunk`` (see
      :func:`repro.analysis.farm.normalize_farm`): the misses are
      dispatched to them over sockets with pull-based work-stealing
      and trace-by-reference distribution
      (:mod:`repro.analysis.farm`). Farm rows pass through JSON
      (values canonical, key order preserved — the same rows, byte for
      byte, a local run yields). When no worker is reachable the sweep
      warns and degrades to the local pool.
    """
    from repro.analysis.cache import ResultCache, canonical_rows, row_keys
    from repro.runner import merge_spec

    points = [dict(p) for p in points]
    spec_dicts = [merge_spec(base_spec, p).to_dict() for p in points]
    stores = [cache] if cache is not None else []
    if resume is not None:
        stores.append(ResultCache(resume))
    try:
        keys = row_keys(spec_dicts) if stores else []
        metrics: list[Mapping | None] = [None] * len(spec_dicts)
        for i, key in enumerate(keys):
            for store in stores:
                metrics[i] = store.get(key)
                if metrics[i] is not None:
                    break
        missing = [i for i, m in enumerate(metrics) if m is None]

        def on_row(j: int, row: Mapping) -> None:
            i = missing[j]
            # pool rows carry their worker point ({"spec": ...}); farm
            # rows are bare metrics
            bare = {k: v for k, v in row.items() if k != "spec"}
            if stores:
                bare = canonical_rows([bare])[0]
                for store in stores:
                    store.put(keys[i], bare)
            metrics[i] = bare

        if missing:
            _evaluate(
                [spec_dicts[i] for i in missing],
                on_row, workers, chunk, point_timeout, farm,
            )
    finally:
        for store in stores:
            store.flush()
        if resume is not None:
            stores[-1].close()

    rows = []
    for point, m in zip(points, metrics):
        row = dict(point)
        for key, value in m.items():
            if key not in row:
                row[key] = value
        rows.append(row)
    return rows


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the standard cross-workload summary statistic).

    Raises :class:`ConfigError` on non-positive inputs — a silent 0 or
    negative value in a ratio geomean is always a bug upstream.
    """
    values = list(values)
    if not values:
        return float("nan")
    for v in values:
        if v <= 0:
            raise ConfigError(f"geomean requires positive values, got {v}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize(rows: list[dict], key: str, baseline_row: int = 0) -> list[dict]:
    """Add ``key + '_norm'`` columns dividing by the baseline row's value."""
    if not rows:
        return rows
    if not (0 <= baseline_row < len(rows)):
        raise ConfigError(f"baseline_row {baseline_row} out of range")
    base = rows[baseline_row][key]
    if base == 0:
        raise ConfigError(f"baseline value for {key!r} is zero")
    for row in rows:
        row[f"{key}_norm"] = row[key] / base
    return rows
