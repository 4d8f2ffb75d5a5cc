"""Parameter-sweep utilities for the benchmark harness and examples.

A sweep is a cartesian product over named parameter lists, evaluated
point by point. Results accumulate into table rows ready for
:func:`repro.analysis.reports.format_table`.

``sweep`` runs a callback for every point in-process. ``sweep_specs``
runs experiment specs: the result stores
(:class:`repro.analysis.cache.ResultCache`) answer the points they
hold, and the rest go to one dispatcher, the farm coordinator
(:class:`repro.analysis.farm.FarmCoordinator`) — over sockets to
``repro worker`` processes when a farm is given, to local worker
processes for ``workers > 1`` — or to the in-process serial loop.
Every path evaluates through :func:`eval_specs`, so a row is the same
canonical JSON value whichever path produced it.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from typing import Callable, Iterable, Mapping

from repro.util.errors import ConfigError, ReproError

#: Below this many points, starting worker processes costs more than
#: it saves and ``sweep_specs`` runs serially regardless of ``workers``.
LOCAL_MIN_POINTS = 4


class SweepPointError(ReproError):
    """A sweep point failed; ``point`` is the failing sweep point (the
    callback's keyword arguments for :func:`sweep`, the spec dict for
    :func:`sweep_specs`)."""

    def __init__(self, message: str, point: Mapping | None = None) -> None:
        super().__init__(message)
        self.point = dict(point) if point is not None else None


def merge_row(point: Mapping, metrics: Mapping) -> dict:
    """Merge a sweep point with its metrics, rejecting key collisions."""
    row = dict(point)
    for key in metrics:
        if key in row:
            raise ConfigError(
                f"sweep metric key {key!r} collides with a parameter key "
                f"(point {row!r}); rename one of them"
            )
    row.update(metrics)
    return row


def default_workers() -> int:
    """Worker count when the caller passes ``workers=None``."""
    return max(os.cpu_count() or 1, 1)


def effective_workers(requested: int | None) -> int:
    """The worker count actually used for ``requested``.

    Requests are clamped to the CPU count: oversubscribing cores with
    CPU-bound simulator processes only adds context-switch overhead.
    Benches record both the requested and this effective value so
    results stay interpretable across machines.
    """
    if requested is None:
        return default_workers()
    if requested < 1:
        raise ConfigError(f"workers must be >= 1, got {requested}")
    return min(requested, default_workers())


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


def sweep(points: Iterable[Mapping], fn: Callable[..., Mapping]) -> list[dict]:
    """Evaluate ``fn(**point)`` for every point, in order and
    in-process; each row merges the point's parameters with the
    returned metrics. A metric key that collides with a parameter key
    raises :class:`ConfigError` naming the key — silent overwrites
    corrupt result tables — and an exception in ``fn`` raises
    :class:`SweepPointError` carrying the point. Sweeps that should
    run in parallel or be stored go through :func:`sweep_specs`, whose
    points are specs.
    """
    rows = []
    for point in points:
        try:
            metrics = fn(**point)
        except Exception as exc:
            raise SweepPointError(
                f"sweep point {dict(point)!r} failed: {type(exc).__name__}: {exc}",
                point=point,
            ) from exc
        rows.append(merge_row(point, metrics))
    return rows


def eval_specs(spec_dicts: list[dict]) -> tuple[list[dict], Exception | None]:
    """The chunk evaluator every sweep path shares: run each spec dict
    in order and return its metrics as canonical rows (plain JSON
    values, as :func:`~repro.analysis.cache.canonical_rows` makes
    them). Evaluation stops at the first failing spec; its exception
    is returned next to the rows of the specs before it."""
    from repro import runner
    from repro.analysis.cache import canonical_rows

    rows: list[dict] = []
    for spec in spec_dicts:
        try:
            rows.append(canonical_rows([runner.run_spec_dict(spec)])[0])
        except Exception as exc:
            return rows, exc
    return rows, None


def point_failed(spec: Mapping, where: str, error: str) -> SweepPointError:
    """The error a failed spec point raises; ``where`` says where it
    ran ("in this process", "on worker HOST:PORT", ...)."""
    return SweepPointError(
        f"sweep point {dict(spec)!r} failed {where}: {error}", point=spec
    )


def eval_serially(spec_dicts: list[dict], on_row: Callable[[int, dict], None]) -> None:
    """The in-process serial loop: ``on_row(i, row)`` receives each
    canonical row as it lands, so the rows before a failing point have
    all been handed over when its :class:`SweepPointError` is raised."""
    for i, spec in enumerate(spec_dicts):
        rows, exc = eval_specs([spec])
        if exc is not None:
            raise point_failed(
                spec, "in this process", f"{type(exc).__name__}: {exc}"
            ) from exc
        on_row(i, rows[0])


def _evaluate(
    spec_dicts: list[dict],
    on_row: Callable[[int, dict], None],
    workers: int,
    point_timeout: float | None,
    farm,
) -> None:
    """Evaluate ``spec_dicts`` on the farm; on local worker processes
    when there is no farm (or none of its workers answers) and
    ``workers`` > 1; serially otherwise. ``on_row(i, row)`` receives
    each row as it lands."""
    local = workers > 1 and len(spec_dicts) >= LOCAL_MIN_POINTS
    if farm or local:  # the serial loop needs no farm import
        from repro.analysis import farm as farm_mod
    if farm:
        try:
            farm_mod.farm_sweep(
                spec_dicts, farm, point_timeout=point_timeout, on_row=on_row
            )
            return
        except farm_mod.FarmUnavailable as exc:
            warnings.warn(
                f"farm has no reachable workers ({exc}); "
                "degrading to local evaluation",
                RuntimeWarning,
                stacklevel=3,
            )
    if local:
        farm_mod.FarmCoordinator(
            spec_dicts, local=workers, point_timeout=point_timeout, on_row=on_row
        ).run()
    else:
        eval_serially(spec_dicts, on_row)


def sweep_specs(
    base_spec,
    points: Iterable[Mapping],
    workers: int | None = 1,
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

    * Points are evaluated as **serialized spec dicts**, so they can
      run in other processes: ``workers > 1`` (clamped to the CPU
      count, :func:`effective_workers`; ``None`` = the CPU count)
      starts that many local worker processes for a sweep of at least
      :data:`LOCAL_MIN_POINTS` points, fed by the farm coordinator.
      ``point_timeout`` (seconds) bounds each point there: a point
      still running past it raises :class:`SweepPointError` naming it,
      and a hung local process is killed.
    * A metric key colliding with a point key (e.g. a ``scheme``
      metric under a ``scheme`` sweep axis) keeps the point's value —
      the axis label is authoritative for its own column.
    * Metrics are canonical JSON values (:func:`eval_specs`) on every
      path, so serial, parallel, farm, stored and resumed rows compare
      equal, key order included.
    * ``cache`` (a :class:`~repro.analysis.cache.ResultCache`) and
      ``resume`` (a path, opened as ``ResultCache(resume)``) are result
      stores. Every point is looked up in them first, by the salted
      row key of :func:`~repro.analysis.cache.row_keys`; only the
      misses are evaluated, each row is recorded in every store as it
      lands (so a sweep that dies at point k has points before k on
      disk), and the stores are flushed before returning.
    * ``farm`` is a list of ``"host:port"`` addresses of running
      ``repro worker`` processes — or a mapping with ``addrs`` plus
      optional ``auth_token`` / ``heartbeat`` / ``liveness`` /
      ``reconnect`` / ``chunk`` (see
      :func:`repro.analysis.farm.normalize_farm`): the misses are
      dispatched to them over sockets with pull-based work-stealing
      and trace-by-reference distribution
      (:mod:`repro.analysis.farm`). When no worker is reachable the
      sweep warns and evaluates locally.
    """
    from repro.analysis.cache import ResultCache, row_keys
    from repro.runner import merge_spec

    workers = effective_workers(workers)
    if point_timeout is not None and point_timeout <= 0:
        raise ConfigError(f"point_timeout must be > 0, got {point_timeout}")
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

        def on_row(j: int, row: dict) -> None:
            i = missing[j]
            for store in stores:
                store.put(keys[i], row)
            metrics[i] = row

        if missing:
            _evaluate(
                [spec_dicts[i] for i in missing],
                on_row, workers, point_timeout, farm,
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
