"""Process-parallel sweep execution.

Every headline table in this repo is a cartesian sweep evaluated point
by point, and the points are independent — embarrassingly parallel.
:func:`parallel_sweep` fans the points out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the
three properties the benches rely on:

* **Deterministic ordering** — rows come back in the exact order of
  ``points``, regardless of which worker finished first (chunks are
  submitted and collected in index order).
* **Attributed failures** — an exception inside ``fn`` surfaces in the
  parent as :class:`SweepPointError` carrying the failing point on its
  ``.point`` attribute, chained to the original exception.
* **Graceful degradation** — ``workers=1``, a single point, an
  unpicklable callback, or a pool that cannot start all fall back to
  the in-process serial loop with identical semantics.

The callback contract matches :func:`repro.analysis.sweep.sweep`:
``fn(**point)`` returns a metrics mapping, and the returned row merges
the point's parameters with the metrics. A metric key that collides
with a parameter key raises :class:`~repro.util.errors.ConfigError`
(silent overwrites corrupted tables; see ISSUE 1).

The spec-driven layer (:func:`repro.analysis.sweep.sweep_specs`) leans
on the picklability contract: its callback is always the module-level
:func:`repro.runner.run_spec_dict` and its points are serialized
:class:`~repro.spec.ExperimentSpec` dicts — plain data — so the
parallel path holds for every spec the parent can describe, where a
closure-capturing callback would silently degrade to the serial loop.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Mapping

from repro.util.errors import ConfigError, ReproError

#: Below this many points, pool startup costs more than it saves and
#: :func:`parallel_sweep` runs serially regardless of ``workers``.
POOL_MIN_POINTS = 4


class SweepPointError(ReproError):
    """A sweep callback raised; ``point`` is the failing sweep point."""

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
    CPU-bound simulator processes only adds context-switch overhead
    (the seed's bench ran 4 workers on 1 core and measured a parallel
    "speedup" of 0.5). Benches record both the requested and this
    effective value so results stay interpretable across machines.
    """
    if requested is None:
        return default_workers()
    if requested < 1:
        raise ConfigError(f"workers must be >= 1, got {requested}")
    return min(requested, default_workers())


def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _eval_point(fn: Callable[..., Mapping], point: Mapping) -> dict:
    try:
        metrics = fn(**point)
    except Exception as exc:
        raise SweepPointError(
            f"sweep point {dict(point)!r} failed: {type(exc).__name__}: {exc}",
            point=point,
        ) from exc
    return merge_row(point, metrics)


def _run_chunk(fn: Callable[..., Mapping], chunk: list[dict]) -> list:
    """Worker entry point: evaluate a chunk, packaging any failure.

    The failure is shipped back as a marker tuple rather than raised,
    so the parent can re-raise with the point attached even when the
    original exception is unpicklable.
    """
    rows: list = []
    for point in chunk:
        try:
            rows.append(("ok", _eval_point(fn, point)))
        except Exception as exc:
            packaged = exc if _is_picklable(exc) else ReproError(
                f"{type(exc).__name__}: {exc}"
            )
            rows.append(("err", dict(point), packaged))
            break  # remaining points in this chunk are not evaluated
    return rows


def _chunked(points: list[dict], chunk: int) -> list[list[dict]]:
    return [points[i : i + chunk] for i in range(0, len(points), chunk)]


# One pool per process, reused across parallel_sweep calls with the
# same worker count. Pool startup (fork/spawn + module imports in every
# worker) costs hundreds of ms; a bench that runs ten sweeps back to
# back was paying it ten times.
_pool: ProcessPoolExecutor | None = None
_pool_workers: int = 0


def _get_pool(max_workers: int) -> ProcessPoolExecutor | None:
    global _pool, _pool_workers
    if _pool is not None and _pool_workers == max_workers:
        return _pool
    shutdown_pool()
    try:
        _pool = ProcessPoolExecutor(max_workers=max_workers)
        _pool_workers = max_workers
    except OSError:  # no usable multiprocessing primitives on this host
        _pool = None
        _pool_workers = 0
    return _pool


def _kill_pool_workers() -> None:
    """Forcibly terminate the cached pool's worker processes.

    ``shutdown(cancel_futures=True)`` cannot stop a worker that is
    *currently executing* a hung point — only SIGTERM can. Used by the
    point-timeout path before disposing the pool.
    """
    if _pool is None:
        return
    for proc in list(getattr(_pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:
            pass


def shutdown_pool() -> None:
    """Dispose the cached worker pool (idempotent; registered atexit).

    Also called when a pool breaks mid-sweep — a fresh pool is the only
    recovery from a killed worker, and keeping the broken one cached
    would fail every later sweep in the process.
    """
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_pool)


#: Seconds slept before the single retry after a transient pool break.
POOL_RETRY_BACKOFF = 0.5


def parallel_sweep(
    points: Iterable[Mapping],
    fn: Callable[..., Mapping],
    workers: int | None = None,
    chunk: int | None = None,
    point_timeout: float | None = None,
    on_row: Callable[[int, dict], None] | None = None,
) -> list[dict]:
    """Evaluate ``fn(**point)`` for every point, fanning out over
    ``workers`` processes.

    ``workers=None`` uses :func:`default_workers` (the CPU count);
    requests above the CPU count are clamped (:func:`effective_workers`).
    Sweeps of fewer than :data:`POOL_MIN_POINTS` points, an effective
    worker count of 1, or an unpicklable ``fn`` run serially in-process
    with identical semantics. ``chunk`` is the number of points shipped
    to a worker per task (default: enough to give each worker ~4 tasks,
    amortizing pickling without starving the pool). The pool itself is
    created once per process and reused across calls.

    ``point_timeout`` (seconds, wall clock) bounds the wait for each
    chunk's result; when set, ``chunk`` defaults to 1 so a timeout
    attributes to a single point. A hung worker is SIGTERMed, the pool
    disposed, and :class:`SweepPointError` raised with that point —
    never a silent hang. (The bound is approximate for queued chunks:
    the clock starts when the parent begins waiting on that chunk.)

    A transiently broken pool (worker OOM-killed, segfault) is retried
    once on a fresh pool after a short backoff — already-collected
    chunks are not re-evaluated. If the fresh pool breaks too, the
    remaining points finish serially in-process: degraded throughput,
    never a lost sweep.

    Row order always matches point order. Worker exceptions re-raise
    in the parent as :class:`SweepPointError` with the failing point.
    ``on_row(i, row)``, when given, is called with each row as it
    lands, in point order, so the rows before a failing point have
    all been handed over when its error is raised.
    """
    points = [dict(p) for p in points]
    workers = effective_workers(workers)
    if chunk is not None and chunk < 1:
        raise ConfigError(f"chunk must be >= 1, got {chunk}")
    if point_timeout is not None and point_timeout <= 0:
        raise ConfigError(f"point_timeout must be > 0, got {point_timeout}")

    rows: list[dict] = []

    def emit(row: dict) -> None:
        if on_row is not None:
            on_row(len(rows), row)
        rows.append(row)

    def finish_serially(rest: list[dict]) -> list[dict]:
        for point in rest:
            emit(_eval_point(fn, point))
        return rows

    if (
        workers == 1
        or len(points) < POOL_MIN_POINTS
        or not _is_picklable(fn)
    ):
        return finish_serially(points)

    if chunk is None:
        chunk = 1 if point_timeout is not None else max(
            1, -(-len(points) // (workers * 4))
        )

    chunks = _chunked(points, chunk)
    done = 0  # chunks fully collected into rows
    pool_breaks = 0
    while done < len(chunks):
        executor = _get_pool(min(workers, len(chunks) - done))
        if executor is None:
            return finish_serially([p for c in chunks[done:] for p in c])
        try:
            futures = [executor.submit(_run_chunk, fn, c) for c in chunks[done:]]
            # collect in submission order -> deterministic row ordering;
            # ``done`` advances per collected chunk, so chunks[done] is
            # always the chunk the current future evaluated
            for future in futures:
                wait = (
                    point_timeout * len(chunks[done])
                    if point_timeout is not None
                    else None
                )
                try:
                    markers = future.result(timeout=wait)
                except FuturesTimeout:
                    point = chunks[done][0]
                    _kill_pool_workers()
                    shutdown_pool()
                    raise SweepPointError(
                        f"sweep point {point!r} exceeded point_timeout="
                        f"{point_timeout}s; worker killed",
                        point=point,
                    ) from None
                for marker in markers:
                    if marker[0] == "err":
                        _, point, exc = marker
                        if isinstance(exc, (SweepPointError, ConfigError)):
                            raise exc  # already attributed / a collision
                        raise SweepPointError(
                            f"sweep point {point!r} failed: "
                            f"{type(exc).__name__}: {exc}",
                            point=point,
                        ) from exc
                    emit(marker[1])
                done += 1
        except BrokenProcessPool:
            # a worker died (OOM kill, segfault); the pool is unusable —
            # dispose it so the next attempt starts clean
            shutdown_pool()
            pool_breaks += 1
            if pool_breaks > 1:
                # second break: stop trusting multiprocessing on this
                # host and finish the remaining points in-process
                return finish_serially([p for c in chunks[done:] for p in c])
            time.sleep(POOL_RETRY_BACKOFF)
    return rows
