"""Salted, content-addressed result store for sweep points.

Re-running a sweep after an unrelated edit, or after a crash, should
not recompute the points that already finished. :class:`ResultCache`
keeps each point's bare canonical metrics under one row key
(:func:`row_keys`), a stable SHA-256 of *everything that determines
the numbers*:

* a code-version salt (:func:`code_salt`), bumped via
  :data:`CACHE_SCHEMA` whenever an evaluation kernel changes semantics;
* the point's canonical :class:`~repro.spec.ExperimentSpec` dict
  (workload and seed, machine and cost configuration, scheme, ...);
* the trace's :meth:`~repro.trace.events.MultiTrace.digest` when the
  spec names a trace file, whose path says nothing about its content.

Anything not in the key — formatting, plotting, docs — can change
freely and the store still hits. Changing a seed, a config field, a
trace file's bytes, or the salt changes the key, so stale rows are
structurally unreachable rather than explicitly expired.

The rows live in one CRC-framed append-only log
(:class:`~repro.analysis.journal.SweepJournal`) with crash recovery,
so the same store serves warm re-runs (``sweep_specs(cache=...)``) and
crash resume (``sweep_specs(resume=PATH)``). Values pass through JSON,
so stored rows contain plain Python scalars; callers that need stored
and freshly computed rows to compare equal pass both through
:func:`canonical_rows`.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from repro.analysis.journal import SweepJournal
from repro.util.errors import ConfigError

# Bump the schema component when a kernel change invalidates old rows.
CACHE_SCHEMA = 2


def code_salt() -> str:
    """The row-key salt: package version + cache schema version.

    Imported lazily — :mod:`repro` imports :mod:`repro.analysis` at
    package init, so a module-level ``from repro import __version__``
    would be circular.
    """
    from repro import __version__

    return f"repro-{__version__}-schema{CACHE_SCHEMA}"


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays, tuples, and dataclasses
    into canonical JSON-representable Python values."""
    import dataclasses

    import numpy as np

    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()},
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise ConfigError(
        f"cannot build a stable cache key from {type(obj).__name__}: {obj!r}"
    )


def stable_key(obj) -> str:
    """Deterministic SHA-256 hex digest of an arbitrary JSON-able object.

    Dict ordering does not matter (keys are sorted); numpy scalars,
    arrays, tuples, and (frozen) dataclasses are canonicalized first.
    """
    canonical = json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def canonical_rows(rows: list[dict]) -> list[dict]:
    """Rows as they would look after a JSON round trip (plain scalars)."""
    return json.loads(json.dumps([_jsonable(r) for r in rows]))


def row_keys(spec_dicts: list[dict]) -> list[str]:
    """The row key of each canonical spec dict: code salt + spec, plus
    the trace's digest when the spec names a trace file (each distinct
    file is loaded and digested once)."""
    salt = code_salt()
    digests: dict[str, str] = {}
    keys = []
    for spec in spec_dicts:
        parts = {"salt": salt, "spec": spec}
        workload = spec["workload"]
        path = workload.get("trace_path")
        if path is not None:
            if path not in digests:
                from repro.runner import build_workload
                from repro.spec import WorkloadSpec

                trace = build_workload(WorkloadSpec.from_dict(workload))
                digests[path] = trace.digest()
            parts["trace"] = digests[path]
        keys.append(stable_key(parts))
    return keys


class ResultCache:
    """Row key -> bare canonical metrics, in the log at ``path``.

    A store that cannot be opened raises :class:`ConfigError`; a store
    that fails later (disk full, fsync error) warns and carries on, so
    the sweep that computed the rows still finishes.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self._log = self._open()

    def _open(self) -> SweepJournal:
        try:
            return SweepJournal(self.path)
        except OSError as exc:
            raise ConfigError(
                f"cannot use result store {self.path}: {exc}"
            ) from exc

    # -- lookup / store ----------------------------------------------------
    def get(self, key: str) -> dict | None:
        """Metrics for ``key``, or None on a miss. Counts hits/misses."""
        metrics = self._log.get(key)
        if metrics is None:
            self.misses += 1
        else:
            self.hits += 1
        return metrics

    def put(self, key: str, metrics: dict) -> None:
        """Append ``metrics`` under ``key`` (JSON-canonical); a failing
        write warns and leaves the point a miss."""
        try:
            self._log.append(key, metrics)
        except OSError as exc:
            self._warn(f"write for key {key[:12]}… failed ({exc})")

    def flush(self) -> None:
        """fsync the log; a failure warns (the records are already in
        the kernel's hands, so only a host crash could still lose them)."""
        try:
            self._log.flush()
        except OSError as exc:
            self._warn(f"fsync failed ({exc})")

    def close(self) -> None:
        try:
            self._log.close()
        except OSError as exc:
            self._warn(f"fsync failed ({exc})")

    def _warn(self, what: str) -> None:
        warnings.warn(
            f"result store {self.path}: {what}; continuing uncached",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- maintenance -------------------------------------------------------
    def clear(self) -> int:
        """Explicit invalidation: drop every entry, return the count."""
        n = len(self._log)
        self._log.close()
        self.path.unlink()
        self._log = self._open()
        return n

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "entries": len(self._log),
        }

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
