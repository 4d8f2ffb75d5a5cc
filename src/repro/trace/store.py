"""Content-addressed on-disk trace cache.

Workload generation used to happen once per process per sweep: every
pool worker re-ran the Python generators for every spec it evaluated.
The trace store makes workload data a build-once, share-everywhere
artifact — one NPZ per :meth:`repro.spec.WorkloadSpec.cache_key`, so a
spec's trace is generated exactly once per machine and every later
process (CLI run, sweep worker, bench) loads the columns from disk.

Layout: ``<root>/<salt-mixed key>.npz`` (the one-record trace
container of :mod:`repro.trace.io`, as a trace file holds it) plus a
tiny ``.json`` sidecar with display metadata so ``repro trace ls``
never has to open traces. Writes are atomic (tempfile + rename); a
corrupt or truncated entry is treated as a miss and deleted, never
propagated — the generator is the source of truth, the store only a
cache.

Eviction is LRU by file mtime under a byte-size cap (``gc``); reads
touch the mtime so hot traces survive. The store is off by default and
activates per process via :func:`set_trace_store` or the
``REPRO_TRACE_DIR`` environment variable (inherited by pool workers).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.trace.events import MultiTrace
from repro.trace.io import decode_multitrace, encode_multitrace
from repro.util.errors import ConfigError, TraceFormatError

#: Bump when a deliberate generator-semantics change invalidates stored
#: traces (the golden-trace fixture changes in the same commit), or
#: when the container changes: 2 is the one-record layout.
TRACE_STORE_SCHEMA = 2

_ENV_DIR = "REPRO_TRACE_DIR"


class TraceStore:
    """Content-addressed MultiTrace cache rooted at one directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use trace store dir {self.root}: {exc}") from exc

    # -- keys / paths ------------------------------------------------------
    def _key(self, cache_key: str) -> str:
        from repro.analysis.cache import stable_key

        return stable_key({"trace": cache_key, "schema": TRACE_STORE_SCHEMA})

    def path_for(self, cache_key: str) -> Path:
        return self.root / f"{self._key(cache_key)}.npz"

    def _meta_path(self, npz_path: Path) -> Path:
        return npz_path.with_suffix(".json")

    def contains(self, cache_key: str) -> bool:
        """Presence check without loading — the farm's have/need answer."""
        return self.path_for(cache_key).is_file()

    # -- lookup / store ----------------------------------------------------
    def get(self, cache_key: str) -> MultiTrace | None:
        """The stored trace, or None. Corrupt entries are evicted and
        counted as misses — a worker never crashes on a bad cache file."""
        path = self.path_for(cache_key)
        data = self.read_bytes(cache_key)
        if data is None:
            self.misses += 1
            return None
        try:
            mt = decode_multitrace(data, path)
        except TraceFormatError:
            self._drop(path)
            self.misses += 1
            return None
        self.hits += 1
        try:  # LRU touch; best-effort
            os.utime(path)
        except OSError:
            pass
        return mt

    def read_bytes(self, cache_key: str) -> bytes | None:
        """The entry's container bytes as stored, or None without one."""
        try:
            return self.path_for(cache_key).read_bytes()
        except OSError:
            return None

    def put(
        self, cache_key: str, mt: MultiTrace, data: bytes | None = None
    ) -> Path | None:
        """Store ``mt`` atomically; returns the entry path. ``data``,
        when given, is ``mt``'s container bytes, written unchanged.

        A failing *write* (disk full, directory turned read-only after
        construction) is a warned no-op returning ``None`` — the store
        is only a cache, and a run that already holds the trace in
        memory must not die on a storage fault.
        """
        path = self.path_for(cache_key)
        if data is None:
            data = encode_multitrace(mt)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        except OSError as exc:
            self._warn_write_failure(path, exc)
            return None
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            self._warn_write_failure(path, exc)
            return None
        finally:
            try:
                os.unlink(tmp)  # gone already once replaced
            except OSError:
                pass
        meta = {
            "name": mt.name,
            "threads": mt.num_threads,
            "accesses": mt.total_accesses,
            "params": mt.params,
            "stored_at": time.time(),
        }
        try:
            self._meta_path(path).write_text(
                json.dumps(meta, sort_keys=True, default=str)
            )
        except OSError as exc:
            # entry is usable without its display sidecar
            self._warn_write_failure(self._meta_path(path), exc)
        return path

    @staticmethod
    def _warn_write_failure(path: Path, exc: OSError) -> None:
        import warnings

        warnings.warn(
            f"trace store write to {path} failed ({exc}); continuing without "
            "caching this trace",
            RuntimeWarning,
            stacklevel=3,
        )

    def _drop(self, path: Path) -> None:
        for p in (path, self._meta_path(path)):
            try:
                p.unlink()
            except OSError:
                pass

    # -- maintenance -------------------------------------------------------
    def entries(self) -> list[dict]:
        """One dict per stored trace (key stem, bytes, mtime, metadata)."""
        out = []
        for path in sorted(self.root.glob("*.npz")):
            try:
                stat = path.stat()
            except OSError:
                continue
            entry = {
                "key": path.stem,
                "bytes": stat.st_size,
                "mtime": stat.st_mtime,
            }
            meta_path = self._meta_path(path)
            try:
                entry.update(json.loads(meta_path.read_text()))
            except (OSError, json.JSONDecodeError):
                pass
            out.append(entry)
        return out

    def total_bytes(self) -> int:
        return sum(e["bytes"] for e in self.entries())

    def gc(self, max_bytes: int) -> list[str]:
        """Evict least-recently-used entries until the store fits
        ``max_bytes``; returns the evicted key stems."""
        if max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = sorted(self.entries(), key=lambda e: e["mtime"])
        total = sum(e["bytes"] for e in entries)
        evicted = []
        for entry in entries:
            if total <= max_bytes:
                break
            self._drop(self.root / f"{entry['key']}.npz")
            total -= entry["bytes"]
            evicted.append(entry["key"])
        return evicted

    def clear(self) -> int:
        n = 0
        for path in self.root.glob("*.npz"):
            self._drop(path)
            n += 1
        return n

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "entries": len(self.entries()),
            "bytes": self.total_bytes(),
        }


# ---------------------------------------------------------------- process-wide
_store: TraceStore | None = None
_store_resolved = False


def set_trace_store(store: TraceStore | str | os.PathLike | None) -> None:
    """Install (or disable, with None) the process-wide trace store
    consulted by :func:`repro.runner.build_workload`."""
    global _store, _store_resolved
    _store = TraceStore(store) if isinstance(store, (str, os.PathLike)) else store
    _store_resolved = True


def active_trace_store() -> TraceStore | None:
    """The process-wide store: whatever :func:`set_trace_store`
    installed, else a store rooted at ``$REPRO_TRACE_DIR`` when that is
    set, else None (caching off)."""
    global _store, _store_resolved
    if not _store_resolved:
        env = os.environ.get(_ENV_DIR)
        _store = TraceStore(env) if env else None
        _store_resolved = True
    return _store
