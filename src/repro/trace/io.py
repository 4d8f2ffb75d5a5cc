"""Trace persistence: one uncompressed ``.npz`` record per trace.

One encoder and one decoder (bytes <-> :class:`MultiTrace`) serve a
``.npz`` file, a trace-store entry and a farm ``TRACE_PUT`` alike. A
container holds four members:

* ``accesses`` — every thread's accesses back to back, one record of
  ``TRACE_DTYPE`` or ``STACK_TRACE_DTYPE``;
* ``lengths`` — each thread's access count, in thread order;
* ``native_cores`` — each thread's native core;
* ``meta_json`` — the trace's name, params and thread count as JSON.

The decoder checks the record once and hands out each thread as a view
of it. Nothing is compressed: zlib costs more time than its smaller
bytes save on a local disk, a loopback link or a LAN (see "Trace
container" in docs/architecture.md).
"""

from __future__ import annotations

import io
import itertools
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.trace.events import TRACE_DTYPE, MultiTrace, validate_trace
from repro.util.errors import TraceFormatError

_MEMBERS = frozenset({"accesses", "lengths", "native_cores", "meta_json"})

#: Exceptions a corrupt/truncated NPZ (or metadata of the wrong shape)
#: can surface through numpy's zip reader — normalized to
#: TraceFormatError so callers (the trace store, which treats format
#: errors as cache misses, and a farm worker) see one type.
_CORRUPT_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    ValueError,
    KeyError,
    TypeError,
    EOFError,
    json.JSONDecodeError,
    OSError,
)


def encode_multitrace(mt: MultiTrace) -> bytes:
    """The container bytes of ``mt``. Every thread must share one
    dtype, since the container holds them as one record."""
    dtypes = {tr.dtype for tr in mt.threads}
    if len(dtypes) > 1:
        raise TraceFormatError(
            f"cannot encode trace {mt.name!r}: its threads mix dtypes "
            f"({', '.join(sorted(str(d) for d in dtypes))})"
        )
    dtype = dtypes.pop() if dtypes else TRACE_DTYPE
    meta = json.dumps({"name": mt.name, "params": mt.params, "num_threads": mt.num_threads})
    buf = io.BytesIO()
    np.savez(
        buf,
        accesses=np.concatenate(mt.threads) if mt.threads else np.zeros(0, dtype),
        lengths=np.array([tr.size for tr in mt.threads], dtype=np.int64),
        native_cores=np.asarray(mt.thread_native_core, dtype=np.int64),
        meta_json=np.frombuffer(meta.encode(), dtype=np.uint8),
    )
    return buf.getvalue()


def decode_multitrace(data: bytes, source: object = "trace container") -> MultiTrace:
    """The :class:`MultiTrace` in container bytes ``data``.

    Anything that is not a trace container — truncation, bit rot, a
    non-trace NPZ, the one-member-per-thread layout of older versions,
    broken metadata, pickled arrays — raises :class:`TraceFormatError`
    naming ``source``; nothing is unpickled.
    """
    try:
        npz = np.load(io.BytesIO(data), allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
            raise TraceFormatError(f"{source} is not a repro trace container")
        with npz:
            members = set(npz.files)
            if members != _MEMBERS:
                if any(m.startswith("thread_") for m in members):
                    raise TraceFormatError(
                        f"{source} is an old one-member-per-thread trace "
                        "container; this version reads one-record containers "
                        "only, so regenerate or re-save the trace"
                    )
                raise TraceFormatError(f"{source} is not a repro trace container")
            meta = json.loads(bytes(npz["meta_json"]).decode())
            n, name, params = int(meta["num_threads"]), meta["name"], meta["params"]
            accesses = npz["accesses"]
            lengths = npz["lengths"]
            native = npz["native_cores"]
    except TraceFormatError:
        raise
    except _CORRUPT_ERRORS as exc:
        raise TraceFormatError(f"corrupt trace container {source}: {exc}") from exc
    for what, col in (("lengths", lengths), ("native_cores", native)):
        if col.ndim != 1 or col.dtype.kind not in "iu" or col.size != n:
            raise TraceFormatError(
                f"{source}: {what} must be a 1-D integer array of {n} entries, "
                f"got {col.dtype} of shape {col.shape}"
            )
    counts = lengths.tolist()  # Python ints: a crafted sum cannot wrap
    if min(counts, default=0) < 0 or sum(counts) != accesses.size:
        raise TraceFormatError(
            f"{source}: lengths must be non-negative and sum to the record's "
            f"{accesses.size} accesses, got {counts}"
        )
    try:
        validate_trace(accesses)  # before slicing: a 0-d record has no threads to slice
        return MultiTrace(
            threads=[accesses[e - k : e] for e, k in zip(itertools.accumulate(counts), counts)],
            thread_native_core=native.tolist(),
            name=name,
            params=params,
        )
    except TraceFormatError as exc:
        raise TraceFormatError(f"{source}: {exc}") from exc


def save_multitrace(mt: MultiTrace, path: str | Path) -> Path:
    """Write a :class:`MultiTrace` to a single ``.npz`` file (``.npz``
    is appended to a name without it); returns the path written."""
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    path.write_bytes(encode_multitrace(mt))
    return path


def load_multitrace(path: str | Path) -> MultiTrace:
    """Load a trace written by :func:`save_multitrace`.

    A missing file raises :class:`FileNotFoundError`; a file that
    cannot be read, or anything wrong with its *contents*, raises
    :class:`TraceFormatError`.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise TraceFormatError(f"corrupt trace container {path}: {exc}") from exc
    return decode_multitrace(data, path)
