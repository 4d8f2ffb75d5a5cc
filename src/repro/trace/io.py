"""Trace persistence: NPZ container with JSON metadata sidecar fields.

One encoder and one decoder (bytes <-> :class:`MultiTrace`) serve a
``.npz`` file, a trace-store entry and a farm ``TRACE_PUT`` alike.
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.trace.events import MultiTrace, validate_trace
from repro.util.errors import TraceFormatError

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
    """The container bytes of ``mt`` (a compressed ``.npz``)."""
    arrays = {f"thread_{i:05d}": tr for i, tr in enumerate(mt.threads)}
    arrays["native_cores"] = np.asarray(mt.thread_native_core, dtype=np.int64)
    meta = json.dumps({"name": mt.name, "params": mt.params, "num_threads": mt.num_threads})
    arrays["meta_json"] = np.frombuffer(meta.encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


def decode_multitrace(data: bytes, source: object = "trace container") -> MultiTrace:
    """The :class:`MultiTrace` in container bytes ``data``.

    Anything that is not a trace container — truncation, bit rot, a
    non-trace NPZ, broken metadata, pickled arrays — raises
    :class:`TraceFormatError` naming ``source``; nothing is unpickled.
    """
    try:
        npz = np.load(io.BytesIO(data), allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
            raise TraceFormatError(f"{source} is not a repro trace container")
        with npz:
            if "meta_json" not in npz or "native_cores" not in npz:
                raise TraceFormatError(f"{source} is not a repro trace container")
            meta = json.loads(bytes(npz["meta_json"]).decode())
            n = int(meta["num_threads"])
            threads = []
            for i in range(n):
                key = f"thread_{i:05d}"
                if key not in npz:
                    raise TraceFormatError(f"{source} missing {key}")
                tr = npz[key]
                validate_trace(tr)
                threads.append(tr)
            native = npz["native_cores"].tolist()
            name = meta["name"]
            params = meta["params"]
    except TraceFormatError:
        raise
    except _CORRUPT_ERRORS as exc:
        raise TraceFormatError(f"corrupt trace container {source}: {exc}") from exc
    return MultiTrace(
        threads=threads,
        thread_native_core=native,
        name=name,
        params=params,
    )


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
