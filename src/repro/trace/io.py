"""Trace persistence: NPZ container with JSON metadata sidecar fields."""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.trace.events import MultiTrace, validate_trace
from repro.util.errors import TraceFormatError

#: Exceptions a corrupt/truncated NPZ can surface through numpy's zip
#: reader — normalized to TraceFormatError so callers (and the trace
#: store, which treats format errors as cache misses) see one type.
_CORRUPT_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    ValueError,
    KeyError,
    EOFError,
    json.JSONDecodeError,
    OSError,
)


def save_multitrace(mt: MultiTrace, path: str | Path) -> Path:
    """Write a :class:`MultiTrace` to a single ``.npz`` file."""
    path = Path(path)
    arrays = {f"thread_{i:05d}": tr for i, tr in enumerate(mt.threads)}
    arrays["native_cores"] = np.asarray(mt.thread_native_core, dtype=np.int64)
    meta = json.dumps({"name": mt.name, "params": mt.params, "num_threads": mt.num_threads})
    arrays["meta_json"] = np.frombuffer(meta.encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_multitrace(path: str | Path) -> MultiTrace:
    """Load a trace written by :func:`save_multitrace`.

    A missing file raises :class:`FileNotFoundError`; anything wrong
    with the file's *contents* — truncation, bit rot, a non-trace NPZ,
    broken metadata — raises :class:`TraceFormatError`.
    """
    path = Path(path)
    try:
        # open the file here so it closes even when numpy's zip reader
        # raises on a corrupt container before handing back its NpzFile
        with open(path, "rb") as fh, np.load(fh) as data:
            if "meta_json" not in data or "native_cores" not in data:
                raise TraceFormatError(f"{path} is not a repro trace container")
            meta = json.loads(bytes(data["meta_json"]).decode())
            n = int(meta["num_threads"])
            threads = []
            for i in range(n):
                key = f"thread_{i:05d}"
                if key not in data:
                    raise TraceFormatError(f"{path} missing {key}")
                tr = data[key]
                validate_trace(tr)
                threads.append(tr)
            native = data["native_cores"].tolist()
            name = meta["name"]
            params = meta["params"]
    except FileNotFoundError:
        raise
    except TraceFormatError:
        raise
    except _CORRUPT_ERRORS as exc:
        raise TraceFormatError(f"corrupt trace container {path}: {exc}") from exc
    return MultiTrace(
        threads=threads,
        thread_native_core=native,
        name=name,
        params=params,
    )
