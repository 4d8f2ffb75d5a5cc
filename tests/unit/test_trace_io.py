"""Unit tests for trace persistence."""

import numpy as np
import pytest

from repro.trace.events import MultiTrace, make_trace
from repro.trace.io import load_multitrace, save_multitrace
from repro.util.errors import TraceFormatError


def _mt():
    return MultiTrace(
        threads=[
            make_trace([1, 2, 3], writes=[0, 1, 0], icounts=[4, 4, 4]),
            make_trace([9, 8], writes=[1, 1]),
        ],
        thread_native_core=[2, 0],
        name="roundtrip",
        params={"alpha": 3, "beta": "x"},
    )


def test_roundtrip(tmp_path):
    path = tmp_path / "trace.npz"
    save_multitrace(_mt(), path)
    loaded = load_multitrace(path)
    orig = _mt()
    assert loaded.name == "roundtrip"
    assert loaded.params == {"alpha": 3, "beta": "x"}
    assert loaded.thread_native_core == [2, 0]
    assert len(loaded.threads) == 2
    for a, b in zip(loaded.threads, orig.threads):
        assert (a == b).all()


def test_roundtrip_stack_trace(tmp_path):
    mt = MultiTrace(threads=[make_trace([1, 2], spops=[1, 2], spushes=[0, 1])])
    path = tmp_path / "stack.npz"
    save_multitrace(mt, path)
    loaded = load_multitrace(path)
    assert loaded.is_stack
    assert loaded.threads[0]["spop"].tolist() == [1, 2]


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, foo=np.arange(4))
    with pytest.raises(TraceFormatError, match="not a repro trace"):
        load_multitrace(path)


def test_load_rejects_missing_thread(tmp_path):
    import json

    path = tmp_path / "broken.npz"
    meta = json.dumps({"name": "x", "params": {}, "num_threads": 2})
    np.savez(
        path,
        thread_00000=make_trace([1]),
        native_cores=np.array([0, 1]),
        meta_json=np.frombuffer(meta.encode(), dtype=np.uint8),
    )
    with pytest.raises(TraceFormatError, match="missing"):
        load_multitrace(path)


def test_empty_threads_roundtrip(tmp_path):
    mt = MultiTrace(threads=[make_trace([]), make_trace([5])])
    path = tmp_path / "empty.npz"
    save_multitrace(mt, path)
    loaded = load_multitrace(path)
    assert loaded.threads[0].size == 0
    assert loaded.threads[1]["addr"].tolist() == [5]


def test_load_missing_file_is_file_not_found(tmp_path):
    # a missing file is the caller's problem (bad path), not a format
    # error the trace store should swallow as a cache miss
    with pytest.raises(FileNotFoundError):
        load_multitrace(tmp_path / "nope.npz")


def test_load_non_zip_garbage_raises_trace_format_error(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"not a zip archive at all")
    with pytest.raises(TraceFormatError, match="corrupt trace container"):
        load_multitrace(path)


def test_load_truncated_npz_raises_trace_format_error(tmp_path):
    path = tmp_path / "truncated.npz"
    save_multitrace(_mt(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TraceFormatError):
        load_multitrace(path)


def test_load_corrupt_meta_json_raises_trace_format_error(tmp_path):
    path = tmp_path / "badmeta.npz"
    np.savez(
        path,
        thread_00000=make_trace([1]),
        native_cores=np.array([0]),
        meta_json=np.frombuffer(b"{not json", dtype=np.uint8),
    )
    with pytest.raises(TraceFormatError):
        load_multitrace(path)


def test_load_wrong_dtype_thread_raises_trace_format_error(tmp_path):
    import json

    path = tmp_path / "baddtype.npz"
    meta = json.dumps({"name": "x", "params": {}, "num_threads": 1})
    np.savez(
        path,
        thread_00000=np.arange(4, dtype=np.float64),
        native_cores=np.array([0]),
        meta_json=np.frombuffer(meta.encode(), dtype=np.uint8),
    )
    with pytest.raises(TraceFormatError):
        load_multitrace(path)


def _npz_bytes(**arrays) -> bytes:
    import io

    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _npy_bytes() -> bytes:
    import io

    buf = io.BytesIO()
    np.save(buf, np.arange(3))
    return buf.getvalue()


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"PK\x03\x04 not a zip",
        _npy_bytes(),
        _npz_bytes(meta_json=np.array([{"x": 1}], dtype=object)),
        _npz_bytes(
            native_cores=np.array([0]),
            meta_json=np.frombuffer(b"[1, 2]", dtype=np.uint8),
        ),
    ],
    ids=["empty", "not-zip", "bare-npy", "pickled-object", "meta-list"],
)
def test_decode_rejects_what_is_not_a_container(data):
    """Container bytes may come from a farm peer: anything that is not
    a trace container raises TraceFormatError, never something else."""
    from repro.trace.io import decode_multitrace

    with pytest.raises(TraceFormatError):
        decode_multitrace(data)


def test_encode_decode_round_trip_keeps_the_digest():
    from repro.trace.io import decode_multitrace, encode_multitrace

    mt = _mt()
    assert decode_multitrace(encode_multitrace(mt)).digest() == mt.digest()
