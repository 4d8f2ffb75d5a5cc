"""Unit tests for trace persistence: the one-record container."""

import io
import json

import numpy as np
import pytest

from repro.trace.events import STACK_TRACE_DTYPE, TRACE_DTYPE, MultiTrace, make_trace
from repro.trace.io import (
    decode_multitrace,
    encode_multitrace,
    load_multitrace,
    save_multitrace,
)
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


def _npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _members(mt: MultiTrace) -> dict:
    """The arrays of ``mt``'s container, to tamper with one at a time."""
    with np.load(io.BytesIO(encode_multitrace(mt))) as npz:
        return {k: npz[k] for k in npz.files}


def test_load_rejects_old_per_thread_layout(tmp_path):
    """The one-member-per-thread layout of older versions is refused
    with an error that names it, not read by a second decoder."""
    path = tmp_path / "old.npz"
    meta = json.dumps({"name": "x", "params": {}, "num_threads": 2})
    np.savez_compressed(
        path,
        thread_00000=make_trace([1]),
        thread_00001=make_trace([2]),
        native_cores=np.array([0, 1]),
        meta_json=np.frombuffer(meta.encode(), dtype=np.uint8),
    )
    with pytest.raises(TraceFormatError, match="one-member-per-thread") as err:
        load_multitrace(path)
    assert str(path) in str(err.value)


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
    members = _members(_mt())
    members["meta_json"] = np.frombuffer(b"{not json", dtype=np.uint8)
    path.write_bytes(_npz_bytes(**members))
    with pytest.raises(TraceFormatError, match="badmeta.npz"):
        load_multitrace(path)


def test_load_wrong_dtype_record_raises_trace_format_error(tmp_path):
    path = tmp_path / "baddtype.npz"
    members = _members(_mt())
    members["accesses"] = np.arange(5, dtype=np.float64)
    path.write_bytes(_npz_bytes(**members))
    with pytest.raises(TraceFormatError, match="baddtype.npz.*float64"):
        load_multitrace(path)


def _npy_bytes() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.arange(3))
    return buf.getvalue()


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"PK\x03\x04 not a zip",
        _npy_bytes(),
        _npz_bytes(**{**_members(_mt()), "meta_json": np.array([{"x": 1}], dtype=object)}),
        _npz_bytes(**{**_members(_mt()), "meta_json": np.frombuffer(b"[1, 2]", dtype=np.uint8)}),
    ],
    ids=["empty", "not-zip", "bare-npy", "pickled-object", "meta-list"],
)
def test_decode_rejects_what_is_not_a_container(data):
    """Container bytes may come from a farm peer: anything that is not
    a trace container raises TraceFormatError naming its source, never
    something else."""
    with pytest.raises(TraceFormatError, match="peer 7"):
        decode_multitrace(data, "peer 7")


def test_encode_decode_round_trip_keeps_the_digest():
    mt = _mt()
    assert decode_multitrace(encode_multitrace(mt)).digest() == mt.digest()


# ------------------------------------------------------------ round trips
def _threads(n: int, stack: bool = False) -> list[np.ndarray]:
    rng = np.random.default_rng(n)
    out = []
    for t in range(n):
        k = int(rng.integers(0, 40)) if t % 5 else 0  # every fifth thread empty
        cols = {
            "writes": rng.integers(0, 2, k),
            "icounts": rng.integers(0, 9, k),
        }
        if stack:
            cols.update(spops=rng.integers(0, 3, k), spushes=rng.integers(0, 3, k))
        out.append(make_trace(rng.integers(0, 1 << 48, k), **cols))
    return out


@pytest.mark.parametrize(
    "threads",
    [
        [],
        [make_trace([])],
        [make_trace([]), make_trace([5], writes=[1])],
        [make_trace([1, 2], spops=[1, 0], spushes=[0, 2]), make_trace([], spops=[])],
        _threads(64),
        _threads(64, stack=True),
    ],
    ids=["zero-threads", "one-empty-thread", "empty-then-one", "stack", "64-threads",
         "64-stack-threads"],
)
def test_round_trip_is_bit_identical(threads):
    mt = MultiTrace(
        threads=threads,
        thread_native_core=list(range(len(threads)))[::-1],
        name="rt",
        params={"n": len(threads)},
    )
    back = decode_multitrace(encode_multitrace(mt))
    assert back.digest() == mt.digest()
    assert back.thread_native_core == mt.thread_native_core
    assert [t.dtype for t in back.threads] == [t.dtype for t in mt.threads]
    assert [t.size for t in back.threads] == [t.size for t in mt.threads]


def test_decoded_threads_are_views_of_one_record():
    threads = _threads(64)
    back = decode_multitrace(encode_multitrace(MultiTrace(threads=threads)))
    record = back.threads[0].base
    assert record is not None and record.size == sum(t.size for t in threads)
    assert all(t.base is record for t in back.threads)


def test_container_is_one_uncompressed_record():
    import zipfile

    mt = MultiTrace(threads=_threads(64, stack=True))
    with zipfile.ZipFile(io.BytesIO(encode_multitrace(mt))) as zf:
        infos = {i.filename: i for i in zf.infolist()}
    assert set(infos) == {"accesses.npy", "lengths.npy", "native_cores.npy", "meta_json.npy"}
    assert {i.compress_type for i in infos.values()} == {zipfile.ZIP_STORED}
    assert infos["accesses.npy"].file_size > mt.total_accesses * STACK_TRACE_DTYPE.itemsize


def test_encode_refuses_threads_of_mixed_dtypes():
    mt = MultiTrace(threads=[make_trace([1]), make_trace([2], spops=[1])], name="mixed")
    with pytest.raises(TraceFormatError, match="'mixed'.*mix dtypes"):
        encode_multitrace(mt)


# ------------------------------------------------------- refused records
def _tampered(**members) -> bytes:
    return _npz_bytes(**{**_members(_mt()), **members})


@pytest.mark.parametrize(
    "members,match",
    [
        ({"lengths": np.array([[3, 2]])}, "lengths must be a 1-D integer array of 2"),
        ({"lengths": np.array([3.0, 2.0])}, "lengths must be a 1-D integer array of 2"),
        ({"lengths": np.array([5])}, "lengths must be a 1-D integer array of 2"),
        ({"lengths": np.array([3, 2, 0])}, "lengths must be a 1-D integer array of 2"),
        ({"lengths": np.array([6, -1])}, "non-negative and sum to the record's 5"),
        ({"lengths": np.array([3, 3])}, "non-negative and sum to the record's 5"),
        ({"lengths": np.array([2**64 - 1, 6], dtype=np.uint64)}, "sum to the record's 5"),
        ({"native_cores": np.array([0])}, "native_cores must be a 1-D integer array of 2"),
        ({"accesses": np.zeros(5, dtype=[("addr", "<u8"), ("write", "u1")])}, "neither TRACE_DTYPE"),
        ({"accesses": np.zeros((5, 1), dtype=TRACE_DTYPE)}, "must be 1-D"),
        ({"accesses": np.zeros((), dtype=TRACE_DTYPE), "lengths": np.array([1, 0])}, "must be 1-D"),
        ({"accesses": np.array([None] * 5, dtype=object)}, "corrupt trace container"),
        ({"accesses": make_trace([1, 2, 3, 4, 5], writes=[0, 2, 0, 0, 0])}, "'write' field must be 0/1"),
    ],
    ids=["lengths-2d", "lengths-float", "lengths-short", "lengths-long", "lengths-negative",
         "lengths-sum", "lengths-wrapping-sum", "native-short", "foreign-dtype", "record-2d",
         "record-0d", "pickled-member", "write-flag"],
)
def test_decode_refuses_a_malformed_record(members, match):
    with pytest.raises(TraceFormatError, match=match) as err:
        decode_multitrace(_tampered(**members), "peer 7")
    assert "peer 7" in str(err.value)
