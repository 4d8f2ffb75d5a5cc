"""Hypothesis fuzz suite for the farm frame decoder (ISSUE 10).

The decoder sits on the trust boundary: whatever bytes an attacker (or
the chaos proxy) puts on the wire, :func:`recv_frame` must either
return a well-formed ``(kind, payload)`` or raise a typed
:class:`FrameError`/:class:`ProtocolMismatch` — never hang, never
allocate the declared length before validating it, and never feed
attacker-controlled bytes to ``pickle``: every body is JSON, and a
``TRACE_PUT``'s container decodes with pickle refused.

Every case writes the fuzzed bytes into one end of a socketpair and
closes it, so a decoder waiting for more input sees EOF (a
``FrameError``) instead of blocking; a 5-second socket timeout is the
backstop that turns any residual hang into a loud failure.
"""

import ast
import base64
import contextlib
import io
import json
import pickle
import socket
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.analysis
from repro.analysis.farm import (
    HEADER,
    KIND_NAMES,
    MAGIC,
    MAX_FRAME,
    PROTOCOL_VERSION,
    TRACE_PUT,
    FrameError,
    ProtocolMismatch,
    encode_frame,
    recv_frame,
)
from repro.trace.events import MultiTrace, make_trace
from repro.trace.io import decode_multitrace, encode_multitrace
from repro.util.errors import TraceFormatError

_CONTROL_KINDS = sorted(k for k in KIND_NAMES if k != TRACE_PUT)


def _decode(data: bytes):
    """Run the decoder over exactly ``data`` then EOF."""
    a, b = socket.socketpair()
    try:
        a.sendall(data)
        a.shutdown(socket.SHUT_WR)
        b.settimeout(5.0)
        return recv_frame(b)
    finally:
        a.close()
        b.close()


def _valid_frame(kind: int = None, payload=None) -> bytes:
    if kind is None:
        kind = _CONTROL_KINDS[0]
    if payload is None:
        payload = {"chunk_id": 7, "indices": [1, 2, 3], "msg": "fuzz seed"}
    return encode_frame(kind, payload)


# ------------------------------------------------------------ raw garbage
@settings(max_examples=200, deadline=None)
@given(data=st.binary(min_size=0, max_size=256))
def test_random_bytes_never_hang_or_crash(data):
    """Arbitrary bytes either decode (vanishingly unlikely — they must
    begin with the magic) or raise the typed errors. Nothing else."""
    try:
        kind, payload = _decode(data)
    except (FrameError, ProtocolMismatch):
        return
    assert kind in KIND_NAMES  # the improbable valid frame


@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=0, max_size=256))
def test_random_bytes_after_magic_still_typed(data):
    """Force past the magic check so the version/kind/length validators
    and the body parser all get fuzzed, not just the first four bytes."""
    try:
        kind, payload = _decode(MAGIC + data)
    except (FrameError, ProtocolMismatch):
        return
    assert kind in KIND_NAMES


# ------------------------------------------------------------- truncation
@settings(max_examples=100, deadline=None)
@given(cut=st.integers(min_value=0, max_value=1))
def test_every_truncation_of_a_valid_frame_raises(cut):
    frame = _valid_frame()
    # exercise every prefix in two interleaved passes to stay fast
    for n in range(cut, len(frame), 2):
        with pytest.raises((FrameError, ProtocolMismatch)):
            _decode(frame[:n])


# --------------------------------------------------------------- bit flips
@settings(max_examples=200, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=10_000),
    bit=st.integers(min_value=0, max_value=7),
)
def test_single_bit_flip_is_typed_or_decodes(pos, bit):
    frame = bytearray(_valid_frame())
    pos %= len(frame)
    frame[pos] ^= 1 << bit
    try:
        kind, payload = _decode(bytes(frame))
    except (FrameError, ProtocolMismatch):
        return
    # a flip inside the JSON body can still be valid JSON; the header
    # fields though are hard-validated
    assert kind in KIND_NAMES
    if pos < HEADER.size:
        # surviving a header flip means the flip landed in padding
        assert frame[:4] == MAGIC


@settings(max_examples=100, deadline=None)
@given(version=st.integers(min_value=0, max_value=255))
def test_every_foreign_version_is_protocol_mismatch(version):
    body = b"{}"
    data = HEADER.pack(MAGIC, version, _CONTROL_KINDS[0], len(body)) + body
    if version == PROTOCOL_VERSION:
        assert _decode(data)[0] == _CONTROL_KINDS[0]
    else:
        with pytest.raises(ProtocolMismatch):
            _decode(data)


# ----------------------------------------------------- length-field abuse
@settings(max_examples=100, deadline=None)
@given(
    length=st.integers(min_value=MAX_FRAME + 1, max_value=2**32 - 1),
    kind=st.sampled_from(_CONTROL_KINDS),
)
def test_oversized_length_rejected_before_allocation(length, kind):
    """A declared length over the ceiling raises without the decoder
    ever trying to read (or allocate) the body."""
    data = HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, length)
    with pytest.raises(FrameError, match="ceiling"):
        _decode(data)


@settings(max_examples=100, deadline=None)
@given(
    declared=st.integers(min_value=1, max_value=4096),
    sent=st.integers(min_value=0, max_value=64),
)
def test_declared_longer_than_sent_raises_on_eof(declared, sent):
    body = b"x" * min(sent, declared - 1) if declared > 0 else b""
    data = HEADER.pack(MAGIC, PROTOCOL_VERSION, _CONTROL_KINDS[0], declared) + body
    with pytest.raises(FrameError, match="mid-frame"):
        _decode(data)


# ------------------------------------------------------ nothing unpickled
def _object_npz() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, meta_json=np.array([{"evil": 1}], dtype=object))
    return buf.getvalue()


#: bodies pickle would act on: a pickle stream, an NPZ holding a
#: pickled object array, and (for contrast) a real trace container
_HOSTILE = (
    pickle.dumps({"key": "k"}),
    _object_npz(),
    encode_multitrace(MultiTrace(threads=[make_trace([1, 2])], name="fuzz")),
)


@contextlib.contextmanager
def _pickle_refused():
    """Patch pickle to raise, and check afterwards that nothing called
    it (a decoder may swallow the raise into a FrameError)."""
    calls = []

    def refuse(*a, **k):
        calls.append(1)
        raise AssertionError("wire bytes reached pickle")

    real = pickle.loads, pickle.load
    pickle.loads = pickle.load = refuse
    try:
        yield
    finally:
        pickle.loads, pickle.load = real
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_NAMES)),
    raw=st.one_of(st.binary(max_size=512), st.sampled_from(_HOSTILE)),
    wrapped=st.booleans(),
)
@example(kind=TRACE_PUT, raw=_HOSTILE[0], wrapped=False)
@example(kind=TRACE_PUT, raw=_HOSTILE[0], wrapped=True)
@example(kind=TRACE_PUT, raw=_HOSTILE[1], wrapped=True)
@example(kind=TRACE_PUT, raw=_HOSTILE[2], wrapped=True)
def test_no_frame_kind_reaches_pickle(kind, raw, wrapped):
    """Every kind, TRACE_PUT included, parses as JSON, and a TRACE_PUT
    container decodes with pickle refused: a ``pickle.loads`` on peer
    bytes would run code from them. ``wrapped`` sends ``raw`` as a
    TRACE_PUT body would carry it, base64 inside JSON."""
    body = raw
    if wrapped:
        trace = base64.b64encode(raw).decode()
        body = json.dumps({"key": "k", "workload": {}, "trace": trace}).encode()
    data = HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, len(body)) + body
    with _pickle_refused():
        try:
            got, payload = _decode(data)
        except (FrameError, ProtocolMismatch):
            return
        if got == TRACE_PUT and wrapped:
            try:
                decode_multitrace(base64.b64decode(payload["trace"]))
            except TraceFormatError:
                pass


def test_no_analysis_module_imports_pickle():
    for path in Path(repro.analysis.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "pickle" not in names, path.name


# ------------------------------------------------------- mid-stream garbage
@settings(max_examples=50, deadline=None)
@given(garbage=st.binary(min_size=1, max_size=64))
def test_garbage_after_valid_frame_poisons_only_the_next_read(garbage):
    first = _valid_frame()
    a, b = socket.socketpair()
    try:
        a.sendall(first + garbage)
        a.shutdown(socket.SHUT_WR)
        b.settimeout(5.0)
        kind, payload = recv_frame(b)  # the valid frame decodes
        assert kind == _CONTROL_KINDS[0]
        with pytest.raises((FrameError, ProtocolMismatch)):
            recv_frame(b)  # the garbage does not
    finally:
        a.close()
        b.close()
