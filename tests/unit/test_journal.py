"""Unit tests for the CRC-framed log behind the result store.

The log's one job is surviving a crash at any byte offset: every
test here either round-trips records through close/reopen or corrupts
the file tail in a specific way and asserts recovery trusts exactly
the good prefix. The bit-identity contract (rows pass through JSON on
append, so replay equals re-evaluation) is pinned at the value level.
"""

import json
import struct
import zlib

import pytest

from repro.analysis.journal import (
    JOURNAL_SCHEMA,
    MAGIC,
    MAX_RECORD,
    JournalError,
    SweepJournal,
)
from repro.util.errors import ConfigError

_PREAMBLE = struct.Struct("!4sI")
_RECORD = struct.Struct("!II")


def _path(tmp_path):
    return tmp_path / "sweep.rpjl"


# ------------------------------------------------------------- round trips
def test_fresh_journal_roundtrip(tmp_path):
    p = _path(tmp_path)
    with SweepJournal(p) as j:
        assert len(j) == 0
        j.append("k1", {"cost": 1, "time": 2.5})
        j.append("k2", {"cost": 7})
        assert "k1" in j and "k3" not in j
    j2 = SweepJournal(p)
    assert len(j2) == 2
    assert j2.get("k1") == {"cost": 1, "time": 2.5}
    assert j2.get("k2") == {"cost": 7}
    assert j2.recovered_records == 2
    assert j2.truncated_bytes == 0
    j2.close()


def test_append_after_reopen_extends(tmp_path):
    p = _path(tmp_path)
    with SweepJournal(p) as j:
        j.append("a", {"v": 1})
    with SweepJournal(p) as j:
        j.append("b", {"v": 2})
    with SweepJournal(p) as j:
        assert len(j) == 2


def test_rows_are_json_canonical_on_append(tmp_path):
    """A tuple-valued metric comes back as a list — the same JSON
    round-trip the cache applies, so replayed rows are bit-identical
    to rows that passed through the canonical path."""
    with SweepJournal(_path(tmp_path)) as j:
        j.append("k", {"pair": (1, 2)})
        assert j.get("k") == {"pair": [1, 2]}
    with SweepJournal(_path(tmp_path)) as j2:
        assert j2.get("k") == {"pair": [1, 2]}


def test_duplicate_key_last_wins(tmp_path):
    with SweepJournal(_path(tmp_path)) as j:
        j.append("k", {"v": 1})
        j.append("k", {"v": 2})
    with SweepJournal(_path(tmp_path)) as j2:
        assert len(j2) == 1
        assert j2.get("k") == {"v": 2}


# ---------------------------------------------------------------- recovery
def _journal_with_two_rows(tmp_path):
    p = _path(tmp_path)
    with SweepJournal(p) as j:
        j.append("k1", {"v": 1})
        j.append("k2", {"v": 2})
    return p


def test_truncated_record_header_is_dropped(tmp_path):
    p = _journal_with_two_rows(tmp_path)
    with open(p, "ab") as fh:
        fh.write(b"\x00\x00")  # 2 of 8 header bytes: crash mid-write
    j = SweepJournal(p)
    assert len(j) == 2
    assert j.truncated_bytes == 2
    j.close()
    # the truncation is durable: a third open sees a clean file
    j2 = SweepJournal(p)
    assert j2.truncated_bytes == 0
    j2.close()


def test_truncated_record_body_is_dropped(tmp_path):
    p = _journal_with_two_rows(tmp_path)
    body = json.dumps({"key": "k3", "row": {"v": 3}}).encode()
    with open(p, "ab") as fh:
        fh.write(_RECORD.pack(len(body), zlib.crc32(body)) + body[: len(body) // 2])
    j = SweepJournal(p)
    assert len(j) == 2 and "k3" not in j
    assert j.truncated_bytes > 0
    j.close()


def test_crc_mismatch_drops_tail(tmp_path):
    p = _journal_with_two_rows(tmp_path)
    body = json.dumps({"key": "k3", "row": {"v": 3}}).encode()
    with open(p, "ab") as fh:
        fh.write(_RECORD.pack(len(body), zlib.crc32(body) ^ 0xFF) + body)
    j = SweepJournal(p)
    assert len(j) == 2 and "k3" not in j
    j.close()


def test_insane_length_drops_tail(tmp_path):
    p = _journal_with_two_rows(tmp_path)
    with open(p, "ab") as fh:
        fh.write(_RECORD.pack(MAX_RECORD + 1, 0) + b"x" * 32)
    j = SweepJournal(p)
    assert len(j) == 2
    j.close()


def test_good_json_bad_schema_body_drops_tail(tmp_path):
    """CRC-valid bytes that decode but are not a record (no key/row)
    still stop the scan — corruption is whatever breaks the schema."""
    p = _journal_with_two_rows(tmp_path)
    body = json.dumps(["not", "a", "record"]).encode()
    with open(p, "ab") as fh:
        fh.write(_RECORD.pack(len(body), zlib.crc32(body)) + body)
    j = SweepJournal(p)
    assert len(j) == 2
    j.close()


def test_append_resumes_after_recovery(tmp_path):
    p = _journal_with_two_rows(tmp_path)
    with open(p, "ab") as fh:
        fh.write(b"\xde\xad\xbe\xef")
    with SweepJournal(p) as j:
        j.append("k3", {"v": 3})
    with SweepJournal(p) as j2:
        assert len(j2) == 3 and j2.get("k3") == {"v": 3}


# ------------------------------------------------------------ foreign files
def test_foreign_magic_refused(tmp_path):
    p = _path(tmp_path)
    p.write_bytes(b"PK\x03\x04 definitely not a journal")
    with pytest.raises(JournalError, match="not a sweep journal"):
        SweepJournal(p)


def test_future_schema_refused(tmp_path):
    p = _path(tmp_path)
    p.write_bytes(_PREAMBLE.pack(MAGIC, JOURNAL_SCHEMA + 1))
    with pytest.raises(JournalError, match="schema"):
        SweepJournal(p)


def test_crash_mid_preamble_recovers(tmp_path):
    """A file holding only a prefix of our magic is our own crash at
    birth — rewritten fresh, not refused."""
    p = _path(tmp_path)
    p.write_bytes(MAGIC[:2])
    j = SweepJournal(p)
    assert len(j) == 0 and j.truncated_bytes == 2
    j.close()


def test_short_foreign_prefix_refused(tmp_path):
    p = _path(tmp_path)
    p.write_bytes(b"ELF")
    with pytest.raises(JournalError):
        SweepJournal(p)


# ------------------------------------------------------------- validation
def test_oversized_record_refused(tmp_path):
    with SweepJournal(_path(tmp_path)) as j:
        with pytest.raises(ConfigError, match="record"):
            j.append("k", {"blob": "x" * (MAX_RECORD + 1)})

