"""CRC-framed append-only log: the on-disk format of the result store.

:class:`~repro.analysis.cache.ResultCache` keeps every sweep point's
bare canonical metrics here under its salted row key, so one file
serves both warm re-runs (``cache=``) and crash resume (``resume=``).
The log's one job is surviving a crash at any byte offset.

Record framing — the file must be recoverable after a crash at *any*
byte offset:

* an 8-byte file preamble ``RPJL`` + ``!I`` schema version;
* each record is ``!II`` (body length, CRC32 of body) followed by a
  JSON body ``{"key": <row key>, "row": {...}}``.

Appends are atomic at the record level because recovery simply
truncates the corrupt tail: on open, records are scanned until the
first truncated/length-insane/CRC-mismatching record, the file is
truncated back to the last good offset, and everything before it is
trusted. Each record goes out as one unbuffered ``write`` on an
``O_APPEND`` descriptor, so a record is in the kernel's hands (and
survives a crash of this process) as soon as :meth:`append` returns,
and two logs appending to one path each land whole records at the end
of the file; :meth:`flush`/:meth:`close` ``fsync`` them to survive a
host crash too.

Rows pass through JSON on the way in (via
:func:`~repro.analysis.cache.canonical_rows`), so a replayed row is
bit-identical to the row an uninterrupted run would have produced —
the resume path's determinism contract leans on this.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

from repro.util.errors import ConfigError

MAGIC = b"RPJL"
JOURNAL_SCHEMA = 1
_PREAMBLE = struct.Struct("!4sI")  # magic, schema version
_RECORD = struct.Struct("!II")  # body length, CRC32 of body
# A record body over this is corruption by construction: journal rows
# are single canonical result dicts, not traces.
MAX_RECORD = 16 * 1024 * 1024


class JournalError(ConfigError):
    """The journal file exists but is not a sweep journal at all
    (foreign magic or schema) — truncating it would destroy data the
    user did not ask us to manage."""


class SweepJournal:
    """Append-only ``(key, row)`` log with corrupt-tail recovery.

    Opening an existing journal replays it: :attr:`rows` maps every
    durably recorded key to its result row, and the file is truncated
    back past any half-written tail record (the crash case). A fresh
    path starts an empty journal. The instance stays open for
    appending; use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.rows: dict[str, dict] = {}
        self.recovered_records = 0
        self.truncated_bytes = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._recover()
        self._fh = open(self.path, "ab", buffering=0)

    # -- recovery ----------------------------------------------------------
    def _recover(self) -> None:
        """Replay the good prefix; truncate the corrupt tail in place."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            with open(self.path, "wb") as fh:
                fh.write(_PREAMBLE.pack(MAGIC, JOURNAL_SCHEMA))
                fh.flush()
                os.fsync(fh.fileno())
            return
        with open(self.path, "rb") as fh:
            preamble = fh.read(_PREAMBLE.size)
            if len(preamble) < _PREAMBLE.size:
                # empty, or a crash mid-preamble (the bytes so far must
                # at least be a prefix of our magic — anything else is a
                # foreign file we refuse to clobber)
                if preamble and not MAGIC.startswith(preamble[:4]):
                    raise JournalError(
                        f"{self.path} is not a sweep journal (truncated preamble)"
                    )
                good = 0
            else:
                magic, schema = _PREAMBLE.unpack(preamble)
                if magic != MAGIC:
                    raise JournalError(
                        f"{self.path} is not a sweep journal "
                        f"(magic {magic!r}, expected {MAGIC!r})"
                    )
                if schema != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"{self.path} has journal schema v{schema}, "
                        f"this build reads v{JOURNAL_SCHEMA}"
                    )
                good = _PREAMBLE.size
                while True:
                    header = fh.read(_RECORD.size)
                    if len(header) < _RECORD.size:
                        break  # clean EOF or truncated header: stop here
                    length, crc = _RECORD.unpack(header)
                    if length > MAX_RECORD:
                        break  # insane length: corrupt header
                    body = fh.read(length)
                    if len(body) < length or zlib.crc32(body) != crc:
                        break  # truncated or bit-rotted body
                    try:
                        record = json.loads(body.decode("utf-8"))
                        key, row = record["key"], record["row"]
                    except Exception:
                        break  # CRC passed but body is not a record: corrupt
                    self.rows[key] = row
                    self.recovered_records += 1
                    good = fh.tell()
        if good == 0:
            # no preamble survived: rewrite a fresh one
            with open(self.path, "wb") as fh:
                fh.write(_PREAMBLE.pack(MAGIC, JOURNAL_SCHEMA))
                fh.flush()
                os.fsync(fh.fileno())
            self.truncated_bytes = size
            return
        if good < size:
            self.truncated_bytes = size - good
            with open(self.path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())

    # -- appends -----------------------------------------------------------
    def append(self, key: str, row: dict) -> None:
        """Record one completed point. The row is JSON-canonicalized
        before framing so replay reproduces it bit for bit."""
        from repro.analysis.cache import canonical_rows

        row = canonical_rows([row])[0]
        body = json.dumps({"key": key, "row": row}).encode("utf-8")
        if len(body) > MAX_RECORD:
            raise ConfigError(
                f"journal record is {len(body)} bytes, over the "
                f"{MAX_RECORD}-byte record ceiling"
            )
        record = _RECORD.pack(len(body), zlib.crc32(body)) + body
        written = self._fh.write(record)
        if written != len(record):
            raise OSError(f"short write: {written} of {len(record)} bytes")
        self.rows[key] = row

    def flush(self) -> None:
        """Make every appended record survive a host crash (fsync)."""
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh.closed:
            return
        try:
            self.flush()
        finally:
            self._fh.close()

    # -- replay helpers ----------------------------------------------------
    def get(self, key: str) -> dict | None:
        return self.rows.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
