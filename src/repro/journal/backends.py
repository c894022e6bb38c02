"""Journal storage backends: CRC-framed append-only record streams.

Every backend stores an ordered sequence of opaque record payloads and
exposes the same six operations: ``append``, ``flush``, ``sync``,
``read_all``, ``truncate_records`` and ``close``.  ``flush`` hands the
appended records to the operating system (they survive the death of
the writing process); ``sync`` also makes them durable (they survive a
power loss).  The byte-oriented backends frame
each payload as ``<u32 length><u32 crc32><payload>`` — the same framing
discipline the rollback log uses for per-entry blobs — so a reader can
both detect corruption and tell *where* it sits:

* damage that extends to the physical end of the stream (a truncated
  header, a truncated payload, or a CRC-failed record that is the last
  one on disk) is a **torn tail**: the record the crash interrupted.
  ``read_all`` discards it and reports it, because write-ahead logging
  makes an interrupted final write an expected outcome, not an error;
* damage anywhere *before* the end means the journal cannot vouch for
  its own prefix — ``read_all`` raises
  :class:`~repro.errors.JournalCorrupt`.

``tear_tail`` and ``corrupt_record`` are fault-injection hooks for
tests and for the journal's own mid-barrier kill mode; they are not
part of the recovery path.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Optional

from repro.errors import JournalCorrupt, JournalError, UsageError

_HEADER = struct.Struct("<II")


def frame(payload: bytes) -> bytes:
    """One framed record: ``<u32 length><u32 crc32><payload>``."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def parse_frames(buf: bytes, source: str) -> tuple[list[bytes], bool]:
    """Split ``buf`` into record payloads; apply the torn-tail rule.

    Returns ``(payloads, torn_tail)``.  Raises
    :class:`~repro.errors.JournalCorrupt` when a CRC failure sits
    before the physical end of the buffer.
    """
    payloads: list[bytes] = []
    offset, total = 0, len(buf)
    while offset < total:
        if offset + _HEADER.size > total:
            return payloads, True  # torn header at EOF
        length, crc = _HEADER.unpack_from(buf, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return payloads, True  # torn payload at EOF
        payload = bytes(buf[start:end])
        if zlib.crc32(payload) != crc:
            if end == total:
                return payloads, True  # CRC-failed final record
            raise JournalCorrupt(
                f"{source}: record {len(payloads)} failed its CRC check "
                f"before the journal tail — refusing to recover")
        payloads.append(payload)
        offset = end
    return payloads, False


class JournalBackend:
    """Interface every journal backend implements."""

    def append(self, payload: bytes) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Hand every appended record to the OS (no fsync)."""

    def sync(self) -> None:
        """Make every appended record durable (fsync point)."""

    def read_all(self) -> tuple[list[bytes], bool]:
        """Every intact record payload, plus a torn-tail flag."""
        raise NotImplementedError

    def truncate_records(self, count: int) -> None:
        """Discard everything after the first ``count`` records."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- fault injection (tests and kill_world's mid-barrier mode) ------------------

    def tear_tail(self, nbytes: int) -> None:
        """Physically truncate the stream by ``nbytes`` (torn write)."""
        raise NotImplementedError

    def corrupt_record(self, index: int) -> None:
        """Flip one payload byte of record ``index`` (bit rot)."""
        raise NotImplementedError


class MemoryJournal(JournalBackend):
    """In-RAM backend for tests: same framing, no durability."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def append(self, payload: bytes) -> None:
        self._buf += frame(payload)

    def read_all(self) -> tuple[list[bytes], bool]:
        return parse_frames(bytes(self._buf), "memory journal")

    def truncate_records(self, count: int) -> None:
        self._buf = self._buf[:_offset_of(bytes(self._buf), count)]

    def tear_tail(self, nbytes: int) -> None:
        del self._buf[len(self._buf) - min(nbytes, len(self._buf)):]

    def corrupt_record(self, index: int) -> None:
        offset = _offset_of(bytes(self._buf), index)
        self._buf[offset + _HEADER.size] ^= 0xFF

    @property
    def size_bytes(self) -> int:
        return len(self._buf)


class FileJournal(JournalBackend):
    """Append-only file backend with CRC-framed records.

    Appends collect in memory; :meth:`flush` writes them to the file
    with ``os.write`` and :meth:`sync` then fsyncs it.  The journal
    flushes at every epoch commit and syncs at every input op and
    whenever a world call returns, so those are the fsync points.

    An ``OSError`` from a write or an fsync (``ENOSPC``, ``EIO``)
    raises :class:`~repro.errors.JournalError` with the ``OSError`` as
    its cause, and the journal then refuses every later write and
    fsync: a failed fsync may have dropped dirty pages, so a retry
    could report success for bytes that are gone, and a failed write
    may leave a partial frame that any later record would turn into
    interior corruption.  Recover by reopening the file.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._pending = bytearray()
        self._failed: Optional[OSError] = None
        self._file = open(self.path, "ab", buffering=0)

    def _refuse_after_failure(self, what: str) -> None:
        if self._failed is not None:
            raise JournalError(
                f"{self.path}: journal refuses to {what} after an "
                f"earlier I/O failure") from self._failed

    def _io(self, what: str, fn, *args) -> None:
        """Run one write or fsync; a failure poisons the journal."""
        self._refuse_after_failure(what)
        try:
            fn(*args)
        except OSError as exc:
            self._failed = exc
            raise JournalError(
                f"{self.path}: journal {what} failed: {exc}") from exc

    def append(self, payload: bytes) -> None:
        self._refuse_after_failure("append")
        self._pending += frame(payload)

    def flush(self) -> None:
        if self._pending:
            buf, self._pending = self._pending, bytearray()
            self._io("write", _write_all, self._file.fileno(), buf)

    def sync(self) -> None:
        self.flush()
        self._io("fsync", os.fsync, self._file.fileno())

    def read_all(self) -> tuple[list[bytes], bool]:
        self.flush()
        with open(self.path, "rb") as fh:
            return parse_frames(fh.read(), self.path)

    def truncate_records(self, count: int) -> None:
        self.flush()
        with open(self.path, "rb") as fh:
            buf = fh.read()
        os.truncate(self.path, _offset_of(buf, count))
        self._reopen()

    def tear_tail(self, nbytes: int) -> None:
        self.flush()
        size = os.path.getsize(self.path)
        os.truncate(self.path, max(0, size - nbytes))
        self._reopen()

    def corrupt_record(self, index: int) -> None:
        self.flush()
        with open(self.path, "rb") as fh:
            buf = fh.read()
        offset = _offset_of(buf, index)
        with open(self.path, "r+b") as fh:
            fh.seek(offset + _HEADER.size)
            byte = fh.read(1)
            fh.seek(offset + _HEADER.size)
            fh.write(bytes([byte[0] ^ 0xFF]))
        self._reopen()

    def _reopen(self) -> None:
        self._file.close()
        self._file = open(self.path, "ab", buffering=0)

    def close(self) -> None:
        if not self._file.closed and self._failed is None:
            self.flush()
        self._file.close()

    @property
    def size_bytes(self) -> int:
        self.flush()
        return os.path.getsize(self.path)


def _write_all(fd: int, buf: bytearray) -> None:
    """``os.write`` until every byte of ``buf`` is in the file."""
    with memoryview(buf) as view:
        written = 0
        while written < len(view):
            written += os.write(fd, view[written:])


def _offset_of(buf: bytes, count: int) -> int:
    """Byte offset just past the first ``count`` framed records."""
    offset = 0
    for _ in range(count):
        if offset + _HEADER.size > len(buf):
            raise UsageError(f"journal holds fewer than {count} records")
        length, _crc = _HEADER.unpack_from(buf, offset)
        offset += _HEADER.size + length
    return offset
