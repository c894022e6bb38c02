"""A shared-memory byte ring: the primitive of a retired barrier wire.

The multiprocess shard driver once framed its bulk barrier payloads
through a pair of these rings per worker.  Measured against the plain
pipe it lost (fewer agents per second on cross-shard workloads, more
CPU and RSS, identical outcomes), so the pipe is now the only barrier
wire and the ring codec is gone.

The :class:`ShmRing` primitive stays only because the repository
benchmark's ``ring_probe`` (a ring frame round trip timed beside a pipe
send of the same bytes) imports it.  It goes away with the benchmark
change that drops that probe.

Frames reuse the journal's framing (:mod:`repro.journal.backends`):
``<u32 length><u32 crc32><payload>``.  A frame torn mid-write fails its
checksum on read and raises :class:`TornFrame`.  The ring keeps a
persistent write cursor; a batch wraps around the end via a wrap
sentinel (length ``0xFFFFFFFF``) and may use at most the ring capacity.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from multiprocessing import shared_memory
from typing import Optional

from repro.scope import current as current_scope

_HEADER = struct.Struct("<II")  # <u32 length><u32 crc32>
#: Sentinel length marking "batch wraps to offset 0 here".  A real
#: frame can never claim it: batch budgeting caps frame lengths at the
#: ring capacity, far below 2**32 - 1.
_WRAP = 0xFFFFFFFF

#: Default ring capacity (bytes).
DEFAULT_RING_SIZE = 1 << 22


class TornFrame(Exception):
    """A ring frame failed its CRC or length check (torn write)."""


class ShmRing:
    """One single-writer, single-reader byte ring over shared memory.

    The caller orders writer and reader (a batch is fully read before
    the next one is written), so the ring needs no shared cursors: both
    sides walk the same deterministic frame sequence from offset 0.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self.shm: Optional[shared_memory.SharedMemory] = shm
        self.owner = owner
        self.capacity = shm.size
        self._wpos = 0
        self._rpos = 0
        self._budget = self.capacity

    @classmethod
    def create(cls, size: int = DEFAULT_RING_SIZE) -> "ShmRing":
        return cls(shared_memory.SharedMemory(create=True, size=size), True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        return cls(shared_memory.SharedMemory(name=name), False)

    @property
    def name(self) -> str:
        return self.shm.name

    # -- write side --------------------------------------------------------------

    def begin_batch(self) -> None:
        """Open one batch: it may use at most ``capacity`` bytes."""
        self._budget = self.capacity

    def try_write(self, payload: bytes) -> bool:
        """Append one frame; False when it exceeds the batch budget."""
        size = len(payload)
        need = _HEADER.size + size
        tail = self.capacity - self._wpos
        # Wrap whenever the frame does not fit the tail — including a
        # tail of 0, left by a frame that ended exactly at the ring end.
        wrap = need > tail
        waste = tail if wrap else 0
        if need + waste > self._budget:
            return False
        buf = self.shm.buf
        if wrap:
            if tail >= _HEADER.size:
                _HEADER.pack_into(buf, self._wpos, _WRAP, 0)
            self._wpos = 0
            self._budget -= waste
        _HEADER.pack_into(buf, self._wpos, size, zlib.crc32(payload))
        start = self._wpos + _HEADER.size
        buf[start:start + size] = payload
        self._wpos += need
        self._budget -= need
        return True

    # -- read side ---------------------------------------------------------------

    def read_frame(self) -> bytes:
        """Read the next frame (CRC-verified); raises :class:`TornFrame`."""
        buf = self.shm.buf
        if self.capacity - self._rpos < _HEADER.size:
            self._rpos = 0  # writer could not even fit a wrap sentinel
        size, crc = _HEADER.unpack_from(buf, self._rpos)
        if size == _WRAP:
            self._rpos = 0
            size, crc = _HEADER.unpack_from(buf, 0)
        start = self._rpos + _HEADER.size
        end = start + size
        if size == _WRAP or end > self.capacity:
            raise TornFrame(
                f"ring {self.name}: frame header at {self._rpos} claims "
                f"{size} bytes — torn or corrupt")
        payload = bytes(buf[start:end])
        if zlib.crc32(payload) != crc:
            raise TornFrame(
                f"ring {self.name}: frame at {self._rpos} failed its CRC "
                f"check (torn write)")
        self._rpos = end
        return payload

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self.shm is not None:
            name = self.shm.name
            try:
                self.shm.close()
            except (OSError, BufferError) as exc:  # pragma: no cover
                # Exported memoryviews can pin the mapping (BufferError)
                # and the munmap itself can fail (OSError).  Closing must
                # stay best-effort, but not silent: a pinned mapping is
                # exactly the kind of leak that needs a diagnosis trail.
                current_scope().stats["teardown.suppressed"] += 1
                warnings.warn(
                    f"suppressed shm close failure for ring {name}: "
                    f"{type(exc).__name__}: {exc}",
                    ResourceWarning, stacklevel=2)
            self.shm = None

    def unlink(self) -> None:
        """Destroy the segment (idempotent; attachments stay mapped)."""
        shm = self.shm
        self.close()
        if shm is not None:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass  # already unlinked by the other side / the tracker
            except OSError as exc:  # pragma: no cover - platform teardown
                current_scope().stats["teardown.suppressed"] += 1
                warnings.warn(
                    f"suppressed shm unlink failure for ring {shm.name}: "
                    f"{type(exc).__name__}: {exc} — segment may be leaked",
                    ResourceWarning, stacklevel=2)

    def __del__(self):  # pragma: no cover - GC teardown
        # ``attach`` can fail before ``__init__`` ran (bad name raises
        # inside SharedMemory), leaving a partially-constructed object
        # without ``self.shm``; an unconditional close() would then turn
        # the real error into a masking AttributeError at GC time.
        if getattr(self, "shm", None) is not None:
            self.close()
