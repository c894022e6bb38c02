"""Shared-memory rings and the struct-framed barrier wire format.

The multiprocess shard driver's epoch barrier originally shipped its
bulk payloads — agent packages, shadow copies, ledger mirrors, buffered
journal notes — by pickling whole transfer objects into the worker
pipes.  That re-serialized state the incremental-serialization layer
(PR 1) already holds as cached per-entry byte frames: the pipe pickle
embedded every cached blob into a fresh monolithic pickle on every hop,
so IPC cost grew with total log size instead of with what changed.

This module moves the bulk bytes into **shared-memory rings**
(:mod:`multiprocessing.shared_memory`), one pair per worker (one ring
per direction).  Each cached blob crosses the process boundary as a
length-prefixed frame written straight into the ring as a memoryview
slice — no re-pickle, no intermediate copy.  Only a small *manifest*
(the transfer/record/note skeletons with every ``bytes`` payload
replaced by a frame reference) still travels pickled over the pipe,
which stays the control channel.

Framing discipline
------------------

Frames reuse the journal's framing exactly
(:mod:`repro.journal.backends`): ``<u32 length><u32 crc32><payload>``.
The CRC is what keeps a dead worker honest — a frame torn mid-write by
a SIGKILL fails its checksum at decode and surfaces as
:class:`TornFrame` (which the coordinator converts into the existing
:class:`~repro.errors.WorkerDied`), never as silently corrupt state.

The ring is a byte ring with a persistent write cursor: batches wrap
around the end via a wrap sentinel (length ``0xFFFFFFFF``).  Reader
and writer stay in sync without shared cursors because the pipe
request/reply protocol strictly alternates batches — a batch is fully
consumed before the next one is written.  One batch is budgeted to at
most the ring capacity; a frame that cannot fit **spills to the pipe**
(it stays in-band in the manifest), so an undersized ring degrades to
pipe behaviour instead of failing.

Accounting
----------

Every encode updates :data:`repro.storage.serialization.STATS`:

* ``ipc_bytes_framed``  — payload bytes shipped zero-copy via a ring;
* ``ipc_bytes_copied``  — payload bytes that had to cross in-band
  (ring-capacity spills; in pipe mode, the whole pickled exchange);
* ``ipc_bytes_control`` — pipe-side pickle bytes of the epoch control
  message + manifest in shm mode (protocol overhead, not payload);
* ``frame_reused``      — frames whose bytes were reused byte-for-byte
  from an already-cached blob (every ring frame is);
* ``ring_spills``       — frames that exceeded the ring budget.

Platform caveats
----------------

POSIX ``shm_open`` segments outlive their creator until unlinked; the
coordinator owns unlinking (on ``close()`` and on ``WorkerDied``), the
worker unlinks only on the orphan-defense path, and the shared
:mod:`multiprocessing` resource tracker is the backstop for a
SIGKILLed coordinator.  On macOS shm names are length-limited (the
default names fit) and on Windows segments vanish with their last
handle, making unlink a no-op — both are fine for this usage.  The
driver auto-falls back to pipe mode when segment creation fails.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from dataclasses import replace
from multiprocessing import shared_memory
from typing import Any, Callable, Optional

from repro.storage import serialization

_HEADER = struct.Struct("<II")  # <u32 length><u32 crc32>
#: Sentinel length marking "batch wraps to offset 0 here".  A real
#: frame can never claim it: batch budgeting caps frame lengths at the
#: ring capacity, far below 2**32 - 1.
_WRAP = 0xFFFFFFFF

#: Default per-direction ring capacity (bytes).
DEFAULT_RING_SIZE = 1 << 22


class TornFrame(Exception):
    """A ring frame failed its CRC or length check (torn write)."""


class ShmRing:
    """One single-writer, single-reader byte ring over shared memory.

    The pipe protocol provides the happens-before edge between writer
    and reader (a batch descriptor only arrives after the frames are in
    place), so the ring needs no shared cursors: both sides walk the
    same deterministic frame sequence from offset 0.
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
                serialization.STATS["teardown.suppressed"] += 1
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
                serialization.STATS["teardown.suppressed"] += 1
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


# ---------------------------------------------------------------------------
# Wire codec: bulk bytes -> ring frames, skeletons -> pipe manifest
# ---------------------------------------------------------------------------


class _Ref:
    """Manifest placeholder for the i-th ring frame of a batch."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __reduce__(self):
        return (_Ref, (self.index,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Ref({self.index})"


class RingEncoder:
    """Accumulates one batch: blobs into frames, overflow stays in-band."""

    def __init__(self, ring: ShmRing):
        self.ring = ring
        self.frames = 0
        ring.begin_batch()

    def add(self, blob: Any) -> Any:
        if not isinstance(blob, bytes):
            return blob  # non-bytes note values etc. stay in the manifest
        stats = serialization.STATS
        if self.ring.try_write(blob):
            stats["ipc_bytes_framed"] += len(blob)
            stats["frame_reused"] += 1
            ref = _Ref(self.frames)
            self.frames += 1
            return ref
        # Ring budget exceeded: the blob rides the pipe pickled in-band.
        stats["ring_spills"] += 1
        stats["ipc_bytes_copied"] += len(blob)
        return blob


class RingDecoder:
    """Reads one batch's frames up front and resolves manifest refs."""

    def __init__(self, ring: ShmRing, count: int):
        self.frames = [ring.read_frame() for _ in range(count)]

    @classmethod
    def from_frames(cls, frames: "list[bytes]") -> "RingDecoder":
        """A decoder over already-materialized frames (no ring read).

        Used by the optimistic-lockstep redo path: the worker retains
        each epoch's frames at receive time, and a rollback replays the
        pristine payload against the retained bytes instead of the ring
        (whose cursor has long moved on).
        """
        dec = cls.__new__(cls)
        dec.frames = list(frames)
        return dec

    def resolve(self, token: Any) -> Any:
        if isinstance(token, _Ref):
            return self.frames[token.index]
        return token


def _map_package(package: Any, fn: Callable[[Any], Any]) -> Any:
    return replace(package, blob=fn(package.blob),
                   log_blobs=tuple(fn(b) for b in package.log_blobs))


def map_transfer(transfer: Any, fn: Callable[[Any], Any]) -> Any:
    """A copy of ``transfer`` with every bulk blob passed through ``fn``.

    ``fn`` is :meth:`RingEncoder.add` on the way out (bytes -> frame
    ref) and :meth:`RingDecoder.resolve` on the way in (frame ref ->
    bytes); the walk touches exactly the fields the incremental
    serialization layer caches: the agent blob and per-entry log frames
    of the package (or the shadow envelope's package) and the piggy-
    backed record blob.  The original object is never mutated — the
    coordinator re-ships adopted transfers, so live objects must stay
    intact.
    """
    changes: dict[str, Any] = {}
    if transfer.package is not None:
        changes["package"] = _map_package(transfer.package, fn)
    message = transfer.message
    if message is not None and hasattr(message.payload, "log_blobs"):
        changes["message"] = replace(
            message, payload=_map_package(message.payload, fn))
    if transfer.record_blob is not None:
        changes["record_blob"] = fn(transfer.record_blob)
    return replace(transfer, **changes) if changes else transfer


def map_note(data: dict[str, Any], fn: Callable[[Any], Any]
             ) -> dict[str, Any]:
    """Journal-note data with every bytes-like value mapped (savepoint
    notes carry cached entry frames; store notes may carry blob values)."""
    return {key: fn(value) if isinstance(value, (bytes, _Ref)) else value
            for key, value in data.items()}


def encode_epoch(payload: dict[str, Any], ring: ShmRing) -> dict[str, Any]:
    """Coordinator -> worker: frame the bulk halves of an epoch command."""
    enc = RingEncoder(ring)
    payload["items"] = [(action, map_transfer(t, enc.add))
                        for action, t in payload["items"]]
    payload["records"] = {aid: enc.add(blob)
                          for aid, blob in payload["records"].items()}
    payload["wire"] = enc.frames
    return payload


def read_frames(ring: ShmRing, count: int) -> "list[bytes]":
    """Materialize the next ``count`` frames of one batch off ``ring``."""
    return [ring.read_frame() for _ in range(count)]


def resolve_epoch(payload: dict[str, Any],
                  frames: "list[bytes]") -> dict[str, Any]:
    """Resolve an epoch manifest against already-materialized frames.

    The ``"wire"`` count must have been popped (its frames are
    ``frames``).  Split from :func:`decode_epoch` so the worker can
    keep the frame list for the optimistic-lockstep replay log.
    """
    dec = RingDecoder.from_frames(frames)
    payload["items"] = [(action, map_transfer(t, dec.resolve))
                        for action, t in payload["items"]]
    payload["records"] = {aid: dec.resolve(token)
                          for aid, token in payload["records"].items()}
    return payload


def decode_epoch(payload: dict[str, Any], ring: ShmRing) -> dict[str, Any]:
    return resolve_epoch(payload, read_frames(ring, payload.pop("wire")))


def encode_reply(reply: dict[str, Any], ring: ShmRing) -> dict[str, Any]:
    """Worker -> coordinator: frame the bulk halves of an epoch reply."""
    enc = RingEncoder(ring)
    reply["outbox"] = [map_transfer(t, enc.add) for t in reply["outbox"]]
    if "record_deltas" in reply:
        reply["record_deltas"] = {
            aid: enc.add(blob)
            for aid, blob in reply["record_deltas"].items()}
    if "journal" in reply:
        reply["journal"] = [(kind, map_note(data, enc.add))
                            for kind, data in reply["journal"]]
    reply["wire"] = enc.frames
    return reply


def decode_reply(reply: dict[str, Any], ring: ShmRing) -> dict[str, Any]:
    dec = RingDecoder(ring, reply.pop("wire"))
    reply["outbox"] = [map_transfer(t, dec.resolve)
                       for t in reply["outbox"]]
    if "record_deltas" in reply:
        reply["record_deltas"] = {
            aid: dec.resolve(token)
            for aid, token in reply["record_deltas"].items()}
    if "journal" in reply:
        reply["journal"] = [(kind, map_note(data, dec.resolve))
                            for kind, data in reply["journal"]]
    return reply
