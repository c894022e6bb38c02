"""The shard link's wire: each package frame crosses a link once.

Every barrier of the process backend (:mod:`repro.node.procshard`)
moves agent packages between the coordinator and its shards.  A package
is already framed (:mod:`repro.agent.packages`): one agent blob plus
one immutable ``bytes`` frame per log entry, and most of a migrating
agent's frames are frames the same link carried on an earlier hop (an
agent crossing back carries its first savepoint again).  Each end of a
link therefore keeps what the other end already holds:

* **worker pipes** (:class:`FrameTable`) — both ends hold a table of
  log frames of at least :data:`MIN_FRAME_BYTES`, keyed by content, and
  the two tables mirror each other.  A frame the table holds ships as
  its int key; a new one ships once, inline, and both ends insert it.
  Both ends evict oldest-first past :data:`TABLE_BYTES` at the end of
  each message.  The mirror needs exactly one message in flight per
  link, which the request/reply protocol gives and
  :class:`~repro.node.procshard._ShardHandle` asserts.
* **the hosted shard** (:class:`ByReference`) — shard 0 lives in the
  coordinator process, so its package bytes (the agent blob and the
  log frames) are handed over by reference beside the pickle.
  ``bytes`` are immutable: the two sides still share no mutable object.

Only the bridge transfers of a message are rewritten, each into a wire
copy (a live transfer or package is never touched); the rest of a
message is plain C pickle.  A message that fails to encode leaves both
tables as they were.  A message that fails to *decode* (say, a class
that cannot be unpickled on the receiving side) empties the receiving
end's table, and that end's next message tells the other end to empty
its own.

Usage, per message: the sender builds the wire copies
(:meth:`~_LinkEnd.out_items` / :meth:`~_LinkEnd.out_transfers`) into
the message and seals it (:meth:`~_LinkEnd.seal`); the receiver opens
it (:meth:`~_LinkEnd.open`) and rebuilds the transfers
(:meth:`~_LinkEnd.in_items` / :meth:`~_LinkEnd.in_transfers`), or
calls :meth:`~_LinkEnd.lose` when either step raised.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.agent.packages import AgentPackage
from repro.net.messages import Message
from repro.node.sharded import _Transfer
from repro.scope import current as current_scope

#: Log frames shorter than this always ship inline: a key would save
#: less than the table lookup costs.
MIN_FRAME_BYTES = 1024

#: The byte cap of one link's table; both ends evict oldest-first past
#: it, so a long run's tables stay bounded.
TABLE_BYTES = 8 << 20

_PROTOCOL = pickle.HIGHEST_PROTOCOL


class _Framed:
    """A pipe message that changes the receiver's table: the frames new
    to the link (in key order), and whether the receiver must first
    empty its table (the sender failed to decode the message before)."""

    __slots__ = ("reset", "frames", "message")

    def __init__(self, reset: bool, frames: list, message: Any):
        self.reset = reset
        self.frames = frames
        self.message = message

    def __reduce__(self):
        return _Framed, (self.reset, self.frames, self.message)


class _LinkEnd:
    """One end of a shard link: the transfers of a message travel as
    wire copies.

    A transfer's wire copy is a copy of its attribute dict, and so is
    the agent package it carries (directly or as a shadow message's
    payload), except for the package's bytes: what a subclass puts in
    their place is what it saves.  A dict also pickles and loads faster
    than the object it stands for, and the receiver adopts it as the
    rebuilt object's attributes.  A package or shadow message shared
    by two transfers of one message stays shared (a transfer itself
    rides a message once: a routed inbox or a drained outbox).
    """

    # -- the package bytes (subclasses say what goes on the wire) -----------

    def _bytes_out(self, blob: bytes, frames: tuple) -> tuple[Any, Any]:
        raise NotImplementedError

    def _bytes_in(self, blob: Any, frames: Any) -> tuple[bytes, tuple]:
        raise NotImplementedError

    def _settle(self) -> None:
        """End the message just read."""

    # -- wire copies (``memo``: id -> copy, within one message) -----------------

    def _package_out(self, package: AgentPackage, memo: dict) -> dict:
        wire = memo.get(id(package))
        if wire is None:
            wire = memo[id(package)] = package.__dict__.copy()
            wire["blob"], wire["log_blobs"] = self._bytes_out(
                package.blob, package.log_blobs)
        return wire

    def _transfer_out(self, transfer: _Transfer, memo: dict) -> dict:
        wire = transfer.__dict__.copy()
        message = transfer.message
        if transfer.package is not None:
            wire["package"] = self._package_out(transfer.package, memo)
        elif message is not None and type(message.payload) is AgentPackage:
            wire_message = memo.get(id(message))
            if wire_message is None:
                wire_message = memo[id(message)] = message.__dict__.copy()
                wire_message["payload"] = self._package_out(
                    message.payload, memo)
            wire["message"] = wire_message
        return wire

    def out_transfers(self, transfers: list) -> list:
        """The wire copies of a message's ``transfers``."""
        memo: dict[int, dict] = {}
        return [self._transfer_out(transfer, memo) for transfer in transfers]

    def out_items(self, items: list) -> list:
        """The wire copies of a message's routed ``(action, transfer)``
        items."""
        memo: dict[int, dict] = {}
        return [(action, self._transfer_out(transfer, memo))
                for action, transfer in items]

    def _package_in(self, wire: dict, memo: dict) -> AgentPackage:
        package = memo.get(id(wire))
        if package is None:
            # No __init__: no default factory runs, so no id is minted.
            package = memo[id(wire)] = object.__new__(AgentPackage)
            package.__dict__ = wire
            wire["blob"], wire["log_blobs"] = self._bytes_in(
                wire["blob"], wire["log_blobs"])
        return package

    def _transfer_in(self, wire: dict, memo: dict) -> _Transfer:
        transfer = object.__new__(_Transfer)
        transfer.__dict__ = wire
        message = wire["message"]
        if wire["package"] is not None:
            wire["package"] = self._package_in(wire["package"], memo)
        elif message.__class__ is dict:
            rebuilt = memo.get(id(message))
            if rebuilt is None:
                rebuilt = memo[id(message)] = object.__new__(Message)
                rebuilt.__dict__ = message
                message["payload"] = self._package_in(message["payload"],
                                                      memo)
            wire["message"] = rebuilt
        return transfer

    def in_transfers(self, wires: list) -> list:
        """The transfers rebuilt from their decoded wire copies; ends
        the message."""
        memo: dict[int, Any] = {}
        transfers = [self._transfer_in(wire, memo) for wire in wires]
        self._settle()
        return transfers

    def in_items(self, items: list) -> list:
        """The routed items rebuilt from their decoded wire copies; ends
        the message."""
        memo: dict[int, Any] = {}
        rebuilt = [(action, self._transfer_in(wire, memo))
                   for action, wire in items]
        self._settle()
        return rebuilt

    # -- the message ----------------------------------------------------------

    def seal(self, message: Any) -> Any:
        """Encode ``message``, whose transfers are wire copies."""
        raise NotImplementedError

    def pickled_bytes(self, wire: Any) -> int:
        """The bytes of a sealed message that were pickled."""
        raise NotImplementedError

    def open(self, wire: Any) -> Any:
        """Decode a sealed message, up to its transfers' wire copies."""
        raise NotImplementedError

    def lose(self) -> None:
        """The message just read could not be decoded."""


class FrameTable(_LinkEnd):
    """One end of a worker pipe, with its mirror of the link's frames.

    Frames are keyed by content through a ``dict[bytes, int]``: a
    ``bytes`` object caches its hash, and the key check is exact
    equality, so equal frames from two packages share one key.  Keys
    are handed out in insertion order, which both ends share; eviction
    pops the oldest.  A package's wire copy holds every frame of at
    least :data:`MIN_FRAME_BYTES` as its key; the frames new to the
    link ride once, beside the message (:class:`_Framed`), and the
    receiver inserts them before it reads anything.  Hits (frames not
    re-sent) count into the encoding scope's ``frame_reused``.
    """

    def __init__(self) -> None:
        self._keys: dict[bytes, int] = {}
        #: key -> frame, oldest first.
        self._frames: dict[int, bytes] = {}
        self._next_key = 0
        self._bytes = 0
        #: The key the last settled message left next.
        self._settled_key = 0
        #: The frames new to the link, and the hits, of the message
        #: being built.
        self._new: list[bytes] = []
        self._hits = 0
        self._reset_due = False

    def _insert(self, frame: bytes) -> int:
        key = self._next_key
        self._next_key = key + 1
        self._keys[frame] = key
        self._frames[key] = frame
        self._bytes += len(frame)
        return key

    def _key(self, frame: bytes) -> int:
        key = self._keys.get(frame)
        if key is None:
            self._new.append(frame)
            return self._insert(frame)
        self._hits += 1
        return key

    def _bytes_out(self, blob: bytes, frames: tuple) -> tuple[bytes, tuple]:
        key = self._key
        return blob, tuple([frame if len(frame) < MIN_FRAME_BYTES
                            else key(frame) for frame in frames])

    def _bytes_in(self, blob: bytes, wire: tuple) -> tuple[bytes, tuple]:
        table = self._frames
        return blob, tuple([table[frame] if frame.__class__ is int
                            else frame for frame in wire])

    def _settle(self) -> None:
        """Evict oldest-first past the cap: the last step of every
        message that inserted frames, on both ends."""
        frames, keys = self._frames, self._keys
        while self._bytes > TABLE_BYTES:
            frame = frames.pop(next(iter(frames)))
            del keys[frame]
            self._bytes -= len(frame)
        self._settled_key = self._next_key

    def _rollback(self) -> None:
        """Drop the message being built: its inserts are the newest
        keys, and nothing was evicted since the last settle."""
        for key in range(self._settled_key, self._next_key):
            frame = self._frames.pop(key)
            del self._keys[frame]
            self._bytes -= len(frame)
        self._next_key = self._settled_key
        self._new = []
        self._hits = 0

    def _clear(self) -> None:
        self._keys.clear()
        self._frames.clear()
        self._bytes = self._next_key = self._settled_key = 0

    def seal(self, message: Any) -> bytes:
        """Pickle ``message``; its inserts stand only if that worked."""
        new = self._new
        if new or self._reset_due:
            message = _Framed(self._reset_due, new, message)
        try:
            blob = pickle.dumps(message, _PROTOCOL)
        except BaseException:
            self._rollback()
            raise
        if new:
            self._new = []
        if self._hits:
            current_scope().stats["frame_reused"] += self._hits
            self._hits = 0
        self._reset_due = False
        if self._next_key != self._settled_key:
            self._settle()
        return blob

    def pickled_bytes(self, wire: bytes) -> int:
        return len(wire)

    def open(self, wire: bytes) -> Any:
        message = pickle.loads(wire)
        if message.__class__ is _Framed:
            if message.reset:
                self._clear()
            for frame in message.frames:
                self._insert(frame)
            message = message.message
        return message

    def lose(self) -> None:
        self._clear()
        self._reset_due = True


class ByReference(_LinkEnd):
    """One end of the hosted shard's in-process link.

    Each package's agent blob and log frames travel by reference in a
    list beside the pickle; the package's wire copy holds its index
    into it.  Nothing is cached, so nothing can fall out of step.
    """

    def __init__(self) -> None:
        self._refs_out: list[tuple] = []
        self._refs_in: list[tuple] = []

    def _bytes_out(self, blob: bytes, frames: tuple) -> tuple[int, None]:
        self._refs_out.append((blob, frames))
        return len(self._refs_out) - 1, None

    def _bytes_in(self, index: int, _frames: None) -> tuple[bytes, tuple]:
        return self._refs_in[index]

    def seal(self, message: Any) -> tuple[bytes, Any]:
        refs = self._refs_out
        if refs:
            self._refs_out = []
        return pickle.dumps(message, _PROTOCOL), refs

    def pickled_bytes(self, wire: tuple[bytes, Any]) -> int:
        return len(wire[0])

    def open(self, wire: tuple[bytes, Any]) -> Any:
        blob, self._refs_in = wire
        return pickle.loads(blob)
