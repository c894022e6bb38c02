"""The agent rollback log object (paper, Section 4.2 and Figure 2).

A stack-like sequence of entries: appended at step execution time,
popped from the end during rollback (``LOG.pop()`` in Figures 4b/5b).
The log is part of the agent package written to durable input queues, so
it becomes persistent exactly when step/compensation transactions
commit — "this log is made persistent at transaction commit".

Mutating operations accept an optional transaction and register undos,
because log manipulation during rollback happens *inside* compensation
transactions: when one aborts (crash, deadlock), the popped entries must
still be in the log for the retry.

Serialisation is **incremental**: alongside ``_entries`` the log keeps
``_frames`` — the serialised form of each entry, one blob per entry —
and ``_payload_bytes``, the running sum of the frame lengths.  Every
mutation (append, pop, truncate, discard, and all their transactional
undos) maintains both, so

* :meth:`entry_blobs` (the migration payload) serialises only entries
  the log has never framed before — an n-step tour does O(n) total
  pickling instead of the O(n²) a re-pickle per hop would cost, and
* :meth:`size_bytes` is O(1) instead of a full re-pickle per query.

Hydration is **lazy**: a log rebuilt from frames
(:meth:`from_blobs`, the package unpack path) keeps the frames as-is
and re-instantiates an entry only when something actually reads it.  A
plain step touches none of the shipped entries (it only appends), and a
rollback touches the tail, so per-hop unpickling is O(entries read)
instead of O(n).

Savepoint queries are **indexed**: the log maintains
``sp_id → (position, EOS count below, virtual)`` plus a running EOS
total, so :meth:`has_savepoint`, :meth:`steps_to_rollback` and the
target lookups of :meth:`reconstruct_sro` / :meth:`discard_savepoint`
are O(1) instead of scanning the entry list.  Tail mutations maintain
the index incrementally; the rare mid-list surgery
(:meth:`discard_savepoint`) marks it dirty for an O(n) rebuild on the
next savepoint query.  The index travels with agent packages
(:meth:`savepoint_index_state`), so an unpacked log answers savepoint
queries without hydrating a single entry.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.errors import LogCorrupt, UsageError
from repro.log.entries import (
    BeginOfStepEntry,
    EndOfStepEntry,
    LogEntry,
    OperationEntry,
    Recoverability,
    SavepointEntry,
)
from repro.log.modes import LoggingMode, SRODiff, sro_apply, sro_compose
from repro.scope import current as current_scope
from repro.storage.serialization import restore, snapshot
from repro.tx.manager import Transaction

#: Fixed framing overhead of a serialised log: mode tag + entry count.
LOG_HEADER_BYTES = 8
#: Per-entry length prefix in the framed representation.
FRAME_PREFIX_BYTES = 4
#: Fixed framing overhead of a packed savepoint index (entry count +
#: EOS total).
SP_INDEX_HEADER_BYTES = 8
#: Per-savepoint fixed cost in the packed index: id length prefix,
#: position, EOS count, virtual flag.
SP_INDEX_ENTRY_BYTES = 13


def savepoint_index_bytes(index_state: Optional[tuple]) -> int:
    """Wire size of a packed savepoint index (see
    :meth:`RollbackLog.savepoint_index_state`).

    The index rides inside every agent package, so its bytes are part
    of the honest migration payload, charged by
    :meth:`~repro.agent.packages.AgentPackage.pack`.
    """
    if index_state is None:
        return 0
    sp_items, _eos_total = index_state
    return SP_INDEX_HEADER_BYTES + sum(
        SP_INDEX_ENTRY_BYTES + len(sp_id.encode("utf-8"))
        for sp_id, _pos, _eos, _virtual in sp_items)


class RollbackLog:
    """Append/pop log of SP, BOS, OE and EOS entries."""

    def __init__(self, mode: LoggingMode = LoggingMode.STATE):
        self.mode = LoggingMode(mode)
        # _entries[i] is None while entry i is an unhydrated frame.
        self._entries: list[Optional[LogEntry]] = []
        self._frames: list[bytes] = []  # serialised form, one per entry
        self._payload_bytes = 0         # == sum(len(f) for f in _frames)
        # sp_id -> (position of first occurrence, EOS entries below it,
        # virtual flag); _eos_count is the running EOS total.  Dirty
        # after mid-list surgery; rebuilt on the next savepoint query.
        self._sp_index: dict[str, tuple[int, int, bool]] = {}
        self._eos_count = 0
        self._index_dirty = False

    # -- incremental framing ------------------------------------------------------

    @classmethod
    def from_blobs(cls, mode: LoggingMode | str, blobs: tuple[bytes, ...],
                   index_state: Optional[tuple] = None) -> "RollbackLog":
        """Rebuild a log from per-entry blobs (the package unpack path).

        Entries are *not* unpickled here: each frame is adopted as-is
        and hydrated on first read (rollback touches the tail, steps
        usually touch nothing), so re-packing an unchanged entry never
        pickles it again and unpacking never pays O(n) ``loads``.

        ``index_state`` is the packed savepoint index
        (:meth:`savepoint_index_state`): with it, savepoint queries on
        the rebuilt log stay O(1) and hydration-free; without it the
        index is rebuilt (hydrating every entry) on the first savepoint
        query.
        """
        log = cls(LoggingMode(mode))
        log._entries = [None] * len(blobs)
        log._frames = list(blobs)
        log._payload_bytes = sum(len(blob) for blob in blobs)
        current_scope().stats["entry_hydration_deferred"] += len(blobs)
        if index_state is not None:
            sp_items, eos_count = index_state
            log._sp_index = {sp_id: (pos, eos_at, virtual)
                             for sp_id, pos, eos_at, virtual in sp_items}
            log._eos_count = eos_count
        else:
            log._index_dirty = True
        return log

    def savepoint_index_state(self) -> tuple:
        """The savepoint index in packable form (rides with packages).

        A pair ``((sp_id, position, eos_below, virtual), ...), eos_total``
        — positions stay valid across pack/unpack because the frame
        order is preserved verbatim.
        """
        self._ensure_index()
        return (tuple((sp_id, pos, eos_at, virtual)
                      for sp_id, (pos, eos_at, virtual)
                      in self._sp_index.items()),
                self._eos_count)

    def entry_blobs(self) -> tuple[bytes, ...]:
        """Per-entry serialised frames, oldest first.

        O(n) pointer copy; no pickling happens here — frames are
        maintained incrementally by the mutating operations.
        """
        current_scope().stats["entry_blob_reused"] += len(self._frames)
        return tuple(self._frames)

    def payload_bytes(self) -> int:
        """Serialised size of the entry frames alone (no framing)."""
        return self._payload_bytes

    def _entry_at(self, index: int) -> LogEntry:
        """Entry ``index``, hydrating it from its frame on first read."""
        entry = self._entries[index]
        if entry is None:
            frame = self._frames[index]
            entry = restore(frame)
            entry.seed_blob(frame)
            self._entries[index] = entry
            current_scope().stats["entry_hydrated"] += 1
        return entry

    def _hydrate_all(self) -> None:
        for index in range(len(self._entries)):
            self._entry_at(index)

    def __getstate__(self) -> dict[str, Any]:
        """Pickle without the frame cache (it is derived state).

        Wholesale log pickling is not the migration path (packages ship
        per-entry frames), but when it happens — stable-store dumps,
        debugging — the bytes must describe the log once, not entries
        plus their cached serialisations.  Hydrates everything first;
        the savepoint index is derived state too and is rebuilt on load.
        """
        self._hydrate_all()
        state = dict(self.__dict__)
        for derived in ("_frames", "_payload_bytes", "_sp_index",
                        "_eos_count", "_index_dirty"):
            state.pop(derived, None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._frames = [entry.blob() for entry in self._entries]
        self._payload_bytes = sum(len(f) for f in self._frames)
        self._sp_index = {}
        self._eos_count = 0
        self._index_dirty = True

    # -- savepoint index maintenance ----------------------------------------------

    def _ensure_index(self) -> None:
        """Rebuild the savepoint index if mid-list surgery dirtied it."""
        if not self._index_dirty:
            return
        self._sp_index = {}
        eos = 0
        for position in range(len(self._entries)):
            entry = self._entry_at(position)
            if isinstance(entry, EndOfStepEntry):
                eos += 1
            elif (isinstance(entry, SavepointEntry)
                    and entry.sp_id not in self._sp_index):
                self._sp_index[entry.sp_id] = (position, eos, entry.virtual)
        self._eos_count = eos
        self._index_dirty = False

    def _index_note_append(self, entry: LogEntry, position: int) -> None:
        if self._index_dirty:
            return
        if isinstance(entry, EndOfStepEntry):
            self._eos_count += 1
        elif (isinstance(entry, SavepointEntry)
                and entry.sp_id not in self._sp_index):
            self._sp_index[entry.sp_id] = (position, self._eos_count,
                                           entry.virtual)

    def _index_note_remove(self, entry: LogEntry, position: int) -> None:
        if self._index_dirty:
            return
        if position != len(self._entries):
            # Removal below the tail shifts later positions; rebuild.
            self._index_dirty = True
            return
        if isinstance(entry, EndOfStepEntry):
            self._eos_count -= 1
        elif isinstance(entry, SavepointEntry):
            indexed = self._sp_index.get(entry.sp_id)
            if indexed is not None and indexed[0] == position:
                del self._sp_index[entry.sp_id]

    # -- basic structure ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.entries())

    def entries(self) -> list[LogEntry]:
        """Snapshot of the entries, oldest first (hydrates everything)."""
        self._hydrate_all()
        return list(self._entries)

    def last(self) -> Optional[LogEntry]:
        """The newest entry (None when empty)."""
        if not self._entries:
            return None
        return self._entry_at(len(self._entries) - 1)

    def append(self, entry: LogEntry,
               tx: Optional[Transaction] = None) -> None:
        """Append ``entry`` (undone if ``tx`` aborts).

        The entry is serialised here, once — every later pack, shadow
        copy and size query reuses the frame.
        """
        frame = entry.blob()
        self._entries.append(entry)
        self._frames.append(frame)
        self._payload_bytes += len(frame)
        self._index_note_append(entry, len(self._entries) - 1)
        if tx is not None:
            def _undo() -> None:
                for i in range(len(self._entries) - 1, -1, -1):
                    if self._entries[i] is entry:
                        del self._entries[i]
                        self._payload_bytes -= len(self._frames[i])
                        del self._frames[i]
                        self._index_note_remove(entry, i)
                        return
            tx.register_undo(_undo)

    def pop(self, tx: Optional[Transaction] = None) -> LogEntry:
        """Read and remove the newest entry (restored if ``tx`` aborts)."""
        if not self._entries:
            raise LogCorrupt("pop on empty rollback log")
        entry = self._entry_at(len(self._entries) - 1)
        self._entries.pop()
        frame = self._frames.pop()
        self._payload_bytes -= len(frame)
        self._index_note_remove(entry, len(self._entries))

        if tx is not None:
            def _undo() -> None:
                self._entries.append(entry)
                self._frames.append(frame)
                self._payload_bytes += len(frame)
                self._index_note_append(entry, len(self._entries) - 1)
            tx.register_undo(_undo)
        return entry

    def size_bytes(self) -> int:
        """Serialised size of the whole log (migration payload share).

        O(1): framing header plus the maintained running sum of the
        entry frames and their length prefixes.
        """
        return (LOG_HEADER_BYTES + self._payload_bytes
                + FRAME_PREFIX_BYTES * len(self._entries))

    # -- savepoint queries ------------------------------------------------------------

    def savepoint_reached(self, sp_id: str) -> bool:
        """Figure 4's "savepoint spID reached": newest entry is SP(spID)."""
        last = self.last()
        return isinstance(last, SavepointEntry) and last.sp_id == sp_id

    def has_savepoint(self, sp_id: str) -> bool:
        """Whether SP(spID) exists anywhere in the log.  O(1)."""
        self._ensure_index()
        return sp_id in self._sp_index

    def savepoint_ids(self) -> list[str]:
        """All savepoint identifiers, oldest first."""
        self._ensure_index()
        return [sp_id for sp_id, _info
                in sorted(self._sp_index.items(), key=lambda kv: kv[1][0])]

    def last_real_savepoint_id(self) -> Optional[str]:
        """The newest non-virtual savepoint's id (None when absent).

        O(#savepoints) via the index; used by transition logging to
        find the diff base without touching the entry list.
        """
        self._ensure_index()
        best: Optional[tuple[int, str]] = None
        for sp_id, (position, _eos, virtual) in self._sp_index.items():
            if virtual:
                continue
            if best is None or position > best[0]:
                best = (position, sp_id)
        return best[1] if best is not None else None

    def _sp_position(self, sp_id: str) -> Optional[int]:
        """Entry position of SP(spID)'s first occurrence, via the index."""
        self._ensure_index()
        info = self._sp_index.get(sp_id)
        return info[0] if info is not None else None

    def savepoint_sro_hashes(self, sp_id: str) -> Optional[dict]:
        """Per-key SRO content hashes recorded at SP(spID), if any.

        One entry read — the fast diff base for transition logging
        (:func:`~repro.log.modes.sro_diff_hashed`); ``None`` sends the
        writer down the reconstruct-and-compare fallback.
        """
        position = self._sp_position(sp_id)
        if position is None:
            raise UsageError(f"no savepoint {sp_id!r} in log")
        return self._entry_at(position).sro_hashes

    def last_end_of_step(self) -> Optional[EndOfStepEntry]:
        """The last EOS entry, skipping trailing savepoint entries.

        Figure 4a: the node of the next compensation transaction "can be
        determined by examining the last end-of-step entry contained in
        the agent rollback log (which is the last entry if no savepoint
        entry has been written after the last end-of-step entry)".
        """
        for position in range(len(self._entries) - 1, -1, -1):
            entry = self._entry_at(position)
            if isinstance(entry, EndOfStepEntry):
                return entry
            if not isinstance(entry, SavepointEntry):
                return None
        return None

    def steps_to_rollback(self, sp_id: str) -> int:
        """Committed steps to compensate to reach SP(spID).  O(1)."""
        self._ensure_index()
        info = self._sp_index.get(sp_id)
        if info is None:
            raise UsageError(f"no savepoint {sp_id!r} in log")
        _position, eos_below, _virtual = info
        return self._eos_count - eos_below

    def blocking_non_compensatable(self, sp_id: str) -> Optional[EndOfStepEntry]:
        """First non-compensatable step between the end and SP(spID), if any."""
        stop = self._sp_position(sp_id)
        floor = stop if stop is not None else -1
        for position in range(len(self._entries) - 1, floor, -1):
            entry = self._entry_at(position)
            if isinstance(entry, SavepointEntry) and entry.sp_id == sp_id:
                return None
            if isinstance(entry, EndOfStepEntry) and entry.non_compensatable:
                return entry
        return None

    def choose_rollback_point(self, sp_id: str) -> Optional[str]:
        """The deepest reachable target for a rollback request to ``sp_id``.

        Consults the per-step :class:`~repro.log.entries.Recoverability`
        annotations: walking from the newest entry down towards
        SP(spID), an EOS annotated ``unrecoverable`` stops the walk —
        the effective target becomes the nearest savepoint *above* that
        step (the last one seen on the way down), or ``None`` when no
        savepoint lies above it.  Returns ``sp_id`` itself when no
        unrecoverable step blocks the path.

        Steps marked ``non_compensatable`` are not handled here — they
        are a hard stop, checked separately via
        :meth:`blocking_non_compensatable` before this adjustment runs.
        """
        stop = self._sp_position(sp_id)
        if stop is None:
            raise UsageError(f"no savepoint {sp_id!r} in log")
        candidate: Optional[str] = None
        for position in range(len(self._entries) - 1, stop - 1, -1):
            entry = self._entry_at(position)
            if isinstance(entry, SavepointEntry):
                if position == stop:
                    return sp_id
                candidate = entry.sp_id
            elif (isinstance(entry, EndOfStepEntry)
                    and getattr(entry, "recoverability", Recoverability.EXACT)
                    == Recoverability.UNRECOVERABLE):
                return candidate
        return sp_id

    # -- SRO restoration ------------------------------------------------------------------

    def reconstruct_sro(self, sp_id: str) -> dict[str, Any]:
        """SRO state recorded at savepoint ``sp_id``.

        State logging reads the image directly (O(1) target lookup via
        the savepoint index).  Transition logging folds the oldest
        (full-image) savepoint with every diff up to the target.
        Virtual savepoints denote the state of the nearest real
        savepoint below them.
        """
        target = self._sp_position(sp_id)
        if target is None:
            raise UsageError(f"no savepoint {sp_id!r} in log")
        entry = self._entry_at(target)
        if entry.virtual:
            # Same agent state as the nearest real savepoint below.
            for index in range(target - 1, -1, -1):
                below = self._entry_at(index)
                if isinstance(below, SavepointEntry) and not below.virtual:
                    return self.reconstruct_sro(below.sp_id)
            raise LogCorrupt(
                f"virtual savepoint {sp_id!r} has no real savepoint below")
        if self.mode is LoggingMode.STATE:
            return snapshot(entry.payload)
        state: Optional[dict[str, Any]] = None
        for index in range(target + 1):
            candidate = self._entry_at(index)
            if not isinstance(candidate, SavepointEntry) or candidate.virtual:
                continue
            if isinstance(candidate.payload, SRODiff):
                if state is None:
                    raise LogCorrupt(
                        "transition log starts with a diff savepoint")
                state = sro_apply(state, candidate.payload)
            else:
                state = snapshot(candidate.payload)
        assert state is not None
        return state

    def reconstruct_wro(self, sp_id: str) -> Optional[dict[str, Any]]:
        """WRO image stored at SP(spID), if any (saga baseline only).

        The paper's mechanism never images weakly reversible objects;
        this accessor exists for the saga-style baseline (ref [4]) so
        benches can demonstrate the resulting incorrectness.
        """
        position = self._sp_position(sp_id)
        if position is None:
            raise UsageError(f"no savepoint {sp_id!r} in log")
        entry = self._entry_at(position)
        if entry.wro_payload is None:
            return None
        return snapshot(entry.wro_payload)

    # -- itinerary integration (Section 4.4.2) -----------------------------------------------

    def discard_savepoint(self, sp_id: str,
                          tx: Optional[Transaction] = None) -> bool:
        """Remove SP(spID) once its sub-itinerary completed.

        Operation entries stay (they are still needed to roll back the
        *enclosing* sub-itinerary).  Under transition logging the
        discarded savepoint's diff is composed into the next real
        savepoint above it so later reconstructions still work — the
        paper's "non-trivial task if transition logging is used".
        Returns False when the savepoint is absent (already discarded by
        an earlier, crashed-and-retried completion).

        Mid-list surgery: positions above the removed entry shift, so
        the savepoint index is marked dirty here (and by the undo) and
        rebuilt on the next savepoint query.
        """
        index = self._sp_position(sp_id)
        if index is None:
            return False
        entry = self._entry_at(index)
        restore_fns: list[Callable[[], None]] = []
        if (self.mode is LoggingMode.TRANSITION and not entry.virtual
                and isinstance(entry.payload, SRODiff)):
            above = self._first_real_savepoint_after(index)
            if above is not None:
                if isinstance(above.payload, SRODiff):
                    old_payload = above.payload
                    self._mutate_payload(
                        above, sro_compose(entry.payload, above.payload))
                    restore_fns.append(
                        lambda a=above, p=old_payload:
                        self._mutate_payload(a, p))
                # A full image above needs no merge.
        elif (self.mode is LoggingMode.TRANSITION and not entry.virtual
                and not isinstance(entry.payload, SRODiff)):
            # Discarding the base image: promote the next diff savepoint
            # to a full image so the chain stays rooted.
            above = self._first_real_savepoint_after(index)
            if above is not None and isinstance(above.payload, SRODiff):
                old_payload = above.payload
                self._mutate_payload(
                    above, sro_apply(entry.payload, above.payload))
                restore_fns.append(
                    lambda a=above, p=old_payload:
                    self._mutate_payload(a, p))
        frame = self._frames[index]
        del self._entries[index]
        del self._frames[index]
        self._payload_bytes -= len(frame)
        self._index_note_remove(entry, index)
        if tx is not None:
            def _undo(e: LogEntry = entry, f: bytes = frame,
                      i: int = index) -> None:
                self._entries.insert(i, e)
                self._frames.insert(i, f)
                self._payload_bytes += len(f)
                self._index_dirty = True
                for fn in restore_fns:
                    fn()
            tx.register_undo(_undo)
        return True

    def _mutate_payload(self, entry: SavepointEntry, payload: Any) -> None:
        """Replace ``entry.payload`` in place, keeping frame/size honest.

        The only sanctioned in-place entry mutation: savepoint-diff
        composition during :meth:`discard_savepoint` (and its undo).
        """
        for i in range(len(self._entries) - 1, -1, -1):
            if self._entries[i] is entry:
                entry.payload = payload
                entry.invalidate_blob()
                frame = entry.blob()
                self._payload_bytes += len(frame) - len(self._frames[i])
                self._frames[i] = frame
                return
        raise LogCorrupt("payload mutation of an entry not in the log")

    def _first_real_savepoint_after(self, index: int) -> Optional[SavepointEntry]:
        for position in range(index + 1, len(self._entries)):
            entry = self._entry_at(position)
            if isinstance(entry, SavepointEntry) and not entry.virtual:
                return entry
        return None

    def truncate(self, tx: Optional[Transaction] = None) -> int:
        """Discard the whole log (top-level sub-itinerary completed).

        Returns the number of entries dropped.
        """
        dropped = self._entries
        dropped_frames = self._frames
        dropped_bytes = self._payload_bytes
        dropped_index = (self._sp_index, self._eos_count, self._index_dirty)
        count = len(dropped)
        self._entries = []
        self._frames = []
        self._payload_bytes = 0
        self._sp_index = {}
        self._eos_count = 0
        self._index_dirty = False
        if tx is not None:
            def _undo() -> None:
                self._entries = dropped
                self._frames = dropped_frames
                self._payload_bytes = dropped_bytes
                (self._sp_index, self._eos_count,
                 self._index_dirty) = dropped_index
            tx.register_undo(_undo)
        return count

    # -- integrity -----------------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`LogCorrupt` if broken.

        * BOS/EOS strictly alternate and agree on node and step index;
        * operation entries only appear inside a BOS/EOS frame;
        * savepoint entries never appear inside a BOS/EOS frame
          ("a savepoint can only be written after the execution of a
          step ... no savepoint entries can be found between a BOS entry
          and an EOS entry");
        * the EOS mixed flag matches the presence of MCE entries;
        * the incremental frame/size accounting matches the entries;
        * the savepoint index agrees with the entry list.
        """
        if len(self._frames) != len(self._entries):
            raise LogCorrupt(
                f"size accounting drift: {len(self._frames)} frames for "
                f"{len(self._entries)} entries")
        actual = sum(len(frame) for frame in self._frames)
        if actual != self._payload_bytes:
            raise LogCorrupt(
                f"size accounting drift: cached {self._payload_bytes}, "
                f"actual {actual}")
        open_bos: Optional[BeginOfStepEntry] = None
        saw_mixed = False
        expected_index: dict[str, tuple[int, int, bool]] = {}
        eos_seen = 0
        for position in range(len(self._entries)):
            entry = self._entry_at(position)
            if isinstance(entry, BeginOfStepEntry):
                if open_bos is not None:
                    raise LogCorrupt("nested BOS")
                open_bos = entry
                saw_mixed = False
            elif isinstance(entry, EndOfStepEntry):
                if open_bos is None:
                    raise LogCorrupt("EOS without BOS")
                if (entry.node != open_bos.node
                        or entry.step_index != open_bos.step_index):
                    raise LogCorrupt("EOS does not match BOS")
                if entry.has_mixed != saw_mixed:
                    raise LogCorrupt("EOS mixed flag inconsistent")
                open_bos = None
                eos_seen += 1
            elif isinstance(entry, OperationEntry):
                if open_bos is None:
                    raise LogCorrupt("operation entry outside a step frame")
                if entry.op_kind.value == "MCE":
                    saw_mixed = True
            elif isinstance(entry, SavepointEntry):
                if open_bos is not None:
                    raise LogCorrupt("savepoint inside a step frame")
                if entry.sp_id not in expected_index:
                    expected_index[entry.sp_id] = (position, eos_seen,
                                                   entry.virtual)
            else:  # pragma: no cover - defensive
                raise LogCorrupt(f"unknown entry {entry!r}")
        if open_bos is not None:
            raise LogCorrupt("log ends inside an open step frame")
        if not self._index_dirty:
            if self._sp_index != expected_index or self._eos_count != eos_seen:
                raise LogCorrupt(
                    f"savepoint index drift: cached {self._sp_index} "
                    f"(eos={self._eos_count}), actual {expected_index} "
                    f"(eos={eos_seen})")
