"""The write-ahead world journal.

A :class:`WorldJournal` durably records everything needed to
reconstruct a run — config + ops + markers:

* the **config record** — one record, written at world construction,
  holding the seeded configuration the world was built from;
* the **op records** — setup and fault-injection commands issued
  through the coordinator facade (``add_node``, resource installation,
  ``launch``, crash plans, ``kill_shard``, alternates).  Ops are
  appended and synced immediately: they are the *inputs* a resumed run
  re-executes, so losing one would fork history;
* the **commit markers** — one per epoch barrier, carrying the barrier
  time and a cheap execution digest, handed to the operating system
  as the barrier commits.  A recovery lands on the last marker; ops
  after it were synced at issue and re-apply in order.

The fsync that makes commits durable runs whenever control returns to
the caller — each return (or raise) of a world's ``run()`` or
``step_epoch()``, ``commit_journal()`` and ``close()`` — not at every
barrier: inside one ``run()`` call no caller can observe a barrier, so
syncing there would buy nothing a caller could see.  A process crash
therefore loses at most the epoch it interrupted (every finished
barrier's marker is already in the OS); a power loss loses at most the
barriers of the world call it interrupted, and recovery lands on a
marker that is on disk — which no caller can tell apart from a power
loss at that earlier point, because every input op is synced at issue
and replay is deterministic.

Because the simulation is deterministic, the journal records inputs,
not effects: :func:`~repro.journal.resume.resume_world` rebuilds the
world from the config, re-applies the ops, re-runs deterministically
to the frontier barrier and *verifies* the committed digest.
Journals written before the journal kept only these three kinds also
hold per-epoch effect records (``store``, ``queue``, ``savepoint``,
``bridge``, ``record-merge``); recovery still reads them — committed
ones are kept and skipped by resume, uncommitted ones are discarded
with their torn epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import JournalCorrupt, UsageError
from repro.journal.backends import JournalBackend, MemoryJournal
from repro.storage.serialization import capture, restore

#: Op record kinds.  An op after the last commit marker is still
#: applied (it was issued — and synced — after that barrier); any other
#: record there belongs to the epoch the crash destroyed.
#: ``ft_alternates`` is the name older journals gave ``set_alternates``
#: on a plain world; no writer emits it now, resume still replays it.
OP_KINDS = frozenset({
    "add_node", "add_resource", "share_resource", "set_alternates",
    "ft_alternates", "launch", "crash_plans", "kill_shard",
})


def encode_record(kind: str, data: dict[str, Any]) -> bytes:
    return capture((kind, data))


def decode_record(payload: bytes) -> tuple[str, dict[str, Any]]:
    try:
        kind, data = restore(payload)
    except Exception as exc:
        raise JournalCorrupt(
            f"journal record failed to decode: {exc}") from exc
    return kind, data


@dataclass
class RecoveredRun:
    """What :meth:`WorldJournal.recover` salvages from the backend."""

    config: dict[str, Any]
    #: Every kept record after the config one, in journal order.
    entries: list[tuple[str, dict[str, Any]]]
    #: The last commit marker's data (``barrier``/``digest``/``commit``),
    #: or None when the crash predates the first epoch commit.
    frontier: Optional[dict[str, Any]]
    #: Records kept, config included — the truncation point.
    kept_records: int
    #: Intact-but-uncommitted records rolled back with the torn epoch.
    discarded_records: int
    torn_tail: bool

    @property
    def frontier_barrier(self) -> Optional[float]:
        return None if self.frontier is None else self.frontier["barrier"]


class WorldJournal:
    """Write-ahead journal of one world's execution: config + ops +
    markers.

    Records into one append-only backend the world's config (once, at
    construction), its ops (topology changes, launches, crash/kill
    plans — synced immediately) and one digest-carrying commit marker
    per epoch barrier.  :func:`~repro.journal.resume_world` rebuilds a
    world from exactly these.

    Args:
        backend: A :class:`~repro.journal.MemoryJournal` or
            :class:`~repro.journal.FileJournal` (or anything with the
            backend protocol); defaults to an in-RAM backend.

    ``armed`` gates every write: a journal attached to a world being
    rebuilt for resume stays disarmed while the journaled prefix
    replays (the records already exist), then
    :meth:`rearm` truncates the backend to the recovery frontier and
    re-enables appends for the continuation.

    Raises:
        JournalError: Writes on a journal whose config record is
            missing where required, or recovery on an empty journal.
        JournalCorrupt: Interior frame damage discovered at recovery.
    """

    def __init__(self, backend: Optional[JournalBackend] = None):
        self.backend = backend if backend is not None else MemoryJournal()
        self.armed = True
        self.config_written = False
        self.commits = 0
        self.records_written = 0
        self.kind_counts: dict[str, int] = {}
        #: True while commits handed to the backend await an fsync.
        self.unsynced = False

    # -- write side --------------------------------------------------------------

    def _append(self, kind: str, data: dict[str, Any]) -> None:
        self.backend.append(encode_record(kind, data))
        self.records_written += 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1

    def record_config(self, **data: Any) -> None:
        """The one-per-journal world configuration record."""
        if self.config_written:
            raise UsageError("journal already holds a config record")
        self._append("config", data)
        self._sync()
        self.config_written = True

    def record_op(self, op: str, **data: Any) -> None:
        """Append one op record, immediately durable."""
        if op not in OP_KINDS:
            raise UsageError(f"unknown op kind {op!r}")
        self._append(op, data)
        self._sync()

    def commit_epoch(self, barrier: float, digest: tuple) -> None:
        """Append the barrier's commit marker and hand it to the OS.

        The marker survives a process crash from here on; it becomes
        durable against power loss at the next :meth:`sync` — which
        the world runs whenever control returns to its caller.
        """
        self._append("epoch", {"barrier": barrier, "digest": digest,
                               "commit": self.commits})
        self.backend.flush()
        self.unsynced = True
        self.commits += 1

    def sync(self) -> None:
        """Fsync every flushed commit (no-op when none is pending)."""
        if self.unsynced:
            self._sync()

    def _sync(self) -> None:
        """Fsync the backend; every earlier record becomes durable."""
        self.backend.sync()
        self.unsynced = False

    def commit_torn(self, barrier: float, digest: tuple,
                    tear_bytes: int = 7) -> None:
        """Fault injection: a commit whose marker write was interrupted.

        The commit marker is physically torn (``tear_bytes`` short),
        exactly what a crash between the marker write and its fsync
        leaves behind.  Recovery must discard the whole epoch.
        """
        self._append("epoch", {"barrier": barrier, "digest": digest,
                               "commit": self.commits})
        self._sync()
        self.backend.tear_tail(tear_bytes)

    # -- recovery side ----------------------------------------------------------

    def recover(self) -> RecoveredRun:
        """Parse the backend and decide the recovery frontier.

        Keeps the config record, every record up to the last commit
        marker, and any op records after it (ops are synced at issue
        time and re-apply in order).  A journal written before the
        journal kept only config + ops + markers may hold effect
        records after the last marker; they are rolled back with their
        torn epoch.
        """
        payloads, torn = self.backend.read_all()
        records = [decode_record(p) for p in payloads]
        if not records or records[0][0] != "config":
            raise JournalCorrupt("journal has no config record")
        config = records[0][1]
        entries = records[1:]
        last_commit = None
        for i, (kind, _data) in enumerate(entries):
            if kind == "epoch":
                last_commit = i
        keep = 0 if last_commit is None else last_commit + 1
        for kind, _data in entries[keep:]:
            if kind not in OP_KINDS:
                break
            keep += 1
        frontier = None if last_commit is None else entries[last_commit][1]
        return RecoveredRun(
            config=config,
            entries=entries[:keep],
            frontier=frontier,
            kept_records=keep + 1,
            discarded_records=len(entries) - keep + (1 if torn else 0),
            torn_tail=torn,
        )

    def disarm(self) -> None:
        """Suspend appends (used while a resumed world replays)."""
        self.armed = False
        self.config_written = True

    def rearm(self, recovered: RecoveredRun) -> None:
        """Truncate to the frontier and re-enable appends."""
        self.backend.truncate_records(recovered.kept_records)
        self.unsynced = True  # the truncation is durable at the next sync
        self.records_written = recovered.kept_records
        self.commits = sum(1 for kind, _ in recovered.entries
                           if kind == "epoch")
        self.config_written = True
        self.armed = True

    # -- inspection --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "commits": self.commits,
            "records_written": self.records_written,
            "kinds": dict(self.kind_counts),
            "bytes": getattr(self.backend, "size_bytes", None),
        }

    def close(self) -> None:
        self.backend.close()
