"""Per-shard process state: id sequences and serialization accounting.

Several subsystems mint ids from process-wide sequences — exactly-once
work ids, queue item ids, auto savepoint names, network message ids,
transaction ids, mailbox message and shop receipt numbers, anonymous
agent names — and count serialization work in
:data:`repro.storage.serialization.STATS`.  One :class:`Scope` holds
all of that state, and :func:`current` returns the scope the calling
code runs under.

Everything runs under the process-default scope :data:`DEFAULT` (which
``serialization.STATS`` is bound to), so a :class:`~repro.node.runtime.
World` or an in-process :class:`~repro.node.sharded.ShardedWorld`
behaves exactly as with plain module counters.  A shard server of the
process backend (:mod:`repro.node.procshard`) instead builds its kernel
and executes every command under a private scope whose work-id, item-id
and savepoint-id sequences start in the shard's namespace.  That holds
for the shard hosted inside the coordinator process too: it mints the
ids a fresh worker process would, and its accounting never lands in the
coordinator's counters or disturbs another world living in the same
process.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Iterator

#: Width of one shard's work-id, item-id and savepoint-id namespace:
#: shard ``i`` mints from ``1 + i * ID_STRIDE``.  Work ids arbitrate
#: exactly-once execution globally (they key the step ledger) and auto
#: savepoint names must stay unique within a migrating agent's log, so
#: the shards of one run must never collide; item ids are offset too so
#: debug output stays unambiguous.  Far above any realistic number of
#: ids one run mints.
ID_STRIDE = 10 ** 9

#: The serialization counters every scope carries.
#: ``snapshot_fast`` / ``snapshot_pickle`` — structural vs round-trip
#: snapshots; ``entry_blob_serialized`` / ``entry_blob_reused`` — log
#: entry pickles actually performed vs satisfied from an entry's cache;
#: ``entry_hydration_deferred`` / ``entry_hydrated`` — frames adopted
#: lazily at unpack vs actually unpickled later on first read (the gap
#: is the per-hop ``pickle.loads`` work lazy hydration avoided).
#:
#: ``ipc_bytes_copied`` counts the pickled epoch and reply blobs of the
#: process backend's barrier exchange (see :mod:`repro.node.procshard`).
#: The pipe is the only barrier wire, so ``ipc_bytes_framed``,
#: ``ipc_bytes_control``, ``frame_reused`` and ``ring_spills`` (the
#: accounting of the retired shared-memory ring wire) stay 0; they are
#: kept so per-layer readers find every key.
#:
#: ``teardown.suppressed`` counts errors swallowed during best-effort
#: teardown (worker shutdown, shm unlink, pipe close): each one also
#: emits a :class:`ResourceWarning`, so a teardown failure has a
#: counter and a message instead of a silent ``pass``.
STAT_KEYS = (
    "snapshot_fast",
    "snapshot_pickle",
    "entry_blob_serialized",
    "entry_blob_reused",
    "entry_hydration_deferred",
    "entry_hydrated",
    "ipc_bytes_framed",
    "ipc_bytes_copied",
    "ipc_bytes_control",
    "frame_reused",
    "ring_spills",
    "teardown.suppressed",
)


class Scope:
    """One set of id sequences plus one serialization counter table.

    Args:
        namespace: Shard index whose work-id / item-id / savepoint-id
            range the sequences start in (0 = the plain ``1, 2, ...``).
    """

    __slots__ = ("work_ids", "item_ids", "savepoint_ids", "message_ids",
                 "txids", "mailbox_ids", "receipt_ids", "agent_ids",
                 "stats")

    def __init__(self, namespace: int = 0):
        base = 1 + namespace * ID_STRIDE
        self.work_ids = itertools.count(base)
        self.item_ids = itertools.count(base)
        self.savepoint_ids = itertools.count(base)
        self.message_ids = itertools.count(1)
        self.txids = itertools.count(1)
        self.mailbox_ids = itertools.count(1)
        self.receipt_ids = itertools.count(1)
        self.agent_ids = itertools.count(1)
        self.stats = dict.fromkeys(STAT_KEYS, 0)


#: The process-default scope: everything outside a shard server.
DEFAULT = Scope()

_CURRENT: contextvars.ContextVar[Scope] = contextvars.ContextVar(
    "repro_scope", default=DEFAULT)

#: The scope the caller runs under.  A C-level lookup; hot paths call it
#: once per function, never once per counter bump.
current = _CURRENT.get


@contextlib.contextmanager
def entered(scope: Scope) -> Iterator[Scope]:
    """Run the ``with`` body under ``scope``."""
    token = _CURRENT.set(scope)
    try:
        yield scope
    finally:
        _CURRENT.reset(token)
