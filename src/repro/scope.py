"""Per-world state: id sequences and serialization accounting.

Several subsystems mint ids — exactly-once work ids, queue item ids,
auto savepoint names, network message ids, transaction ids, mailbox
message and shop receipt numbers, anonymous agent names — and count
serialization work.  One :class:`Scope` holds all of that state, and
:func:`current` returns the scope the calling code runs under.

Every world owns one.  A :class:`~repro.node.runtime.World` makes its
own at construction; an in-process :class:`~repro.node.sharded.
ShardedWorld` makes one in namespace 0 that all its shards share; a
:class:`~repro.node.procshard.ProcShardedWorld` coordinator makes one
for its launch captures and its half of the barrier IPC accounting,
and each of its shard servers builds its kernel and executes every
command under a scope whose work-id, item-id and savepoint-id
sequences start in the shard's namespace.  The facade's entry points
(:mod:`repro.node.lockstep`) run under the world's scope, so nothing a
world executes mints from, or counts into, another world's scope —
worlds living in the same process never shift each other's ids, and
the same seed gives the same ids however many worlds ran before.

Code running outside any world (an agent built with no explicit id, a
bare component under test) uses the process-default scope
:data:`DEFAULT`; a test of bare components that needs fresh counters
enters a ``Scope()`` of its own.  A scope holds plain integers and
dicts only, so it pickles with the state a checkpoint captures.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

#: Width of one shard's work-id, item-id and savepoint-id namespace:
#: shard ``i`` mints from ``1 + i * ID_STRIDE``.  Work ids arbitrate
#: exactly-once execution globally (they key the step ledger) and auto
#: savepoint names must stay unique within a migrating agent's log, so
#: the shards of one run must never collide; item ids are offset too so
#: debug output stays unambiguous.  Far above any realistic number of
#: ids one run mints.
ID_STRIDE = 10 ** 9

#: The id sequences that start in the scope's namespace.
NAMESPACED = ("work", "item", "savepoint")

#: Every id sequence a scope carries (see :meth:`Scope.mint`).
SEQUENCES = NAMESPACED + ("message", "tx", "mailbox", "receipt", "agent")

#: The serialization counters every scope carries.
#: ``snapshot_fast`` / ``snapshot_pickle`` — structural vs round-trip
#: snapshots; ``entry_blob_serialized`` / ``entry_blob_reused`` — log
#: entry pickles actually performed vs satisfied from an entry's cache;
#: ``entry_hydration_deferred`` / ``entry_hydrated`` — frames adopted
#: lazily at unpack vs actually unpickled later on first read (the gap
#: is the per-hop ``pickle.loads`` work lazy hydration avoided).
#:
#: ``ipc_bytes_copied`` counts the bytes actually pickled onto a shard
#: link by the process backend's barrier exchange, epoch commands and
#: their replies (see :mod:`repro.node.procshard`): a log frame that
#: ships as a frame-table key, and the package bytes the hosted shard
#: gets by reference, are not in it.  ``frame_reused`` counts the
#: frame-table hits, the frames that shipped as a key instead of again
#: (see :mod:`repro.node.wire`).  The pipe is the only barrier wire, so
#: ``ipc_bytes_framed``, ``ipc_bytes_control`` and ``ring_spills`` (the
#: accounting of the retired shared-memory ring wire) stay 0; they are
#: kept so per-layer readers find every key.
#:
#: ``teardown.suppressed`` counts errors swallowed during best-effort
#: teardown (worker shutdown, terminate, pipe close): each one also
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

    __slots__ = ("next_ids", "stats")

    def __init__(self, namespace: int = 0):
        base = 1 + namespace * ID_STRIDE
        #: The id each sequence mints next.
        self.next_ids = {name: base if name in NAMESPACED else 1
                         for name in SEQUENCES}
        self.stats = dict.fromkeys(STAT_KEYS, 0)

    def mint(self, sequence: str) -> int:
        """The next id of ``sequence`` (one of :data:`SEQUENCES`)."""
        ids = self.next_ids
        value = ids[sequence]
        ids[sequence] = value + 1
        return value


#: The process-default scope: everything that runs outside a world.
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
