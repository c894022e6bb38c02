"""Undo-log transactions.

A :class:`Transaction` collects three kinds of bookkeeping while the unit
of work runs:

* **undo actions** — run in reverse order on abort.  Components that
  apply effects immediately (resource writes, queue dequeues) register
  one per mutation; abort restores the exact prior state.
* **commit actions** — deferred effects that must stay invisible until
  the transaction commits (queue enqueues, message hand-off to the next
  node, metric commits).
* **locks** — strict 2PL; all released at commit/abort.

Transactions also accumulate a virtual-time **cost**: every charged
operation adds to :attr:`Transaction.cost`, and the driver schedules the
commit event ``cost`` seconds after the begin event, so lock hold times
and crash windows reflect the work performed.

The manager tracks active transactions per node so a node crash can
abort everything in flight there (the recovery procedure of a real
resource manager would roll uncommitted work back from its WAL; with an
in-process undo log this is the same state transition).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Hashable

from repro.errors import TransactionAborted, UsageError
from repro.scope import current as current_scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tx.locks import LockManager

class TxState(enum.Enum):
    """Life cycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One ACID unit of work (step transaction or compensation transaction).

    Parameters
    ----------
    kind:
        Free-form label ("step", "compensation", "rollback-start", ...)
        used by metrics and tests.
    home:
        Name of the node that started the transaction (the coordinator in
        distributed commits).
    """

    def __init__(self, kind: str, home: str):
        self.txid: int = current_scope().mint("tx")
        self.kind = kind
        self.home = home
        self.state = TxState.ACTIVE
        self.cost: float = 0.0
        self.participants: set[str] = {home}
        self._undo: list[Callable[[], None]] = []
        self._on_commit: list[Callable[[], None]] = []
        self._locks: list[tuple["LockManager", Hashable]] = []
        self._managers: list["TransactionManager"] = []

    # -- bookkeeping ---------------------------------------------------------

    def require_active(self) -> None:
        """Raise :class:`TransactionAborted` unless the tx is still active."""
        if self.state is not TxState.ACTIVE:
            raise TransactionAborted(
                f"tx {self.txid} is {self.state.value}")

    def is_active(self) -> bool:
        return self.state is TxState.ACTIVE

    def register_undo(self, fn: Callable[[], None]) -> None:
        """Register an abort-time compensating closure (LIFO order)."""
        self.require_active()
        self._undo.append(fn)

    def register_commit(self, fn: Callable[[], None]) -> None:
        """Register a deferred effect applied only if the tx commits."""
        self.require_active()
        self._on_commit.append(fn)

    def note_lock(self, manager: "LockManager", item: Hashable) -> None:
        """Record a lock for release at commit/abort (LockManager calls this)."""
        self._locks.append((manager, item))

    def add_participant(self, node: str) -> None:
        """Record that durable state on ``node`` is involved."""
        self.require_active()
        self.participants.add(node)

    def charge(self, seconds: float) -> None:
        """Accumulate virtual-time cost for this unit of work."""
        if seconds < 0:
            raise UsageError("negative charge")
        self.cost += seconds

    def enlist(self, manager: "TransactionManager") -> None:
        """Track membership in a per-node active set (internal)."""
        if manager not in self._managers:
            self._managers.append(manager)
            manager.active.add(self)

    # -- outcome ---------------------------------------------------------------

    def commit(self) -> None:
        """Apply deferred effects, release locks, finalise.

        The caller (the commit coordinator) is responsible for having
        verified that every participant can commit; this method is the
        atomic state flip.
        """
        self.require_active()
        self.state = TxState.COMMITTED
        for fn in self._on_commit:
            fn()
        self._release_all()

    def abort(self) -> None:
        """Undo applied effects in reverse order, release locks, finalise.

        Idempotent: aborting a finished transaction is a no-op so crash
        handlers and drivers may race benignly.
        """
        if self.state is not TxState.ACTIVE:
            return
        self.state = TxState.ABORTED
        for fn in reversed(self._undo):
            fn()
        self._release_all()

    def _release_all(self) -> None:
        for manager, item in self._locks:
            manager.release(item, self)
        self._locks.clear()
        for manager in self._managers:
            manager.active.discard(self)
        self._managers.clear()
        self._undo.clear()
        self._on_commit.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tx {self.txid} {self.kind} {self.state.value}>"


class TransactionManager:
    """Per-node transaction registry.

    Tracks active transactions touching the node so that a crash can
    abort them, and hands out new transactions with the node as home.
    """

    def __init__(self, node: str):
        self.node = node
        self.active: set[Transaction] = set()
        self.begun = 0
        self.committed = 0
        self.aborted = 0

    def begin(self, kind: str) -> Transaction:
        """Start a new transaction homed at this node."""
        tx = Transaction(kind, self.node)
        tx.enlist(self)
        self.begun += 1
        return tx

    def abort_all(self, reason: str = "node crash") -> int:
        """Abort every active transaction touching this node.

        Called by the node's crash handler.  Returns the number aborted.
        """
        victims = list(self.active)
        for tx in victims:
            tx.abort()
            self.aborted += 1
        return len(victims)

    def note_commit(self) -> None:
        self.committed += 1

    def note_abort(self) -> None:
        self.aborted += 1
