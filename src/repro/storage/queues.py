"""Durable agent input queues.

Every node owns one agent input queue on stable storage (paper,
Section 2).  The exactly-once protocols keep the agent there between
steps; the rollback mechanism additionally parks "(spID, agent, LOG)"
packages there between compensation transactions (Sections 4.3, 4.4.1).

Queue operations are transactional:

* :meth:`AgentInputQueue.dequeue` removes the item immediately (so no
  other transaction can also pick it up) and registers an undo that puts
  it back at the *front* — after an abort the queue looks exactly as if
  the transaction never ran, which is what lets an aborted step or
  compensation simply be retried from the queue.
* :meth:`AgentInputQueue.enqueue` defers the append to commit time, so a
  package becomes visible on the destination node only when the
  distributed transaction that transferred it commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import UsageError
from repro.scope import current as current_scope
from repro.storage.serialization import size_of
from repro.tx.manager import Transaction


@dataclass
class QueueItem:
    """One durable queue entry."""

    payload: Any
    size_bytes: int
    item_id: int = field(default_factory=lambda: current_scope().mint("item"))
    attempts: int = 0


class AgentInputQueue:
    """Durable FIFO of agent packages on one node."""

    def __init__(self, node: str):
        self.node = node
        self._items: list[QueueItem] = []
        self.on_visible: Optional[Callable[[QueueItem], None]] = None
        self.enqueued_total = 0
        self.dequeued_total = 0

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> list[QueueItem]:
        """Snapshot of currently visible items, front first."""
        return list(self._items)

    def head(self) -> Optional[QueueItem]:
        """The front item, if any (not removed)."""
        return self._items[0] if self._items else None

    # -- transactional operations ----------------------------------------------

    def enqueue(self, payload: Any, size_bytes: Optional[int] = None,
                tx: Optional[Transaction] = None) -> QueueItem:
        """Append ``payload``; visible at commit (immediately if no tx).

        ``size_bytes`` defaults to the payload's own ``size_bytes``
        (agent packages know their framed size in O(1)); arbitrary
        payloads fall back to a fresh serialisation.
        """
        if size_bytes is None:
            size_bytes = getattr(payload, "size_bytes", None)
            if not isinstance(size_bytes, int):
                # e.g. objects exposing size_bytes() as a method
                size_bytes = size_of(payload)
        item = QueueItem(payload=payload, size_bytes=size_bytes)
        if tx is None:
            self._append(item)
        else:
            tx.require_active()
            tx.register_commit(lambda: self._append(item))
        return item

    def dequeue(self, tx: Transaction,
                item_id: Optional[int] = None) -> QueueItem:
        """Remove and return an item inside ``tx`` ("read and deleted").

        Without ``item_id`` the front item is taken.  An abort restores
        the item at the front with its attempt counter bumped.
        """
        tx.require_active()
        if not self._items:
            raise UsageError(f"{self.node}: input queue empty")
        if item_id is None:
            item = self._items.pop(0)
        else:
            index = self._index_of(item_id)
            item = self._items.pop(index)
        self.dequeued_total += 1

        def _undo() -> None:
            item.attempts += 1
            self._items.insert(0, item)
            if self.on_visible is not None:
                self.on_visible(item)

        tx.register_undo(_undo)
        return item

    def _index_of(self, item_id: int) -> int:
        for i, item in enumerate(self._items):
            if item.item_id == item_id:
                return i
        raise UsageError(f"{self.node}: no queue item {item_id}")

    def _append(self, item: QueueItem) -> None:
        self._items.append(item)
        self.enqueued_total += 1
        if self.on_visible is not None:
            self.on_visible(item)
