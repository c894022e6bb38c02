"""Message boards — the "active messaging" application area.

The paper's introduction lists active messaging among the
fault-sensitive application areas for mobile agents.  A
:class:`MessageBoard` is a transactional resource agents post messages
to (progress reports to the owner, coordination notes to sibling
agents).  Posting is compensable while the message is unread — the
compensating operation *retracts* it; once a reader consumed the
message, retraction fails (the information escaped), which is another
natural :class:`~repro.errors.CompensationFailed` source and a gentle
example of compensation windows closing over time.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import CompensationFailed
from repro.resources.base import TransactionalResource
from repro.scope import current as current_scope
from repro.tx.manager import Transaction


class MessageBoard(TransactionalResource):
    """Topic-organised durable message board.

    State items: ``("msg", message_id)`` → record, ``("topic", name)``
    → list of message ids (newest last), ``"posted"`` / ``"retracted"``
    counters.
    """

    def post(self, tx: Transaction, topic: str, body: Any,
             sender: str) -> str:
        """Post ``body`` under ``topic``; returns the message id.

        The id is the parameter a retraction needs — a pure resource
        compensation (no agent state required).
        """
        message_id = f"{self.name}-m{current_scope().mint('mailbox')}"
        self.write(tx, ("msg", message_id), {
            "topic": topic, "body": body, "sender": sender,
            "state": "unread",
        })
        ids = list(self.read(tx, ("topic", topic), ()))
        ids.append(message_id)
        self.write(tx, ("topic", topic), tuple(ids))
        self.write(tx, "posted", self.read(tx, "posted", 0) + 1)
        return message_id

    def read_topic(self, tx: Transaction, topic: str,
                   reader: Optional[str] = None) -> list[Any]:
        """Read (and mark consumed) all messages under ``topic``."""
        bodies = []
        for message_id in self.read(tx, ("topic", topic), ()):
            record = self.read(tx, ("msg", message_id))
            if record is None:
                continue
            if record["state"] == "unread":
                self.write(tx, ("msg", message_id),
                           dict(record, state="read", reader=reader))
            bodies.append(record["body"])
        return bodies

    def peek_topic(self, tx: Transaction, topic: str) -> list[Any]:
        """Read without consuming (no retraction window closes)."""
        bodies = []
        for message_id in self.read(tx, ("topic", topic), ()):
            record = self.read(tx, ("msg", message_id))
            if record is not None:
                bodies.append(record["body"])
        return bodies

    def retract(self, tx: Transaction, message_id: str) -> None:
        """Compensate a post: remove the message if still unread.

        Raises :class:`CompensationFailed` once a reader consumed it —
        retracting published-and-read information is impossible.
        """
        record = self.read(tx, ("msg", message_id))
        if record is None:
            raise CompensationFailed(
                f"{self.name}: message {message_id!r} unknown")
        if record["state"] != "unread":
            raise CompensationFailed(
                f"{self.name}: message {message_id!r} already read by "
                f"{record.get('reader')!r}")
        self.delete(tx, ("msg", message_id))
        ids = tuple(i for i in self.read(tx, ("topic", record["topic"]), ())
                    if i != message_id)
        self.write(tx, ("topic", record["topic"]), ids)
        self.write(tx, "retracted", self.read(tx, "retracted", 0) + 1)

    # -- auditing ---------------------------------------------------------------

    def message_count(self, topic: Optional[str] = None) -> int:
        """Messages currently on the board (not transactional)."""
        count = 0
        for key in self.keys():
            if isinstance(key, tuple) and key[0] == "msg":
                if topic is None or self.peek(key)["topic"] == topic:
                    count += 1
        return count
