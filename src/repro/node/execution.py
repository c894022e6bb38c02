"""Shared transaction-driving helpers for protocol drivers.

Every step / compensation / rollback-start transaction follows the same
skeleton: begin at the dispatch event, run the body synchronously while
charging virtual time into ``tx.cost``, then schedule the commit event
``tx.cost`` later.  :func:`finalize` implements the tail: at the commit
event the transaction may already have been aborted by a crash handler
(the commit silently fails and the durable queues, restored by undo,
drive the retry), otherwise the commit coordinator decides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.agent.packages import Protocol
from repro.errors import LockConflict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agent.packages import AgentPackage
    from repro.node.node import Node
    from repro.tx.manager import Transaction


def finalize(node: "Node", tx: "Transaction",
             on_committed: Optional[Callable[[], None]] = None,
             on_failed: Optional[Callable[[], None]] = None,
             label: str = "commit") -> None:
    """Schedule the commit decision for ``tx`` at ``now + tx.cost``."""
    world = node.world
    tx.charge(world.timing.tx_commit_local)

    def _decide() -> None:
        if not tx.is_active():
            # Crash handler aborted us mid-window; queue undo already
            # re-triggered dispatch (or recovery rescan will).
            node.txm.note_abort()
            world.metrics.incr(f"tx.aborted.{tx.kind}")
            if on_failed is not None:
                on_failed()
            return
        if world.coordinator.try_commit(tx):
            node.txm.note_commit()
            world.metrics.incr(f"tx.committed.{tx.kind}")
            if on_committed is not None:
                on_committed()
        else:
            node.txm.note_abort()
            world.metrics.incr(f"tx.aborted.{tx.kind}")
            if on_failed is not None:
                on_failed()

    node.sim.schedule(tx.cost, _decide, label=f"{label}:{tx.txid}")


def abort_and_count(node: "Node", tx: "Transaction", reason: str) -> None:
    """Abort ``tx`` now and record why (body-time failures)."""
    tx.abort()
    node.txm.note_abort()
    node.world.metrics.incr(f"tx.aborted.{tx.kind}")
    node.world.metrics.incr(f"abort.{reason}")


def claim_work(node: "Node", tx: "Transaction",
               package: "AgentPackage") -> bool:
    """Claim a fault-tolerant package's unit of work inside ``tx``.

    Every transaction that takes an FT package out of a queue — step,
    rollback start, compensation — claims its ``work_id`` in the step
    ledger, so the package's shadows see the claim and discard
    themselves instead of promoting work already consumed.  Returns
    True when the caller may go on (claim staged, or a basic-protocol
    package); False when ``tx`` was settled here: aborted on a claim
    conflict (the queue-driven retry re-reads the settled ledger), or
    finalized as a stale discard when another node's claim committed.
    """
    if package.protocol is not Protocol.FAULT_TOLERANT:
        return True
    world = node.world
    try:
        outcome = world.ft.claim(tx, package.work_id, node.name)
    except LockConflict:
        # A concurrent claimant (primary vs promoted shadow, or two
        # promoted shadows in different shards) holds the claim key on
        # a shared ledger replica.
        abort_and_count(node, tx, "claim-conflict")
        return False
    if outcome == "stale":
        world.metrics.incr("ft.stale_discarded")
        finalize(node, tx, label="discard-stale")
        return False
    return True
