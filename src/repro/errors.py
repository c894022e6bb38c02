"""Exception hierarchy for the repro package.

Exceptions fall into three families:

* **Control-flow signals** raised by agent step code to redirect the runtime
  (:class:`RollbackRequest`, :class:`StepAbortRequest`).  These are part of
  the public agent-programming API.
* **Transactional errors** raised by the transaction substrate
  (:class:`TransactionAborted`, :class:`LockConflict`, ...).  Agent code
  normally never sees these; the runtime translates them into step aborts
  and retries.
* **Usage errors** signalling misuse of the API (:class:`UsageError` and
  subclasses).  These indicate a bug in the embedding program and are never
  swallowed by the runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this package."""


# ---------------------------------------------------------------------------
# Control-flow signals (public agent API)
# ---------------------------------------------------------------------------

class RollbackRequest(ReproError):
    """Raised by agent code to initiate a partial rollback.

    Carries the identifier of the agent savepoint to which execution must
    be rolled back (paper, Section 4.3: ``rollback(spID)``).
    """

    def __init__(self, savepoint_id: str):
        super().__init__(f"rollback requested to savepoint {savepoint_id!r}")
        self.savepoint_id = savepoint_id


class StepAbortRequest(ReproError):
    """Raised by agent code to abort and restart the current step transaction.

    This is the paper's forward-recovery primitive inherited from the
    exactly-once protocols: the step transaction aborts, all its effects
    are undone by the transaction management, and the step is re-executed
    from the (unchanged) agent state in the input queue.
    """


# ---------------------------------------------------------------------------
# Transactional errors
# ---------------------------------------------------------------------------

class TransactionError(ReproError):
    """Base class for transaction-substrate failures."""


class TransactionAborted(TransactionError):
    """The enclosing transaction aborted; all staged effects were undone."""


class LockConflict(TransactionError):
    """A lock request conflicted with a lock held by another transaction."""

    def __init__(self, item: object, holder: object):
        super().__init__(f"lock conflict on {item!r} held by tx {holder!r}")
        self.item = item
        self.holder = holder


class NodeDown(TransactionError):
    """An operation addressed a node that is currently crashed."""

    def __init__(self, node_id: str):
        super().__init__(f"node {node_id!r} is down")
        self.node_id = node_id


class CompensationFailed(TransactionError):
    """A compensating operation could not be carried out.

    Paper, Section 3.2: e.g. withdrawing the compensation amount from a
    non-overdraftable account that no longer holds enough money.  The
    enclosing compensation transaction aborts and is retried; persistent
    failures surface to the rollback driver's failure policy.
    """


class NotCompensatable(ReproError):
    """An operation declared itself impossible to compensate.

    Paper, Section 3.2: once a step containing such an operation commits,
    the step can never be rolled back.  Attempting to roll over such a
    step raises this error.
    """


# ---------------------------------------------------------------------------
# Usage errors
# ---------------------------------------------------------------------------

class UsageError(ReproError):
    """The embedding program misused the public API."""


class UnknownCompensation(UsageError):
    """An operation entry referenced a compensation op not in the registry."""


class ItineraryError(UsageError):
    """Malformed itinerary (e.g. step entries directly in the main itinerary)."""


class RollbackLivelock(UsageError):
    """A saga rollback keeps restoring the agent to the same state.

    The saga baseline restores the weakly reversible objects from the
    savepoint image, which erases whatever signal the compensation left
    for the agent to stop rolling back; the agent then repeats the same
    rollback forever.  Raised on the third restore of one agent to one
    savepoint with an identical image.
    """


class WorkerError(ReproError):
    """A shard worker process reported a failure executing a command.

    An infrastructure-level error (not caller misuse, so deliberately
    *not* a UsageError): carries the remote traceback text so the
    coordinator-side error reads like the worker-side one.
    """

    def __init__(self, shard: int, remote_error: str,
                 remote_traceback: str = ""):
        detail = f"\n--- worker traceback ---\n{remote_traceback}" \
            if remote_traceback else ""
        super().__init__(
            f"shard {shard} worker failed: {remote_error}{detail}")
        self.shard = shard
        self.remote_error = remote_error


class WorkerDied(ReproError):
    """A shard worker process died (crash, SIGKILL, lost pipe).

    An infrastructure-level error (not caller misuse, so deliberately
    *not* a UsageError): the multiprocess driver surfaces a hard
    worker death as an explicit shard outage instead of hanging on a
    pipe that will never answer.
    """

    def __init__(self, shard: int, exitcode: object):
        super().__init__(
            f"shard {shard} worker process died (exitcode={exitcode}); "
            f"the shard is lost — treat as a permanent shard outage")
        self.shard = shard
        self.exitcode = exitcode


class LogCorrupt(ReproError):
    """The rollback log violated its structural invariants."""


class WorldKilled(ReproError):
    """Fault injection: the coordinator was hard-stopped mid-run.

    Raised by a run after :meth:`~repro.node.runtime.World.kill_world`
    fires — the simulated analogue of a real coordinator crash
    (SIGKILL, OOM, preemption).  Everything the world journal committed
    up to the kill survives; :func:`~repro.journal.resume_world` builds
    the continuation.
    """

    def __init__(self, barrier: float, phase: str):
        super().__init__(
            f"world killed at barrier {barrier} (phase={phase})")
        self.barrier = barrier
        self.phase = phase


class JournalError(ReproError):
    """Base class for world-journal failures."""


class JournalCorrupt(JournalError):
    """The journal is damaged before its last commit point.

    Damage that extends to the physical end of the journal (a torn
    write from the crash being recovered from) is *expected* and
    silently discarded; damage anywhere earlier means the journal
    cannot vouch for its own prefix and recovery must not proceed.
    """


class JournalDiverged(JournalError):
    """Replaying the journal did not reproduce the committed digest.

    The journaled inputs (config + setup ops) no longer re-execute to
    the state committed at the recovery frontier — e.g. the embedding
    program changed, or the journal was edited.  Resuming would
    silently fork history, so recovery refuses.
    """
