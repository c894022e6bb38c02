"""Agent packages — what actually sits in a durable input queue.

A package is the serialised pair (agent, rollback log) plus routing and
protocol metadata.  For *step* packages the metadata says which step to
run; for *compensation* packages it carries the rollback target
savepoint and mode ("(spID, agent, LOG)" of Figures 4/5); *shadow*
packages are the fault-tolerant protocol's replicas, inert until
promoted.

Framing is **incremental**: instead of one monolithic
``pickle((agent, log))`` blob, a package holds the agent blob plus one
frame per log entry (``agent_blob + per-entry log blobs``).  Entries
cache their serialised form (:meth:`~repro.log.entries.LogEntry.blob`),
so packing an n-entry log after one more step re-pickles only the
entries that step appended — the rest are reused byte-for-byte from the
previous migration.  An n-step tour therefore does O(n) total entry
pickling instead of the O(n²) a monolithic re-pickle per hop costs.

The framing preserves the two properties the monolithic blob provided:

* **State boundary** — :meth:`AgentPackage.unpack` re-instantiates the
  agent (eagerly) and every log entry (lazily, on first read) from
  bytes, so a transaction that aborts after mutating the restored
  copies leaves the durable frames untouched (undo for free).
* **Honest sizes** — :attr:`AgentPackage.size_bytes` is the sum of the
  actual serialised frames plus fixed framing overhead (length
  prefixes) plus the packed savepoint index the package carries, i.e.
  exactly what a length-prefixed wire format would move.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.log.modes import LoggingMode
from repro.log.rollback_log import (
    FRAME_PREFIX_BYTES,
    LOG_HEADER_BYTES,
    RollbackLog,
    savepoint_index_bytes,
)
from repro.scope import current as current_scope
from repro.storage.serialization import capture, restore


class PackageKind(str, enum.Enum):
    """What the receiving node should do with the package."""

    STEP = "step"
    COMPENSATION = "compensation"
    SHADOW = "shadow"


class RollbackMode(str, enum.Enum):
    """Which rollback algorithm drives compensation packages."""

    BASIC = "basic"          # Figure 4
    OPTIMIZED = "optimized"  # Figure 5
    SAGA = "saga"            # baseline: restore full state image (ref [4])


class Protocol(str, enum.Enum):
    """Step-execution protocol family (ref [11])."""

    BASIC = "basic"
    FAULT_TOLERANT = "ft"


@dataclass
class AgentPackage:
    """One durable queue payload."""

    kind: PackageKind
    agent_id: str
    blob: bytes  # capture(agent)
    step_index: int
    log_blobs: tuple[bytes, ...] = ()  # one frame per log entry
    log_mode: str = LoggingMode.STATE.value
    # Packed savepoint index (sp_id -> position metadata + EOS total),
    # so the unpacked log answers savepoint queries in O(1) without
    # hydrating any entry frame.  None → rebuilt lazily on first query.
    log_index: Optional[tuple] = None
    # Total framed payload size; pack() fills it in O(1) from the log's
    # running size sum.  None → derived from the frames on demand.
    payload_bytes: Optional[int] = None
    sp_id: Optional[str] = None  # rollback target (compensation packages)
    mode: RollbackMode = RollbackMode.BASIC
    protocol: Protocol = Protocol.BASIC
    alternates: tuple[str, ...] = ()
    # Fault-tolerant protocol metadata (ref [11]):
    # ``work_id`` uniquely identifies one unit of work so primary and
    # promoted-shadow executions exclude each other through the step
    # ledger; ``primary`` names the node originally responsible;
    # ``promoted`` marks a shadow that took over.  ``primary_shard`` is
    # the placement of the primary in a sharded world — shadows carry
    # it so a cross-shard alternate knows which kernel's outage it is
    # watching for without a topology lookup (None when unsharded).
    work_id: int = field(default_factory=lambda: current_scope().mint("work"))
    primary: Optional[str] = None
    primary_shard: Optional[int] = None
    promoted: bool = False

    @classmethod
    def pack(cls, kind: PackageKind, agent: Any, log: RollbackLog,
             step_index: int, **meta: Any) -> "AgentPackage":
        """Capture ``agent`` and ``log`` into a package.

        The agent blob is always fresh (the agent mutates every step);
        the log frames come from the log's incrementally maintained
        frame list, so only entries never framed before are serialised.
        """
        blob = capture(agent)
        index_state = log.savepoint_index_state()
        return cls(kind=kind, agent_id=agent.agent_id,
                   blob=blob, step_index=step_index,
                   log_blobs=log.entry_blobs(), log_mode=log.mode.value,
                   log_index=index_state,
                   payload_bytes=(FRAME_PREFIX_BYTES + len(blob)
                                  + log.size_bytes()
                                  + savepoint_index_bytes(index_state)),
                   **meta)

    def unpack(self) -> tuple[Any, RollbackLog]:
        """Re-instantiate (agent, log) from the serialised frames.

        Hydration is lazy: only the agent blob is unpickled here.  The
        log adopts the entry frames (and the packed savepoint index)
        as-is and re-instantiates an entry the first time something
        reads it — rollback touches the tail, steps usually touch
        nothing, so a hop no longer pays O(log length) ``loads``.
        """
        agent = restore(self.blob)
        log = RollbackLog.from_blobs(self.log_mode, self.log_blobs,
                                     index_state=self.log_index)
        return agent, log

    @property
    def size_bytes(self) -> int:
        """Serialised payload size (the migration transfer cost).

        O(1) when packed via :meth:`pack`; otherwise summed from the
        already-serialised frame lengths — either way no pickling
        happens here, unlike the monolithic blob this replaced.
        """
        if self.payload_bytes is not None:
            return self.payload_bytes
        return (FRAME_PREFIX_BYTES + len(self.blob) + LOG_HEADER_BYTES
                + sum(FRAME_PREFIX_BYTES + len(b) for b in self.log_blobs)
                + savepoint_index_bytes(self.log_index))

    def as_kind(self, kind: PackageKind, **meta: Any) -> "AgentPackage":
        """Copy with a different kind (shadow promotion etc.)."""
        return replace(self, kind=kind, **meta)
