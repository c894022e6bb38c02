"""Log entry types (paper, Section 4.2 and Figure 2).

Four entry families:

* :class:`SavepointEntry` (SP) — written when an agent savepoint is
  constituted; carries a unique identifier plus the information needed
  to restore the strongly reversible objects (a full image under state
  logging, a diff against the previous savepoint under transition
  logging).  A *virtual* savepoint carries no data and denotes the same
  agent state as the real savepoint immediately below it in the log
  (Section 4.4.2's "special savepoint entry ... without data").
* :class:`BeginOfStepEntry` (BOS) / :class:`EndOfStepEntry` (EOS) —
  frame one step; both carry the executing node.  The EOS additionally
  carries the step's mixed-compensation flag (optimized rollback reads
  just this entry to decide whether the agent must travel,
  Section 4.4.1) and alternate nodes able to run the compensation
  (fault-tolerant rollback, Section 4.3).
* :class:`OperationEntry` (OE) — one compensating operation: a code
  reference (registry name — the analogue of the serialized operation
  class the paper's platform would ship) plus its parameters, its kind
  (resource / agent / mixed) and, for resource access, the target node
  and resource name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.scope import current as current_scope
from repro.storage import serialization


class Recoverability:
    """Per-step recoverability annotation (DART-style levels).

    Plain strings rather than an enum: the value rides inside every
    serialised :class:`EndOfStepEntry`, and old log blobs written
    before the field existed must restore against the dataclass default
    (``"exact"``).

    * ``EXACT`` — compensation restores the pre-step state bit for bit
      (the default; e.g. a full refund).
    * ``SEMANTIC`` — compensation restores an *acceptable* state, not
      the original one (refund minus fees, un-reserve with penalty,
      compensate-by-notification).  Rollback may cross it; the residue
      is the price.
    * ``UNRECOVERABLE`` — the step's effects cannot be compensated at
      all (goods shipped).  Unlike the hard
      ``mark_non_compensatable()`` stop, the rollback driver *adjusts*:
      it ratchets the target up to the nearest savepoint above the
      unrecoverable step instead of failing the rollback.
    """

    EXACT = "exact"
    SEMANTIC = "semantic"
    UNRECOVERABLE = "unrecoverable"
    ALL = (EXACT, SEMANTIC, UNRECOVERABLE)


class EntryKind(enum.Enum):
    """Discriminator for log entries."""

    SAVEPOINT = "SP"
    BEGIN_OF_STEP = "BOS"
    OPERATION = "OE"
    END_OF_STEP = "EOS"


class OperationKind(enum.Enum):
    """The three operation-entry types of Section 4.4.1."""

    RESOURCE = "RCE"
    AGENT = "ACE"
    MIXED = "MCE"


@dataclass
class LogEntry:
    """Common base; concrete entries define :attr:`kind`.

    Every entry lazily caches its own serialised form (``_blob``): log
    entries are immutable once written — the single exception is the
    savepoint-diff compose performed by
    :meth:`~repro.log.rollback_log.RollbackLog.discard_savepoint`, which
    must call :meth:`invalidate_blob`.  The cache is what makes agent
    packaging incremental: an entry is pickled once when first packed
    (or appended to a size-tracking log) and the bytes are reused for
    every later migration, shadow copy and size query.  The cache never
    travels — :meth:`__getstate__` drops it, so ``capture(entry)`` is
    byte-stable regardless of cache state.
    """

    @property
    def kind(self) -> EntryKind:
        raise NotImplementedError

    def blob(self) -> bytes:
        """The serialised form of this entry, cached after first use."""
        cached = self.__dict__.get("_blob")
        if cached is not None:
            current_scope().stats["entry_blob_reused"] += 1
            return cached
        blob = serialization.capture(self)
        self.__dict__["_blob"] = blob
        current_scope().stats["entry_blob_serialized"] += 1
        return blob

    def blob_size(self) -> int:
        """Serialised size in bytes (cached alongside the blob)."""
        return len(self.blob())

    def seed_blob(self, blob: bytes) -> None:
        """Adopt ``blob`` as the cached serialised form (unpack path)."""
        self.__dict__["_blob"] = blob

    def invalidate_blob(self) -> None:
        """Drop the cached blob after an in-place payload mutation."""
        self.__dict__.pop("_blob", None)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_blob", None)
        return state


@dataclass
class SavepointEntry(LogEntry):
    """SP — savepoint identifier plus SRO restore information.

    ``wro_payload`` is only populated by the saga-style *baseline*
    mechanism (ref [4]), which snapshots the complete program state —
    including weakly reversible objects — into the savepoint.  The
    paper's mechanism never stores WRO images; the field exists so the
    baseline tests can demonstrate why image-restoring WROs is
    incorrect (Section 4.1).

    ``sro_hashes`` (transition logging, real savepoints) maps each SRO
    key to a content hash of its serialised value *at this savepoint*.
    The next savepoint diffs against these digests instead of
    reconstructing and re-serialising the previous SRO state; the
    hashes describe the state the savepoint denotes, so diff
    composition during discard never needs to touch them.  ``None`` on
    virtual savepoints, state-logging entries and logs written before
    the field existed (writers fall back to reconstruction).
    """

    sp_id: str
    mode: str  # LoggingMode value: "state" | "transition"
    payload: Any  # full SRO image (state) or diff vs previous SP (transition)
    virtual: bool = False
    wro_payload: Any = None
    sro_hashes: Optional[dict] = None

    @property
    def kind(self) -> EntryKind:
        return EntryKind.SAVEPOINT

    @staticmethod
    def fresh_id(prefix: str = "sp") -> str:
        """Generate a unique savepoint identifier."""
        return f"{prefix}-{current_scope().mint('savepoint')}"


@dataclass
class BeginOfStepEntry(LogEntry):
    """BOS — the step starts here; names the executing node."""

    node: str
    step_index: int

    @property
    def kind(self) -> EntryKind:
        return EntryKind.BEGIN_OF_STEP


@dataclass
class OperationEntry(LogEntry):
    """OE — one compensating operation with its parameters.

    ``op_name`` resolves against the compensation registry
    (:mod:`repro.compensation.registry`).  ``node`` / ``resource`` are
    set for RESOURCE and MIXED entries (where the resource lives);
    AGENT entries execute wherever the agent is.
    """

    op_kind: OperationKind
    op_name: str
    params: dict[str, Any] = field(default_factory=dict)
    node: Optional[str] = None
    resource: Optional[str] = None

    @property
    def kind(self) -> EntryKind:
        return EntryKind.OPERATION


@dataclass
class EndOfStepEntry(LogEntry):
    """EOS — the step ended; carries the optimization/FT metadata.

    ``recoverability`` is the step's :class:`Recoverability` level; the
    rollback driver reads it (newest first) to choose the partial-
    rollback point.
    """

    node: str
    step_index: int
    has_mixed: bool = False
    alternates: tuple[str, ...] = ()
    non_compensatable: bool = False
    recoverability: str = Recoverability.EXACT

    @property
    def kind(self) -> EntryKind:
        return EntryKind.END_OF_STEP
