"""Durable write-ahead world journal and crash-resumable coordinator.

See :mod:`repro.journal.journal` for the write side (config + ops +
one commit marker per epoch barrier), :mod:`repro.journal.backends`
for the storage backends (in-memory, CRC-framed append-only file) and
:mod:`repro.journal.resume` for recovery by deterministic replay.
"""

from repro.journal.backends import (
    FileJournal,
    JournalBackend,
    MemoryJournal,
)
from repro.journal.journal import RecoveredRun, WorldJournal
from repro.journal.resume import resume_world

__all__ = [
    "WorldJournal", "RecoveredRun", "resume_world", "JournalBackend",
    "MemoryJournal", "FileJournal",
]
