"""Shared fixtures: isolate process-global state so test order is moot.

Several subsystems hand out ids from module-level counters (queue
items, fault-tolerance work units, savepoints).  Without a reset
between tests, outcomes could depend on how many tests ran before —
ids embedded in pickled entries would change sizes.

The process-global compensation registry is deliberately left alone:
modules register their operations once, at import, and those
registrations must outlive whichever test first imported the module.
Tests that register operations of their own use a private
:class:`~repro.compensation.registry.CompensationRegistry`.
"""

from __future__ import annotations

import pytest

from repro.agent import packages
from repro.log import entries
from repro.storage import queues, serialization


@pytest.fixture(autouse=True)
def _reset_process_globals():
    """Reset the global id counters and serialization stats."""
    packages.reset_work_ids()
    queues.reset_item_ids()
    entries.reset_savepoint_ids()
    serialization.reset_stats()
