"""Tests: O(1) savepoint index and lazy log hydration.

Two ROADMAP items of the rollback log:

* savepoint queries (`has_savepoint` / `steps_to_rollback` /
  `reconstruct_sro` / `discard_savepoint` target lookup) run off an
  ``sp_id → position`` index maintained alongside the incremental frame
  list, instead of scanning the entries — including across pops,
  transactional undos, discards and truncates (``validate()`` now
  cross-checks the index, so these tests lean on it);
* ``AgentPackage.unpack()`` adopts the entry frames lazily and hydrates
  an entry only on first read, with the packed index riding along so
  savepoint queries on a fresh unpack hydrate nothing at all.
"""

import pytest

from repro.agent.packages import AgentPackage, PackageKind
from repro.errors import UsageError
from repro.log.entries import (
    BeginOfStepEntry,
    EndOfStepEntry,
    OperationEntry,
    OperationKind,
    SavepointEntry,
)
from repro.log.rollback_log import RollbackLog
from repro.scope import Scope, entered
from repro.storage.serialization import capture, restore
from repro.tx.manager import Transaction

from tests.helpers import LinearAgent


def sp(sp_id, payload=None, virtual=False):
    return SavepointEntry(sp_id=sp_id, mode="state",
                          payload=payload if payload is not None else {},
                          virtual=virtual)


def step(log, node, index, tx=None, n_ops=1):
    log.append(BeginOfStepEntry(node=node, step_index=index), tx)
    for i in range(n_ops):
        log.append(OperationEntry(op_kind=OperationKind.AGENT,
                                  op_name="t.mark",
                                  params={"tag": f"{index}.{i}"}), tx)
    log.append(EndOfStepEntry(node=node, step_index=index), tx)


def touring_log(n_steps=4, sp_every=2):
    log = RollbackLog()
    for i in range(n_steps):
        if i % sp_every == 0:
            log.append(sp(f"sp-{i}", payload={"pos": i}))
        step(log, f"n{i}", i)
    return log


# -- index correctness across mutations ----------------------------------------


def test_index_tracks_appends_and_steps_to_rollback():
    log = touring_log(6, sp_every=2)
    log.validate()  # includes index-vs-entries cross-check
    assert log.has_savepoint("sp-0")
    assert log.has_savepoint("sp-4")
    assert not log.has_savepoint("sp-5")
    assert log.steps_to_rollback("sp-0") == 6
    assert log.steps_to_rollback("sp-2") == 4
    assert log.steps_to_rollback("sp-4") == 2
    with pytest.raises(UsageError):
        log.steps_to_rollback("missing")


def test_index_tracks_pops_and_tx_undo():
    log = touring_log(4, sp_every=2)
    tx = Transaction("comp", "n3")
    # Pop step 3 entirely plus the sp-2 savepoint.
    for _ in range(3):
        log.pop(tx)
    assert log.steps_to_rollback("sp-2") == 1
    log.pop(tx)  # EOS of step 2
    log.pop(tx)  # OE
    log.pop(tx)  # BOS
    log.pop(tx)  # SP sp-2 itself
    assert not log.has_savepoint("sp-2")
    assert log.steps_to_rollback("sp-0") == 2
    log.validate()
    tx.abort()
    # The undos must restore index state exactly.
    assert log.has_savepoint("sp-2")
    assert log.steps_to_rollback("sp-2") == 2
    assert log.steps_to_rollback("sp-0") == 4
    log.validate()


def test_index_survives_discard_and_its_undo():
    log = touring_log(4, sp_every=2)
    assert log.discard_savepoint("sp-0")
    assert not log.has_savepoint("sp-0")
    assert log.has_savepoint("sp-2")
    assert log.steps_to_rollback("sp-2") == 2
    log.validate()

    tx = Transaction("step", "n0")
    assert log.discard_savepoint("sp-2", tx)
    assert not log.has_savepoint("sp-2")
    tx.abort()
    assert log.has_savepoint("sp-2")
    assert log.steps_to_rollback("sp-2") == 2
    log.validate()


def test_index_survives_truncate_and_its_undo():
    log = touring_log(4, sp_every=2)
    tx = Transaction("step", "n0")
    log.truncate(tx)
    assert not log.has_savepoint("sp-0")
    assert log.savepoint_ids() == []
    log.validate()
    tx.abort()
    assert log.savepoint_ids() == ["sp-0", "sp-2"]
    assert log.steps_to_rollback("sp-0") == 4
    log.validate()


def test_index_rebuilds_after_wholesale_pickle():
    log = touring_log(4, sp_every=2)
    clone = restore(capture(log))
    assert clone.savepoint_ids() == ["sp-0", "sp-2"]
    assert clone.steps_to_rollback("sp-2") == 2
    clone.validate()


def test_last_real_savepoint_id_skips_virtuals():
    log = RollbackLog()
    assert log.last_real_savepoint_id() is None
    log.append(sp("base", payload={"x": 1}))
    log.append(sp("virt", virtual=True, payload=None))
    assert log.last_real_savepoint_id() == "base"
    log.append(sp("later", payload={"x": 2}))
    assert log.last_real_savepoint_id() == "later"


def test_validate_detects_index_drift():
    log = touring_log(2)
    log._eos_count += 1  # simulate a maintenance bug
    with pytest.raises(Exception, match="savepoint index drift"):
        log.validate()


# -- lazy hydration -------------------------------------------------------------


def make_package(n_steps=4):
    agent = LinearAgent("lazy-1", ["n0"])
    log = touring_log(n_steps, sp_every=2)
    return AgentPackage.pack(PackageKind.STEP, agent, log,
                             step_index=n_steps)


def test_unpack_hydrates_nothing_eagerly():
    package = make_package()
    with entered(Scope()) as scope:
        _agent, log = package.unpack()
    assert scope.stats["entry_hydrated"] == 0
    assert scope.stats["entry_hydration_deferred"] == len(package.log_blobs)
    assert len(log) == len(package.log_blobs)
    assert log.size_bytes() > 0  # size accounting needs no hydration


def test_savepoint_queries_on_fresh_unpack_hydrate_nothing():
    package = make_package()
    _agent, log = package.unpack()
    with entered(Scope()) as scope:
        # The packed index answers these without touching a single frame.
        assert log.has_savepoint("sp-2")
        assert not log.has_savepoint("nope")
        assert log.steps_to_rollback("sp-0") == 4
        assert log.savepoint_ids() == ["sp-0", "sp-2"]
    assert scope.stats["entry_hydrated"] == 0


def test_append_and_repack_hydrate_nothing():
    package = make_package()
    agent, log = package.unpack()
    with entered(Scope()) as scope:
        step(log, "n9", 9)  # the next hop's entries
        repacked = AgentPackage.pack(PackageKind.STEP, agent, log,
                                     step_index=9)
    assert scope.stats["entry_hydrated"] == 0
    assert scope.stats["entry_blob_serialized"] == 3  # only the new ones
    assert repacked.log_blobs[:len(package.log_blobs)] == package.log_blobs


def test_rollback_tail_reads_hydrate_only_the_tail():
    package = make_package(n_steps=4)  # 14 entries, SPs at 0 and 7
    _agent, log = package.unpack()
    with entered(Scope()) as scope:
        # One compensation transaction's worth of tail reads: the last
        # step frame (EOS + 1 OE + BOS = 3 entries).
        assert log.blocking_non_compensatable("sp-2") is None
        for _ in range(3):
            log.pop()
    hydrated = scope.stats["entry_hydrated"]
    assert 0 < hydrated < len(package.log_blobs)


def test_hydrated_entries_match_eager_restore():
    package = make_package()
    _agent, lazy = package.unpack()
    eager = [restore(blob) for blob in package.log_blobs]
    assert [e.kind for e in lazy.entries()] == [e.kind for e in eager]
    assert lazy.reconstruct_sro("sp-2") == {"pos": 2}
    lazy.validate()


def test_lazy_unpack_preserves_state_boundary():
    package = make_package()
    _agent, log = package.unpack()
    first = log.entries()[0]
    first.payload["pos"] = 99
    # A fresh unpack rebuilds from the untouched frames.
    _agent2, fresh = package.unpack()
    assert fresh.entries()[0].payload == {"pos": 0}


def test_packed_index_round_trips_through_shadow_copies():
    package = make_package()
    shadow = package.as_kind(PackageKind.SHADOW, primary="n0")
    _agent, log = shadow.unpack()
    with entered(Scope()) as scope:
        assert log.has_savepoint("sp-2")
    assert scope.stats["entry_hydrated"] == 0
