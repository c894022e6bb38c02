"""Unit tests: the incremental serialization subsystem.

Covers the three legs of the subsystem:

* the structural :func:`snapshot` fast path must be observably
  equivalent to the pickle round trip it replaces (nested, aliased,
  self-referential and custom-class state);
* the O(1) log size accounting must stay exact across every mutation
  (append/pop/truncate/discard, their transactional undos, and the
  transition-mode diff compose that mutates an entry in place);
* the framed agent package must round-trip identically, reuse entry
  blobs across packs, and preserve the abort-undo state boundary.
"""

from __future__ import annotations

import pytest

from repro.agent.packages import AgentPackage, PackageKind
from repro.compensation.registry import CompensationRegistry
from repro.errors import LogCorrupt, UsageError
from repro.log.entries import (
    BeginOfStepEntry,
    EndOfStepEntry,
    OperationEntry,
    OperationKind,
    SavepointEntry,
)
from repro.log.modes import LoggingMode, SRODiff, sro_diff
from repro.log.rollback_log import RollbackLog
from repro.scope import Scope, entered
from repro.storage.serialization import capture, restore, snapshot
from repro.tx.manager import Transaction

from tests.helpers import LinearAgent


# -- snapshot fast path vs pickle round trip ---------------------------------

class CustomState:
    """A class the structural copier cannot handle."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, CustomState) and other.value == self.value


def pickle_round_trip(obj):
    return restore(capture(obj))


@pytest.mark.parametrize("state", [
    {"a": [1, 2, {"b": (3, 4)}], "c": {"nested": [5.5, "s", b"bytes"]}},
    [[1], [2], [[3], {4}]],
    {"sets": {frozenset({1, 2}), (9,)}, "arr": bytearray(b"xyz")},
    (), {}, [], "scalar", 17, None,
])
def test_snapshot_matches_pickle_round_trip(state):
    assert snapshot(state) == pickle_round_trip(state)


def test_snapshot_is_deep_and_reference_free():
    state = {"inner": [1, {"k": [2]}]}
    copy = snapshot(state)
    copy["inner"][1]["k"].append(3)
    assert state["inner"][1]["k"] == [2]


def test_snapshot_preserves_internal_aliasing():
    shared = [1, 2]
    state = {"x": shared, "y": shared, "z": [shared]}
    copy = snapshot(state)
    assert copy == state
    assert copy["x"] is copy["y"]
    assert copy["z"][0] is copy["x"]
    assert copy["x"] is not shared
    # Pickle gives the same sharing structure.
    via_pickle = pickle_round_trip(state)
    assert via_pickle["x"] is via_pickle["y"]


def test_snapshot_handles_self_reference():
    state = {"name": "loop"}
    state["me"] = state
    copy = snapshot(state)
    assert copy["me"] is copy
    assert copy is not state


def test_snapshot_falls_back_to_pickle_for_custom_classes():
    state = {"custom": CustomState([1, 2]), "plain": [3]}
    with entered(Scope()) as scope:
        copy = snapshot(state)
    assert copy == pickle_round_trip(state)
    assert copy["custom"] is not state["custom"]
    assert copy["custom"].value == [1, 2]
    assert scope.stats["snapshot_pickle"] == 1
    assert scope.stats["snapshot_fast"] == 0


def test_snapshot_fast_path_is_counted():
    with entered(Scope()) as scope:
        snapshot({"plain": [1, (2, 3)]})
    assert scope.stats["snapshot_fast"] == 1
    assert scope.stats["snapshot_pickle"] == 0


# -- entry blob cache --------------------------------------------------------

def sp(sp_id, payload=None, mode="state", virtual=False):
    return SavepointEntry(sp_id=sp_id, mode=mode, payload=payload,
                          virtual=virtual)


def test_entry_blob_cache_does_not_travel():
    entry = sp("s1", payload={"k": b"v" * 100})
    bare = capture(entry)
    entry.blob()  # populate the cache
    assert capture(entry) == bare  # cache excluded from the pickle
    clone = restore(bare)
    assert clone.__dict__.get("_blob") is None


def test_entry_blob_cache_reused_and_invalidated():
    entry = sp("s1", payload={"k": 1})
    with entered(Scope()) as scope:
        first = entry.blob()
        assert entry.blob() is first
    assert scope.stats["entry_blob_serialized"] == 1
    assert scope.stats["entry_blob_reused"] == 1
    entry.payload = {"k": 2}
    entry.invalidate_blob()
    second = entry.blob()
    assert second != first
    assert restore(second).payload == {"k": 2}


# -- O(1) size accounting ----------------------------------------------------

def actual_payload_bytes(log: RollbackLog) -> int:
    return sum(len(capture(entry)) for entry in log.entries())


def assert_accounting_exact(log: RollbackLog) -> None:
    assert log._payload_bytes == actual_payload_bytes(log)


def build_step(log, node, index, n_ops=2, tx=None):
    log.append(BeginOfStepEntry(node=node, step_index=index), tx)
    for i in range(n_ops):
        log.append(OperationEntry(op_kind=OperationKind.AGENT,
                                  op_name="t.mark",
                                  params={"tag": f"{index}.{i}"}), tx)
    log.append(EndOfStepEntry(node=node, step_index=index), tx)


def test_size_accounting_across_append_pop_truncate():
    log = RollbackLog()
    empty = log.size_bytes()
    log.append(sp("s0", payload={"ballast": b"x" * 2_000}))
    build_step(log, "n0", 0)
    assert log.size_bytes() > empty + 2_000
    assert_accounting_exact(log)

    log.pop()
    log.pop()
    assert_accounting_exact(log)

    log.truncate()
    assert len(log) == 0
    assert log.size_bytes() == empty
    assert_accounting_exact(log)


def test_size_accounting_survives_tx_aborts():
    log = RollbackLog()
    log.append(sp("s0", payload={"base": 1}))
    before = log.size_bytes()

    tx = Transaction("step", "n0")
    build_step(log, "n0", 0, tx=tx)
    log.pop(tx)
    log.truncate(tx)
    log.append(sp("s1", payload={"late": b"y" * 500}), tx)
    tx.abort()

    assert [e.kind.value for e in log.entries()] == ["SP"]
    assert log.size_bytes() == before
    assert_accounting_exact(log)
    log.validate()  # includes the accounting consistency check


def test_size_accounting_across_discard_savepoint_state_mode():
    log = RollbackLog()
    log.append(sp("s0", payload={"v": 0}))
    build_step(log, "n0", 0)
    log.append(sp("s1", payload={"v": 1}))
    assert log.discard_savepoint("s1")
    assert_accounting_exact(log)


def transition_log(states):
    log = RollbackLog(LoggingMode.TRANSITION)
    previous = None
    for i, state in enumerate(states):
        if previous is None:
            payload = snapshot(state)
        else:
            payload = sro_diff(previous, state)
        log.append(sp(f"sp-{i}", payload=payload, mode="transition"))
        previous = state
    return log


def test_size_accounting_across_transition_diff_compose():
    states = [{"k": 0, "ballast": b"a" * 300},
              {"k": 1, "ballast": b"a" * 300},
              {"k": 2, "ballast": b"a" * 300, "extra": "e"}]
    log = transition_log(states)
    assert_accounting_exact(log)

    # Discarding the middle savepoint composes its diff into sp-2 — an
    # in-place payload mutation that must re-account sp-2's blob.
    assert log.discard_savepoint("sp-1")
    assert_accounting_exact(log)
    assert log.reconstruct_sro("sp-2") == states[2]
    log.validate()

    # Discarding the base image promotes sp-2's diff to a full image.
    assert log.discard_savepoint("sp-0")
    assert_accounting_exact(log)
    assert log.reconstruct_sro("sp-2") == states[2]


def test_size_accounting_discard_compose_survives_abort():
    states = [{"k": 0}, {"k": 1}, {"k": 2}]
    log = transition_log(states)
    before = log.size_bytes()
    payload_before = log.entries()[2].payload

    tx = Transaction("step", "n0")
    assert log.discard_savepoint("sp-1", tx)
    tx.abort()

    assert log.has_savepoint("sp-1")
    assert log.size_bytes() == before
    assert_accounting_exact(log)
    restored = log.entries()[2].payload
    assert isinstance(restored, SRODiff)
    assert restored.changed == payload_before.changed
    assert log.reconstruct_sro("sp-2") == states[2]


def test_wholesale_log_pickle_drops_frame_cache_and_round_trips():
    log = RollbackLog()
    log.append(sp("s0", payload={"ballast": b"x" * 1_000}))
    build_step(log, "n0", 0)
    # The wholesale pickle must describe the log once: entries only,
    # no cached frames riding along.
    bare = RollbackLog()
    bare.mode = log.mode
    bare._entries = log.entries()
    assert len(capture(log)) <= len(capture(bare._entries)) + 200

    clone = restore(capture(log))
    assert [e.kind for e in clone.entries()] == \
        [e.kind for e in log.entries()]
    assert clone.size_bytes() == log.size_bytes()
    assert_accounting_exact(clone)
    clone.validate()


def test_validate_detects_accounting_drift():
    log = RollbackLog()
    log.append(sp("s0", payload={"v": 0}))
    log._payload_bytes += 1  # simulate a bug
    with pytest.raises(LogCorrupt, match="size accounting drift"):
        log.validate()


# -- framed package round trip -----------------------------------------------

def make_agent(agent_id="inc-1"):
    agent = LinearAgent(agent_id, ["n0"])
    agent.sro["data"] = {"nested": [1, 2, 3]}
    agent.wro["purse"] = 5
    return agent


def test_pack_unpack_round_trip_with_framing():
    agent = make_agent()
    log = RollbackLog()
    log.append(sp("s0", payload={"v": 0}))
    build_step(log, "n0", 0)
    package = AgentPackage.pack(PackageKind.STEP, agent, log, step_index=1)

    restored_agent, restored_log = package.unpack()
    assert restored_agent.agent_id == agent.agent_id
    assert restored_agent.sro == agent.sro
    assert restored_log.mode is log.mode
    assert [e.kind for e in restored_log.entries()] == \
        [e.kind for e in log.entries()]
    assert restored_log.size_bytes() == log.size_bytes()
    restored_log.validate()


def test_pack_reuses_cached_entry_blobs_incrementally():
    agent = make_agent()
    log = RollbackLog()
    log.append(sp("s0", payload={"v": 0}))
    build_step(log, "n0", 0)
    first = AgentPackage.pack(PackageKind.STEP, agent, log, step_index=1)

    with entered(Scope()) as scope:
        build_step(log, "n1", 1)  # one more hop: 4 new entries
        second = AgentPackage.pack(PackageKind.STEP, agent, log,
                                   step_index=2)
    assert scope.stats["entry_blob_serialized"] == 4  # only the new ones
    # The old frames are reused byte-for-byte.
    assert second.log_blobs[:len(first.log_blobs)] == first.log_blobs


def test_unpack_seeds_blob_caches_for_the_next_pack():
    agent = make_agent()
    log = RollbackLog()
    build_step(log, "n0", 0)
    package = AgentPackage.pack(PackageKind.STEP, agent, log, step_index=1)

    restored_agent, restored_log = package.unpack()
    with entered(Scope()) as scope:
        repacked = AgentPackage.pack(PackageKind.STEP, restored_agent,
                                     restored_log, step_index=1)
    assert scope.stats["entry_blob_serialized"] == 0
    assert repacked.log_blobs == package.log_blobs
    assert repacked.size_bytes == package.size_bytes


def test_unpack_preserves_abort_undo_state_boundary():
    agent = make_agent()
    log = RollbackLog()
    log.append(sp("s0", payload={"v": [1]}))
    package = AgentPackage.pack(PackageKind.STEP, agent, log, step_index=0)

    copy_agent, copy_log = package.unpack()
    copy_agent.sro["data"]["nested"].append(99)
    copy_log.entries()[0].payload["v"].append(99)
    copy_log.pop()

    fresh_agent, fresh_log = package.unpack()
    assert fresh_agent.sro["data"]["nested"] == [1, 2, 3]
    assert fresh_log.entries()[0].payload == {"v": [1]}
    assert len(fresh_log) == 1


def test_package_size_is_the_framed_payload_size():
    agent = make_agent()
    log = RollbackLog()
    log.append(sp("s0", payload={"ballast": b"z" * 3_000}))
    package = AgentPackage.pack(PackageKind.STEP, agent, log, step_index=0)
    assert package.size_bytes >= len(package.blob) \
        + sum(len(b) for b in package.log_blobs)
    assert package.size_bytes < len(package.blob) \
        + sum(len(b) for b in package.log_blobs) + 100


# -- registry idempotence ----------------------------------------------------

DOUBLE_IMPORT_SOURCE = """
def my_comp(wro, params, ctx):
    return None
"""


def test_registry_idempotent_for_identical_function():
    registry = CompensationRegistry()
    ns1, ns2 = {}, {}
    code = compile(DOUBLE_IMPORT_SOURCE, "fake_module.py", "exec")
    exec(code, ns1)
    exec(code, ns2)  # the same module imported a second time
    registry.register("t.same", OperationKind.AGENT, ns1["my_comp"])
    registry.register("t.same", OperationKind.AGENT, ns2["my_comp"])
    assert registry.resolve("t.same").fn is ns2["my_comp"]


def test_registry_still_rejects_conflicting_function():
    registry = CompensationRegistry()
    code_a = compile(DOUBLE_IMPORT_SOURCE, "module_a.py", "exec")
    code_b = compile(DOUBLE_IMPORT_SOURCE, "module_b.py", "exec")
    ns_a, ns_b = {}, {}
    exec(code_a, ns_a)
    exec(code_b, ns_b)
    registry.register("t.conflict", OperationKind.AGENT, ns_a["my_comp"])
    with pytest.raises(UsageError, match="already registered"):
        registry.register("t.conflict", OperationKind.AGENT, ns_b["my_comp"])
    with pytest.raises(UsageError, match="already registered"):
        # Same function, different kind: a conflict too.
        registry.register("t.conflict", OperationKind.RESOURCE,
                          ns_a["my_comp"])


def comp_factory(delta):
    def made_comp(wro, params, ctx):
        wro["x"] = wro.get("x", 0) + delta
    return made_comp


def test_registry_rejects_distinct_closures_from_same_def():
    # Factory-produced functions share the source location but close
    # over different state — never idempotent.
    registry = CompensationRegistry()
    registry.register("t.closure", OperationKind.AGENT, comp_factory(1))
    with pytest.raises(UsageError, match="already registered"):
        registry.register("t.closure", OperationKind.AGENT, comp_factory(2))


def test_registry_rejects_changed_defaults():
    code_v1 = compile("def my_comp(wro, params, ctx, delta=1): pass",
                      "fake_module.py", "exec")
    code_v2 = compile("def my_comp(wro, params, ctx, delta=2): pass",
                      "fake_module.py", "exec")
    ns1, ns2 = {}, {}
    exec(code_v1, ns1)
    exec(code_v2, ns2)
    registry = CompensationRegistry()
    registry.register("t.defaults", OperationKind.AGENT, ns1["my_comp"])
    with pytest.raises(UsageError, match="already registered"):
        registry.register("t.defaults", OperationKind.AGENT, ns2["my_comp"])
